//! `BENCHMARK.json` at the repository root describes this benchmark; it
//! must name exactly the workloads and metrics the program reports.

use hymm_bench::json::{parse_json, Json};
use hymm_benchmark::metrics::{END_TO_END, PER_LAYER};
use hymm_benchmark::workloads::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

#[test]
fn workloads_match_the_program() {
    let doc = manifest();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn metrics_and_units_match_the_program() {
    let doc = manifest();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(listed, table, "{key}");
    }
}

#[test]
fn end_to_end_bounds_are_within_limits() {
    let doc = manifest();
    for m in entries(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: {bound}",
            field(m, "name")
        );
        assert_eq!(field(m, "better"), "lower");
    }
    let setup = entries(&doc, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is listed");
    assert_eq!(field(setup, "unit"), "s");
}
