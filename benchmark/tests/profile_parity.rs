//! The benchmark is a workspace of its own, so cargo builds it with its
//! own `[profile.release]`. If that drifted from the root manifest's, the
//! benchmark would silently measure differently compiled code.

use std::collections::BTreeMap;

/// `key = value` pairs of one `[section]` of a manifest, comments dropped.
fn section(manifest: &str, name: &str) -> BTreeMap<String, String> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let root = section(
        &read(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml")),
        "profile.release",
    );
    let ours = section(
        &read(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")),
        "profile.release",
    );
    assert_eq!(ours, root, "benchmark/Cargo.toml [profile.release] drifted");
    assert_eq!(ours.get("lto").map(String::as_str), Some("\"thin\""));
    assert_eq!(ours.get("codegen-units").map(String::as_str), Some("1"));
}

#[test]
fn section_reader_stops_at_the_next_table() {
    let manifest = "[a]\nx = 1\n# note\n\n[b]\ny = 2\n";
    let a = section(manifest, "a");
    assert_eq!(a.len(), 1);
    assert_eq!(a["x"], "1");
    assert!(section(manifest, "missing").is_empty());
}
