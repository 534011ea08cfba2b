//! `cycle_report`: the deterministic cycle report of the reference suite,
//! written to `BENCH_cycles.json`.
//!
//! The report always describes the reference configuration (`--scale 600`,
//! all seven datasets, Table III preset); every suite-shaping flag is
//! rejected. It records simulated quantities only: suite cycle and stall
//! totals, prefetch on/off at a fixed point, the tuned preset against
//! Table III, a tiny-space DSE run and the gated PE sweep. Nothing in it
//! depends on the host, so a fresh run anywhere reproduces the committed
//! file byte for byte and CI diffs it exactly. Host time is measured by the
//! repo benchmark (`benchmark/README.md`), not here.
//!
//! The suite runs twice, untimed: at the worker count (`--threads N`,
//! default one per core) and at `--threads 1`. The two passes must produce
//! identical simulation results before the file is written.

use crate::{bench_args, fatal, Command};
use hymm_bench::runner::results_match;
use hymm_bench::{dse, pe_sweep, run_suite, BenchArgs, DatasetResults};
use hymm_core::area::estimate_area;
use hymm_core::config::{AcceleratorConfig, Preset};
use hymm_core::stats::StallBreakdown;
use hymm_graph::datasets::Dataset;
use hymm_mem::PrefetchPolicy;

const PATH: &str = "BENCH_cycles.json";

pub(crate) const FLAGS: &str = "[--threads N] [--quiet] [-v|--verbose]";

/// The reference suite at `threads` workers.
fn reference_suite(threads: usize) -> BenchArgs {
    BenchArgs {
        scale: Some(600),
        threads,
        ..BenchArgs::default()
    }
}

/// `{ "mac": n, "merge": n, ... }` over every stall class.
fn stall_classes(stalls: &StallBreakdown) -> String {
    let classes: Vec<String> = StallBreakdown::CLASSES
        .iter()
        .zip(stalls.as_array())
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    format!("{{ {} }}", classes.join(", "))
}

fn report_of<'a>(d: &'a DatasetResults, label: &str) -> &'a hymm_core::stats::SimReport {
    &d.run(label).unwrap_or_else(|e| fatal(&e)).report
}

/// Simulates `suite` and the fixed reference points and renders the
/// report. The suite and the PE sweep run at `suite.threads` workers; the
/// fixed reference points run serially.
fn build(suite: &BenchArgs) -> (Vec<DatasetResults>, String) {
    let results = run_suite(suite);
    let sim_cycles_total: u64 = results
        .iter()
        .flat_map(|d| &d.runs)
        .map(|r| r.report.cycles)
        .sum();

    // Stall-attribution totals per dataflow variant, summed over the suite's
    // datasets: where the simulated machines spend their cycles.
    let stall_cycles: Vec<String> = ["OP", "RWP", "HyMM", "HyMM-noacc"]
        .iter()
        .map(|label| {
            let mut total = StallBreakdown::default();
            for d in &results {
                total.merge(&report_of(d, label).stalls);
            }
            format!("\"{label}\": {}", stall_classes(&total))
        })
        .collect();

    // Prefetch before/after at a fixed reference point: OP on Cora at
    // --scale 300, data prefetcher off versus smq-stream.
    hymm_bench::progress!("[cycle_report] prefetch before/after (OP on CR --scale 300) ...");
    let prefetch_impact: Vec<String> = [PrefetchPolicy::Off, PrefetchPolicy::SmqStream]
        .into_iter()
        .map(|policy| {
            let results = run_suite(&BenchArgs {
                scale: Some(300),
                datasets: vec![Dataset::Cora],
                threads: 1,
                prefetch: Some(policy),
                ..BenchArgs::default()
            });
            let report = report_of(&results[0], "OP");
            format!(
                "\"{}\": {{ \"cycles\": {}, \"dmb_miss_share\": {:.4}, \"stalls\": {} }}",
                policy.label(),
                report.cycles,
                report.stalls.dmb_miss as f64 / report.cycles.max(1) as f64,
                stall_classes(&report.stalls)
            )
        })
        .collect();

    // Tuned preset before/after at a fixed reference point: the paper's
    // three dataflows on CR+AP at --scale 300, Table III default versus
    // `--preset tuned`, alongside each preset's area.
    hymm_bench::progress!("[cycle_report] tuned preset before/after (CR,AP --scale 300) ...");
    let mut preset_combined = Vec::new();
    let tuned_sections: Vec<String> = Preset::ALL
        .into_iter()
        .map(|preset| {
            let results = run_suite(&BenchArgs {
                scale: Some(300),
                datasets: vec![Dataset::Cora, Dataset::AmazonPhoto],
                threads: 1,
                preset,
                ..BenchArgs::default()
            });
            let totals: Vec<(&str, u64)> = ["OP", "RWP", "HyMM"]
                .into_iter()
                .map(|label| {
                    let cycles = results.iter().map(|d| report_of(d, label).cycles).sum();
                    (label, cycles)
                })
                .collect();
            let (op_miss, op_cycles) = results.iter().fold((0u64, 0u64), |(m, c), d| {
                let r = report_of(d, "OP");
                (m + r.stalls.dmb_miss, c + r.cycles)
            });
            let combined: u64 = totals.iter().map(|(_, c)| c).sum();
            preset_combined.push(combined);
            let mut config = AcceleratorConfig::default();
            preset.apply(&mut config);
            let cycles_json: Vec<String> = totals
                .iter()
                .map(|(label, c)| format!("\"{label}\": {c}"))
                .collect();
            format!(
                "\"{}\": {{ \"cycles\": {{ {} }}, \"combined_cycles\": {combined}, \
                 \"op_dmb_miss_share\": {:.4}, \"area_7nm\": {:.4} }}",
                preset.label(),
                cycles_json.join(", "),
                op_miss as f64 / op_cycles.max(1) as f64,
                estimate_area(&config).total_7nm(),
            )
        })
        .collect();

    // A small reference DSE run (tiny space) so the explorer's Pareto
    // fronts and pruning counters land in the report; the full
    // default-space search is a manual `dse` invocation.
    hymm_bench::progress!("[cycle_report] dse reference run (tiny space, CR --scale 300) ...");
    let dse_json = dse::run(&dse::DseArgs {
        scale: 300,
        screen_scale: 100,
        datasets: vec![Dataset::Cora],
        threads: 1,
        space: dse::SpaceKind::Tiny,
        ..dse::DseArgs::default()
    })
    .to_json();

    // PE sweep over the suite configuration with lane gating on, so the
    // table shows where the flexible VRF moves the mac-bound wall (the
    // 16x1 row is bit-identical to the default PE at the suite's uniform
    // layer width of 16; the `pe_sweep` subcommand asserts that).
    hymm_bench::progress!("[cycle_report] PE sweep (lanes x latency, gated) ...");
    let pe_rows = pe_sweep::sweep(&BenchArgs {
        lane_gating: true,
        ..suite.clone()
    })
    .unwrap_or_else(|e| fatal(&e));

    let datasets: Vec<String> = suite
        .datasets
        .iter()
        .map(|d| format!("\"{}\"", d.abbrev()))
        .collect();
    let json = format!(
        "{{\n  \"suite\": \"hymm-bench run_suite\",\n  \"scale\": {},\n  \"datasets\": [{}],\n  \
         \"sim_cycles_total\": {sim_cycles_total},\n  \"stall_cycles\": {{ {} }},\n  \
         \"prefetch_impact\": {{ \"dataset\": \"CR\", \"scale\": 300, \"dataflow\": \"OP\", {} }},\n  \
         \"tuned_preset\": {{ \"datasets\": [\"CR\", \"AP\"], \"scale\": 300, {}, \"tuned_speedup\": {:.4} }},\n  \
         \"dse\": {dse_json},\n  \"pe_sweep\": {}\n}}\n",
        suite.scale.map_or("null".to_string(), |n| n.to_string()),
        datasets.join(", "),
        stall_cycles.join(", "),
        prefetch_impact.join(", "),
        tuned_sections.join(", "),
        preset_combined[0] as f64 / preset_combined[1].max(1) as f64,
        pe_sweep::to_json(&pe_rows),
    );
    (results, json)
}

pub(crate) fn run(cmd: &Command, raw: Vec<String>) {
    let args = bench_args(cmd, raw);
    let accepted = BenchArgs {
        threads: args.threads,
        quiet: args.quiet,
        verbose: args.verbose,
        ..BenchArgs::default()
    };
    if args != accepted {
        cmd.fail(
            &"cycle_report always describes the reference configuration \
              (--scale 600, all seven datasets, Table III preset)",
        );
    }
    let threads = args.worker_threads();

    hymm_bench::progress!("[cycle_report] suite (--threads {threads}) ...");
    let (results, json) = build(&reference_suite(threads));
    hymm_bench::progress!("[cycle_report] suite (--threads 1) ...");
    assert!(
        results_match(&results, &run_suite(&reference_suite(1))),
        "thread count changed simulation results — timing invariance violated"
    );

    std::fs::write(PATH, &json).unwrap_or_else(|e| fatal(&e));
    print!("{json}");
    println!("wrote {PATH}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymm_bench::json::{parse_json, Json};

    /// Words that name a host-dependent quantity.
    const HOST_WORDS: [&str; 6] = [
        "seconds",
        "speedup",
        "baseline",
        "threads",
        "parallelism",
        "serve",
    ];

    /// Ratios of two simulated cycle counts that are both in the report.
    const CYCLE_RATIOS: [&str; 2] = ["tuned_preset.tuned_speedup", "dse.best.speedup"];

    /// Every key path in `doc`, dot-separated.
    fn key_paths(doc: &Json, prefix: &str, out: &mut Vec<String>) {
        match doc {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    let path = format!("{prefix}{k}");
                    key_paths(v, &format!("{path}."), out);
                    out.push(path);
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| key_paths(v, prefix, out)),
            _ => {}
        }
    }

    #[test]
    fn report_is_host_independent() {
        let small = |threads| BenchArgs {
            scale: Some(150),
            datasets: vec![Dataset::Cora],
            threads,
            ..BenchArgs::default()
        };
        let (_, one) = build(&small(1));
        let (_, two) = build(&small(2));
        assert_eq!(one, two, "the report depends on the worker count");

        let doc = parse_json(&one).expect("report is valid JSON");
        let mut paths = Vec::new();
        key_paths(&doc, "", &mut paths);
        for path in paths.iter().filter(|p| !CYCLE_RATIOS.contains(&p.as_str())) {
            let key = path.rsplit('.').next().unwrap_or(path);
            assert!(
                HOST_WORDS.iter().all(|word| !key.contains(word)),
                "host-dependent key {path:?} in the cycle report"
            );
        }
    }
}
