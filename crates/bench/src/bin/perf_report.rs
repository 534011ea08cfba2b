//! Host-performance report: suite wall-clock at `--threads 1` versus the
//! requested worker count, written to `BENCH_host.json`.
//!
//! ```text
//! cargo run --release -p hymm-bench --bin perf_report -- [--scale N] [--datasets CR,AP] [--threads N]
//! ```
//!
//! Both passes run [`REPS`] times and report the minimum — on a shared host
//! the minimum is the only statistic that converges to the true cost; means
//! and single shots absorb neighbour noise. Every repetition (and the
//! parallel pass) must produce identical simulation results; the report
//! records that check alongside the timings, so the JSON doubles as
//! evidence for the timing-invariance guarantee. Parallel speedup is
//! whatever the host actually delivers — on a single-core container it is
//! ~1.0 by physics, not by bug.
//!
//! Besides the wall-clock split per dataset, the report carries a
//! `sim_cycles_per_second` throughput metric (simulated cycles summed over
//! every run, divided by the serial wall-clock) so the perf trajectory
//! stays comparable across PRs even when the suite's composition changes.

use hymm_bench::{dse, pe_sweep, pool, run_dataset_with, run_suite, BenchArgs, DatasetResults};
use hymm_core::area::estimate_area;
use hymm_core::config::{AcceleratorConfig, Preset};
use hymm_core::stats::StallBreakdown;
use hymm_graph::datasets::Dataset;
use hymm_mem::PrefetchPolicy;
use std::io::Write;
use std::time::Instant;

/// Repetitions per pass; the minimum is reported.
const REPS: usize = 5;

/// Serial wall-clock of the reference configuration (`--scale 600`, all
/// seven datasets, `--threads 1`, minimum of 5) measured at the previous
/// commit on this host, kept as the "before" of the current optimisation
/// round. Re-baseline when regenerating `BENCH_host.json` after landing a
/// perf change.
const BASELINE_SERIAL_SECONDS: f64 = 0.296;

use hymm_bench::runner::results_match;

/// One serial pass over the datasets, timing each individually. Honours the
/// preset and prefetch options so serial and parallel passes simulate the
/// same configuration; audit stays off in both so the timings compare.
fn serial_pass(args: &BenchArgs) -> (Vec<DatasetResults>, Vec<f64>, f64) {
    let serial_args = BenchArgs {
        audit: false,
        ..args.clone()
    };
    let t0 = Instant::now();
    let mut per_dataset = Vec::with_capacity(args.datasets.len());
    let results = args
        .datasets
        .iter()
        .map(|&d| {
            let t = Instant::now();
            let r = run_dataset_with(d, &serial_args);
            per_dataset.push(t.elapsed().as_secs_f64());
            r
        })
        .collect();
    (results, per_dataset, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = BenchArgs::from_env();
    let threads = args.worker_threads();

    hymm_bench::progress!("[perf_report] serial pass (--threads 1, best of {REPS}) ...");
    let (serial_results, mut per_dataset_s, mut serial_s) = serial_pass(&args);
    for _ in 1..REPS {
        let (results, per, total) = serial_pass(&args);
        assert!(
            results_match(&serial_results, &results),
            "repeated serial runs diverged — the simulator is not deterministic"
        );
        if total < serial_s {
            serial_s = total;
            per_dataset_s = per;
        }
    }

    hymm_bench::progress!("[perf_report] parallel pass (--threads {threads}, best of {REPS}) ...");
    // Both passes run un-audited so the two timings stay comparable.
    let parallel_args = BenchArgs {
        threads,
        audit: false,
        ..args.clone()
    };
    let mut parallel_s = f64::MAX;
    let mut parallel_results = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let results = run_suite(&parallel_args);
        parallel_s = parallel_s.min(t0.elapsed().as_secs_f64());
        parallel_results = results;
    }

    let identical = results_match(&serial_results, &parallel_results);
    let parallel_speedup = serial_s / parallel_s.max(1e-9);

    let sim_cycles_total: u64 = serial_results
        .iter()
        .flat_map(|d| &d.runs)
        .map(|r| r.report.cycles)
        .sum();
    let sim_cycles_per_second = sim_cycles_total as f64 / serial_s.max(1e-9);

    // Stall-attribution totals per dataflow variant, summed over the suite's
    // datasets — tracks where the simulated machines spend their cycles so
    // perf work can target the dominant class.
    let stall_cycles: Vec<String> = ["OP", "RWP", "HyMM", "HyMM-noacc"]
        .iter()
        .map(|label| {
            let mut total = StallBreakdown::default();
            for d in &serial_results {
                let run = d
                    .run(label)
                    .unwrap_or_else(|e| hymm_bench::args::exit_fatal(&e));
                total.merge(&run.report.stalls);
            }
            let classes: Vec<String> = StallBreakdown::CLASSES
                .iter()
                .zip(total.as_array())
                .map(|(name, v)| format!("\"{name}\": {v}"))
                .collect();
            format!("\"{label}\": {{ {} }}", classes.join(", "))
        })
        .collect();

    // Prefetch before/after at a fixed reference point — OP on Cora at
    // --scale 300, data prefetcher off versus smq-stream — so the recorded
    // stall-share shift stays comparable across PRs regardless of the
    // requested suite configuration. Like the suite passes, each policy
    // runs [`REPS`] times with the minimum wall-clock reported (the cycle
    // counts and stall shares are deterministic and asserted so per rep).
    hymm_bench::progress!(
        "[perf_report] prefetch before/after (OP on CR --scale 300, best of {REPS}) ..."
    );
    let prefetch_impact: Vec<String> = [PrefetchPolicy::Off, PrefetchPolicy::SmqStream]
        .into_iter()
        .map(|policy| {
            let prefetch_args = BenchArgs {
                scale: Some(300),
                datasets: vec![Dataset::Cora],
                threads: 1,
                prefetch: Some(policy),
                ..BenchArgs::default()
            };
            let t0 = Instant::now();
            let mut results = run_suite(&prefetch_args);
            let mut seconds = t0.elapsed().as_secs_f64();
            for _ in 1..REPS {
                let t0 = Instant::now();
                let rerun = run_suite(&prefetch_args);
                seconds = seconds.min(t0.elapsed().as_secs_f64());
                assert!(
                    results_match(&results, &rerun),
                    "repeated prefetch-impact runs diverged — nondeterministic simulator"
                );
                results = rerun;
            }
            let report = &results[0]
                .run("OP")
                .unwrap_or_else(|e| hymm_bench::args::exit_fatal(&e))
                .report;
            let classes: Vec<String> = StallBreakdown::CLASSES
                .iter()
                .zip(report.stalls.as_array())
                .map(|(name, v)| format!("\"{name}\": {v}"))
                .collect();
            format!(
                "\"{}\": {{ \"cycles\": {}, \"seconds\": {seconds:.3}, \"dmb_miss_share\": {:.4}, \"stalls\": {{ {} }} }}",
                policy.label(),
                report.cycles,
                report.stalls.dmb_miss as f64 / report.cycles.max(1) as f64,
                classes.join(", ")
            )
        })
        .collect();
    let prefetch_impact = format!(
        "{{ \"dataset\": \"CR\", \"scale\": 300, \"dataflow\": \"OP\", {} }}",
        prefetch_impact.join(", ")
    );

    // Tuned-preset before/after at a fixed reference point — the paper's
    // three dataflows on CR+AP at --scale 300, Table III default versus
    // `--preset tuned` — recording the measured speedup the DSE's winning
    // configuration delivers, alongside its area cost. Cycle counts are
    // deterministic, so one pass per preset suffices.
    hymm_bench::progress!("[perf_report] tuned preset before/after (CR,AP --scale 300) ...");
    let mut preset_combined = Vec::new();
    let tuned_sections: Vec<String> = Preset::ALL
        .into_iter()
        .map(|preset| {
            let preset_args = BenchArgs {
                scale: Some(300),
                datasets: vec![Dataset::Cora, Dataset::AmazonPhoto],
                threads: 1,
                preset,
                ..BenchArgs::default()
            };
            let results = run_suite(&preset_args);
            let totals: Vec<(String, u64)> = ["OP", "RWP", "HyMM"]
                .iter()
                .map(|label| {
                    let cycles = results
                        .iter()
                        .map(|d| {
                            d.run(label)
                                .unwrap_or_else(|e| hymm_bench::args::exit_fatal(&e))
                                .report
                                .cycles
                        })
                        .sum();
                    (label.to_string(), cycles)
                })
                .collect();
            let (op_miss, op_cycles) = results.iter().fold((0u64, 0u64), |(m, c), d| {
                let r = &d
                    .run("OP")
                    .unwrap_or_else(|e| hymm_bench::args::exit_fatal(&e))
                    .report;
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
    let tuned_impact = format!(
        "{{ \"datasets\": [\"CR\", \"AP\"], \"scale\": 300, {}, \"tuned_speedup\": {:.4} }}",
        tuned_sections.join(", "),
        preset_combined[0] as f64 / preset_combined[1].max(1) as f64,
    );

    // A small reference DSE run (tiny space) so the explorer's Pareto
    // fronts and pruning counters land in the committed report; the full
    // default-space search is a manual `dse` invocation.
    hymm_bench::progress!("[perf_report] dse reference run (tiny space, CR --scale 300) ...");
    let dse_json = dse::run(&dse::DseArgs {
        scale: 300,
        screen_scale: 100,
        datasets: vec![Dataset::Cora],
        threads: 1,
        space: dse::SpaceKind::Tiny,
        ..dse::DseArgs::default()
    })
    .to_json();

    // PE sweep over the same suite configuration, with lane gating on so
    // the recorded table shows where the flexible VRF moves the mac-bound
    // wall (the 16x1 row is bit-identical to the default PE at the suite's
    // uniform layer width of 16; `pe_sweep`'s own binary asserts that).
    hymm_bench::progress!("[perf_report] PE sweep (lanes x latency, gated) ...");
    let pe_args = BenchArgs {
        audit: false,
        lane_gating: true,
        mac_pipeline: false,
        ..args.clone()
    };
    let pe_rows = pe_sweep::sweep(&pe_args).unwrap_or_else(|e| hymm_bench::args::exit_fatal(&e));
    let pe_sweep_json = pe_sweep::to_json(&pe_rows);

    // The committed baseline was measured on the reference configuration;
    // a before/after comparison on any other scale or dataset subset would
    // be meaningless, so it is reported as null there.
    let reference_config = args.scale == Some(600) && args.datasets.len() == 7;
    let (baseline, vs_baseline) = if reference_config {
        (
            format!("{BASELINE_SERIAL_SECONDS:.3}"),
            format!("{:.3}", BASELINE_SERIAL_SECONDS / serial_s.max(1e-9)),
        )
    } else {
        ("null".to_string(), "null".to_string())
    };

    let datasets: Vec<String> = args
        .datasets
        .iter()
        .map(|d| format!("\"{}\"", d.abbrev()))
        .collect();
    let per_dataset: Vec<String> = args
        .datasets
        .iter()
        .zip(&per_dataset_s)
        .map(|(d, s)| format!("\"{}\": {s:.3}", d.abbrev()))
        .collect();

    let json = format!(
        "{{\n  \"suite\": \"hymm-bench run_suite\",\n  \"scale\": {},\n  \"datasets\": [{}],\n  \"host_parallelism\": {},\n  \"reps\": {REPS},\n  \"serial_threads\": 1,\n  \"serial_seconds\": {serial_s:.3},\n  \"per_dataset_serial_seconds\": {{ {} }},\n  \"sim_cycles_total\": {sim_cycles_total},\n  \"sim_cycles_per_second\": {sim_cycles_per_second:.3e},\n  \"stall_cycles\": {{ {} }},\n  \"prefetch_impact\": {prefetch_impact},\n  \"tuned_preset\": {tuned_impact},\n  \"dse\": {dse_json},\n  \"pe_sweep\": {pe_sweep_json},\n  \"baseline_serial_seconds\": {baseline},\n  \"serial_speedup_vs_baseline\": {vs_baseline},\n  \"parallel_threads\": {threads},\n  \"parallel_seconds\": {parallel_s:.3},\n  \"parallel_speedup\": {parallel_speedup:.3},\n  \"identical_results\": {identical}\n}}\n",
        args.scale.map_or("null".to_string(), |n| n.to_string()),
        datasets.join(", "),
        pool::default_threads(),
        per_dataset.join(", "),
        stall_cycles.join(", "),
    );

    let path = "BENCH_host.json";
    // The `serve` section is produced by a separate tool (`loadgen
    // --bench-out`, which needs a live hymm-serve); regenerating the suite
    // numbers must not silently drop it, so an existing section is carried
    // over verbatim.
    let json = match std::fs::read_to_string(path)
        .ok()
        .and_then(|old| hymm_bench::json::parse_json(&old).ok())
        .and_then(|doc| doc.get("serve").map(hymm_bench::json::Json::render))
    {
        Some(serve) => json.replace(
            "  \"identical_results\":",
            &format!("  \"serve\": {serve},\n  \"identical_results\":"),
        ),
        None => json,
    };
    let mut f = std::fs::File::create(path).expect("create BENCH_host.json");
    f.write_all(json.as_bytes()).expect("write BENCH_host.json");
    println!("{json}");
    println!("wrote {path}");
    assert!(
        identical,
        "thread count changed simulation results — timing invariance violated"
    );
}
