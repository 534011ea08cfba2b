//! `trace_export`: a cycle-level Chrome-trace/Perfetto JSON for one
//! dataset.
//!
//! Runs the two-layer GCN inference with tracing enabled and writes one
//! trace document (open it at <https://ui.perfetto.dev> or in
//! `chrome://tracing`): each requested dataflow becomes one process whose
//! threads are the simulator's clock domains (phases, DMB ports, DRAM
//! channels, LSQ, SMQ streams), with MSHR-occupancy / miss-latency /
//! LSQ-depth histograms embedded under the `hymmHistograms` key.
//!
//! `--check` re-reads the written file through the dependency-free JSON
//! validator ([`trace_json::validate_chrome_trace`]) — the CI smoke step
//! runs with it on.

use crate::{fatal, Command};
use hymm_bench::trace_json;
use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_core::trace::TraceData;
use hymm_gcn::{run_inference, GcnModel};
use hymm_graph::datasets::Dataset;
use hymm_mem::PrefetchPolicy;

pub(crate) const FLAGS: &str = "[options]

Options:
  --dataset ABBR   dataset to synthesise (CR, AP, AC, CS, PH, FR, YP; default CR)
  --scale N        cap the dataset at N nodes, N >= 2 (default: paper-size)
  --dataflow MODE  op | rwp | cwp | hymm | all   (default all)
  --prefetch POL   off | next-line | smq-stream  (default off)
  --out PATH       output file (default TRACE.json)
  --check          validate the written JSON and fail on malformed output
  --help           show this help";

struct Options {
    dataset: Dataset,
    scale: Option<usize>,
    dataflows: Vec<Dataflow>,
    prefetch: PrefetchPolicy,
    out: String,
    check: bool,
}

fn parse(cmd: &Command, raw: Vec<String>) -> Options {
    let mut opts = Options {
        dataset: Dataset::Cora,
        scale: None,
        dataflows: Dataflow::EXTENDED.to_vec(),
        prefetch: PrefetchPolicy::Off,
        out: "TRACE.json".to_string(),
        check: false,
    };
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| cmd.fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--dataset" => {
                let abbr = value("--dataset");
                opts.dataset = Dataset::from_abbrev(abbr.trim())
                    .unwrap_or_else(|| cmd.fail(&format!("unknown dataset {abbr:?}")));
            }
            "--scale" => {
                let n = value("--scale");
                match n.parse() {
                    Ok(nodes) if nodes >= 2 => opts.scale = Some(nodes),
                    Ok(_) => cmd.fail(&"--scale must be at least 2"),
                    Err(_) => cmd.fail(&format!("bad --scale value {n:?}")),
                }
            }
            "--dataflow" => {
                opts.dataflows = match value("--dataflow").as_str() {
                    "op" | "outer" => vec![Dataflow::Outer],
                    "rwp" | "row" => vec![Dataflow::RowWise],
                    "cwp" | "column" => vec![Dataflow::ColumnWise],
                    "hymm" | "hybrid" => vec![Dataflow::Hybrid],
                    "all" => Dataflow::EXTENDED.to_vec(),
                    other => cmd.fail(&format!("unknown dataflow {other:?}")),
                };
            }
            "--prefetch" => {
                let v = value("--prefetch");
                opts.prefetch = PrefetchPolicy::parse(&v)
                    .unwrap_or_else(|| cmd.fail(&format!("unknown prefetch policy {v:?}")));
            }
            "--out" => opts.out = value("--out"),
            "--check" => opts.check = true,
            other => cmd.fail(&format!("unknown argument {other:?}")),
        }
    }
    opts
}

pub(crate) fn run(cmd: &Command, raw: Vec<String>) {
    let opts = parse(cmd, raw);
    let spec = match opts.scale {
        Some(n) => opts.dataset.spec().scaled(n),
        None => opts.dataset.spec(),
    };
    hymm_bench::progress!(
        "[trace_export] synthesising {} ({} nodes) ...",
        spec.dataset.name(),
        spec.nodes
    );
    let workload = spec.synthesize();
    let model = GcnModel::two_layer(spec.feature_len, spec.layer_dim, spec.layer_dim, 42);

    let mut config = AcceleratorConfig::default();
    config.mem.trace = true;
    config.mem.prefetch = opts.prefetch;

    let mut runs: Vec<(String, TraceData)> = Vec::new();
    for df in &opts.dataflows {
        hymm_bench::progress!("[trace_export] simulating {} ...", df.label());
        let outcome = run_inference(
            &config,
            *df,
            &workload.adjacency,
            &workload.features,
            &model,
        )
        .expect("inference succeeds");
        let report = outcome.report;
        let trace = report
            .trace
            .as_deref()
            .cloned()
            .expect("tracing was enabled, so the report carries a trace");
        let top = hymm_core::StallBreakdown::CLASSES
            .iter()
            .zip(report.stalls.as_array())
            .max_by_key(|(_, v)| *v)
            .map(|(name, v)| {
                format!(
                    "{name} {:.1}%",
                    100.0 * v as f64 / report.cycles.max(1) as f64
                )
            })
            .unwrap_or_default();
        hymm_bench::progress!(
            "[trace_export]   {}: {} cycles, {} events ({} dropped), top stall class: {top}",
            df.label(),
            report.cycles,
            trace.events.len(),
            trace.dropped
        );
        runs.push((df.label().to_string(), trace));
    }

    let borrowed: Vec<(String, &TraceData)> = runs.iter().map(|(l, t)| (l.clone(), t)).collect();
    let json = trace_json::chrome_trace(&borrowed);
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| fatal(&format!("cannot write {}: {e}", opts.out)));
    println!(
        "wrote {} ({} bytes, {} runs)",
        opts.out,
        json.len(),
        runs.len()
    );

    if opts.check {
        match trace_json::validate_chrome_trace(&json) {
            Ok(n) => println!("validated: {n} trace events, all with ph + ts"),
            Err(e) => {
                eprintln!("error: written trace failed validation: {e}");
                std::process::exit(1);
            }
        }
    }
}
