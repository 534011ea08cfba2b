//! The ablation and extension studies: design knobs swept one at a time
//! around the paper's Table III configuration.
//!
//! | subcommand | sweeps | default dataset |
//! |---|---|---|
//! | `ablation_bandwidth` | DRAM channel count and per-channel bandwidth | AP |
//! | `ablation_buffers` | DMB capacity, MSHR count, eviction policy, LSQ forwarding | AP |
//! | `ablation_tiling` | the hybrid tiling threshold (paper §IV-E fixes 20%) | AC |
//! | `ablation_dataflows` | all four Table I dataflow families + energy | every `--datasets` entry |
//!
//! The single-dataset sweeps run on the paper's peak-effect dataset for
//! their knob unless `--datasets` names another (then the first entry).

use hymm_bench::pool;
use hymm_bench::table::{mb, TextTable};
use hymm_bench::BenchArgs;
use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_core::energy::EnergyModel;
use hymm_core::stats::SimReport;
use hymm_gcn::{prepare_adjacency, run_inference, run_inference_prepared, GcnModel};
use hymm_graph::datasets::{Dataset, Workload};

/// A synthesised dataset and the two-layer model run on it.
struct Subject {
    workload: Workload,
    model: GcnModel,
}

impl Subject {
    fn new(dataset: Dataset, scale: Option<usize>) -> Subject {
        let workload = match scale {
            Some(n) => dataset.synthesize_scaled(n),
            None => dataset.synthesize(),
        };
        let spec = workload.spec;
        let model = GcnModel::two_layer(spec.feature_len, spec.layer_dim, spec.layer_dim, 42);
        Subject { workload, model }
    }

    fn simulate(&self, cfg: &AcceleratorConfig, dataflow: Dataflow) -> SimReport {
        let w = &self.workload;
        run_inference(cfg, dataflow, &w.adjacency, &w.features, &self.model)
            .expect("shapes consistent")
            .report
    }
}

/// The one dataset a single-dataset sweep runs on, synthesised: `peak`
/// when `--datasets` was left at its default (all seven), else the first
/// dataset named, with a warning when more were given.
fn single_subject(args: &BenchArgs, peak: Dataset) -> (Dataset, Subject) {
    let dataset = if args.datasets.len() == Dataset::ALL.len() {
        peak
    } else {
        if args.datasets.len() > 1 {
            eprintln!(
                "[ablation] multiple datasets given; using the first ({})",
                args.datasets[0].abbrev()
            );
        }
        args.datasets[0]
    };
    (dataset, Subject::new(dataset, args.scale))
}

/// Off-chip bandwidth sensitivity. The paper assumes a single 64 GB/s DRAM
/// channel (§IV); varying channel count and per-channel bandwidth shows
/// where each dataflow's bottleneck moves — the OP baseline is
/// traffic-bound and scales with bandwidth, HyMM is compute-bound much
/// earlier.
pub(crate) fn bandwidth(args: &BenchArgs) {
    let (dataset, subject) = single_subject(args, Dataset::AmazonPhoto);
    println!(
        "Bandwidth sweep on {} (1 GHz clock: 64 B/cycle = 64 GB/s)",
        dataset.name()
    );

    let settings = [(1usize, 32u64), (1, 64), (2, 64), (4, 64)];
    for (channels, bpc) in settings {
        hymm_bench::progress!("[ablation] {channels} x {bpc} B/cyc ...");
    }
    // One job per (bandwidth setting, dataflow); setting-major order lets
    // the rows below read each setting's three reports consecutively.
    let jobs: Vec<((usize, u64), Dataflow)> = settings
        .iter()
        .flat_map(|&s| Dataflow::ALL.into_iter().map(move |df| (s, df)))
        .collect();
    let reports = pool::map_indexed(args.worker_threads(), &jobs, |_, &((channels, bpc), df)| {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.dram_channels = channels;
        cfg.mem.dram_bytes_per_cycle = bpc;
        subject.simulate(&cfg, df)
    });

    let mut t = TextTable::new(vec![
        "channels x B/cyc",
        "GB/s",
        "OP cycles",
        "RWP cycles",
        "HyMM cycles",
        "HyMM util",
    ]);
    for ((channels, bpc), group) in settings.iter().zip(reports.chunks(Dataflow::ALL.len())) {
        let hy_util = Dataflow::ALL
            .into_iter()
            .zip(group)
            .find(|(df, _)| *df == Dataflow::Hybrid)
            .map(|(_, r)| r.alu_utilization())
            .unwrap_or(0.0);
        t.row(vec![
            format!("{channels} x {bpc}"),
            (*channels as u64 * bpc).to_string(),
            group[0].cycles.to_string(),
            group[1].cycles.to_string(),
            group[2].cycles.to_string(),
            format!("{:.1}%", hy_util * 100.0),
        ]);
    }
    println!("{}", t.render());
}

/// DMB capacity, MSHR count, eviction policy and LSQ forwarding — the
/// design choices DESIGN.md calls out — under the HyMM dataflow.
pub(crate) fn buffers(args: &BenchArgs) {
    let (dataset, subject) = single_subject(args, Dataset::AmazonPhoto);
    println!("Ablations on {} (HyMM dataflow)", dataset.name());

    // One job per swept setting, fanned out over the worker pool; rows are
    // rendered from the (input-ordered) results afterwards.
    let mut jobs: Vec<(&str, String, AcceleratorConfig)> = Vec::new();
    for kb in [64usize, 128, 256, 512] {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.dmb_bytes = kb * 1024;
        jobs.push(("DMB capacity", format!("{kb} KB"), cfg));
    }
    for mshr in [4usize, 16, 32, 64] {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.mshr_count = mshr;
        // Keep the (prefetch-off, timing-inert) cap under the swept pool so
        // the configuration validates at every grid point.
        cfg.mem.prefetch_mshr_cap = cfg.mem.prefetch_mshr_cap.min(mshr - 1);
        jobs.push(("MSHR count", mshr.to_string(), cfg));
    }
    for class in [true, false] {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.class_eviction = class;
        let label = if class {
            "class-ordered (paper)"
        } else {
            "plain LRU"
        };
        jobs.push(("eviction", label.to_string(), cfg));
    }
    for fwd in [true, false] {
        let cfg = AcceleratorConfig {
            lsq_forwarding: fwd,
            ..AcceleratorConfig::default()
        };
        jobs.push(("LSQ forwarding", fwd.to_string(), cfg));
    }

    for (knob, setting, _) in &jobs {
        hymm_bench::progress!("[ablation] {knob}: {setting} ...");
    }
    let reports = pool::map_indexed(args.worker_threads(), &jobs, |_, (_, _, cfg)| {
        subject.simulate(cfg, Dataflow::Hybrid)
    });

    let mut t = TextTable::new(vec!["knob", "setting", "cycles", "DMB hit", "DRAM (MB)"]);
    for ((knob, setting, _), r) in jobs.iter().zip(&reports) {
        t.row(vec![
            knob.to_string(),
            setting.clone(),
            r.cycles.to_string(),
            format!("{:.1}%", r.dmb_hit_rate() * 100.0),
            mb(r.dram_bytes()),
        ]);
    }
    println!("{}", t.render());
}

/// The hybrid tiling threshold under the HyMM dataflow.
pub(crate) fn tiling(args: &BenchArgs) {
    let (dataset, subject) = single_subject(args, Dataset::AmazonComputers);
    println!("Tiling-threshold sweep on {} (HyMM)", dataset.name());

    let percents = [0u32, 5, 10, 15, 20, 30, 50, 75, 100];
    for percent in percents {
        hymm_bench::progress!("[ablation] fraction {percent}% ...");
    }
    let reports = pool::map_indexed(args.worker_threads(), &percents, |_, &percent| {
        let cfg = AcceleratorConfig {
            tiling_fraction: percent as f64 / 100.0,
            ..AcceleratorConfig::default()
        };
        subject.simulate(&cfg, Dataflow::Hybrid)
    });

    let mut t = TextTable::new(vec!["fraction", "cycles", "ALU util", "DRAM (MB)"]);
    for (percent, r) in percents.iter().zip(&reports) {
        t.row(vec![
            format!("{percent}%"),
            r.cycles.to_string(),
            format!("{:.1}%", r.alu_utilization() * 100.0),
            mb(r.dram_bytes()),
        ]);
    }
    println!("{}", t.render());
    println!("(the paper selects 20%, clamped to what the DMB can hold)");
}

/// All four dataflow families of the paper's Table I (OP / CWP / RWP /
/// HyMM) on every `--datasets` entry, with the energy-model estimate.
pub(crate) fn dataflows(args: &BenchArgs) {
    let threads = args.worker_threads();
    let config = AcceleratorConfig::default();
    let energy = EnergyModel::default();

    for d in &args.datasets {
        hymm_bench::progress!("[ablation] {} ...", d.name());
    }
    // Synthesise and prepare each dataset once (normalised Â, CSR/CSC,
    // degree sort, tiling); its four dataflow jobs share the preparation.
    let prepared = pool::map_indexed(threads, &args.datasets, |_, &d| {
        let subject = Subject::new(d, args.scale);
        let prep = prepare_adjacency(&subject.workload.adjacency).expect("adjacency is square");
        (subject, prep)
    });

    // One job per (dataset, dataflow); the flat result vector is
    // dataset-major, so rows come out in the serial order.
    let jobs: Vec<(usize, Dataflow)> = (0..prepared.len())
        .flat_map(|i| Dataflow::EXTENDED.into_iter().map(move |df| (i, df)))
        .collect();
    let reports = pool::map_indexed(threads, &jobs, |_, &(i, df)| {
        let (subject, prep) = &prepared[i];
        let features = &subject.workload.features;
        run_inference_prepared(&config, df, prep, features, &subject.model, None)
            .expect("shapes consistent")
            .report
    });

    let mut t = TextTable::new(vec![
        "Dataset",
        "Dataflow",
        "cycles",
        "ALU util",
        "DRAM (MB)",
        "energy (uJ)",
    ]);
    for (&(i, df), r) in jobs.iter().zip(&reports) {
        let e = energy.estimate(r);
        t.row(vec![
            args.datasets[i].abbrev().to_string(),
            df.label().to_string(),
            r.cycles.to_string(),
            format!("{:.1}%", r.alu_utilization() * 100.0),
            mb(r.dram_bytes()),
            format!("{:.1}", e.total_uj()),
        ]);
    }
    println!("Extension: all four Table I dataflow families + energy estimate");
    println!("{}", t.render());
}
