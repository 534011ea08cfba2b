//! `hymm-sim` — command-line front end to the HyMM cycle-accurate simulator.
//!
//! ```text
//! cargo run --release --bin hymm-sim -- --dataset AP --dataflow hybrid --scale 4000
//! cargo run --release --bin hymm-sim -- --edge-list graph.txt --dataflow rwp
//! cargo run --release --bin hymm-sim -- --help
//! ```
//!
//! Runs a two-layer GCN inference on a synthetic Table II dataset (scaled or
//! full) or on a user-supplied edge-list/MatrixMarket graph, under any of
//! the four dataflow families, and prints the full report: cycles, ALU
//! utilisation, DMB hit rate, DRAM breakdown, phase timeline and energy
//! estimate.

use hymm::core::config::{AcceleratorConfig, Dataflow};
use hymm::core::energy::EnergyModel;
use hymm::gcn::{run_inference, GcnModel};
use hymm::graph::datasets::Dataset;
use hymm::graph::features::sparse_features;
use hymm::graph::io;
use hymm::sparse::Coo;
use hymm_mem::MatrixKind;
use std::process::exit;

const USAGE: &str = "\
hymm-sim: cycle-accurate HyMM accelerator simulation

usage: hymm-sim [options]

workload (choose one):
  --dataset <CR|AP|AC|CS|PH|FR|YP>   synthetic Table II dataset [default: CR]
  --edge-list <path>                 load a 0-based edge list (symmetrised)
  --matrix-market <path>             load a MatrixMarket .mtx adjacency

options:
  --scale <N>          cap the synthetic dataset at N nodes
  --dataflow <op|rwp|hymm|cwp>       dataflow to simulate [default: hymm]
  --feature-len <N>    feature length for loaded graphs [default: 128]
  --feature-sparsity <F>             zero fraction of X [default: 0.9]
  --hidden <N>         hidden layer dimension [default: 16]
  --dmb-kb <N>         dense matrix buffer capacity in KB [default: 256]
  --mshrs <N>          MSHR count [default: 32]
  --no-forwarding      disable LSQ store-to-load forwarding
  --tiling <F>         hybrid tiling fraction [default: 0.20]
  --seed <N>           workload seed [default: 42]
  -h, --help           print this text
";

/// Largest accepted `--feature-len`: 7.8x the widest Table II graph (8 415).
/// `sparse_features` sizes a column list by it and the first weight matrix
/// holds `feature_len x hidden` values.
const MAX_FEATURE_LEN: usize = 1 << 16;

/// Largest accepted `--hidden`: 64x the paper's 16. With `MAX_FEATURE_LEN`
/// the first weight matrix stays within 256 MiB.
const MAX_HIDDEN: usize = 1024;

struct Options {
    dataset: Dataset,
    edge_list: Option<String>,
    matrix_market: Option<String>,
    scale: Option<usize>,
    dataflow: Dataflow,
    feature_len: usize,
    feature_sparsity: f64,
    hidden: usize,
    config: AcceleratorConfig,
    seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dataset: Dataset::Cora,
            edge_list: None,
            matrix_market: None,
            scale: None,
            dataflow: Dataflow::Hybrid,
            feature_len: 128,
            feature_sparsity: 0.9,
            hidden: 16,
            config: AcceleratorConfig::default(),
            seed: 42,
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    exit(2)
}

fn parse_args() -> Options {
    let mut opt = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        let mut number = |flag: &str| -> usize {
            value(flag)
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad {flag}")))
        };
        match arg.as_str() {
            "--dataset" => {
                let v = value("--dataset");
                opt.dataset = Dataset::ALL
                    .into_iter()
                    .find(|d| d.abbrev().eq_ignore_ascii_case(&v))
                    .unwrap_or_else(|| fail(&format!("unknown dataset {v:?}")));
            }
            "--edge-list" => opt.edge_list = Some(value("--edge-list")),
            "--matrix-market" => opt.matrix_market = Some(value("--matrix-market")),
            "--scale" => {
                let n = number("--scale");
                if n < 2 {
                    fail("--scale needs at least 2 nodes");
                }
                opt.scale = Some(n);
            }
            "--dataflow" => {
                opt.dataflow = match value("--dataflow").to_ascii_lowercase().as_str() {
                    "op" | "outer" => Dataflow::Outer,
                    "rwp" | "row" => Dataflow::RowWise,
                    "hymm" | "hybrid" => Dataflow::Hybrid,
                    "cwp" | "column" => Dataflow::ColumnWise,
                    other => fail(&format!("unknown dataflow {other:?}")),
                }
            }
            "--feature-len" => {
                opt.feature_len = number("--feature-len");
                if !(1..=MAX_FEATURE_LEN).contains(&opt.feature_len) {
                    fail(&format!("--feature-len must be in 1..={MAX_FEATURE_LEN}"));
                }
            }
            "--feature-sparsity" => {
                let f: f64 = value("--feature-sparsity")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --feature-sparsity"));
                // `sparse_features`' domain: the fraction of zeros in X.
                if !(0.0..=1.0).contains(&f) {
                    fail(&format!("--feature-sparsity must be in [0, 1], got {f}"));
                }
                opt.feature_sparsity = f;
            }
            "--hidden" => {
                opt.hidden = number("--hidden");
                if !(1..=MAX_HIDDEN).contains(&opt.hidden) {
                    fail(&format!("--hidden must be in 1..={MAX_HIDDEN}"));
                }
            }
            "--dmb-kb" => {
                let kb = number("--dmb-kb");
                opt.config.mem.dmb_bytes = kb
                    .checked_mul(1024)
                    .unwrap_or_else(|| fail(&format!("--dmb-kb {kb} overflows")));
                checked(&opt.config, "--dmb-kb");
            }
            "--mshrs" => {
                let mshrs = number("--mshrs");
                opt.config.mem.mshr_count = mshrs;
                // A small --mshrs value must still leave a demand MSHR
                // below the (prefetch-off, timing-inert) speculative cap.
                opt.config.mem.prefetch_mshr_cap = AcceleratorConfig::default()
                    .mem
                    .prefetch_mshr_cap
                    .min(mshrs.saturating_sub(1));
                checked(&opt.config, "--mshrs");
            }
            "--no-forwarding" => opt.config.lsq_forwarding = false,
            "--tiling" => {
                opt.config.tiling_fraction = value("--tiling")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --tiling"));
                checked(&opt.config, "--tiling");
            }
            "--seed" => {
                opt.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed"))
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                exit(0)
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    opt
}

/// Refuses the command line when `flag`, just applied to `config`, put it
/// outside [`AcceleratorConfig::validate`]'s bounds. Every other knob is
/// still at its valid default or was checked when its own flag was read.
fn checked(config: &AcceleratorConfig, flag: &str) {
    if let Err(e) = config.validate() {
        fail(&format!("{flag}: {e}"));
    }
}

/// Opens and reads a graph file; a graph over the loader's node limit
/// refuses the command line (exit 2), any other failure exits 1.
fn load_graph(path: &str, read: fn(std::fs::File) -> Result<Coo, io::IoError>) -> Coo {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot open {path}: {e}");
        exit(1)
    });
    read(file).unwrap_or_else(|e| {
        if let io::IoError::TooManyNodes { .. } = e {
            fail(&format!("{path}: {e}"));
        }
        eprintln!("error: {e}");
        exit(1)
    })
}

fn load_workload(opt: &Options) -> (Coo, Coo, usize) {
    let adj = if let Some(path) = &opt.edge_list {
        load_graph(path, |file| io::read_edge_list(file, true))
    } else if let Some(path) = &opt.matrix_market {
        let adj = load_graph(path, io::read_matrix_market);
        if adj.rows() != adj.cols() {
            eprintln!("error: adjacency matrix must be square");
            exit(1)
        }
        adj
    } else {
        let w = match opt.scale {
            Some(n) => opt.dataset.synthesize_scaled(n),
            None => opt.dataset.synthesize(),
        };
        let f = w.spec.feature_len;
        return (w.adjacency, w.features, f);
    };
    let x = sparse_features(adj.rows(), opt.feature_len, opt.feature_sparsity, opt.seed);
    (adj, x, opt.feature_len)
}

fn main() {
    let opt = parse_args();
    let (adj, x, feature_len) = load_workload(&opt);

    let config = &opt.config;

    let model = GcnModel::two_layer(feature_len, opt.hidden, opt.hidden, opt.seed);
    eprintln!(
        "simulating {} dataflow on {} nodes / {} adjacency nnz ...",
        opt.dataflow.label(),
        adj.rows(),
        adj.nnz()
    );
    let outcome = run_inference(config, opt.dataflow, &adj, &x, &model).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    let r = &outcome.report;
    println!("dataflow            : {}", opt.dataflow.label());
    println!("cycles              : {}", r.cycles);
    println!("ALU utilisation     : {:.2}%", r.alu_utilization() * 100.0);
    println!("DMB hit rate        : {:.2}%", r.dmb_hit_rate() * 100.0);
    println!("LSQ forwards        : {}", r.lsq.forwards);
    println!("accumulator merges  : {}", r.accumulator_merges);
    println!("partial peak bytes  : {}", r.partials.peak_bytes);
    println!("DRAM traffic (MB)   : {:.3}", r.dram_bytes() as f64 / 1e6);
    for kind in MatrixKind::ALL {
        let t = r.dram.kind(kind);
        if t.total_bytes() > 0 {
            println!(
                "  {:<4}              : {:.3} MB ({} reads, {} writes)",
                kind.label(),
                t.total_bytes() as f64 / 1e6,
                t.reads,
                t.writes
            );
        }
    }
    println!("phases:");
    for p in &r.phases {
        println!(
            "  {:<28} {:>12} cycles  {:>10} nnz  hit {:>6.1}%",
            p.name,
            p.cycles(),
            p.nnz,
            p.dmb_hits.hit_rate() * 100.0
        );
    }
    let e = EnergyModel::default().estimate(r);
    println!(
        "energy estimate     : {:.1} uJ (PE {:.1}, buffers {:.1}, DRAM {:.1}, static {:.1})",
        e.total_uj(),
        e.pe_uj,
        e.buffer_uj,
        e.dram_uj,
        e.static_uj
    );
}
