//! Batch simulation workloads: `paper-suite` and `dse-sweep`.

use super::{
    job_percentiles, latency_notes, median_layer_times, pass_notes, repeated_setup,
    simulate_seconds, sparse_rate, timed_passes, Options, SETUP_LAYERS, SIM_LAYERS,
};
use crate::metrics::{peak_rss_mb, MetricSet, Outcome, END_TO_END, PER_LAYER};
use crate::sim::{
    check_against_reference, check_matches_library, infer, prepare, tiling_key, Fnv, Graph,
    ModelCounts, Variant,
};
use crate::stats::median;
use crate::trace::Tracer;
use hymm_bench::dse::{generate, Space, SpaceKind};
use hymm_bench::pool;
use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_core::prepared::CombinationMemo;
use hymm_core::stats::{SimReport, StallBreakdown};
use hymm_graph::datasets::{Dataset, DatasetSpec};
use std::time::Instant;

/// Node cap of `paper-suite`: twice the rows the 256 KB DMB holds at layer
/// dimension 16, so every graph but Cora overflows the buffer.
const SUITE_CAP: usize = 8192;

/// Worker threads of `dse-sweep` (the host's core count).
const DSE_THREADS: usize = 2;

/// Node cap every graph gets in tiny runs.
const TINY_CAP: usize = 300;

/// The 7 Table II graphs under OP, RWP, HyMM and HyMM-noacc with the
/// Table III configuration, one thread; HyMM and HyMM-noacc share a
/// combination memo per graph and pass, as in the suite runner.
pub fn paper_suite(opts: &Options) -> Outcome {
    let cap = if opts.tiny { TINY_CAP } else { SUITE_CAP };
    let config = AcceleratorConfig::default();
    let mut variants = Variant::paper_dataflows(&config);
    variants.push(Variant::hymm_noacc(&config));
    let plan = Plan {
        workload: "paper-suite",
        specs: Dataset::ALL.iter().map(|d| d.spec().scaled(cap)).collect(),
        variants,
        threads: 1,
        share_hybrid_memo: true,
        notes: vec![("node_cap".into(), cap.to_string())],
    };
    run(plan, opts)
}

/// Design points of the default DSE space (`dse::generate` descriptions)
/// that between them set every knob the space varies: the Table III
/// incumbent, the tuned preset (gated 32 lanes, 512 K DMB, 64 MSHRs,
/// stream prefetch), unpipelined MAC latency 4 on 32 plain lanes with
/// prefetch, and pipelined MAC latency 4 with a 512 K DMB. They are fixed
/// rather than drawn by seed: design points differ in host cost, so a
/// seeded draw made the work of a pass depend on the seed (over ten seeds
/// the interquartile range of `p50_ms` was 20 % of its median).
const DSE_POINTS: [&str; 4] = [
    "pe16 mac1 dmb256K mshr32 lsq128 pf:off T0.20",
    "pe32g mac1 dmb512K mshr64 lsq128 pf:smq-stream@4 T0.10",
    "pe32 mac4 dmb256K mshr64 lsq256 pf:smq-stream@2 T0.30",
    "pe16 mac4p dmb512K mshr32 lsq256 pf:off T0.30",
];

fn dse_candidates() -> Vec<(String, AcceleratorConfig)> {
    let generation = generate(&Space::of(SpaceKind::Default), 2.0);
    DSE_POINTS
        .iter()
        .map(|&desc| {
            let c = generation
                .candidates
                .iter()
                .find(|c| c.desc == desc)
                .unwrap_or_else(|| panic!("{desc} is not in the default DSE space"));
            (c.desc.clone(), c.config.clone())
        })
        .collect()
}

/// The [`DSE_POINTS`], each under OP, RWP and HyMM on AP and CS at native
/// size (seeded graphs), fanned over `hymm_bench::pool`.
pub fn dse_sweep(opts: &Options) -> Outcome {
    let candidates = dse_candidates();
    let specs: Vec<DatasetSpec> = [Dataset::AmazonPhoto, Dataset::ComputerScience]
        .iter()
        .map(|d| {
            if opts.tiny {
                d.spec().scaled(TINY_CAP)
            } else {
                d.spec()
            }
        })
        .collect();
    let variants: Vec<Variant> = candidates
        .iter()
        .flat_map(|(_, config)| Variant::paper_dataflows(config))
        .collect();
    let notes = candidates
        .iter()
        .enumerate()
        .map(|(i, (desc, _))| (format!("candidate.{i}"), desc.clone()))
        .collect();
    let plan = Plan {
        workload: "dse-sweep",
        specs,
        variants,
        threads: DSE_THREADS,
        share_hybrid_memo: false,
        notes,
    };
    run(plan, opts)
}

/// What a batch workload simulates.
struct Plan {
    workload: &'static str,
    specs: Vec<DatasetSpec>,
    variants: Vec<Variant>,
    threads: usize,
    share_hybrid_memo: bool,
    notes: Vec<(String, String)>,
}

impl Plan {
    /// `(graph, variant)` pairs in submission order: graph-major, as in the
    /// suite runner, so pool workers run jobs of one graph side by side.
    fn jobs(&self) -> Vec<(usize, usize)> {
        (0..self.specs.len())
            .flat_map(|g| (0..self.variants.len()).map(move |v| (g, v)))
            .collect()
    }
}

/// One job of one pass.
struct JobResult {
    report: SimReport,
    digest: u64,
    seconds: f64,
    check: Result<(), String>,
}

/// Runs every job once. With `check`, each job's layers are compared
/// with the reference, and the first graph's jobs also with the library's
/// own inference driver.
fn run_pass(
    tracer: &Tracer,
    plan: &Plan,
    jobs: &[(usize, usize)],
    graphs: &[Graph],
    check: bool,
) -> Vec<JobResult> {
    let memos: Vec<CombinationMemo> = graphs.iter().map(|_| CombinationMemo::new()).collect();
    let parent = tracer.open_span();
    pool::map_indexed(plan.threads, jobs, |_, &(g, v)| {
        let (graph, variant) = (&graphs[g], &plan.variants[v]);
        let memo =
            (plan.share_hybrid_memo && variant.dataflow == Dataflow::Hybrid).then(|| &memos[g]);
        let started = Instant::now();
        let inference = infer(tracer, parent, graph.parts(), variant, memo, check);
        let seconds = started.elapsed().as_secs_f64();
        let check = if check {
            check_against_reference(graph.parts(), variant, &inference.layers).and_then(|()| {
                if g == 0 {
                    check_matches_library(graph.parts(), variant, &inference)
                } else {
                    Ok(())
                }
            })
        } else {
            Ok(())
        };
        JobResult {
            report: inference.report,
            digest: inference.digest,
            seconds,
            check,
        }
    })
}

fn run(plan: Plan, opts: &Options) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let jobs = plan.jobs();
    let tilings: Vec<Vec<(f64, usize)>> = plan
        .specs
        .iter()
        .map(|spec| {
            let mut keys: Vec<(f64, usize)> = Vec::new();
            for v in plan
                .variants
                .iter()
                .filter(|v| v.dataflow == Dataflow::Hybrid)
            {
                let key = tiling_key(&v.config, spec);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            keys
        })
        .collect();
    let (graphs, setup_seconds, setup_spans) = repeated_setup(&tracer, || {
        plan.specs
            .iter()
            .zip(&tilings)
            .map(|(spec, keys)| prepare(&tracer, spec, opts.seed, keys))
            .collect::<Vec<Graph>>()
    });

    // Every pass must reproduce the first one bit for bit.
    let mut errors = Vec::new();
    let mut first: Vec<JobResult> = Vec::new();
    let mut walls = Vec::new();
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut busy = Vec::new();
    let mut pass_spans = Vec::new();
    let passes = timed_passes(opts.seconds, |n| {
        let started = Instant::now();
        let results = tracer.span("pass", plan.workload, n as u64, || {
            run_pass(&tracer, &plan, &jobs, &graphs, false)
        });
        let wall = started.elapsed().as_secs_f64();
        walls.push(wall);
        let job_seconds: f64 = results.iter().map(|r| r.seconds).sum();
        busy.push(job_seconds / (plan.threads as f64 * wall));
        for (samples, job) in job_ms.iter_mut().zip(&results) {
            samples.push(job.seconds * 1e3);
        }
        if first.is_empty() {
            first = results;
        } else {
            errors.extend(mismatches(
                &plan,
                &jobs,
                &graphs,
                &first,
                &results,
                &format!("pass {n}"),
            ));
        }
        pass_spans.push(tracer.drain());
    });
    let peak_rss = peak_rss_mb();

    // A last, untraced pass keeps every layer's operands and checks them
    // against the reference; it too must match the first pass.
    let checked = run_pass(&Tracer::new(false), &plan, &jobs, &graphs, true);
    errors.extend(checked.iter().filter_map(|job| job.check.clone().err()));
    errors.extend(mismatches(
        &plan,
        &jobs,
        &graphs,
        &first,
        &checked,
        "untraced check pass",
    ));
    let mut counts = ModelCounts::default();
    let mut sim_digest = Fnv::new();
    for job in &first {
        counts.add(&job.report);
        sim_digest.word(job.digest);
    }

    let mut notes = plan.notes.clone();
    notes.extend(pass_notes(&walls));
    notes.push(("jobs_per_pass".into(), jobs.len().to_string()));
    notes.extend(latency_notes(&job_ms.concat()));
    notes.push(("sim_digest".into(), format!("{:016x}", sim_digest.finish())));
    notes.push(("sim_cycles_per_pass".into(), counts.cycles.to_string()));

    let metrics = if opts.trace {
        let mut m = MetricSet::new(&PER_LAYER);
        let setup = median_layer_times(&setup_spans, &SETUP_LAYERS);
        let sim = median_layer_times(&pass_spans, &SIM_LAYERS);
        for (name, value) in setup.iter().chain(&sim) {
            m.set(name, *value);
        }
        let nnz: usize = graphs
            .iter()
            .zip(&tilings)
            .map(|(g, keys)| g.prep.adj().nnz() * (2 + keys.len()))
            .sum();
        m.set("sparse.edges_per_s", sparse_rate(nnz as f64, &setup));
        set_model_counts(&mut m, &counts, simulate_seconds(&sim));
        m.set("bench.pool_busy_share", median(&busy).unwrap_or(0.0));
        m.set("trace.wall_s", median(&walls).unwrap_or(0.0));
        m
    } else {
        let mut m = MetricSet::new(&END_TO_END);
        m.set("wall_s", median(&walls).unwrap_or(0.0));
        let (p50, p90) = job_percentiles(&job_ms);
        m.set("p50_ms", p50);
        m.set("p90_ms", p90);
        m.set("setup_s", median(&setup_seconds).unwrap_or(0.0));
        m.set("peak_rss_mb", peak_rss);
        m
    };
    Outcome {
        workload: plan.workload,
        errors,
        attempted: ((passes + 1) * jobs.len()) as u64,
        failed: 0,
        metrics,
        notes,
        spans: pass_spans
            .into_iter()
            .chain(setup_spans)
            .flatten()
            .collect(),
    }
}

/// Jobs of `b` whose report or output differs from the same job in `a`.
fn mismatches(
    plan: &Plan,
    jobs: &[(usize, usize)],
    graphs: &[Graph],
    a: &[JobResult],
    b: &[JobResult],
    what: &str,
) -> Vec<String> {
    a.iter()
        .zip(b)
        .zip(jobs)
        .filter(|((x, y), _)| x.digest != y.digest || x.report != y.report)
        .map(|(_, &(g, v))| {
            format!(
                "{what}: {} {} differs from the first pass",
                graphs[g].label, plan.variants[v].label
            )
        })
        .collect()
}

/// Fills the simulated-model counters of one pass and the host cost per
/// simulated cycle and DMB access.
pub(super) fn set_model_counts(m: &mut MetricSet, counts: &ModelCounts, simulate_seconds: f64) {
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    m.set("sim.cycles", counts.cycles as f64);
    m.set("mem.dmb_accesses", counts.dmb_accesses as f64);
    m.set(
        "mem.dmb_hit_rate",
        ratio(counts.dmb_hits, counts.dmb_accesses),
    );
    m.set("mem.dram_bytes", counts.dram_bytes as f64);
    m.set("mem.lsq_forwards", counts.lsq_forwards as f64);
    m.set("mem.prefetch_issued", counts.prefetch_issued as f64);
    m.set(
        "mem.prefetch_useful_ratio",
        ratio(counts.prefetch_useful, counts.prefetch_issued),
    );
    for (class, cycles) in StallBreakdown::CLASSES.iter().zip(counts.stalls.as_array()) {
        m.set(
            &format!("core.stall_share.{class}"),
            ratio(cycles, counts.cycles),
        );
    }
    let ns = simulate_seconds * 1e9;
    m.set(
        "core.ns_per_sim_cycle",
        if counts.cycles > 0 {
            ns / counts.cycles as f64
        } else {
            0.0
        },
    );
    m.set(
        "core.ns_per_dmb_access",
        if counts.dmb_accesses > 0 {
            ns / counts.dmb_accesses as f64
        } else {
            0.0
        },
    );
}
