//! `prep-native`: Table II's preprocessing — normalisation, CSR, CSC,
//! degree sort and hybrid tiling — with no simulation at all.

use super::{
    job_percentiles, latency_notes, median_layer_times, pass_notes, repeated_setup, sparse_rate,
    timed_passes, Options,
};
use crate::metrics::{peak_rss_mb, MetricSet, Outcome, END_TO_END, PER_LAYER};
use crate::sim::{preprocess, synthesize, tiling_key, Fnv};
use crate::stats::median;
use crate::trace::Tracer;
use hymm_core::config::AcceleratorConfig;
use hymm_core::prepared::PreparedAdjacency;
use hymm_graph::datasets::{Dataset, DatasetSpec};
use hymm_sparse::Coo;
use std::time::Instant;

/// Node cap of `prep-native`: the five graphs up to Physics run at native
/// size; Flickr and Yelp are capped so a pass stays near half a second
/// (many passes make a steady median) and the process near 250 MB.
const PREP_CAP: usize = 65_536;

/// Preprocesses all seven graphs per pass, one thread. Set-up is the
/// synthesis of the seeded graphs; a pass prepares them.
pub fn prep_native(opts: &Options) -> Outcome {
    let cap = if opts.tiny { 300 } else { PREP_CAP };
    let config = AcceleratorConfig::default();
    let specs: Vec<DatasetSpec> = Dataset::ALL.iter().map(|d| d.spec().scaled(cap)).collect();
    let keys: Vec<(f64, usize)> = specs.iter().map(|s| tiling_key(&config, s)).collect();
    let tracer = Tracer::new(opts.trace);
    // Only the adjacency is preprocessed; the features are synthesised (as
    // every cold graph is) and dropped.
    let (graphs, setup_seconds, setup_spans) = repeated_setup(&tracer, || {
        specs
            .iter()
            .map(|s| {
                (
                    s.dataset.abbrev(),
                    synthesize(&tracer, s, opts.seed).adjacency,
                )
            })
            .collect::<Vec<_>>()
    });

    // A pass's wall-clock is the sum of its preparations; the digests that
    // check every pass against the first are left out.
    let mut errors = Vec::new();
    let mut first: Vec<u64> = Vec::new();
    let mut walls = Vec::new();
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); graphs.len()];
    let mut pass_spans = Vec::new();
    let passes = timed_passes(opts.seconds, |n| {
        let mut wall = 0.0;
        let mut digests = Vec::with_capacity(graphs.len());
        for (i, (&(label, ref adjacency), &key)) in graphs.iter().zip(&keys).enumerate() {
            let started = Instant::now();
            let prep = tracer.span("prep.graph", label, i as u64, || {
                preprocess(&tracer, label, adjacency, &[key])
            });
            let seconds = started.elapsed().as_secs_f64();
            wall += seconds;
            job_ms[i].push(seconds * 1e3);
            digests.push(digest_prepared(&prep, key));
        }
        if first.is_empty() {
            first = digests;
        } else if digests != first {
            errors.push(format!("pass {n} differs from the first pass"));
        }
        walls.push(wall);
        pass_spans.push(tracer.drain());
    });
    let peak_rss = peak_rss_mb();

    // A last, untraced pass is checked against an independent computation.
    let mut prepared_nnz = 0;
    for ((&(label, ref adjacency), &key), &digest) in graphs.iter().zip(&keys).zip(&first) {
        let prep = preprocess(&Tracer::new(false), label, adjacency, &[key]);
        if let Err(e) = check_prepared(adjacency, &prep, key) {
            errors.push(format!("{label}: {e}"));
        }
        if digest_prepared(&prep, key) != digest {
            errors.push(format!(
                "{label}: untraced check pass differs from the first pass"
            ));
        }
        prepared_nnz += prep.adj().nnz();
    }

    let mut prep_digest = Fnv::new();
    first.iter().for_each(|&d| prep_digest.word(d));
    let mut notes = vec![
        ("node_cap".into(), cap.to_string()),
        (
            "prep_digest".into(),
            format!("{:016x}", prep_digest.finish()),
        ),
    ];
    notes.extend(pass_notes(&walls));
    notes.extend(latency_notes(&job_ms.concat()));
    let metrics = if opts.trace {
        let mut m = MetricSet::new(&PER_LAYER);
        let synth = median_layer_times(&setup_spans, &["graph.synthesize_s"]);
        let prep = median_layer_times(
            &pass_spans,
            &[
                "graph.normalize_s",
                "graph.sort_s",
                "sparse.csr_s",
                "sparse.csc_s",
                "sparse.tiling_s",
            ],
        );
        for (name, value) in synth.iter().chain(&prep) {
            m.set(name, *value);
        }
        // Each of CSR, CSC and the one tiling reads every non-zero of Â.
        m.set(
            "sparse.edges_per_s",
            sparse_rate(3.0 * prepared_nnz as f64, &prep),
        );
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
        workload: "prep-native",
        errors,
        attempted: ((passes + 1) * graphs.len()) as u64,
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

/// Digest of everything preprocessing produced: Â in CSR and CSC form,
/// the degree-sort permutation and the tiling's split.
fn digest_prepared(prep: &PreparedAdjacency, key: (f64, usize)) -> u64 {
    let mut h = Fnv::new();
    let csr = prep.a_csr();
    csr.row_ptr().iter().for_each(|&p| h.word(p as u64));
    csr.col_idx().iter().for_each(|&c| h.word(c as u64));
    csr.values().iter().for_each(|v| h.word(v.to_bits() as u64));
    let csc = prep.a_csc();
    csc.col_ptr().iter().for_each(|&p| h.word(p as u64));
    csc.row_idx().iter().for_each(|&r| h.word(r as u64));
    csc.values().iter().for_each(|v| h.word(v.to_bits() as u64));
    let (perm, sorted) = prep.sorted();
    perm.as_gather().iter().for_each(|&g| h.word(g as u64));
    h.word(sorted.nnz() as u64);
    let tiling = prep
        .hybrid_tiling(key.0, key.1)
        .expect("built during preprocessing");
    h.word(tiling.tiled.threshold() as u64);
    for region in tiling.tiled.regions() {
        h.word(region.nnz() as u64);
    }
    h.finish()
}

/// Checks preprocessing against an independent computation from the raw
/// adjacency `a`: Â = D^-1/2 (A + I) D^-1/2 row by row against the CSR,
/// column counts and sums of the CSC, a valid degree-descending
/// permutation, and a tiling that keeps every non-zero.
fn check_prepared(a: &Coo, prep: &PreparedAdjacency, key: (f64, usize)) -> Result<(), String> {
    let n = a.rows();
    // Reference Â in f64, rows with sorted, coalesced columns.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (r, c, v) in a.iter() {
        rows[r].push((c, v as f64));
    }
    for (r, row) in rows.iter_mut().enumerate() {
        row.push((r, 1.0));
        row.sort_by_key(|&(c, _)| c);
        row.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
    }
    let degree: Vec<f64> = rows
        .iter()
        .map(|row| row.iter().map(|e| e.1).sum())
        .collect();
    let csr = prep.a_csr();
    let nnz: usize = rows.iter().map(Vec::len).sum();
    if csr.nnz() != nnz {
        return Err(format!("CSR holds {} non-zeros, expected {nnz}", csr.nnz()));
    }
    for (r, row) in rows.iter().enumerate() {
        let (cols, vals) = csr.row(r);
        if cols.len() != row.len() {
            return Err(format!(
                "CSR row {r} has {} entries, expected {}",
                cols.len(),
                row.len()
            ));
        }
        for ((&c, &v), &(want_c, a_rc)) in cols.iter().zip(vals).zip(row) {
            let want = a_rc / (degree[r] * degree[want_c]).sqrt();
            if c as usize != want_c || (v as f64 - want).abs() > 1e-6 * want.abs().max(1e-30) {
                return Err(format!(
                    "Â[{r}, {c}] = {v}, expected Â[{r}, {want_c}] = {want}"
                ));
            }
        }
    }
    let csc = prep.a_csc();
    let mut col_count = vec![0usize; n];
    let mut col_sum = vec![0f64; n];
    for (r, row) in rows.iter().enumerate() {
        for &(c, a_rc) in row {
            col_count[c] += 1;
            col_sum[c] += a_rc / (degree[r] * degree[c]).sqrt();
        }
    }
    for c in 0..n {
        let (_, vals) = csc.col(c);
        let sum: f64 = vals.iter().map(|&v| v as f64).sum();
        if vals.len() != col_count[c] || (sum - col_sum[c]).abs() > 1e-5 * col_sum[c].max(1.0) {
            return Err(format!("CSC column {c} disagrees with the reference"));
        }
    }
    let (perm, sorted) = prep.sorted();
    let mut gather: Vec<u32> = perm.as_gather().to_vec();
    gather.sort_unstable();
    if gather.iter().enumerate().any(|(i, &g)| g as usize != i) {
        return Err("degree sort is not a permutation".into());
    }
    let sorted_degrees = sorted.row_degrees();
    if sorted.nnz() != nnz || sorted_degrees.windows(2).any(|w| w[0] < w[1]) {
        return Err("degree-sorted adjacency is not in descending degree order".into());
    }
    let tiling = prep
        .hybrid_tiling(key.0, key.1)
        .map_err(|e| format!("tiling: {e}"))?;
    if tiling.tiled.total_nnz() != nnz || tiling.tiled.threshold() > n {
        return Err("tiling lost non-zeros".into());
    }
    Ok(())
}
