//! Stall-guided design-space exploration over the accelerator's full
//! configuration surface (the `dse` binary's engine).
//!
//! The explorer enumerates a factorial [`Space`] over the PE side
//! (`num_pes`/`mac_latency`/`mac_pipelined`/`lane_gating`), the memory side
//! (`dmb_bytes`/`mshr_count`/`lsq_entries`/prefetch policy+degree) and the
//! hybrid tiling fraction, rejects points that fail
//! [`AcceleratorConfig::validate`] or bust the iso-area budget
//! (`--area-budget` × the Table III total at 7 nm via
//! [`hymm_core::area::estimate_area`]), and prunes the rest with a
//! successive-halving ladder:
//!
//! 1. **Screen** every candidate on small (`--screen-scale`) datasets.
//! 2. **Stall-ceiling cut**: the Table III incumbent's full-scale dominant
//!    non-idle stall share (plus a fixed margin) is a per-dataflow ceiling.
//!    A candidate is cut when it is *dominated by the incumbent* at screen
//!    scale — no cheaper in area and slower on **every** dataflow — and at
//!    least one dataflow's dominant share blows its ceiling. The cycle
//!    clause makes the cut legal for the Pareto fronts (such a point could
//!    only enter a front by beating the incumbent somewhere at full scale);
//!    the stall clause is the evidence that the screen-scale deficit is
//!    structural (a saturated bottleneck class), not small-sample noise.
//! 3. **Promote** the best `1/eta` of the survivors (ranked by combined
//!    screened cycles over the three paper dataflows) to full `--scale`.
//!
//! Every (configuration, dataflow, scale) evaluation is memoised by
//! [`AcceleratorConfig::content_hash`], so the incumbent's ceiling run, the
//! screen pass and the promotion pass never repeat a simulation. The output
//! is one Pareto front per dataflow over (suite cycles, area), with energy
//! reported alongside, plus the single best configuration under the budget
//! — the one the `tuned` preset ([`hymm_core::config::Preset`]) bakes in.
//!
//! Results are deterministic at any `--threads` count: simulations fan out
//! over [`pool::map_indexed`] (input-ordered results) and every reduction
//! runs on the caller's thread in fixed candidate order.

use crate::args::{parse_dataset_list, ArgError};
use crate::pool;
use crate::table::TextTable;
use hymm_core::area::estimate_area;
use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_core::energy::EnergyModel;
use hymm_core::stats::StallBreakdown;
use hymm_core::PreparedAdjacency;
use hymm_gcn::{prepare_adjacency, run_inference_prepared, GcnModel};
use hymm_graph::datasets::Dataset;
use hymm_mem::PrefetchPolicy;
use hymm_sparse::Coo;
use std::collections::HashMap;

/// Margin added to the incumbent's dominant stall share before it becomes
/// the early-abort ceiling: small enough to keep the cut real, large enough
/// that screen-scale noise in the share cannot cut a genuinely better
/// configuration.
const CEILING_MARGIN: f64 = 0.02;

/// Which candidate grid to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// 2×2×2 smoke grid (8 points) for CI and the unit tests.
    Tiny,
    /// The full search space described in DESIGN.md §13 (972 points).
    Default,
}

impl SpaceKind {
    /// Label used by `--space`.
    pub fn label(&self) -> &'static str {
        match self {
            SpaceKind::Tiny => "tiny",
            SpaceKind::Default => "default",
        }
    }

    /// Parses a `--space` argument value.
    pub fn parse(s: &str) -> Option<SpaceKind> {
        [SpaceKind::Tiny, SpaceKind::Default]
            .into_iter()
            .find(|k| k.label() == s)
    }
}

/// The factorial search space: one axis per knob group. Every combination
/// is a candidate unless validation or the area budget rejects it.
#[derive(Debug, Clone)]
pub struct Space {
    /// `(num_pes, lane_gating)` pairs.
    pub pe: Vec<(usize, bool)>,
    /// `(mac_latency, mac_pipelined)` pairs.
    pub mac: Vec<(u64, bool)>,
    /// DMB capacities in KB.
    pub dmb_kb: Vec<usize>,
    /// MSHR counts.
    pub mshr: Vec<usize>,
    /// LSQ entry counts.
    pub lsq: Vec<usize>,
    /// `(policy, degree)` pairs for the hardware prefetcher.
    pub prefetch: Vec<(PrefetchPolicy, usize)>,
    /// Hybrid tiling fractions.
    pub tiling: Vec<f64>,
}

impl Space {
    /// The grid for a [`SpaceKind`]. Both grids contain the Table III
    /// incumbent (all-default combination) by construction.
    pub fn of(kind: SpaceKind) -> Space {
        let d = AcceleratorConfig::default();
        match kind {
            SpaceKind::Tiny => Space {
                pe: vec![(16, false), (32, true)],
                mac: vec![(1, false)],
                dmb_kb: vec![256, 512],
                mshr: vec![32],
                lsq: vec![128],
                prefetch: vec![
                    (PrefetchPolicy::Off, d.mem.prefetch_degree),
                    (PrefetchPolicy::SmqStream, 2),
                ],
                tiling: vec![0.20],
            },
            SpaceKind::Default => Space {
                pe: vec![(16, false), (32, false), (32, true)],
                // (4, false) trades the pipelined unit's stage area for an
                // initiation interval of 4 — the classic point the stall
                // ceiling should recognise as mac-saturated and cut.
                mac: vec![(1, false), (4, true), (4, false)],
                // 1024 KB is deliberately present and always over the 2×
                // budget: it keeps the area constraint binding instead of
                // vacuous.
                dmb_kb: vec![256, 512, 1024],
                mshr: vec![32, 64],
                lsq: vec![128, 256],
                prefetch: vec![
                    (PrefetchPolicy::Off, d.mem.prefetch_degree),
                    (PrefetchPolicy::SmqStream, 2),
                    (PrefetchPolicy::SmqStream, 4),
                ],
                tiling: vec![0.10, 0.20, 0.30],
            },
        }
    }

    /// Number of points in the exhaustive grid (before validation and the
    /// area budget).
    pub fn grid_size(&self) -> usize {
        self.pe.len()
            * self.mac.len()
            * self.dmb_kb.len()
            * self.mshr.len()
            * self.lsq.len()
            * self.prefetch.len()
            * self.tiling.len()
    }
}

/// One point of the search space that survived validation and the budget.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index in generation order (stable tie-breaker everywhere).
    pub id: usize,
    /// Compact human-readable knob summary, e.g.
    /// `pe32g mac1 dmb512K mshr64 lsq128 pf:smq-stream@2 T0.20`.
    pub desc: String,
    /// The architectural configuration (host observability knobs default).
    pub config: AcceleratorConfig,
    /// Total area at 7 nm in mm².
    pub area_7nm: f64,
    /// [`AcceleratorConfig::content_hash`] — the memoisation identity.
    pub hash: u64,
}

/// Outcome of candidate generation.
#[derive(Debug, Clone)]
pub struct Generation {
    /// In-budget, valid candidates in grid order; the Table III incumbent
    /// is always present.
    pub candidates: Vec<Candidate>,
    /// Exhaustive grid size.
    pub grid: usize,
    /// Points rejected by the iso-area budget.
    pub over_budget: usize,
    /// Points rejected by [`AcceleratorConfig::validate`].
    pub invalid: usize,
    /// Absolute area budget in mm² at 7 nm.
    pub budget_7nm: f64,
}

fn describe(config: &AcceleratorConfig) -> String {
    let gating = if config.lane_gating { "g" } else { "" };
    let pipe = if config.mac_pipelined { "p" } else { "" };
    let pf = match config.mem.prefetch {
        PrefetchPolicy::Off => "pf:off".to_string(),
        p => format!("pf:{}@{}", p.label(), config.mem.prefetch_degree),
    };
    format!(
        "pe{}{gating} mac{}{pipe} dmb{}K mshr{} lsq{} {pf} T{:.2}",
        config.num_pes,
        config.mac_latency,
        config.mem.dmb_bytes / 1024,
        config.mem.mshr_count,
        config.mem.lsq_entries,
        config.tiling_fraction,
    )
}

/// Enumerates the grid, keeping valid candidates whose area is at most
/// `area_budget` × the Table III total.
pub fn generate(space: &Space, area_budget: f64) -> Generation {
    let budget_7nm = area_budget * estimate_area(&AcceleratorConfig::default()).total_7nm();
    let incumbent_hash = AcceleratorConfig::default().content_hash();
    let mut candidates = Vec::new();
    let mut over_budget = 0;
    let mut invalid = 0;
    for &(pes, gating) in &space.pe {
        for &(lat, pipe) in &space.mac {
            for &kb in &space.dmb_kb {
                for &mshr in &space.mshr {
                    for &lsq in &space.lsq {
                        for &(policy, degree) in &space.prefetch {
                            for &t in &space.tiling {
                                let mut config = AcceleratorConfig {
                                    num_pes: pes,
                                    lane_gating: gating,
                                    mac_latency: lat,
                                    mac_pipelined: pipe,
                                    tiling_fraction: t,
                                    ..AcceleratorConfig::default()
                                };
                                config.mem.dmb_bytes = kb * 1024;
                                config.mem.mshr_count = mshr;
                                config.mem.lsq_entries = lsq;
                                config.mem.prefetch = policy;
                                config.mem.prefetch_degree = degree;
                                // Keep the demand-priority cap legal for
                                // small MSHR pools (timing-inert when off).
                                config.mem.prefetch_mshr_cap =
                                    config.mem.prefetch_mshr_cap.min(mshr.saturating_sub(1));
                                if config.validate().is_err() {
                                    invalid += 1;
                                    continue;
                                }
                                let area = estimate_area(&config).total_7nm();
                                if area > budget_7nm {
                                    over_budget += 1;
                                    continue;
                                }
                                candidates.push(Candidate {
                                    id: candidates.len(),
                                    desc: describe(&config),
                                    area_7nm: area,
                                    hash: config.content_hash(),
                                    config,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    // The ladder anchors every ceiling and speedup on the incumbent, so a
    // space that omits it (or a budget under 1.0×) gets it appended.
    if !candidates.iter().any(|c| c.hash == incumbent_hash) {
        let config = AcceleratorConfig::default();
        candidates.push(Candidate {
            id: candidates.len(),
            desc: describe(&config),
            area_7nm: estimate_area(&config).total_7nm(),
            hash: incumbent_hash,
            config,
        });
    }
    Generation {
        candidates,
        grid: space.grid_size(),
        over_budget,
        invalid,
        budget_7nm,
    }
}

/// A dataset prepared once per scale and shared by every evaluation.
pub struct EvalDataset {
    /// Input feature matrix.
    pub features: Coo,
    /// Two-layer GCN model (the suite's canonical dims and seed).
    pub model: GcnModel,
    /// Normalised, sorted, tiled adjacency.
    pub prep: PreparedAdjacency,
}

/// Synthesises and preprocesses `datasets` capped at `scale` nodes.
pub fn prepare_eval(datasets: &[Dataset], scale: usize) -> Vec<EvalDataset> {
    datasets
        .iter()
        .map(|d| {
            let w = d.synthesize_scaled(scale);
            let prep = prepare_adjacency(&w.adjacency).expect("synthesised adjacency is square");
            let model =
                GcnModel::two_layer(w.spec.feature_len, w.spec.layer_dim, w.spec.layer_dim, 42);
            EvalDataset {
                features: w.features,
                model,
                prep,
            }
        })
        .collect()
}

/// Suite-total measurement of one (configuration, dataflow, scale): cycles
/// and stalls summed over the evaluation datasets, energy likewise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Total cycles over the evaluation datasets.
    pub cycles: u64,
    /// Stall waterfall summed over the evaluation datasets.
    pub stalls: StallBreakdown,
    /// Energy estimate summed over the evaluation datasets, in µJ.
    pub energy_uj: f64,
}

impl EvalResult {
    /// Dominant **non-idle** stall class and its share of total cycles.
    pub fn dominant(&self) -> (&'static str, f64) {
        let (name, v) = StallBreakdown::CLASSES
            .iter()
            .zip(self.stalls.as_array())
            .filter(|(name, _)| **name != "idle")
            .max_by_key(|&(_, v)| v)
            .expect("waterfall has non-idle classes");
        (name, v as f64 / self.cycles.max(1) as f64)
    }
}

/// Memoising evaluator: every (config hash, dataflow, scale) triple is
/// simulated at most once per explorer run.
pub struct Evaluator {
    memo: HashMap<(u64, usize, usize), EvalResult>,
    /// Worker threads for the simulation fan-out (`0` = auto).
    pub threads: usize,
    /// Run every simulation under the runtime invariant audit.
    pub audit: bool,
    /// Requested (candidate, dataflow, scale) evaluations answered from the
    /// memo.
    pub memo_hits: usize,
    /// Candidate-dataflow evaluations actually simulated.
    pub sim_evals: usize,
}

impl Evaluator {
    /// A fresh evaluator with an empty memo.
    pub fn new(threads: usize, audit: bool) -> Evaluator {
        Evaluator {
            memo: HashMap::new(),
            threads,
            audit,
            memo_hits: 0,
            sim_evals: 0,
        }
    }

    /// Evaluates every candidate under the three paper dataflows on `data`
    /// (prepared at `scale`), returning results in candidate order.
    /// Missing (candidate, dataflow) pairs fan out one job per dataset over
    /// the worker pool; the reduction runs serially in fixed job order, so
    /// the result (including the f64 energy sums) is identical at any
    /// thread count.
    pub fn evaluate(
        &mut self,
        cands: &[Candidate],
        data: &[EvalDataset],
        scale: usize,
    ) -> Vec<[EvalResult; 3]> {
        let mut missing: Vec<(usize, usize)> = Vec::new();
        let mut queued: std::collections::HashSet<(u64, usize)> = std::collections::HashSet::new();
        for (ci, c) in cands.iter().enumerate() {
            for df in 0..Dataflow::ALL.len() {
                if self.memo.contains_key(&(c.hash, df, scale)) {
                    self.memo_hits += 1;
                } else if queued.insert((c.hash, df)) {
                    missing.push((ci, df));
                }
            }
        }
        let jobs: Vec<(usize, usize, usize)> = missing
            .iter()
            .flat_map(|&(ci, df)| (0..data.len()).map(move |si| (ci, df, si)))
            .collect();
        let threads = if self.threads == 0 {
            pool::default_threads()
        } else {
            self.threads
        };
        let audit = self.audit;
        let results = pool::map_indexed(threads, &jobs, |_, &(ci, df, si)| {
            let mut config = cands[ci].config.clone();
            config.audit = audit;
            let d = &data[si];
            let out = run_inference_prepared(
                &config,
                Dataflow::ALL[df],
                &d.prep,
                &d.features,
                &d.model,
                None,
            )
            .expect("generated configurations validate");
            let energy = EnergyModel::default().estimate(&out.report).total_uj();
            (out.report.cycles, out.report.stalls, energy)
        });
        for (&(ci, df, _), (cycles, stalls, energy)) in jobs.iter().zip(&results) {
            let entry = self
                .memo
                .entry((cands[ci].hash, df, scale))
                .or_insert(EvalResult {
                    cycles: 0,
                    stalls: StallBreakdown::default(),
                    energy_uj: 0.0,
                });
            entry.cycles += cycles;
            entry.stalls.merge(stalls);
            entry.energy_uj += energy;
        }
        self.sim_evals += missing.len();
        cands
            .iter()
            .map(|c| {
                [0, 1, 2].map(|df| {
                    *self
                        .memo
                        .get(&(c.hash, df, scale))
                        .expect("just evaluated or memoised")
                })
            })
            .collect()
    }
}

/// Indices of the non-dominated points of `(cycles, area)` pairs, sorted
/// by cycles, then area, then index. A point is dominated when another is
/// no worse on both axes and strictly better on at least one; of
/// exactly-equal points only the first (lowest index) is kept.
pub fn pareto_front(points: &[(u64, f64)]) -> Vec<usize> {
    let mut front: Vec<usize> = (0..points.len())
        .filter(|&i| {
            let (ci, ai) = points[i];
            !points.iter().enumerate().any(|(j, &(cj, aj))| {
                j != i && cj <= ci && aj <= ai && (cj < ci || aj < ai || j < i)
            })
        })
        .collect();
    front.sort_by(|&a, &b| {
        points[a]
            .0
            .cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
            .then(a.cmp(&b))
    });
    front
}

/// Parsed `dse` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct DseArgs {
    /// Full-scale node cap for promoted candidates.
    pub scale: usize,
    /// Screening node cap for the first ladder rung.
    pub screen_scale: usize,
    /// Evaluation datasets (suite totals are summed over these).
    pub datasets: Vec<Dataset>,
    /// Worker threads (`0` = auto).
    pub threads: usize,
    /// Run every simulation under the runtime invariant audit.
    pub audit: bool,
    /// Successive-halving rate: the best `1/eta` of the screened survivors
    /// are promoted to full scale.
    pub eta: usize,
    /// Iso-area budget as a multiple of the Table III total at 7 nm.
    pub area_budget: f64,
    /// Which grid to explore.
    pub space: SpaceKind,
    /// Truncate the candidate list (incumbent always retained).
    pub max_candidates: Option<usize>,
}

/// Usage string for the `dse` binary.
pub const DSE_USAGE: &str = "usage: dse [--scale N] [--screen-scale N] [--datasets CR,AP,...] \
     [--threads N] [--audit] [--eta N] [--area-budget F] \
     [--space tiny|default] [--max-candidates N]";

impl Default for DseArgs {
    fn default() -> Self {
        DseArgs {
            scale: 600,
            screen_scale: 150,
            datasets: vec![Dataset::Cora, Dataset::AmazonPhoto],
            threads: 0,
            audit: false,
            eta: 4,
            area_budget: 2.0,
            space: SpaceKind::Default,
            max_candidates: None,
        }
    }
}

impl DseArgs {
    /// Parses the `dse` command line.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] describing the first malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<DseArgs, ArgError> {
        let mut out = DseArgs::default();
        let mut it = args.into_iter();
        fn number<T: std::str::FromStr>(
            it: &mut impl Iterator<Item = String>,
            flag: &str,
        ) -> Result<T, ArgError> {
            let v = it
                .next()
                .ok_or_else(|| ArgError::new(format!("{flag} needs a value")))?;
            v.parse()
                .map_err(|_| ArgError::new(format!("{flag} needs a number, got {v:?}")))
        }
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => out.scale = number(&mut it, "--scale")?,
                "--screen-scale" => out.screen_scale = number(&mut it, "--screen-scale")?,
                "--datasets" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--datasets needs a CR,AP,... list"))?;
                    out.datasets = parse_dataset_list(&v)?;
                }
                "--threads" => out.threads = number(&mut it, "--threads")?,
                "--audit" => out.audit = true,
                "--eta" => out.eta = number(&mut it, "--eta")?,
                "--area-budget" => out.area_budget = number(&mut it, "--area-budget")?,
                "--space" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--space needs a grid name"))?;
                    out.space = SpaceKind::parse(&v).ok_or_else(|| {
                        ArgError::new(format!("unknown space {v:?} (tiny, default)"))
                    })?;
                }
                "--max-candidates" => {
                    out.max_candidates = Some(number(&mut it, "--max-candidates")?)
                }
                other => {
                    return Err(ArgError::new(format!(
                        "unknown argument {other:?} (try --help)"
                    )))
                }
            }
        }
        if out.scale < 2 || out.screen_scale < 2 {
            return Err(ArgError::new(
                "--scale/--screen-scale need at least 2 nodes",
            ));
        }
        if out.screen_scale > out.scale {
            return Err(ArgError::new("--screen-scale must not exceed --scale"));
        }
        if out.eta < 2 {
            return Err(ArgError::new("--eta must be at least 2"));
        }
        if !(out.area_budget.is_finite() && out.area_budget > 0.0) {
            return Err(ArgError::new("--area-budget must be a positive number"));
        }
        if out.max_candidates == Some(0) {
            return Err(ArgError::new("--max-candidates must be at least 1"));
        }
        Ok(out)
    }
}

/// One Pareto-front entry of one dataflow.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontPoint {
    /// Candidate id.
    pub id: usize,
    /// Candidate knob summary.
    pub desc: String,
    /// Full-scale suite cycles under this dataflow.
    pub cycles: u64,
    /// Area at 7 nm in mm².
    pub area_7nm: f64,
    /// Full-scale suite energy in µJ.
    pub energy_uj: f64,
    /// Dominant non-idle stall class.
    pub dominant: &'static str,
    /// Dominant class share of total cycles.
    pub dominant_share: f64,
}

/// The winning configuration and its measured deltas vs the incumbent.
#[derive(Debug, Clone, PartialEq)]
pub struct Best {
    /// Candidate knob summary.
    pub desc: String,
    /// Full configuration (the `tuned` preset bakes this in).
    pub config: AcceleratorConfig,
    /// Combined (3-dataflow) full-scale cycles.
    pub combined_cycles: u64,
    /// The incumbent's combined full-scale cycles.
    pub incumbent_cycles: u64,
    /// `incumbent_cycles / combined_cycles`.
    pub speedup: f64,
    /// Area relative to the Table III total.
    pub area_ratio: f64,
    /// Per-dataflow `(label, best cycles, incumbent cycles)`.
    pub per_dataflow: Vec<(&'static str, u64, u64)>,
    /// OP dominant non-idle stall share, incumbent then best (the paper's
    /// OP baseline is dmb-miss bound; the delta is the headline pp number).
    pub op_dominant: (f64, f64),
}

/// Everything a `dse` run produced, renderable as a table or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOutcome {
    /// Grid name.
    pub space: &'static str,
    /// Exhaustive grid size.
    pub grid: usize,
    /// Valid in-budget candidates.
    pub in_budget: usize,
    /// Points rejected by the area budget.
    pub over_budget: usize,
    /// Candidates removed by the stall-ceiling cut.
    pub stall_cut: usize,
    /// Candidates promoted to full scale (incumbent included).
    pub promoted: usize,
    /// Memoised (candidate, dataflow, scale) answers.
    pub memo_hits: usize,
    /// Candidate-dataflow evaluations actually simulated.
    pub sim_evals: usize,
    /// Per-dataflow Pareto fronts over (full-scale cycles, area).
    pub fronts: Vec<(&'static str, Vec<FrontPoint>)>,
    /// The winning configuration.
    pub best: Best,
}

/// Runs the full explorer: generate → ceiling → screen → cut → promote →
/// Pareto. Deterministic at any thread count.
pub fn run(args: &DseArgs) -> DseOutcome {
    let space = Space::of(args.space);
    let mut gen = generate(&space, args.area_budget);
    let incumbent_hash = AcceleratorConfig::default().content_hash();
    if let Some(n) = args.max_candidates {
        truncate_keeping_incumbent(&mut gen.candidates, n, incumbent_hash);
    }
    let candidates = &gen.candidates;
    let incumbent_idx = candidates
        .iter()
        .position(|c| c.hash == incumbent_hash)
        .expect("generate always retains the incumbent");

    let mut eval = Evaluator::new(args.threads, args.audit);
    crate::progress!(
        "[dse] space {}: {} grid points, {} in budget ({} over {:.2}x budget = {:.3} mm2, {} invalid)",
        args.space.label(),
        gen.grid,
        candidates.len(),
        gen.over_budget,
        args.area_budget,
        gen.budget_7nm,
        gen.invalid,
    );

    // Rung 0: the incumbent at full scale anchors the stall ceilings and
    // the speedup denominator.
    crate::progress!("[dse] incumbent at full scale {} ...", args.scale);
    let full_data = prepare_eval(&args.datasets, args.scale);
    let incumbent_full = eval.evaluate(
        std::slice::from_ref(&candidates[incumbent_idx]),
        &full_data,
        args.scale,
    )[0];
    let ceilings: Vec<f64> = incumbent_full
        .iter()
        .map(|r| r.dominant().1 + CEILING_MARGIN)
        .collect();

    // Rung 1: screen everything small.
    crate::progress!(
        "[dse] screening {} candidates at scale {} ...",
        candidates.len(),
        args.screen_scale
    );
    let screen_data = prepare_eval(&args.datasets, args.screen_scale);
    let screened = eval.evaluate(candidates, &screen_data, args.screen_scale);
    let incumbent_screen = screened[incumbent_idx];

    // Stall-ceiling cut: a candidate dominated by the incumbent on every
    // screen objective (slower on all three dataflows, no cheaper in area)
    // whose deficit is structural (some dominant share blows its ceiling)
    // cannot reach any full-scale front. The incumbent survives by
    // construction (its screened cycles equal its own).
    let incumbent_area = candidates[incumbent_idx].area_7nm;
    let survivors: Vec<usize> = (0..candidates.len())
        .filter(|&i| {
            let dominated = candidates[i].area_7nm >= incumbent_area
                && (0..Dataflow::ALL.len())
                    .all(|df| screened[i][df].cycles > incumbent_screen[df].cycles);
            let structural =
                (0..Dataflow::ALL.len()).any(|df| screened[i][df].dominant().1 > ceilings[df]);
            i == incumbent_idx || !(dominated && structural)
        })
        .collect();
    let stall_cut = candidates.len() - survivors.len();

    // Successive halving: promote the best 1/eta by combined screen cycles.
    let mut ranked = survivors.clone();
    ranked.sort_by_key(|&i| {
        (
            screened[i].iter().map(|r| r.cycles).sum::<u64>(),
            candidates[i].id,
        )
    });
    let keep = ranked.len().div_ceil(args.eta).max(1);
    let mut promoted: Vec<usize> = ranked[..keep].to_vec();
    if !promoted.contains(&incumbent_idx) {
        // Free: its full-scale results are already memoised.
        promoted.push(incumbent_idx);
    }
    crate::progress!(
        "[dse] stall-cut {stall_cut}; promoting {} of {} survivors to scale {} ...",
        promoted.len(),
        survivors.len(),
        args.scale
    );

    // Rung 2: full scale for the promoted set.
    let promoted_cands: Vec<Candidate> = promoted.iter().map(|&i| candidates[i].clone()).collect();
    let fulls = eval.evaluate(&promoted_cands, &full_data, args.scale);

    // Pareto fronts per dataflow over (cycles, area).
    let fronts: Vec<(&'static str, Vec<FrontPoint>)> = Dataflow::ALL
        .iter()
        .enumerate()
        .map(|(df, flow)| {
            let points: Vec<(u64, f64)> = fulls
                .iter()
                .zip(&promoted_cands)
                .map(|(r, c)| (r[df].cycles, c.area_7nm))
                .collect();
            let front = pareto_front(&points)
                .into_iter()
                .map(|i| {
                    let (dominant, dominant_share) = fulls[i][df].dominant();
                    FrontPoint {
                        id: promoted_cands[i].id,
                        desc: promoted_cands[i].desc.clone(),
                        cycles: fulls[i][df].cycles,
                        area_7nm: promoted_cands[i].area_7nm,
                        energy_uj: fulls[i][df].energy_uj,
                        dominant,
                        dominant_share,
                    }
                })
                .collect();
            (flow.label(), front)
        })
        .collect();

    // The single winner: minimum combined full-scale cycles, ties by id.
    let best_pos = (0..promoted_cands.len())
        .min_by_key(|&i| {
            (
                fulls[i].iter().map(|r| r.cycles).sum::<u64>(),
                promoted_cands[i].id,
            )
        })
        .expect("promoted set is non-empty");
    let best_cand = &promoted_cands[best_pos];
    let best_full = &fulls[best_pos];
    let combined_cycles: u64 = best_full.iter().map(|r| r.cycles).sum();
    let incumbent_cycles: u64 = incumbent_full.iter().map(|r| r.cycles).sum();
    let default_area = estimate_area(&AcceleratorConfig::default()).total_7nm();
    let best = Best {
        desc: best_cand.desc.clone(),
        config: best_cand.config.clone(),
        combined_cycles,
        incumbent_cycles,
        speedup: incumbent_cycles as f64 / combined_cycles.max(1) as f64,
        area_ratio: best_cand.area_7nm / default_area,
        per_dataflow: Dataflow::ALL
            .iter()
            .enumerate()
            .map(|(df, flow)| {
                (
                    flow.label(),
                    best_full[df].cycles,
                    incumbent_full[df].cycles,
                )
            })
            .collect(),
        op_dominant: (incumbent_full[0].dominant().1, best_full[0].dominant().1),
    };

    DseOutcome {
        space: args.space.label(),
        grid: gen.grid,
        in_budget: candidates.len(),
        over_budget: gen.over_budget,
        stall_cut,
        promoted: promoted_cands.len(),
        memo_hits: eval.memo_hits,
        sim_evals: eval.sim_evals,
        fronts,
        best,
    }
}

fn truncate_keeping_incumbent(candidates: &mut Vec<Candidate>, n: usize, incumbent_hash: u64) {
    if candidates.len() <= n {
        return;
    }
    let incumbent_idx = candidates
        .iter()
        .position(|c| c.hash == incumbent_hash)
        .expect("incumbent present before truncation");
    if incumbent_idx >= n {
        let incumbent = candidates[incumbent_idx].clone();
        candidates[n - 1] = incumbent;
    }
    candidates.truncate(n.max(1));
}

impl DseOutcome {
    /// Renders the run as text: counters (greppable by CI), one table per
    /// dataflow front, and the winner line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "space {}: {} grid points, {} in budget ({} over budget)\n",
            self.space, self.grid, self.in_budget, self.over_budget
        ));
        out.push_str(&format!(
            "pruning: stall-cut {}; promoted {}; full-scale evals {} ({:.1}% of the {}-candidate grid)\n",
            self.stall_cut,
            self.promoted,
            self.promoted,
            100.0 * self.promoted as f64 / self.in_budget.max(1) as f64,
            self.in_budget
        ));
        out.push_str(&format!(
            "memo: {} hits / {} candidate-dataflow evaluations\n\n",
            self.memo_hits, self.sim_evals
        ));
        for (label, front) in &self.fronts {
            out.push_str(&format!("{label} front size {}\n", front.len()));
            let mut t = TextTable::new(vec![
                "id",
                "configuration",
                "cycles",
                "area mm2",
                "energy uJ",
                "dominant stall",
            ]);
            for p in front {
                t.row(vec![
                    p.id.to_string(),
                    p.desc.clone(),
                    p.cycles.to_string(),
                    format!("{:.3}", p.area_7nm),
                    format!("{:.1}", p.energy_uj),
                    format!("{} ({:.1}%)", p.dominant, 100.0 * p.dominant_share),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        let b = &self.best;
        out.push_str(&format!(
            "best: {} — combined cycles {} vs incumbent {} ({:.2}x speedup at {:.2}x area)\n",
            b.desc, b.combined_cycles, b.incumbent_cycles, b.speedup, b.area_ratio
        ));
        for (label, best, incumbent) in &b.per_dataflow {
            out.push_str(&format!(
                "  {label:<5} {best:>12} vs {incumbent:>12} ({:.2}x)\n",
                *incumbent as f64 / (*best).max(1) as f64
            ));
        }
        out.push_str(&format!(
            "  OP dominant stall share {:.1}% -> {:.1}% ({:+.1} pp)\n",
            100.0 * b.op_dominant.0,
            100.0 * b.op_dominant.1,
            100.0 * (b.op_dominant.1 - b.op_dominant.0)
        ));
        out
    }

    /// The run as a JSON object (embedded in `BENCH_cycles.json` by
    /// `cycle_report`).
    pub fn to_json(&self) -> String {
        let fronts: Vec<String> = self
            .fronts
            .iter()
            .map(|(label, front)| {
                let points: Vec<String> = front
                    .iter()
                    .map(|p| {
                        format!(
                            "{{ \"id\": {}, \"desc\": \"{}\", \"cycles\": {}, \
                             \"area_7nm\": {:.4}, \"energy_uj\": {:.2}, \
                             \"dominant\": \"{}\", \"dominant_share\": {:.4} }}",
                            p.id,
                            p.desc,
                            p.cycles,
                            p.area_7nm,
                            p.energy_uj,
                            p.dominant,
                            p.dominant_share
                        )
                    })
                    .collect();
                format!("\"{label}\": [ {} ]", points.join(", "))
            })
            .collect();
        let b = &self.best;
        format!(
            "{{ \"space\": \"{}\", \"grid\": {}, \"in_budget\": {}, \"over_budget\": {}, \
             \"stall_cut\": {}, \"promoted\": {}, \"memo_hits\": {}, \"sim_evals\": {}, \
             \"fronts\": {{ {} }}, \"best\": {{ \"desc\": \"{}\", \"combined_cycles\": {}, \
             \"incumbent_cycles\": {}, \"speedup\": {:.4}, \"area_ratio\": {:.4}, \
             \"op_dominant_share\": [{:.4}, {:.4}] }} }}",
            self.space,
            self.grid,
            self.in_budget,
            self.over_budget,
            self.stall_cut,
            self.promoted,
            self.memo_hits,
            self.sim_evals,
            fronts.join(", "),
            b.desc,
            b.combined_cycles,
            b.incumbent_cycles,
            b.speedup,
            b.area_ratio,
            b.op_dominant.0,
            b.op_dominant.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tiny_space_generates_at_most_12_valid_candidates_with_incumbent() {
        let gen = generate(&Space::of(SpaceKind::Tiny), 2.0);
        assert!(gen.candidates.len() <= 12, "{}", gen.candidates.len());
        assert_eq!(gen.grid, 8);
        let incumbent = AcceleratorConfig::default().content_hash();
        assert!(gen.candidates.iter().any(|c| c.hash == incumbent));
        for c in &gen.candidates {
            assert!(c.config.validate().is_ok(), "{}", c.desc);
            assert!(c.area_7nm <= gen.budget_7nm, "{}", c.desc);
        }
    }

    #[test]
    fn default_space_makes_the_area_budget_binding() {
        let gen = generate(&Space::of(SpaceKind::Default), 2.0);
        assert_eq!(gen.grid, 972);
        assert!(gen.over_budget > 0, "budget never binds — space too tame");
        assert!(gen.candidates.len() < gen.grid);
        // Distinct configurations must hash apart for the memo to be sound.
        let distinct: std::collections::HashSet<u64> =
            gen.candidates.iter().map(|c| c.hash).collect();
        assert_eq!(distinct.len(), gen.candidates.len());
    }

    #[test]
    fn memo_returns_cache_hits_for_repeated_configs() {
        let gen = generate(&Space::of(SpaceKind::Tiny), 2.0);
        let cand = gen.candidates[0].clone();
        let data = prepare_eval(&[Dataset::Cora], 80);
        let mut eval = Evaluator::new(1, false);
        let first = eval.evaluate(std::slice::from_ref(&cand), &data, 80);
        assert_eq!(eval.memo_hits, 0);
        assert_eq!(eval.sim_evals, 3);
        let second = eval.evaluate(std::slice::from_ref(&cand), &data, 80);
        assert_eq!(eval.memo_hits, 3, "repeat evaluation must hit the memo");
        assert_eq!(eval.sim_evals, 3, "repeat evaluation must not simulate");
        assert_eq!(first, second);
    }

    #[test]
    fn front_is_bit_identical_across_thread_counts() {
        let mk = |threads| DseArgs {
            scale: 160,
            screen_scale: 80,
            datasets: vec![Dataset::Cora],
            threads,
            space: SpaceKind::Tiny,
            ..DseArgs::default()
        };
        let serial = run(&mk(1));
        let parallel = run(&mk(4));
        assert_eq!(serial.fronts, parallel.fronts, "fronts diverged");
        assert_eq!(serial.best, parallel.best, "winner diverged");
        assert_eq!(serial, parallel, "counters diverged");
    }

    #[test]
    fn truncation_keeps_the_incumbent() {
        let incumbent = AcceleratorConfig::default().content_hash();
        let mut gen = generate(&Space::of(SpaceKind::Tiny), 2.0);
        // Push the incumbent to the tail so truncation would drop it.
        let idx = gen
            .candidates
            .iter()
            .position(|c| c.hash == incumbent)
            .unwrap();
        let last = gen.candidates.len() - 1;
        gen.candidates.swap(idx, last);
        truncate_keeping_incumbent(&mut gen.candidates, 3, incumbent);
        assert_eq!(gen.candidates.len(), 3);
        assert!(gen.candidates.iter().any(|c| c.hash == incumbent));
    }

    #[test]
    fn parses_and_validates_arguments() {
        let parse = |items: &[&str]| DseArgs::parse(items.iter().map(|s| s.to_string()));
        let a = parse(&[
            "--scale",
            "300",
            "--screen-scale",
            "100",
            "--datasets",
            "CR",
            "--space",
            "tiny",
            "--eta",
            "2",
            "--area-budget",
            "1.5",
            "--max-candidates",
            "6",
            "--audit",
        ])
        .unwrap();
        assert_eq!(a.scale, 300);
        assert_eq!(a.screen_scale, 100);
        assert_eq!(a.datasets, vec![Dataset::Cora]);
        assert_eq!(a.space, SpaceKind::Tiny);
        assert_eq!(a.eta, 2);
        assert_eq!(a.area_budget, 1.5);
        assert_eq!(a.max_candidates, Some(6));
        assert!(a.audit);
        assert!(parse(&["--screen-scale", "700"]).is_err());
        assert!(parse(&["--eta", "1"]).is_err());
        assert!(parse(&["--area-budget", "-1"]).is_err());
        assert!(parse(&["--space", "vast"]).is_err());
        assert!(parse(&["--max-candidates", "0"]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn pareto_front_contains_no_dominated_point(
            raw in proptest::collection::vec((0u64..40, 0u64..40), 1..30)
        ) {
            let points: Vec<(u64, f64)> = raw.iter().map(|&(c, a)| (c, a as f64)).collect();
            let front = pareto_front(&points);
            prop_assert!(!front.is_empty(), "non-empty input must yield a front");
            for &i in &front {
                let (ci, ai) = points[i];
                let dominated = points
                    .iter()
                    .enumerate()
                    .any(|(j, &(cj, aj))| {
                        j != i && cj <= ci && aj <= ai && (cj < ci || aj < ai)
                    });
                prop_assert!(!dominated, "front point {i} ({ci}, {ai}) is dominated");
            }
            // Everything off the front is dominated or a duplicate of a
            // front member.
            for (j, &(cj, aj)) in points.iter().enumerate() {
                if front.contains(&j) {
                    continue;
                }
                let covered = points.iter().enumerate().any(|(k, &(ck, ak))| {
                    k != j && ck <= cj && ak <= aj
                });
                prop_assert!(covered, "non-front point {j} is not covered");
            }
        }
    }
}
