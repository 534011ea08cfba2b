//! `hymm-bench`: every experiment of the HyMM reproduction behind one
//! executable.
//!
//! ```text
//! cargo run --release -p hymm-bench -- <subcommand> [flags]
//! ```
//!
//! The paper subcommands (`table1` … `fig11`, `all_experiments`) print
//! their sections from one suite run. They, the ablations, `pe_sweep` and
//! `prefetch_sweep` take the shared experiment flags
//! ([`hymm_bench::args::FLAGS`]); `dse`, `trace_export`, `trace_diff`,
//! `cycle_report` and `fuzz_oracle` take their own. `hymm-bench
//! <subcommand> --help` prints a subcommand's usage; a malformed command
//! line exits 2 with the error and that usage.

mod ablation;
mod cycle_report;
mod fuzz_oracle;
mod trace_export;

use hymm_bench::args::{self, BenchArgs};
use hymm_bench::dse::{self, DseArgs, DSE_USAGE};
use hymm_bench::runner::{results_match, DatasetResults, MissingRunError};
use hymm_bench::{export, figures, pe_sweep, run_suite, trace_json};
use hymm_mem::PrefetchPolicy;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::exit;

/// One `hymm-bench` subcommand.
pub(crate) struct Command {
    name: &'static str,
    /// Its usage after `hymm-bench NAME`; subcommands that take the shared
    /// experiment flags list [`args::FLAGS`] after these.
    flags: &'static str,
    run: Run,
}

/// How a subcommand runs.
enum Run {
    /// Prints these paper sections from one suite run.
    Paper(&'static [Section]),
    /// Takes the shared experiment flags.
    Sweep(fn(&BenchArgs)),
    /// Parses its own flags.
    Own(fn(&Command, Vec<String>)),
}

const fn cmd(name: &'static str, flags: &'static str, run: Run) -> Command {
    Command { name, flags, run }
}

#[rustfmt::skip]
const COMMANDS: [Command; 22] = [
    cmd("table1", "", Run::Paper(&[Section::Table1])),
    cmd("table2", "", Run::Paper(&[Section::Table2])),
    cmd("table3", "", Run::Paper(&[Section::Table3])),
    cmd("fig2", "", Run::Paper(&[Section::Fig2])),
    cmd("fig6", "", Run::Paper(&[Section::Fig6])),
    cmd("fig7", "", Run::Paper(&[Section::Fig7])),
    cmd("fig8", "", Run::Paper(&[Section::Fig8])),
    cmd("fig9", "", Run::Paper(&[Section::Fig9])),
    cmd("fig10", "", Run::Paper(&[Section::Fig10])),
    cmd("fig11", "", Run::Paper(&[Section::Fig11])),
    cmd("all_experiments", "[--csv DIR]", Run::Paper(&Section::ALL)),
    cmd("ablation_bandwidth", "", Run::Sweep(ablation::bandwidth)),
    cmd("ablation_buffers", "", Run::Sweep(ablation::buffers)),
    cmd("ablation_dataflows", "", Run::Sweep(ablation::dataflows)),
    cmd("ablation_tiling", "", Run::Sweep(ablation::tiling)),
    cmd("pe_sweep", "", Run::Sweep(pe_sweep)),
    cmd("prefetch_sweep", "", Run::Sweep(prefetch_sweep)),
    cmd("dse", DSE_USAGE, Run::Own(dse)),
    cmd("trace_export", trace_export::FLAGS, Run::Own(trace_export::run)),
    cmd("trace_diff", TRACE_DIFF_FLAGS, Run::Own(trace_diff)),
    cmd("cycle_report", cycle_report::FLAGS, Run::Own(cycle_report::run)),
    cmd("fuzz_oracle", fuzz_oracle::FLAGS, Run::Own(fuzz_oracle::run)),
];

impl Command {
    fn usage(&self) -> String {
        // The library's `DSE_USAGE` carries its own `usage: dse` prefix.
        let own = self
            .flags
            .trim_start_matches(&format!("usage: {} ", self.name));
        let flags = match self.run {
            Run::Own(_) => own.to_string(),
            _ => [own, args::FLAGS].join(" ").trim_start().to_string(),
        };
        format!("usage: hymm-bench {} {flags}", self.name)
    }

    /// Refuses the command line: prints `error` and the usage to stderr
    /// and exits with status 2.
    pub(crate) fn fail(&self, error: &dyn Display) -> ! {
        usage_error(error, &self.usage())
    }
}

fn usage_error(error: &dyn Display, usage: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("{usage}");
    exit(2);
}

/// Prints a runtime error (not a command-line problem, so the usage would
/// only add noise) to stderr and exits with status 2.
pub(crate) fn fatal(error: &dyn Display) -> ! {
    eprintln!("error: {error}");
    exit(2);
}

/// The top-level usage: every subcommand, grouped by how it runs.
fn overview() -> String {
    let names = |keep: fn(&Run) -> bool| {
        let names: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| keep(&c.run))
            .map(|c| c.name)
            .collect();
        names.join(" ")
    };
    format!(
        "usage: hymm-bench <subcommand> [flags]\n\n\
         paper:       {}\n\
         sweeps:      {}\n\
         tools:       {}\n\n\
         `hymm-bench <subcommand> --help` prints a subcommand's flags.",
        names(|r| matches!(r, Run::Paper(_))),
        names(|r| matches!(r, Run::Sweep(_))),
        names(|r| matches!(r, Run::Own(_))),
    )
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next();
    let raw: Vec<String> = argv.collect();
    let cmd = match name.as_deref() {
        None => usage_error(&"missing subcommand", &overview()),
        Some("--help" | "-h") => {
            println!("{}", overview());
            exit(0);
        }
        Some(name) => COMMANDS
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| usage_error(&format!("unknown subcommand {name:?}"), &overview())),
    };
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cmd.usage());
        exit(0);
    }
    match cmd.run {
        Run::Paper(sections) => print_paper(cmd, sections, raw),
        Run::Sweep(run) => run(&bench_args(cmd, raw)),
        Run::Own(run) => run(cmd, raw),
    }
}

/// The one path from a subcommand's arguments to [`BenchArgs`]: parses
/// them, refuses a malformed line with usage, and applies `--quiet` /
/// `-v` to the progress log.
pub(crate) fn bench_args(cmd: &Command, raw: Vec<String>) -> BenchArgs {
    let args = BenchArgs::parse(raw).unwrap_or_else(|e| cmd.fail(&e));
    hymm_bench::log::set_level(args.log_level());
    args
}

/// One table or figure of the paper.
#[derive(Clone, Copy)]
enum Section {
    Table1,
    Table2,
    Table3,
    Fig2,
    Fig6,
    Fig7,
    Fig8,
    Fig9,
    Fig10,
    Fig11,
}

impl Section {
    /// Paper order, as `all_experiments` prints them.
    const ALL: [Section; 10] = [
        Section::Table1,
        Section::Table2,
        Section::Table3,
        Section::Fig2,
        Section::Fig6,
        Section::Fig7,
        Section::Fig8,
        Section::Fig9,
        Section::Fig10,
        Section::Fig11,
    ];

    /// Whether the section reads suite results (Tables I and III do not).
    fn needs_suite(self) -> bool {
        !matches!(self, Section::Table1 | Section::Table3)
    }

    fn render(
        self,
        args: &BenchArgs,
        results: &[DatasetResults],
    ) -> Result<String, MissingRunError> {
        Ok(match self {
            Section::Table1 => figures::table1(),
            Section::Table2 => figures::table2(results),
            Section::Table3 => figures::table3(&args.accelerator_config()),
            Section::Fig2 => figures::fig2(results),
            Section::Fig6 => figures::fig6(results),
            Section::Fig7 => figures::fig7(results)?,
            Section::Fig8 => figures::fig8(results)?,
            Section::Fig9 => figures::fig9(results)?,
            Section::Fig10 => figures::fig10(results)?,
            Section::Fig11 => figures::fig11(results)?,
        })
    }
}

/// Prints `sections` (then the stall table under `--stalls`) from one
/// suite run; `all_experiments --csv DIR` also writes every figure's data
/// as CSV files into `DIR`.
fn print_paper(cmd: &Command, sections: &[Section], mut raw: Vec<String>) {
    let mut csv_dir = None;
    if cmd.name == "all_experiments" {
        if let Some(i) = raw.iter().position(|a| a == "--csv") {
            raw.remove(i);
            if i == raw.len() {
                cmd.fail(&"--csv needs a directory");
            }
            csv_dir = Some(PathBuf::from(raw.remove(i)));
        }
    }
    let args = bench_args(cmd, raw);
    let results = if args.stalls || sections.iter().any(|s| s.needs_suite()) {
        run_suite(&args)
    } else {
        Vec::new()
    };
    if let Some(dir) = &csv_dir {
        export::write_csvs(&results, dir).unwrap_or_else(|e| fatal(&format!("csv export: {e}")));
        hymm_bench::progress!("[hymm-bench] wrote CSV files to {}", dir.display());
    }
    let text: Vec<String> = sections
        .iter()
        .map(|s| s.render(&args, &results))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| fatal(&e));
    for s in text {
        println!("{s}");
    }
    if args.stalls {
        println!("{}", figures::stalls(&results));
    }
}

/// Sweeps the PE subsystem (`{8, 16, 32}` lanes × `{1, 4}` cycles of MAC
/// latency; `--pe-lanes` / `--mac-latency` are swept over, `--mac-pipeline`
/// and `--lane-gating` apply to every point) and prints, per grid point,
/// suite-total cycles, `mac` stall cycles and their delta against the
/// 16-lane latency-1 baseline, and the configuration's estimated area.
///
/// The baseline grid point is asserted bit-identical to a plain default-PE
/// suite run before anything is printed: at 16 lanes every 16-wide layer
/// row fills the vector unit, so neither the sweep plumbing nor the
/// flexible VRF may perturb the Table III default.
fn pe_sweep(base: &BenchArgs) {
    let rows = pe_sweep::sweep(base).unwrap_or_else(|e| fatal(&e));
    let base_idx = pe_sweep::baseline_index(&rows)
        .unwrap_or_else(|| fatal(&"sweep grid is missing the 16x1 baseline point"));

    hymm_bench::progress!("[pe_sweep] checking 16x1 grid point against the default PE ...");
    let reference = run_suite(&BenchArgs {
        pe_lanes: None,
        mac_latency: None,
        mac_pipeline: false,
        lane_gating: false,
        ..base.clone()
    });
    if !results_match(&rows[base_idx].results, &reference) {
        fatal(&"16x1 grid point diverged from the default PE configuration");
    }
    hymm_bench::progress!("[pe_sweep] baseline identical to default: ok");

    println!("{}", pe_sweep::render(&rows));
}

/// Runs the suite under every prefetch policy (`--prefetch` is swept over)
/// and prints, per (dataset, policy, dataflow): total cycles relative to
/// `off`, the `dmb-miss` and `prefetch-late` stall shares, and the
/// prefetcher's own accounting (issued / useful / accuracy / late /
/// dropped).
fn prefetch_sweep(base: &BenchArgs) {
    // One suite per policy; identical preprocessing is re-done per pass,
    // which keeps the runner's timing-invariance path untouched.
    let sweeps: Vec<(PrefetchPolicy, _)> = PrefetchPolicy::ALL
        .into_iter()
        .map(|policy| {
            hymm_bench::progress!("[prefetch_sweep] policy {} ...", policy.label());
            let args = BenchArgs {
                prefetch: Some(policy),
                ..base.clone()
            };
            (policy, run_suite(&args))
        })
        .collect();

    let (_, baseline) = &sweeps[0];
    println!(
        "{:<6} {:<12} {:<12} {:>12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6} {:>9}",
        "data",
        "policy",
        "dataflow",
        "cycles",
        "vs-off",
        "dmb-miss%",
        "pf-late%",
        "issued",
        "useful",
        "acc%",
        "late",
        "dropped"
    );
    for (policy, results) in &sweeps {
        for (d, dataset) in results.iter().enumerate() {
            for run in &dataset.runs {
                let report = &run.report;
                let cycles = report.cycles.max(1) as f64;
                let share = |v: u64| 100.0 * v as f64 / cycles;
                let off_cycles = baseline[d]
                    .run(run.label)
                    .unwrap_or_else(|e| fatal(&e))
                    .report
                    .cycles
                    .max(1) as f64;
                let pf = &report.prefetch;
                println!(
                    "{:<6} {:<12} {:<12} {:>12} {:>7.3}x {:>8.1}% {:>8.1}% {:>9} {:>9} \
                     {:>5.0}% {:>6} {:>9}",
                    dataset.spec.dataset.abbrev(),
                    policy.label(),
                    run.label,
                    report.cycles,
                    report.cycles as f64 / off_cycles,
                    share(report.stalls.dmb_miss),
                    share(report.stalls.prefetch_late),
                    pf.issued,
                    pf.useful,
                    100.0 * pf.accuracy(),
                    pf.late,
                    pf.dropped()
                );
            }
        }
    }
}

/// Stall-guided design-space exploration (see [`hymm_bench::dse`]): prints
/// the per-dataflow Pareto fronts over (suite cycles, area) with energy
/// alongside, the pruning/memo counters, and the winning configuration —
/// the one `--preset tuned` applies.
fn dse(cmd: &Command, raw: Vec<String>) {
    let args = DseArgs::parse(raw).unwrap_or_else(|e| cmd.fail(&e));
    println!("{}", dse::run(&args).render());
}

const TRACE_DIFF_FLAGS: &str = "A.json B.json

Compares two chrome-trace documents written by trace_export: per-phase
duration deltas and histogram shifts, B relative to A.";

/// Compares two `trace_export` documents: the per-phase duration deltas
/// (total cycles per `run/phase` slice on the `phases` track, B relative
/// to A) and the `hymmHistograms` shifts (sample counts and count-weighted
/// bucket means) as aligned tables. Typical use: export one trace per
/// prefetch policy, then diff them.
fn trace_diff(cmd: &Command, raw: Vec<String>) {
    if let Some(flag) = raw.iter().find(|a| a.starts_with('-')) {
        cmd.fail(&format!("unknown argument {flag:?}"));
    }
    let [a_path, b_path] = raw.as_slice() else {
        cmd.fail(&"expected exactly two trace files");
    };
    let load = |path: &str| {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fatal(&format!("cannot read {path}: {e}")));
        trace_json::summarize_trace(&src).unwrap_or_else(|e| {
            eprintln!("error: {path} is not a valid trace document: {e}");
            exit(1);
        })
    };
    let (a, b) = (load(a_path), load(b_path));
    println!("A = {a_path}");
    println!("B = {b_path}");
    println!();
    print!("{}", trace_json::diff_table(&a, &b));
}
