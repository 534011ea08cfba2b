//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! Prints every metric as `<workload> <metric> <value> <unit>`, saves the
//! run under `benchmark/results/`, and ends with one JSON summary line.
//! Exits 1 when an output check fails, 2 on a bad command line.

use hymm_bench::json::{parse_json, Json};
use hymm_benchmark::workloads::{self, Options, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: hymm-benchmark --workload <paper-suite|dse-sweep|prep-native|serve-open|all> \
                     [--seed N] [--seconds S] [--trace [0|1]]";

struct Args {
    workload: String,
    opts: Options,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: 20.0,
        trace: false,
        tiny: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                if w != "all" && !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                workload = Some(w.clone());
                i += 1;
            }
            "--seed" => {
                opts.seed = value(i)?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
                i += 1;
            }
            "--seconds" => {
                opts.seconds = value(i)?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or("--seconds needs a number in (0, 120]")?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("hymm-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args.opts);
    }
    let outcome = workloads::run(&args.workload, &args.opts).expect("workload name validated");
    for (name, value, unit) in outcome.metrics.rows() {
        println!("{} {name} {value} {unit}", outcome.workload);
    }
    for (key, value) in &outcome.notes {
        println!("# {} {key} {value}", outcome.workload);
    }
    for e in &outcome.errors {
        eprintln!("hymm-benchmark: {}: check failed: {e}", outcome.workload);
    }
    let mode = if args.opts.trace {
        "traced"
    } else {
        "untraced"
    };
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let path = format!(
        "{dir}/{}-seed{}-{mode}.json",
        outcome.workload, args.opts.seed
    );
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, outcome.results_json(args.opts.seed, args.opts.trace)))
    {
        eprintln!("hymm-benchmark: cannot write {path}: {e}");
    }
    println!("{}", outcome.summary_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, so each one's peak
/// memory is its own, and combines their summaries.
fn run_all(opts: &Options) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut correct = true;
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let Ok(output) = output else {
            eprintln!("hymm-benchmark: cannot start {workload}");
            return ExitCode::FAILURE;
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let summary = lines.pop().and_then(|l| parse_json(l).ok());
        lines.iter().for_each(|l| println!("{l}"));
        let Some(summary) = summary else {
            eprintln!("hymm-benchmark: {workload} printed no summary");
            return ExitCode::FAILURE;
        };
        correct &=
            output.status.success() && summary.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += summary
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += summary.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Obj(fields)) = summary.get("metrics") {
            for (name, value) in fields {
                metrics.push((format!("{workload}/{name}"), value.clone()));
            }
        }
    }
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted)),
        ("failed".into(), Json::Num(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", summary.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn accepts_the_driver_form_and_a_bare_trace_flag() {
        let a = parse("--workload serve-open --seed 3 --seconds 20 --trace 0").unwrap();
        assert_eq!(a.workload, "serve-open");
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.opts.trace),
            (3, 20.0, false)
        );
        assert!(parse("--workload all --trace 1").unwrap().opts.trace);
        let bare = parse("--workload dse-sweep --trace --seed 2").unwrap();
        assert!(bare.opts.trace);
        assert_eq!(bare.opts.seed, 2);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "",
            "--workload nope",
            "--workload paper-suite --seconds 0",
            "--workload paper-suite --seconds 1e9",
            "--workload paper-suite --seed -1",
            "--workload paper-suite --frobnicate",
            "--workload",
        ] {
            assert!(parse(line).is_err(), "accepted {line:?}");
        }
    }
}
