//! `hymm-bench` command-line contract: every experiment is a subcommand of
//! one executable, and a malformed command line exits 2 with the error and
//! the usage text instead of running or panicking.

use std::process::{Command, Output};

fn hymm_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hymm-bench"))
        .args(args)
        .output()
        .expect("hymm-bench runs")
}

/// Asserts `args` is refused: exit 2, nothing on stdout, the error and a
/// usage line on stderr, and no panic.
fn assert_refused(args: &[&str], error: &str) {
    let out = hymm_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(error), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: hymm-bench"), "{args:?}: {stderr}");
}

#[test]
fn table1_prints_the_static_table() {
    let out = hymm_bench(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(stdout, format!("{}\n", hymm_bench::figures::table1()));
}

#[test]
fn missing_or_unknown_subcommand_is_refused_with_usage() {
    assert_refused(&[], "missing subcommand");
    assert_refused(&["fig12"], "unknown subcommand \"fig12\"");
    // The old per-binary names are the only subcommand names.
    assert_refused(&["hymm-bench"], "unknown subcommand");
}

#[test]
fn malformed_flags_are_refused_before_any_simulation() {
    assert_refused(&["fig2", "--scale", "1", "--datasets", "CR"], "--scale");
    assert_refused(&["all_experiments", "--csv"], "--csv needs a directory");
    assert_refused(&["table1", "--bogus"], "unknown argument \"--bogus\"");
    assert_refused(&["table3", "--bogus"], "unknown argument \"--bogus\"");
    assert_refused(&["trace_export", "--scale", "0"], "--scale");
    assert_refused(&["trace_export", "--dataset", "PB"], "unknown dataset");
    assert_refused(&["trace_diff", "only-one.json"], "two trace files");
    assert_refused(&["fuzz_oracle", "--iters", "many"], "--iters");
    assert_refused(
        &["cycle_report", "--scale", "300"],
        "reference configuration",
    );
    assert_refused(&["dse", "--space", "huge"], "unknown space");
}

#[test]
fn quiet_silences_progress() {
    let out = hymm_bench(&[
        "all_experiments",
        "--scale",
        "40",
        "--datasets",
        "CR",
        "--threads",
        "1",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("Table I:"), "{stdout}");
    assert!(stdout.contains("Fig. 11"), "{stdout}");
}
