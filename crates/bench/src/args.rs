//! The experiment flags shared by the `hymm-bench` subcommands.

use hymm_core::config::Preset;
use hymm_graph::datasets::Dataset;
use hymm_mem::PrefetchPolicy;
use std::fmt;

/// The flags [`BenchArgs::parse`] accepts, as printed in a subcommand's
/// usage line.
pub const FLAGS: &str = "[--scale N] [--datasets CR,AP,AC,CS,PH,FR,YP] [--threads N] \
     [--audit] [--stalls] [--preset default|tuned] \
     [--prefetch off|next-line|smq-stream] [--prefetch-degree N] \
     [--prefetch-mshr-cap K] [--pe-lanes N] [--mac-latency N] \
     [--mac-pipeline] [--lane-gating] \
     [--quiet] [-v|--verbose]";

/// A malformed command line. `hymm-bench` prints this plus the subcommand's
/// usage and exits with status 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(String);

impl ArgError {
    pub(crate) fn new(msg: impl Into<String>) -> ArgError {
        ArgError(msg.into())
    }
}

/// Parses a `CR,AP,...` dataset-abbreviation list (shared by `--datasets`
/// here and in the `dse` subcommand's argument parser).
pub(crate) fn parse_dataset_list(v: &str) -> Result<Vec<Dataset>, ArgError> {
    v.split(',')
        .map(|abbr| {
            Dataset::from_abbrev(abbr.trim())
                .ok_or_else(|| ArgError::new(format!("unknown dataset {abbr:?}")))
        })
        .collect()
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed experiment options.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Cap each dataset at this many nodes (`None` = full Table II scale).
    pub scale: Option<usize>,
    /// Datasets to run (defaults to all seven).
    pub datasets: Vec<Dataset>,
    /// Worker threads for the suite runner (`0` = auto-detect, `1` = serial).
    pub threads: usize,
    /// Enable the simulator's runtime invariant audit (see
    /// `hymm_core::audit`); any violation aborts the run.
    pub audit: bool,
    /// Print the per-dataflow stall-attribution table (see
    /// `hymm_core::stats::StallBreakdown`) after the figures.
    pub stalls: bool,
    /// Named configuration preset applied before every individual knob
    /// override (`default` reproduces Table III; `tuned` is the best
    /// iso-area-budget configuration found by the `dse` subcommand).
    pub preset: Preset,
    /// Hardware-prefetch policy override on the DMB miss path (`None` =
    /// whatever the preset/config default says; `off` keeps timing
    /// bit-identical to a build without the prefetcher).
    pub prefetch: Option<PrefetchPolicy>,
    /// Prefetch degree override (`None` = the `MemConfig` default).
    pub prefetch_degree: Option<usize>,
    /// Prefetch MSHR occupancy cap override (`None` = the `MemConfig`
    /// default).
    pub prefetch_mshr_cap: Option<usize>,
    /// MAC lanes per PE vector unit (`None` = the accelerator config's
    /// default of 16).
    pub pe_lanes: Option<usize>,
    /// MAC issue-to-result latency in cycles (`None` = the default of 1).
    pub mac_latency: Option<u64>,
    /// Pipeline the MAC unit: accept a new issue every cycle regardless of
    /// latency (initiation interval 1).
    pub mac_pipeline: bool,
    /// Per-lane operand gating (flexible VRF): short rows charge only
    /// occupied lanes' energy and may be packed several to an issue slot.
    pub lane_gating: bool,
    /// Silence progress output (`--quiet`); errors still print.
    pub quiet: bool,
    /// Enable diagnostic detail (`-v`/`--verbose`).
    pub verbose: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: None,
            datasets: Dataset::ALL.to_vec(),
            threads: 0,
            audit: false,
            stalls: false,
            preset: Preset::Default,
            prefetch: None,
            prefetch_degree: None,
            prefetch_mshr_cap: None,
            pe_lanes: None,
            mac_latency: None,
            mac_pipeline: false,
            lane_gating: false,
            quiet: false,
            verbose: false,
        }
    }
}

impl BenchArgs {
    /// Parses the [`FLAGS`] from an iterator of arguments (a subcommand's
    /// arguments, after its name).
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] describing the first malformed argument, or
    /// the configuration error when the arguments describe an accelerator
    /// that `AcceleratorConfig::validate` refuses; nothing panics and no
    /// partial state escapes.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, ArgError> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--scale needs a node count"))?;
                    let n: usize = v.parse().map_err(|_| {
                        ArgError::new(format!("--scale needs an integer, got {v:?}"))
                    })?;
                    // The graph generators need two nodes (as `hymm-sim`,
                    // `dse` and serve requests require too).
                    if n < 2 {
                        return Err(ArgError::new("--scale must be at least 2"));
                    }
                    out.scale = Some(n);
                }
                "--datasets" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--datasets needs a CR,AP,... list"))?;
                    out.datasets = parse_dataset_list(&v)?;
                }
                "--threads" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--threads needs a worker count"))?;
                    out.threads = v.parse().map_err(|_| {
                        ArgError::new(format!("--threads needs an integer, got {v:?}"))
                    })?;
                }
                "--audit" => out.audit = true,
                "--stalls" => out.stalls = true,
                "--preset" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--preset needs a preset name"))?;
                    out.preset = Preset::parse(&v).ok_or_else(|| {
                        ArgError::new(format!("unknown preset {v:?} (default, tuned)"))
                    })?;
                }
                "--prefetch" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--prefetch needs a policy name"))?;
                    out.prefetch = Some(PrefetchPolicy::parse(&v).ok_or_else(|| {
                        ArgError::new(format!(
                            "unknown prefetch policy {v:?} (off, next-line, smq-stream)"
                        ))
                    })?);
                }
                "--prefetch-degree" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--prefetch-degree needs a line count"))?;
                    let n: usize = v.parse().map_err(|_| {
                        ArgError::new(format!("--prefetch-degree needs an integer, got {v:?}"))
                    })?;
                    if n == 0 {
                        return Err(ArgError::new("--prefetch-degree must be at least 1"));
                    }
                    out.prefetch_degree = Some(n);
                }
                "--prefetch-mshr-cap" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--prefetch-mshr-cap needs an MSHR count"))?;
                    let n: usize = v.parse().map_err(|_| {
                        ArgError::new(format!("--prefetch-mshr-cap needs an integer, got {v:?}"))
                    })?;
                    if n == 0 {
                        return Err(ArgError::new("--prefetch-mshr-cap must be at least 1"));
                    }
                    out.prefetch_mshr_cap = Some(n);
                }
                "--pe-lanes" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--pe-lanes needs a lane count"))?;
                    let n: usize = v.parse().map_err(|_| {
                        ArgError::new(format!("--pe-lanes needs an integer, got {v:?}"))
                    })?;
                    if n == 0 {
                        return Err(ArgError::new("--pe-lanes must be at least 1"));
                    }
                    out.pe_lanes = Some(n);
                }
                "--mac-latency" => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError::new("--mac-latency needs a cycle count"))?;
                    let n: u64 = v.parse().map_err(|_| {
                        ArgError::new(format!("--mac-latency needs an integer, got {v:?}"))
                    })?;
                    if n == 0 {
                        return Err(ArgError::new("--mac-latency must be at least 1"));
                    }
                    out.mac_latency = Some(n);
                }
                "--mac-pipeline" => out.mac_pipeline = true,
                "--lane-gating" => out.lane_gating = true,
                "--quiet" => out.quiet = true,
                "-v" | "--verbose" => out.verbose = true,
                other => {
                    return Err(ArgError::new(format!(
                        "unknown argument {other:?} (try --help)"
                    )))
                }
            }
        }
        if out.quiet && out.verbose {
            return Err(ArgError::new(
                "--quiet and --verbose are mutually exclusive",
            ));
        }
        // Values the simulator refuses (a lane count above the maximum, a
        // prefetch cap that starves demand misses, ...) are argument errors
        // here rather than a panic once the suite is running.
        out.accelerator_config()
            .validate()
            .map_err(|e| ArgError::new(e.to_string()))?;
        Ok(out)
    }

    /// Logger level implied by the `--quiet`/`--verbose` flags.
    pub fn log_level(&self) -> crate::log::Level {
        if self.quiet {
            crate::log::Level::Quiet
        } else if self.verbose {
            crate::log::Level::Verbose
        } else {
            crate::log::Level::Progress
        }
    }

    /// Applies the `--prefetch*` options onto a memory configuration,
    /// leaving unset overrides at the config's (or active preset's) own
    /// defaults.
    pub fn apply_prefetch(&self, mem: &mut hymm_mem::MemConfig) {
        if let Some(p) = self.prefetch {
            mem.prefetch = p;
        }
        if let Some(d) = self.prefetch_degree {
            mem.prefetch_degree = d;
        }
        if let Some(k) = self.prefetch_mshr_cap {
            mem.prefetch_mshr_cap = k;
        }
    }

    /// Builds the full accelerator configuration these arguments describe:
    /// the preset applied over Table III, then every individual knob
    /// override on top (so explicit flags always win), plus the audit
    /// selection. Shared by the suite runner and the other
    /// subcommands so `--preset tuned` means the same thing everywhere.
    pub fn accelerator_config(&self) -> hymm_core::config::AcceleratorConfig {
        let mut config = hymm_core::config::AcceleratorConfig {
            audit: self.audit,
            ..hymm_core::config::AcceleratorConfig::default()
        };
        self.preset.apply(&mut config);
        self.apply_prefetch(&mut config.mem);
        self.apply_pe(&mut config);
        config
    }

    /// Applies the `--pe-lanes`, `--mac-latency`, `--mac-pipeline` and
    /// `--lane-gating` options onto an accelerator configuration, leaving
    /// unset overrides at the config's own defaults.
    pub fn apply_pe(&self, config: &mut hymm_core::config::AcceleratorConfig) {
        if let Some(lanes) = self.pe_lanes {
            config.num_pes = lanes;
        }
        if let Some(latency) = self.mac_latency {
            config.mac_latency = latency;
        }
        if self.mac_pipeline {
            config.mac_pipelined = true;
        }
        if self.lane_gating {
            config.lane_gating = true;
        }
    }

    /// Resolved worker count: `--threads N`, with `0` (the default) mapped
    /// to the host's available parallelism.
    pub fn worker_threads(&self) -> usize {
        if self.threads == 0 {
            crate::pool::default_threads()
        } else {
            self.threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Result<BenchArgs, ArgError> {
        BenchArgs::parse(items.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_full_scale_all_datasets() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, None);
        assert_eq!(a.datasets.len(), 7);
        assert!(!a.audit);
        assert!(!a.stalls);
    }

    #[test]
    fn parses_stalls_flag() {
        assert!(parse(&["--stalls"]).unwrap().stalls);
    }

    #[test]
    fn rejects_removed_scheduler_flag() {
        // There is one simulation core; the old core selector is an
        // unknown argument like any other, so `hymm-bench` exits 2 with
        // usage.
        let flag = concat!("--", "scheduler");
        for v in ["stepped", "event"] {
            let e = parse(&[flag, v]).unwrap_err();
            assert!(
                e.to_string()
                    .contains(&format!("unknown argument {flag:?}")),
                "{e}"
            );
        }
        assert!(!FLAGS.contains(flag));
    }

    #[test]
    fn parses_scale() {
        assert_eq!(parse(&["--scale", "500"]).unwrap().scale, Some(500));
    }

    #[test]
    fn parses_threads() {
        assert_eq!(parse(&["--threads", "4"]).unwrap().threads, 4);
    }

    #[test]
    fn threads_defaults_to_auto() {
        assert_eq!(parse(&[]).unwrap().threads, 0);
    }

    #[test]
    fn parses_audit_flag() {
        assert!(parse(&["--audit"]).unwrap().audit);
    }

    #[test]
    fn rejects_non_numeric_threads() {
        let e = parse(&["--threads", "many"]).unwrap_err();
        assert!(e.to_string().contains("--threads needs an integer"), "{e}");
    }

    #[test]
    fn rejects_non_numeric_scale() {
        let e = parse(&["--scale", "big"]).unwrap_err();
        assert!(e.to_string().contains("--scale needs an integer"), "{e}");
    }

    #[test]
    fn rejects_scale_below_two() {
        for n in ["0", "1"] {
            let e = parse(&["--scale", n]).unwrap_err();
            assert!(
                e.to_string().contains("--scale must be at least 2"),
                "{n}: {e}"
            );
        }
        assert_eq!(parse(&["--scale", "2"]).unwrap().scale, Some(2));
    }

    #[test]
    fn rejects_missing_flag_value() {
        let e = parse(&["--scale"]).unwrap_err();
        assert!(e.to_string().contains("--scale needs a node count"), "{e}");
    }

    #[test]
    fn parses_dataset_filter() {
        let a = parse(&["--datasets", "cr,AP"]).unwrap();
        assert_eq!(a.datasets, vec![Dataset::Cora, Dataset::AmazonPhoto]);
    }

    #[test]
    fn rejects_unknown_dataset() {
        let e = parse(&["--datasets", "XX"]).unwrap_err();
        assert!(e.to_string().contains("unknown dataset"), "{e}");
    }

    #[test]
    fn rejects_unknown_flag() {
        let e = parse(&["--frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unknown argument"), "{e}");
    }

    #[test]
    fn prefetch_defaults_to_unset_with_no_overrides() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.prefetch, None);
        assert_eq!(a.prefetch_degree, None);
        assert_eq!(a.prefetch_mshr_cap, None);
    }

    #[test]
    fn parses_each_prefetch_policy() {
        for policy in PrefetchPolicy::ALL {
            let a = parse(&["--prefetch", policy.label()]).unwrap();
            assert_eq!(a.prefetch, Some(policy));
        }
    }

    #[test]
    fn rejects_unknown_prefetch_policy() {
        let e = parse(&["--prefetch", "psychic"]).unwrap_err();
        assert!(e.to_string().contains("unknown prefetch policy"), "{e}");
    }

    #[test]
    fn parses_prefetch_degree_and_cap() {
        let a = parse(&[
            "--prefetch",
            "next-line",
            "--prefetch-degree",
            "4",
            "--prefetch-mshr-cap",
            "6",
        ])
        .unwrap();
        assert_eq!(a.prefetch_degree, Some(4));
        assert_eq!(a.prefetch_mshr_cap, Some(6));
    }

    #[test]
    fn rejects_zero_prefetch_degree_and_cap() {
        for flag in ["--prefetch-degree", "--prefetch-mshr-cap"] {
            let e = parse(&[flag, "0"]).unwrap_err();
            assert!(e.to_string().contains("at least 1"), "{flag}: {e}");
        }
    }

    #[test]
    fn pe_defaults_leave_accelerator_config_untouched() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.pe_lanes, None);
        assert_eq!(a.mac_latency, None);
        assert!(!a.mac_pipeline);
        assert!(!a.lane_gating);
        let mut config = hymm_core::config::AcceleratorConfig::default();
        let before = config.clone();
        a.apply_pe(&mut config);
        assert_eq!(config, before);
    }

    #[test]
    fn parses_pe_flags() {
        let a = parse(&[
            "--pe-lanes",
            "32",
            "--mac-latency",
            "4",
            "--mac-pipeline",
            "--lane-gating",
        ])
        .unwrap();
        assert_eq!(a.pe_lanes, Some(32));
        assert_eq!(a.mac_latency, Some(4));
        assert!(a.mac_pipeline);
        assert!(a.lane_gating);
    }

    #[test]
    fn pe_overrides_apply_onto_accelerator_config() {
        let mut config = hymm_core::config::AcceleratorConfig::default();
        parse(&["--pe-lanes", "8", "--mac-latency", "2", "--lane-gating"])
            .unwrap()
            .apply_pe(&mut config);
        assert_eq!(config.num_pes, 8);
        assert_eq!(config.mac_latency, 2);
        assert!(!config.mac_pipelined);
        assert!(config.lane_gating);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn rejects_zero_pe_lanes_and_latency() {
        for flag in ["--pe-lanes", "--mac-latency"] {
            let e = parse(&[flag, "0"]).unwrap_err();
            assert!(e.to_string().contains("at least 1"), "{flag}: {e}");
        }
    }

    #[test]
    fn rejects_values_the_simulator_refuses() {
        for (args, want) in [
            (["--pe-lanes", "5000"], "num_pes"),
            (["--mac-latency", "1000"], "mac_latency"),
            (["--prefetch-degree", "65"], "prefetch_degree"),
            (["--prefetch-mshr-cap", "32"], "prefetch_mshr_cap"),
        ] {
            let e = parse(&args).unwrap_err();
            assert!(e.to_string().contains(want), "{args:?}: {e}");
        }
        // The preset applies before validation: the tuned preset's 64
        // MSHRs admit a cap the Table III default's 32 would refuse.
        assert!(parse(&["--preset", "tuned", "--prefetch-mshr-cap", "32"]).is_ok());
    }

    #[test]
    fn prefetch_overrides_apply_onto_mem_config() {
        let mut mem = hymm_mem::MemConfig::default();
        let defaults = (mem.prefetch_degree, mem.prefetch_mshr_cap);
        parse(&["--prefetch", "smq-stream"])
            .unwrap()
            .apply_prefetch(&mut mem);
        assert_eq!(mem.prefetch, PrefetchPolicy::SmqStream);
        assert_eq!((mem.prefetch_degree, mem.prefetch_mshr_cap), defaults);
        // An unset --prefetch leaves the policy alone (so a preset's choice
        // survives) while degree/cap overrides still land.
        parse(&["--prefetch-degree", "3", "--prefetch-mshr-cap", "2"])
            .unwrap()
            .apply_prefetch(&mut mem);
        assert_eq!(mem.prefetch, PrefetchPolicy::SmqStream);
        assert_eq!(mem.prefetch_degree, 3);
        assert_eq!(mem.prefetch_mshr_cap, 2);
    }

    #[test]
    fn log_flags_parse_and_map_to_levels() {
        use crate::log::Level;
        assert_eq!(parse(&[]).unwrap().log_level(), Level::Progress);
        assert_eq!(parse(&["--quiet"]).unwrap().log_level(), Level::Quiet);
        assert_eq!(parse(&["-v"]).unwrap().log_level(), Level::Verbose);
        assert_eq!(parse(&["--verbose"]).unwrap().log_level(), Level::Verbose);
        let e = parse(&["--quiet", "-v"]).unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn preset_defaults_to_table_iii_and_parses_tuned() {
        assert_eq!(parse(&[]).unwrap().preset, Preset::Default);
        assert_eq!(parse(&["--preset", "tuned"]).unwrap().preset, Preset::Tuned);
        let e = parse(&["--preset", "mystery"]).unwrap_err();
        assert!(e.to_string().contains("unknown preset"), "{e}");
    }

    #[test]
    fn accelerator_config_applies_preset_under_explicit_flags() {
        // Preset alone: the tuned configuration lands as-is.
        let tuned = parse(&["--preset", "tuned"]).unwrap().accelerator_config();
        let mut expect = hymm_core::config::AcceleratorConfig::default();
        Preset::Tuned.apply(&mut expect);
        assert_eq!(tuned, expect);
        assert!(tuned.validate().is_ok());
        // Explicit flags win over the preset's choices.
        let overridden = parse(&["--preset", "tuned", "--prefetch", "off", "--pe-lanes", "16"])
            .unwrap()
            .accelerator_config();
        assert_eq!(overridden.mem.prefetch, PrefetchPolicy::Off);
        assert_eq!(overridden.num_pes, 16);
    }
}
