//! Argument parsing and dispatch for the `runner` binary — a
//! command-line driver for ad-hoc experiments:
//!
//! ```text
//! runner list
//! runner run --app Ocean --policy SCOMA-70 [--scale small|paper]
//!            [--nodes N] [--ppn N] [--capacity FRAMES] [--migration]
//!            [--check] [--trace-in FILE] [--seed-workload]
//! runner tracegen --app LU --out lu.prtr [--procs N] [--scale small|paper]
//! runner sweep --app Ocean [--scale small|paper] [--nodes N] [--ppn N] [--csv]
//! ```
//!
//! Parsing is hand-rolled (no external dependency) and unit-tested.

use std::fmt;
use std::path::PathBuf;

use prism_core::kernel::migration::MigrationPolicy;
use prism_core::machine::config::MachineConfigBuilder;
use prism_core::{run_specs, MachineConfig, PolicyKind, RunSpec, Simulation};
use prism_workloads::{app, AppId, Scale};

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print available applications and policies.
    List,
    /// Run one simulation.
    Run(RunArgs),
    /// Generate a trace file.
    TraceGen(TraceGenArgs),
    /// Sweep one application across all six paper configurations.
    Sweep(SweepArgs),
}

/// Arguments for `runner sweep`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepArgs {
    /// Application to sweep.
    pub app: AppId,
    /// Problem scale.
    pub scale: Scale,
    /// Nodes in the machine.
    pub nodes: usize,
    /// Processors per node.
    pub ppn: usize,
    /// Emit CSV instead of a table.
    pub csv: bool,
}

/// Arguments for `runner run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Application (ignored when `trace_in` is given).
    pub app: AppId,
    /// Page-mode configuration.
    pub policy: PolicyKind,
    /// Problem scale.
    pub scale: Scale,
    /// Nodes in the machine.
    pub nodes: usize,
    /// Processors per node.
    pub ppn: usize,
    /// Page-cache capacity override (derived from a SCOMA baseline when
    /// absent and the policy needs one).
    pub capacity: Option<usize>,
    /// Enable lazy home migration.
    pub migration: bool,
    /// Enable the read-sees-latest-write checker.
    pub check: bool,
    /// Replay a PRTR trace file instead of generating the workload.
    pub trace_in: Option<PathBuf>,
}

/// Arguments for `runner tracegen`.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceGenArgs {
    /// Application to generate.
    pub app: AppId,
    /// Output path.
    pub out: PathBuf,
    /// Processor count the trace targets.
    pub procs: usize,
    /// Problem scale.
    pub scale: Scale,
}

/// A parse failure with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The suite application named `s`, in any case.
pub fn parse_app(s: &str) -> Result<AppId, CliError> {
    AppId::ALL
        .into_iter()
        .find(|a| a.to_string().eq_ignore_ascii_case(s))
        .ok_or_else(|| CliError(format!("unknown app '{s}' (try `runner list`)")))
}

fn parse_policy(s: &str) -> Result<PolicyKind, CliError> {
    let mut all = PolicyKind::ALL.into_iter().chain([PolicyKind::DynBoth]);
    all.find(|p| p.to_string().eq_ignore_ascii_case(s))
        .ok_or_else(|| CliError(format!("unknown policy '{s}' (try `runner list`)")))
}

/// `small` or `paper`, in any case.
pub fn parse_scale(s: &str) -> Result<Scale, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "small" => Ok(Scale::Small),
        "paper" => Ok(Scale::Paper),
        other => Err(CliError(format!("unknown scale '{other}' (small|paper)"))),
    }
}

fn parse_num(flag: &str, s: &str) -> Result<usize, CliError> {
    s.parse()
        .map_err(|_| CliError(format!("{flag} expects a number, got '{s}'")))
}

/// The value after `flag`.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

/// Finishes a machine configuration, or reports the rule it breaks.
fn machine(builder: MachineConfigBuilder) -> Result<MachineConfig, CliError> {
    builder
        .try_build()
        .map_err(|e| CliError(format!("invalid machine: {e}")))
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("list") => Ok(Command::List),
        Some("run") => {
            let mut out = RunArgs {
                app: AppId::Fft,
                policy: PolicyKind::Scoma,
                scale: Scale::Paper,
                nodes: 8,
                ppn: 4,
                capacity: None,
                migration: false,
                check: false,
                trace_in: None,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--app" => out.app = parse_app(&value(&mut it, flag)?)?,
                    "--policy" => out.policy = parse_policy(&value(&mut it, flag)?)?,
                    "--scale" => out.scale = parse_scale(&value(&mut it, flag)?)?,
                    "--nodes" => out.nodes = parse_num(flag, &value(&mut it, flag)?)?,
                    "--ppn" => out.ppn = parse_num(flag, &value(&mut it, flag)?)?,
                    "--capacity" => out.capacity = Some(parse_num(flag, &value(&mut it, flag)?)?),
                    "--migration" => out.migration = true,
                    "--check" => out.check = true,
                    "--trace-in" => out.trace_in = Some(PathBuf::from(value(&mut it, flag)?)),
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Run(out))
        }
        Some("sweep") => {
            let mut out = SweepArgs {
                app: AppId::Fft,
                scale: Scale::Paper,
                nodes: 8,
                ppn: 4,
                csv: false,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--app" => out.app = parse_app(&value(&mut it, flag)?)?,
                    "--scale" => out.scale = parse_scale(&value(&mut it, flag)?)?,
                    "--nodes" => out.nodes = parse_num(flag, &value(&mut it, flag)?)?,
                    "--ppn" => out.ppn = parse_num(flag, &value(&mut it, flag)?)?,
                    "--csv" => out.csv = true,
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Sweep(out))
        }
        Some("tracegen") => {
            let mut app_id = None;
            let mut out_path = None;
            let mut procs = 32usize;
            let mut scale = Scale::Paper;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--app" => app_id = Some(parse_app(&value(&mut it, flag)?)?),
                    "--out" => out_path = Some(PathBuf::from(value(&mut it, flag)?)),
                    "--procs" => procs = parse_num(flag, &value(&mut it, flag)?)?,
                    "--scale" => scale = parse_scale(&value(&mut it, flag)?)?,
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            if procs == 0 {
                return Err(CliError("--procs must be at least 1".into()));
            }
            Ok(Command::TraceGen(TraceGenArgs {
                app: app_id.ok_or_else(|| CliError("tracegen requires --app".into()))?,
                out: out_path.ok_or_else(|| CliError("tracegen requires --out".into()))?,
                procs,
                scale,
            }))
        }
        Some(other) => Err(CliError(format!(
            "unknown command '{other}' (list | run | tracegen | sweep)"
        ))),
        None => Err(CliError("usage: runner <list|run|tracegen|sweep> …".into())),
    }
}

/// Executes a parsed command, writing human-readable output to stdout.
///
/// # Errors
///
/// Returns a [`CliError`] when execution fails (bad trace file, etc.).
pub fn execute(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::List => {
            println!("applications:");
            for (id, w) in prism_workloads::suite(Scale::Paper) {
                println!("  {:<10} {}", id.to_string(), w.description());
            }
            println!("\npolicies: SCOMA LANUMA SCOMA-70 Dyn-FCFS Dyn-Util Dyn-LRU Dyn-Both");
            Ok(())
        }
        Command::Run(a) => {
            let mut cfg = machine(
                MachineConfig::builder()
                    .nodes(a.nodes)
                    .procs_per_node(a.ppn)
                    .check_coherence(a.check),
            )?;
            cfg.migration = a.migration.then(MigrationPolicy::default);
            let trace = match &a.trace_in {
                Some(path) => prism_core::mem::trace_io::load_trace(path)
                    .map_err(|e| CliError(format!("loading {}: {e}", path.display())))?,
                None => app(a.app, a.scale).generate(cfg.total_procs()),
            };
            let report = match a.capacity {
                Some(c) => Simulation::new(cfg, a.policy)
                    .with_page_cache_capacity(c)
                    .run_trace(&trace),
                None => {
                    if a.policy.is_capacity_limited() {
                        eprintln!("[runner] deriving SCOMA-70 capacity from a SCOMA baseline…");
                    }
                    let spec = RunSpec::new(a.policy);
                    run_specs(1, &cfg, &trace, &[spec]).map(|mut reports| {
                        reports.remove(&spec).expect("run_specs reports every spec")
                    })
                }
            }
            .map_err(|e| CliError(e.to_string()))?;
            println!("{report}");
            println!("{}", prism_core::Analysis::of(&report));
            println!(
                "
per-node balance:
{}",
                prism_core::render_node_balance(&report)
            );
            Ok(())
        }
        Command::Sweep(a) => {
            let cfg = machine(
                MachineConfig::builder()
                    .nodes(a.nodes)
                    .procs_per_node(a.ppn),
            )?;
            let workload = app(a.app, a.scale);
            let result = prism_core::sweep(&cfg, workload.as_ref(), &PolicyKind::ALL)
                .map_err(|e| CliError(e.to_string()))?;
            if a.csv {
                println!("{}", prism_core::SweepResult::csv_header());
                for row in result.csv_rows() {
                    println!("{row}");
                }
            } else {
                println!(
                    "{} — page cache capacity {} frames/node",
                    workload.description(),
                    result.capacity
                );
                println!(
                    "{:<10} {:>10} {:>12} {:>10}",
                    "Config", "Normalized", "Remote", "Page-outs"
                );
                for p in PolicyKind::ALL {
                    let r = &result.reports[&p];
                    println!(
                        "{:<10} {:>10.3} {:>12} {:>10}",
                        p.to_string(),
                        result.normalized_time(p),
                        r.remote_misses,
                        r.page_outs
                    );
                }
            }
            Ok(())
        }
        Command::TraceGen(a) => {
            let trace = app(a.app, a.scale).generate(a.procs);
            prism_core::mem::trace_io::save_trace(&trace, &a.out)
                .map_err(|e| CliError(format!("writing {}: {e}", a.out.display())))?;
            println!(
                "wrote {} ({} lanes, {} refs) to {}",
                trace.name,
                trace.procs(),
                trace.total_refs(),
                a.out.display()
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_list() {
        assert_eq!(parse(&argv("list")), Ok(Command::List));
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse(&argv(
            "run --app ocean --policy scoma-70 --scale small --nodes 4 --ppn 2 --capacity 16 --migration --check",
        ))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.app, AppId::Ocean);
                assert_eq!(a.policy, PolicyKind::Scoma70);
                assert_eq!(a.scale, Scale::Small);
                assert_eq!(a.nodes, 4);
                assert_eq!(a.ppn, 2);
                assert_eq!(a.capacity, Some(16));
                assert!(a.migration);
                assert!(a.check);
                assert!(a.trace_in.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_tracegen() {
        let cmd = parse(&argv(
            "tracegen --app lu --out /tmp/x.prtr --procs 8 --scale small",
        ))
        .unwrap();
        match cmd {
            Command::TraceGen(a) => {
                assert_eq!(a.app, AppId::Lu);
                assert_eq!(a.procs, 8);
                assert_eq!(a.scale, Scale::Small);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_sweep() {
        let cmd = parse(&argv(
            "sweep --app radix --scale small --nodes 4 --ppn 2 --csv",
        ))
        .unwrap();
        match cmd {
            Command::Sweep(a) => {
                assert_eq!(a.app, AppId::Radix);
                assert_eq!(a.scale, Scale::Small);
                assert_eq!((a.nodes, a.ppn), (4, 2));
                assert!(a.csv);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_executes_end_to_end() {
        execute(Command::Sweep(SweepArgs {
            app: AppId::WaterSpa,
            scale: Scale::Small,
            nodes: 4,
            ppn: 2,
            csv: true,
        }))
        .unwrap();
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --app nosuch")).is_err());
        assert!(parse(&argv("run --policy nosuch")).is_err());
        assert!(parse(&argv("run --nodes abc")).is_err());
        assert!(parse(&argv("tracegen --app lu")).is_err(), "missing --out");
        assert!(parse(&argv("tracegen --app lu --out x --procs 0")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn tracegen_then_replay_round_trip() {
        let dir = std::env::temp_dir().join("prism-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lu-small.prtr");
        execute(Command::TraceGen(TraceGenArgs {
            app: AppId::Lu,
            out: path.clone(),
            procs: 8,
            scale: Scale::Small,
        }))
        .unwrap();
        execute(Command::Run(RunArgs {
            app: AppId::Fft, // ignored: trace_in wins
            policy: PolicyKind::Scoma,
            scale: Scale::Small,
            nodes: 4,
            ppn: 2,
            capacity: None,
            migration: false,
            check: true,
            trace_in: Some(path.clone()),
        }))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }
}
