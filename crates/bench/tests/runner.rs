//! The `runner` binary end to end: traces that cannot run to completion
//! exit 2 with the typed error instead of panicking, and a
//! capacity-limited run sizes its page cache from the SCOMA baseline.

use std::path::PathBuf;
use std::process::Command;

use prism_core::kernel::migration::MigrationPolicy;
use prism_core::mem::trace::{Op, Trace};
use prism_core::mem::trace_io::save_trace;
use prism_core::{derive_scoma70_capacity, MachineConfig, PolicyKind, Simulation};
use prism_workloads::{app, AppId, Scale};

fn two_lanes(name: &str, lane0: Vec<Op>, lane1: Vec<Op>) -> Trace {
    Trace {
        name: name.into(),
        segments: vec![],
        lanes: vec![lane0.into(), lane1.into()],
    }
}

/// Saves `trace`, replays it on a 2×1 machine, and returns the exit
/// code and stderr.
fn replay(trace: &Trace) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join("prism-runner-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{}-{}.prtr", trace.name, std::process::id()));
    save_trace(trace, &path).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_runner"))
        .args(["run", "--nodes", "2", "--ppn", "1", "--trace-in"])
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_deadlocked_trace_exits_2_with_the_blocked_processors() {
    let trace = two_lanes(
        "abba",
        vec![
            Op::Lock(1),
            Op::Compute(1_000),
            Op::Lock(2),
            Op::Unlock(2),
            Op::Unlock(1),
        ],
        vec![
            Op::Lock(2),
            Op::Compute(1_000),
            Op::Lock(1),
            Op::Unlock(1),
            Op::Unlock(2),
        ],
    );
    let (code, stderr) = replay(&trace);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr.trim(),
        "runner: processors [0, 1] ended in state Blocked: trace deadlock"
    );
}

#[test]
fn a_recursive_lock_exits_2_as_an_invalid_trace() {
    let trace = two_lanes(
        "recursive",
        vec![
            Op::Lock(3),
            Op::Lock(3),
            Op::Compute(1),
            Op::Unlock(3),
            Op::Unlock(3),
        ],
        vec![Op::Compute(1)],
    );
    let (code, stderr) = replay(&trace);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr.trim(),
        "runner: invalid trace: lane 0 acquires lock 3 while holding it"
    );
}

#[test]
fn impossible_machines_and_empty_traces_exit_2_with_the_broken_rule() {
    let out = std::env::temp_dir().join(format!("prism-runner-{}.prtr", std::process::id()));
    let machine = |args: &str, rule| (args.to_string(), format!("invalid machine: {rule}"));
    for (args, message) in [
        machine("run --nodes 0", "need at least one node"),
        machine("run --nodes 65", "NodeSet supports at most 64 nodes"),
        machine("run --ppn 0", "need at least one processor per node"),
        machine("sweep --nodes 0", "need at least one node"),
        (
            format!("tracegen --app LU --procs 0 --out {}", out.display()),
            "--procs must be at least 1".into(),
        ),
    ] {
        let mut runner = Command::new(env!("CARGO_BIN_EXE_runner"));
        let run = runner.args(args.split_whitespace()).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args}: {stderr}");
        assert_eq!(stderr.trim(), format!("runner: {message}"));
    }
    assert!(!out.exists());
}

/// `runner run`'s stdout for `args`, which must succeed.
fn run_stdout(args: &str) -> String {
    let mut runner = Command::new(env!("CARGO_BIN_EXE_runner"));
    let run = runner.args(args.split_whitespace()).output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{args}: {stderr}");
    String::from_utf8(run.stdout).unwrap()
}

/// Without `--capacity`, SCOMA-70 runs with 70% of the most client
/// frames any node allocates in the SCOMA run on the same machine.
#[test]
fn scoma70_sizes_its_page_cache_from_the_scoma_run() {
    for migration in [false, true] {
        let mut cfg = MachineConfig::builder().nodes(8).procs_per_node(4).build();
        cfg.migration = migration.then(MigrationPolicy::default);
        let trace = app(AppId::Lu, Scale::Small).generate(cfg.total_procs());
        let scoma = Simulation::new(cfg, PolicyKind::Scoma)
            .run_trace(&trace)
            .unwrap();
        let frames = derive_scoma70_capacity(&scoma, 0.70);
        let flag = if migration { " --migration" } else { "" };
        let args = format!("run --app LU --scale small --policy SCOMA-70{flag}");
        assert_eq!(
            run_stdout(&args),
            run_stdout(&format!("{args} --capacity {frames}")),
            "{args}"
        );
    }
}
