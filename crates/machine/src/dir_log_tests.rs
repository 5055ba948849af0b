//! Reconciliation tests for the log-replicated directory backend.
//!
//! Mirrors the `inval_tests` approach: hand-written traces with a known
//! sharing pattern (one shared 4 KiB page, 64-byte lines, 4 nodes x 2
//! processors) drive a real machine, and the test proves the
//! replica-lag accounting from the drained observability bus agrees
//! with the per-node `DirLogStats` ground truth — no append, replay, or
//! compaction is missing from the report, and none is spurious.

use prism_mem::addr::VirtAddr;
use prism_mem::dir_log::DirLogStats;
use prism_mem::directory::DirectoryKind;
use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::obs::Ctr;
use crate::report::RunReport;

const LINES: u64 = 64; // 4 KiB page / 64 B lines
const PAGE: u64 = 4096;

fn config(directory: DirectoryKind) -> MachineConfig {
    let mut cfg = MachineConfig::builder().nodes(4).procs_per_node(2).build();
    cfg.directory = directory;
    cfg
}

/// Node 2 writes the shared page, node 1 reads it back, node 2 rewrites
/// it: every directory path a remote transaction uses (line commits,
/// traffic ticks, client admission) runs many times, and reads from two
/// different nodes force replica replay at the home.
fn sharing_trace() -> Trace {
    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    let write_all = |lane: &mut Vec<Op>| {
        for l in 0..LINES {
            lane.push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
        }
    };
    let read_all = |lane: &mut Vec<Op>| {
        for l in 0..LINES {
            lane.push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
        }
    };
    write_all(&mut lanes[4]);
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(0));
    }
    read_all(&mut lanes[2]);
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(1));
    }
    write_all(&mut lanes[4]);
    Trace {
        name: "dir-log-sharing".into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: PAGE,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

/// The report's named `dir_counters` value.
fn ctr(report: &RunReport, name: &str) -> u64 {
    report
        .dir_counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("report lost counter {name}"))
        .1
}

/// The bus totals, the report's `dir_counters`, and the per-node
/// `DirLogStats` must all tell the same story.
#[test]
fn log_counters_reconcile_with_per_node_stats() {
    let mut m = Machine::new(config(DirectoryKind::LogReplicated));
    let report = m.run(&sharing_trace());

    let mut ground = DirLogStats::default();
    let (mut dch, mut dcm) = (0u64, 0u64);
    for node in &m.nodes {
        ground.absorb(&node.controller.dir.log_stats());
        dch += node.controller.dir_cache.hits();
        dcm += node.controller.dir_cache.misses();
    }
    assert!(ground.appends > 0, "the sharing trace must append ops");
    assert!(
        ground.replayed > 0,
        "two reader nodes must leave a lagging replica to replay"
    );
    assert!(
        ground.combined_appends <= ground.appends,
        "combining never counts more than the appends themselves"
    );
    for (name, want) in [
        ("dir-cache-hits", dch),
        ("dir-cache-misses", dcm),
        ("dir-log-appends", ground.appends),
        ("dir-log-combined-appends", ground.combined_appends),
        ("dir-log-replays", ground.replayed),
        ("dir-log-compactions", ground.compactions),
    ] {
        assert_eq!(
            ctr(&report, name),
            want,
            "report counter {name} disagrees with per-node ground truth"
        );
    }
    // The bus carries the same values as the report snapshot.
    assert_eq!(m.obs.get(Ctr::DirLogAppends), ground.appends);
    assert_eq!(m.obs.get(Ctr::DirLogReplays), ground.replayed);
    // Re-finalizing is idempotent: the delta-add must not double-count.
    let again = m.finalize_report();
    assert_eq!(ctr(&again, "dir-log-appends"), ground.appends);
}

/// A long single-page write stream must overflow the bounded per-page
/// log and compact it — and the forced laggard replays the compaction
/// performs are counted as replays, keeping the reconciliation exact.
#[test]
fn compaction_shows_up_in_the_report() {
    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    // Enough commits on one page to overflow LOG_CAP several times:
    // alternating writers bounce ownership line by line.
    for round in 0..4 {
        let writer = if round % 2 == 0 { 4 } else { 2 };
        for l in 0..LINES {
            lanes[writer].push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
        }
        for lane in lanes.iter_mut() {
            lane.push(Op::Barrier(round as u32));
        }
    }
    let trace = Trace {
        name: "dir-log-churn".into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: PAGE,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut m = Machine::new(config(DirectoryKind::LogReplicated));
    let report = m.run(&trace);
    assert!(
        ctr(&report, "dir-log-compactions") > 0,
        "the churn trace must overflow the bounded log"
    );
    let mut ground = DirLogStats::default();
    for node in &m.nodes {
        ground.absorb(&node.controller.dir.log_stats());
    }
    assert_eq!(ctr(&report, "dir-log-compactions"), ground.compactions);
    assert_eq!(ctr(&report, "dir-log-replays"), ground.replayed);
}

/// Under the full map the log counters stay identically zero — which is
/// why they belong in the debug report only.
#[test]
fn full_map_reports_zero_log_activity() {
    let mut m = Machine::new(config(DirectoryKind::FullMap));
    let report = m.run(&sharing_trace());
    for name in [
        "dir-log-appends",
        "dir-log-combined-appends",
        "dir-log-replays",
        "dir-log-compactions",
    ] {
        assert_eq!(ctr(&report, name), 0, "full map must report zero {name}");
    }
    assert!(
        ctr(&report, "dir-cache-hits") + ctr(&report, "dir-cache-misses") > 0,
        "directory-cache probes are counted under every backend"
    );
}
