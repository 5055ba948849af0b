//! Lazy home migration end-to-end (paper §3.5).

use prism::kernel::migration::MigrationPolicy;
use prism::machine::machine::Machine;
use prism::mem::addr::VirtAddr;
use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn migrating_config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .check_coherence(true)
        .migration(Some(MigrationPolicy {
            check_interval: 16,
            min_traffic: 32,
            dominance: 0.5,
        }))
        .audit_interval(Some(50_000))
        .build()
}

/// One page (homed at node 0), hammered by node 1's processors. The
/// dynamic home must migrate to node 1, after which node 1's coherence
/// requests become home-self operations.
#[test]
fn hot_page_migrates_to_its_user() {
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    for i in 0..3000u64 {
        lanes[2].push(Op::Write(VirtAddr(SHARED_BASE + (i % 64) * 64)));
    }
    let trace = Trace {
        name: "hot-page".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let report = Machine::new(migrating_config()).run(&trace);
    assert!(report.migrations >= 1, "the page should migrate");
    assert!(report.reads_checked > 0 || report.total_refs > 0);
    // The auditor cross-checks directory/PIT/tag structure after the
    // home moved — migration must leave no inconsistency behind.
    assert!(report.audit.is_empty(), "{:?}", report.audit);
}

/// After migration, a third node's stale PIT hint routes its request via
/// the static home (forwarding), after which the reply teaches it the
/// new dynamic home.
#[test]
fn stale_hints_are_forwarded_then_learned() {
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    // Node 2 (procs 4,5) maps the page first so it has a PIT entry
    // pointing at the original home (node 0).
    lanes[4].push(Op::Read(VirtAddr(SHARED_BASE)));
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(0));
    }
    // Node 1 hammers the page until it migrates there.
    for i in 0..3000u64 {
        lanes[2].push(Op::Write(VirtAddr(SHARED_BASE + (i % 64) * 64)));
    }
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(1));
    }
    // Node 2 then touches lines again: its PIT still points at node 0.
    for i in 0..64u64 {
        lanes[4].push(Op::Read(VirtAddr(SHARED_BASE + i * 64)));
    }
    let trace = Trace {
        name: "stale-hint".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let report = Machine::new(migrating_config()).run(&trace);
    assert!(report.migrations >= 1);
    assert!(report.forwards >= 1, "stale hint must be forwarded");
}

/// Migration with the whole SPLASH small suite stays deadlock-free and
/// coherent (the heavier coherence checking is in tests/coherence.rs;
/// this exercises migration against structured workloads).
#[test]
fn suite_runs_with_migration_enabled() {
    for (id, w) in suite(Scale::Small) {
        let trace = w.generate(8);
        let report = Machine::new(migrating_config()).run(&trace);
        assert_eq!(report.total_refs, trace.total_refs() as u64, "{id}");
    }
}
