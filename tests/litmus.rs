//! Memory-consistency litmus tests.
//!
//! The simulator executes each coherence transaction atomically in a
//! single global interleaving, so the machine implements *sequential
//! consistency* — the model PowerPC-era DSM protocols were verified
//! against and the paper's protocol assumes (bus retries serialize
//! conflicting accesses). These litmus patterns document and pin that:
//! the relaxed outcomes (visible on real PowerPC) must never appear.
//!
//! The coherence checker turns any SC violation into a panic: a read
//! observing a value older than the latest write in the global order is
//! exactly the "stale read" the shadow tracker rejects.

use prism::machine::machine::Machine;
use prism::mem::addr::VirtAddr;
use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn machine() -> Machine {
    Machine::new(
        MachineConfig::builder()
            .nodes(2)
            .procs_per_node(1)
            .check_coherence(true)
            .audit_interval(Some(50_000))
            .build(),
    )
}

fn two_lane_trace(a: Vec<Op>, b: Vec<Op>) -> Trace {
    Trace {
        name: "litmus".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: vec![a.into(), b.into()],
    }
}

const X: VirtAddr = VirtAddr(SHARED_BASE);
const Y: VirtAddr = VirtAddr(SHARED_BASE + 64);

/// Message passing (MP): P0 writes data then flag; P1 spins… here,
/// reads flag then data after a barrier. Under SC the reader can never
/// see the flag without the data; the shadow checker enforces that the
/// post-barrier reads observe the latest writes.
#[test]
fn message_passing_is_sequentially_consistent() {
    let writer = vec![Op::Write(X), Op::Write(Y), Op::Barrier(0)];
    let reader = vec![Op::Barrier(0), Op::Read(Y), Op::Read(X)];
    let report = machine().run(&two_lane_trace(writer, reader));
    assert!(
        report.reads_checked >= 2,
        "both reads verified against latest writes"
    );
}

/// Store buffering (SB): P0 writes X reads Y; P1 writes Y reads X.
/// On a machine with store buffers both could read old values; in this
/// SC model every read observes the globally latest write at its
/// linearization point — the checker would panic otherwise.
#[test]
fn store_buffering_never_reorders() {
    let p0 = vec![Op::Write(X), Op::Read(Y)];
    let p1 = vec![Op::Write(Y), Op::Read(X)];
    let report = machine().run(&two_lane_trace(p0, p1));
    // (reads_checked also counts verified fills, so ≥, not ==.)
    assert!(report.reads_checked >= 2);
}

/// Coherence (CO): all processors agree on the order of writes to a
/// single location. Hammering one line from both nodes with interleaved
/// reads exercises ownership migration; any fork in write order would
/// surface as a stale read.
#[test]
fn single_location_write_order_is_total() {
    let mut p0 = Vec::new();
    let mut p1 = Vec::new();
    for _ in 0..50 {
        p0.push(Op::Write(X));
        p0.push(Op::Read(X));
        p1.push(Op::Write(X));
        p1.push(Op::Read(X));
    }
    let report = machine().run(&two_lane_trace(p0, p1));
    assert!(report.reads_checked >= 100);
    assert!(report.invalidations + report.remote_misses + report.remote_upgrades > 0);
}

/// IRIW-flavored check (independent reads of independent writes) across
/// four processors on four nodes: both readers read both locations; with
/// a total write order neither can observe the writes in conflicting
/// orders — every read is checked against the global latest.
#[test]
fn independent_reads_of_independent_writes() {
    let cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(1)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build();
    let lanes = vec![
        vec![Op::Write(X), Op::Barrier(0)],
        vec![Op::Write(Y), Op::Barrier(0)],
        vec![Op::Barrier(0), Op::Read(X), Op::Read(Y)],
        vec![Op::Barrier(0), Op::Read(Y), Op::Read(X)],
    ];
    let trace = Trace {
        name: "iriw".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let report = Machine::new(cfg).run(&trace);
    assert!(report.reads_checked >= 4);
}

/// Locks serialize critical sections: a read-modify-write sequence under
/// a lock from every processor is race-free by construction, and the
/// checker verifies each read sees the previous holder's write.
#[test]
fn lock_protected_counter_is_race_free() {
    let cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build();
    let mut lanes = Vec::new();
    for _ in 0..8 {
        let mut lane = Vec::new();
        for _ in 0..25 {
            lane.push(Op::Lock(7));
            lane.push(Op::Read(X));
            lane.push(Op::Write(X));
            lane.push(Op::Unlock(7));
        }
        lanes.push(lane);
    }
    let trace = Trace {
        name: "counter".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let report = Machine::new(cfg).run(&trace);
    assert_eq!(report.lock_acquisitions.0, 200);
    assert!(report.reads_checked >= 200);
}
