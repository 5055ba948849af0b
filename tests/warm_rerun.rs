//! The warm-rerun contract: `Machine::run` may be called repeatedly on
//! one machine. Lane positions restart; kernels, caches, page tables,
//! clocks, and statistics carry over — the model for a long-lived system
//! executing successive programs (and the substrate the home-page-out
//! tests rely on).

use prism::machine::machine::Machine;
use prism::mem::addr::VirtAddr;
use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build()
}

fn reads(lane: usize, lines: u64) -> Trace {
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    for l in 0..lines {
        lanes[lane].push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
    }
    Trace {
        name: "reads".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

/// The second identical run faults nothing (pages stay mapped) and hits
/// in the caches, so it adds far fewer cycles than the first.
#[test]
fn warm_rerun_reuses_mappings_and_caches() {
    let mut m = Machine::new(config());
    let first = m.run(&reads(2, 32));
    let first_cycles = first.exec_cycles;
    let first_faults = first.total_faults();
    assert!(first_faults > 0, "cold run faults");

    let second = m.run(&reads(2, 32));
    // Statistics accumulate; no NEW faults happened.
    assert_eq!(
        second.total_faults(),
        first_faults,
        "warm run adds no faults"
    );
    let added = second.exec_cycles.as_u64() - first_cycles.as_u64();
    // 32 L1 hits ≈ 32 cycles, far below the cold run's cost.
    assert!(
        added * 10 < first_cycles.as_u64(),
        "warm re-run cost {added} vs cold {first_cycles}"
    );
}

/// Re-attaching identical segments is idempotent; different segments in
/// a later run extend the address space.
#[test]
fn segment_attachment_is_idempotent_and_extensible() {
    let mut m = Machine::new(config());
    m.run(&reads(2, 4));
    // Same segments again: fine.
    m.run(&reads(3, 4));
    // A new trace with an additional, disjoint segment: also fine.
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    lanes[4].push(Op::Write(VirtAddr(SHARED_BASE + 8192)));
    let trace = Trace {
        name: "extended".into(),
        segments: vec![
            SegmentSpec {
                name: "s".into(),
                va_base: SHARED_BASE,
                bytes: 4096,
            },
            SegmentSpec {
                name: "t".into(),
                va_base: SHARED_BASE + 8192,
                bytes: 4096,
            },
        ],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let r = m.run(&trace);
    assert!(r.reads_checked > 0 || r.total_refs > 0);
}

/// Conflicting re-attachment (same base, different size) is rejected
/// loudly rather than corrupting translations — the kernel catches it as
/// segment 0 registered again with another size, mirroring System V's
/// EINVAL.
#[test]
#[should_panic(expected = "segment 0 registered again with another size")]
fn conflicting_reattachment_panics() {
    let mut m = Machine::new(config());
    m.run(&reads(2, 4));
    let trace = Trace {
        name: "conflict".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 8192,
        }],
        lanes: vec![Default::default(); 8],
    };
    m.run(&trace);
}

/// Segment 0 registered again at another base with another size is
/// rejected too, although no attachment at that base exists yet.
#[test]
#[should_panic(expected = "segment 0 registered again with another size")]
fn resized_segment_at_another_base_panics() {
    let mut m = Machine::new(config());
    m.run(&reads(2, 4));
    let trace = Trace {
        name: "moved".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE + 65536,
            bytes: 8192,
        }],
        lanes: vec![Default::default(); 8],
    };
    m.run(&trace);
}

/// Barriers work across reruns (fresh barrier state per run).
#[test]
fn barriers_reset_between_runs() {
    let mut m = Machine::new(config());
    let barrier_trace = |n: u32| {
        let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
        for lane in lanes.iter_mut() {
            for b in 0..n {
                lane.push(Op::Compute(5));
                lane.push(Op::Barrier(b));
            }
        }
        Trace {
            name: "barriers".into(),
            segments: vec![],
            lanes: lanes.into_iter().map(Into::into).collect(),
        }
    };
    let r1 = m.run(&barrier_trace(3));
    assert_eq!(r1.barrier_episodes, 3);
    let r2 = m.run(&barrier_trace(2));
    // Fresh BarrierSet per run: episode counting restarts.
    assert_eq!(r2.barrier_episodes, 2);
}

/// Frame utilization counts lines touched in a later run on frames that
/// stayed allocated: building a report leaves the live frames' usage
/// instances open, so a warm rerun's report equals a cold run's that
/// made the same references.
#[test]
fn warm_rerun_keeps_counting_frame_utilization() {
    let config = || MachineConfig::builder().nodes(2).procs_per_node(1).build();
    let lines = |range: std::ops::Range<u64>| Trace {
        name: "lines".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: vec![
            range
                .map(|l| Op::Read(VirtAddr(SHARED_BASE + l * 64)))
                .collect::<Vec<_>>()
                .into(),
            Default::default(),
        ],
    };
    let cold = Machine::new(config()).run(&lines(0..64));
    assert_eq!(cold.avg_utilization, 1.0);

    let mut m = Machine::new(config());
    let first = m.run(&lines(0..1));
    assert_eq!(first.avg_utilization, 1.0 / 64.0);
    let second = m.run(&lines(1..64));
    assert_eq!(second.frames_allocated, cold.frames_allocated);
    assert_eq!(second.avg_utilization, cold.avg_utilization);
}
