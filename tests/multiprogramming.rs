//! Space sharing: several independent applications on one PRISM machine
//! (`Machine::run_jobs`), each with its own processors, address range,
//! and scoped barriers — and fault containment between them (paper §1:
//! "If a node fails … applications using resources on the failed node
//! may be terminated" while everything else keeps running).

use prism::machine::machine::{Machine, RunError};
use prism::mem::addr::NodeId;
use prism::mem::trace::{Op, Trace};
use prism::prelude::*;

fn config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build()
}

/// Two four-processor jobs on an eight-processor machine: both complete,
/// barriers are scoped (job A's barriers never wait for job B), and the
/// coherence checker holds across the composed address spaces.
#[test]
fn two_jobs_run_side_by_side() {
    let job_a = app(AppId::Lu, Scale::Small).generate(4);
    let job_b = app(AppId::Ocean, Scale::Small).generate(4);
    let total: u64 = (job_a.total_refs() + job_b.total_refs()) as u64;
    let mut m = Machine::new(config());
    let report = m.run_jobs(&[job_a, job_b]).unwrap();
    assert_eq!(report.total_refs, total, "both jobs executed fully");
    assert!(report.reads_checked > 0);
    assert_eq!(report.dead_procs, 0);
}

/// Determinism holds for composed runs too.
#[test]
fn composed_runs_are_deterministic() {
    let jobs = || {
        vec![
            app(AppId::WaterSpa, Scale::Small).generate(4),
            app(AppId::Radix, Scale::Small).generate(4),
        ]
    };
    let a = Machine::new(config()).run_jobs(&jobs()).unwrap();
    let b = Machine::new(config()).run_jobs(&jobs()).unwrap();
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.remote_misses, b.remote_misses);
    assert_eq!(a.ledger.total(), b.ledger.total());
}

/// Fault containment between jobs: job A (on the failed node's
/// processors) dies; job B — a full *shared-memory* application whose
/// segments `run_jobs` placed on its own nodes — completes untouched.
#[test]
fn node_failure_kills_one_job_not_the_other() {
    // Job A: lanes 0..4 (nodes 0-1) — dies with node 0.
    let job_a = app(AppId::Lu, Scale::Small).generate(4);
    // Job B: lanes 4..8 (nodes 2-3) — real shared-memory Ocean; its
    // pages are homed on nodes 2-3 by the per-job placement policy.
    let job_b = app(AppId::Ocean, Scale::Small).generate(4);

    let mut m = Machine::new(config());
    m.fail_node(NodeId(0));
    let report = m.run_jobs(&[job_a.clone(), job_b.clone()]).unwrap();
    // Only job A's processors can die: node 0's two immediately, node
    // 1's two when they touch pages homed on node 0. Job B's four are
    // untouchable — none of its pages live outside nodes 2-3.
    assert!(report.dead_procs >= 2);
    assert!(report.dead_procs <= 4, "job B processors must survive");

    // Job B completed in full: re-running it alone on a healthy machine
    // executes the same reference count that survived here at minimum.
    let healthy = Machine::new(config())
        .run_jobs(&[job_a, job_b.clone()])
        .unwrap();
    assert!(healthy.total_refs >= report.total_refs);
    assert!(report.total_refs >= job_b.total_refs() as u64);
}

/// Per-job stat attribution: each job's memory traffic lands entirely
/// on the nodes `run_jobs` assigned it, so the per-node sections of the
/// report decompose the machine by job. Failing job A's nodes must not
/// perturb a single counter in job B's node reports.
#[test]
fn per_node_reports_attribute_stats_to_the_owning_job() {
    let jobs = || {
        vec![
            app(AppId::Lu, Scale::Small).generate(4),    // nodes 0-1
            app(AppId::Ocean, Scale::Small).generate(4), // nodes 2-3
        ]
    };
    let healthy = Machine::new(config()).run_jobs(&jobs()).unwrap();
    // Both jobs really ran where they were placed.
    for n in 0..4 {
        assert!(
            healthy.per_node[n].frame_instances > 0,
            "node {n} allocated no frames — its job never ran there"
        );
    }

    let mut m = Machine::new(config());
    m.fail_node(NodeId(0));
    let faulted = m.run_jobs(&jobs()).unwrap();
    // Job B's nodes never see job A's pages or processors, so their
    // kernel and utilization counters are identical whether job A's
    // node failed or not.
    for n in 2..4 {
        assert_eq!(
            healthy.per_node[n].kernel, faulted.per_node[n].kernel,
            "node {n} kernel stats changed when the other job's node failed"
        );
        assert_eq!(
            healthy.per_node[n].frame_instances,
            faulted.per_node[n].frame_instances
        );
    }
}

/// Barrier scoping: both jobs reuse barrier id 0, and each job's
/// barrier must gather only that job's four lanes. Unscoped barriers
/// would either deadlock (waiting for the other job's lanes, which
/// arrive a different number of times) or release early.
#[test]
fn same_barrier_id_is_scoped_per_job() {
    use prism::mem::addr::VirtAddr;
    use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};

    // Job A's lanes cross barrier 0 twice; job B's lanes only once. If
    // barrier 0 were machine-global the arrival counts could never
    // match and the run would wedge (caught by the run-loop's progress
    // assertion) — completion of every reference proves scoping.
    let job = |name: &str, barriers: usize| {
        let lane = |i: u64| {
            let mut ops = Vec::new();
            for b in 0..barriers {
                ops.push(Op::Write(VirtAddr(SHARED_BASE + 64 * i)));
                ops.push(Op::Barrier(0));
                ops.push(Op::Read(VirtAddr(
                    SHARED_BASE + 64 * ((i + 1) % 4) + 4096 * b as u64,
                )));
            }
            ops
        };
        Trace {
            name: name.into(),
            segments: vec![SegmentSpec {
                name: "d".into(),
                va_base: SHARED_BASE,
                bytes: 4096 * (barriers as u64 + 1),
            }],
            lanes: (0..4).map(|p| lane(p).into()).collect(),
        }
    };
    let jobs = [job("twice", 2), job("once", 1)];
    let total: u64 = jobs.iter().map(|j| j.total_refs() as u64).sum();
    let report = Machine::new(config()).run_jobs(&jobs).unwrap();
    assert_eq!(report.total_refs, total, "a lane stalled at a barrier");
    assert_eq!(report.dead_procs, 0);
}

/// A lane-count mismatch is an error, and nothing runs.
#[test]
fn wrong_total_lane_count_is_an_error() {
    let job = app(AppId::Lu, Scale::Small).generate(4);
    let err = Machine::new(config()).run_jobs(&[job]).unwrap_err(); // 4 lanes, 8 procs
    assert_eq!(
        err,
        RunError::LaneCount {
            trace: 4,
            machine: 8
        }
    );
}

/// Two jobs that each deadlock on their own two locks: the run is an
/// error naming every blocked processor, not a panic.
#[test]
fn deadlocked_jobs_are_an_error() {
    let abba = |name: &str| {
        let lane = |first, second| {
            vec![
                Op::Lock(first),
                Op::Compute(1_000),
                Op::Lock(second),
                Op::Unlock(second),
                Op::Unlock(first),
            ]
            .into()
        };
        let idle = || vec![Op::Compute(5)].into();
        Trace {
            name: name.into(),
            segments: vec![],
            lanes: vec![lane(1, 2), lane(2, 1), idle(), idle()],
        }
    };
    let err = Machine::new(config())
        .run_jobs(&[abba("a"), abba("b")])
        .unwrap_err();
    assert_eq!(
        err,
        RunError::Deadlock {
            procs: vec![0, 1, 4, 5]
        }
    );
}
