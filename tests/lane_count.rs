//! A trace generated for another processor count is a typed error of
//! `Machine::try_run`, and a panic of `Machine::run` with the same
//! message.

use prism::machine::machine::{Machine, RunError};
use prism::mem::addr::VirtAddr;
use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn trace(lanes: usize) -> Trace {
    Trace {
        name: "lanes".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: (0..lanes)
            .map(|_| vec![Op::Write(VirtAddr(SHARED_BASE)), Op::Barrier(0)].into())
            .collect(),
    }
}

fn machine() -> Machine {
    Machine::new(MachineConfig::builder().nodes(2).procs_per_node(1).build())
}

#[test]
fn try_run_rejects_a_lane_count_mismatch_before_running() {
    let mut m = machine();
    for lanes in [1, 3] {
        let err = m.try_run(&trace(lanes)).map(|r| r.to_json()).unwrap_err();
        assert_eq!(
            err,
            RunError::LaneCount {
                trace: lanes,
                machine: 2
            }
        );
        assert_eq!(
            err.to_string(),
            format!("trace was generated for {lanes} processors, machine has 2")
        );
    }
    // Nothing ran: the machine then runs a fitting trace as a fresh one does.
    let fitting = trace(2);
    let after = m.try_run(&fitting).expect("runs").to_json();
    assert_eq!(after, machine().run(&fitting).to_json());
}

#[test]
#[should_panic(expected = "trace was generated for 3 processors, machine has 2")]
fn run_panics_on_a_lane_count_mismatch() {
    machine().run(&trace(3));
}
