//! A lane that takes a lock it already holds deadlocks on itself.
//!
//! `Machine::try_run` does not validate its trace, so this is reachable
//! with any hand-built trace. Both build profiles must report it the
//! same way: as a deadlock of the recursive holder, not a panic.

use prism::machine::machine::{Machine, RunError};
use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

#[test]
fn recursive_lock_is_a_deadlock_of_its_holder() {
    let trace = Trace {
        name: "recursive-lock".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: vec![
            vec![
                Op::Lock(3),
                Op::Lock(3),
                Op::Compute(10),
                Op::Unlock(3),
                Op::Unlock(3),
            ]
            .into(),
            vec![Op::Compute(10)].into(),
        ],
    };
    let cfg = MachineConfig::builder().nodes(2).procs_per_node(1).build();
    let got = Machine::new(cfg).try_run(&trace).map(|r| r.to_json());
    assert_eq!(got, Err(RunError::Deadlock { procs: vec![0] }));
}
