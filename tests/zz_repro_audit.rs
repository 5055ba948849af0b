//! Temporary review repro: Heap vs ParallelHeap with periodic audits on
//! an eligible config where one lane is compute-heavy (serial batches
//! overshoot audit dues; epochs are cut at them).

use prism::machine::machine::Machine;
use prism::mem::addr::VirtAddr;
use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn trace() -> Trace {
    let page = 4096u64;
    let a = SHARED_BASE; // page 0 -> home node 0
    let b = SHARED_BASE + page; // page 1 -> home node 1
    let mut lane0 = Vec::new();
    let mut lane1 = Vec::new();
    for _ in 0..3000 {
        lane0.push(Op::Read(VirtAddr(a)));
        lane0.push(Op::Compute(397));
        lane1.push(Op::Read(VirtAddr(b)));
        lane1.push(Op::Compute(11));
    }
    Trace {
        name: "repro".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 2 * page,
        }],
        lanes: vec![lane0.into(), lane1.into()],
    }
}

fn cfg(kind: SchedulerKind) -> MachineConfig {
    let mut c = MachineConfig::builder()
        .nodes(2)
        .procs_per_node(1)
        .audit_interval(Some(500))
        .build();
    c.scheduler = kind;
    c.worker_threads = 1;
    c
}

#[test]
fn parallel_heap_matches_heap_with_periodic_audits() {
    let serial = Machine::new(cfg(SchedulerKind::Heap)).run(&trace());
    let par = Machine::new(cfg(SchedulerKind::ParallelHeap)).run(&trace());
    assert_eq!(
        serial.audit_sweeps, par.audit_sweeps,
        "audit sweep counts diverged"
    );
    assert_eq!(serial.to_json(), par.to_json(), "reports diverged");
}
