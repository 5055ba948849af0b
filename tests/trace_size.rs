//! Every generated trace is stored at four bytes per op.
//!
//! An op lane keeps a read or write in one 4-byte word while its
//! address falls in one of the lane's two 2^28-byte windows, and a
//! `Compute`, `Barrier`, `Lock` or `Unlock` value below 2^29 inline;
//! any other op spills to an 8-byte side table. Each SPLASH program
//! keeps its shared segments in one window and each lane's private
//! region in the other, so none of their ops spill.

use prism::mem::trace::OpLane;
use prism::prelude::*;

fn assert_no_op_spills(scale: Scale) {
    let procs = MachineConfig::default().total_procs();
    for id in AppId::ALL {
        let trace = app(id, scale).generate(procs);
        let spilled: usize = trace.lanes.iter().map(OpLane::spilled).sum();
        assert_eq!(
            spilled,
            0,
            "{id} at {scale:?} spills {spilled} of its {} ops",
            trace.total_ops()
        );
    }
}

#[test]
fn small_traces_never_spill_an_op() {
    assert_no_op_spills(Scale::Small);
}

/// Generates every program at the evaluation scale, 25 M ops in all:
/// under a second in a release build, far longer in a debug one. CI's
/// perf-smoke job runs it.
#[test]
#[ignore = "paper scale: run with `cargo test --release --test trace_size -- --ignored`"]
fn paper_traces_never_spill_an_op() {
    assert_no_op_spills(Scale::Paper);
}
