//! Home-node page-outs (paper §3.3): the home notifies every client,
//! collects their modified data, resets their home-page-status flags,
//! and releases the page. Subsequent faults page it back in — and must
//! observe the latest data (the coherence checker models the disk copy).

use prism::machine::machine::Machine;
use prism::mem::addr::{GlobalPage, Gsid, VirtAddr};
use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;
use prism::sim::Cycle;

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

fn one_page_trace(lanes: Vec<Vec<Op>>) -> Trace {
    Trace {
        name: "home-pageout".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

#[test]
fn home_page_out_collects_dirty_data_and_resets_flags() {
    // Phase 1: a client (node 1, proc 2) writes the page.
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    for l in 0..16u64 {
        lanes[2].push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
    }
    let mut m = Machine::new(config());
    let r1 = m.run(&one_page_trace(lanes));
    assert_eq!(r1.faults.2, 1, "one client fault");
    assert_eq!(r1.faults_contacting_home, 1);

    let gp = GlobalPage::new(Gsid(0), 0);
    let t = m
        .home_page_out(gp, Cycle(1_000_000))
        .expect("page was resident");
    assert!(t > Cycle(1_000_000));
    // Idempotence: the page is gone now.
    assert!(m.home_page_out(gp, t).is_none());
}

#[test]
fn refault_after_home_page_out_contacts_home_and_sees_latest_data() {
    // Writer dirties the page; home pages it out; a reader on another
    // node then reads — it must fault, contact the home (flag was
    // reset), and observe the writer's data (checker-enforced).
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    for l in 0..16u64 {
        lanes[2].push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
    }
    let mut m = Machine::new(config());
    m.run(&one_page_trace(lanes));
    let gp = GlobalPage::new(Gsid(0), 0);
    m.home_page_out(gp, Cycle(1_000_000)).expect("resident");

    // Second run on the SAME machine: node 1 reads its data back, node 2
    // reads it fresh. (Machine::run re-attaches the same segments; the
    // kernels keep their state.)
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    for l in 0..16u64 {
        lanes[2].push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
        lanes[4].push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
    }
    let trace = Trace {
        name: "after-pageout".into(),
        segments: vec![],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let r2 = m.run(&trace);
    // The writer node's flag was reset: its refault contacts home again.
    assert!(r2.reads_checked > 0, "reads verified against latest data");
    let contacting: u64 = r2
        .per_node
        .iter()
        .map(|n| n.kernel.faults_contacting_home)
        .sum();
    // Cumulative across both runs: 1 (original fault) + 2 (both
    // refaulting clients, since the flags were reset).
    assert_eq!(
        contacting, 3,
        "both refaulting clients must contact the home (flags were reset)"
    );
}
