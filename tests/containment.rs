//! Fault containment end-to-end: PIT firewalling of wild writes and
//! node-failure isolation (paper §1, §3.2).

use prism::machine::machine::Machine;
use prism::mem::addr::{GlobalPage, Gsid, NodeId, NodeSet, VirtAddr};
use prism::mem::pit::Caps;
use prism::mem::trace::{private_va, Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .audit_interval(Some(50_000))
        .build()
}

fn shared_trace() -> Trace {
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    // proc 2 (node 1) maps and writes page 0 (homed at node 0).
    lanes[2].push(Op::Write(VirtAddr(SHARED_BASE)));
    Trace {
        name: "map-one-page".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

#[test]
fn wild_writes_are_rejected_by_capability_lists() {
    let mut m = Machine::new(config());
    m.run(&shared_trace());
    let gp = GlobalPage::new(Gsid(0), 0);
    // Default capabilities allow everyone.
    assert!(m.inject_wild_write(NodeId(3), NodeId(1), gp).is_ok());
    // Restrict to node 0 only.
    m.restrict_page(NodeId(1), gp, Caps::Only(NodeSet::single(NodeId(0))))
        .unwrap();
    assert!(m.inject_wild_write(NodeId(0), NodeId(1), gp).is_ok());
    let violation = m.inject_wild_write(NodeId(3), NodeId(1), gp).unwrap_err();
    assert_eq!(violation.from, NodeId(3));
    assert!(violation.write);
}

/// The home's PIT firewall also guards the coherence protocol: a remote
/// request from a node outside the page's capability list is rejected
/// at the home and kills only the requester, while an admitted node's
/// request goes through. The shadow checker runs throughout.
#[test]
fn remote_requests_outside_the_capability_list_kill_only_the_requester() {
    let cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .check_coherence(true)
        .build();
    let mut m = Machine::new(cfg);
    let mapped = shared_trace();
    m.run(&mapped);
    // Node 0 homes the page: admit only itself and node 1.
    let gp = GlobalPage::new(Gsid(0), 0);
    let mut admitted = NodeSet::single(NodeId(0));
    admitted.insert(NodeId(1));
    m.restrict_page(NodeId(0), gp, Caps::Only(admitted))
        .unwrap();

    // Node 1 (proc 2) and node 2 (proc 4) each read a line of the page.
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    lanes[2].push(Op::Read(VirtAddr(SHARED_BASE + 64)));
    lanes[4].push(Op::Read(VirtAddr(SHARED_BASE + 128)));
    let report = m.run(&Trace {
        lanes: lanes.into_iter().map(Into::into).collect(),
        ..mapped
    });
    assert_eq!(report.firewall_rejections, 1, "node 2's request");
    assert_eq!(report.dead_procs, 1, "only the rejected requester dies");
    assert!(report.reads_checked > 0);
}

#[test]
fn restricting_an_unbound_page_reports_the_missing_binding() {
    let mut m = Machine::new(config());
    m.run(&shared_trace());
    // Node 2 never mapped the page: there is no PIT entry to restrict.
    let gp = GlobalPage::new(Gsid(0), 0);
    let err = m
        .restrict_page(NodeId(2), gp, Caps::Only(NodeSet::single(NodeId(0))))
        .unwrap_err();
    assert_eq!(err.node, NodeId(2));
    assert_eq!(err.gpage, gp);
}

#[test]
fn unmapped_pages_cannot_be_hit_at_all() {
    let mut m = Machine::new(config());
    m.run(&shared_trace());
    // Node 2 never mapped the page: a wild write aimed at it has no
    // physical address to land on.
    let gp = GlobalPage::new(Gsid(0), 0);
    let violation = m.inject_wild_write(NodeId(3), NodeId(2), gp).unwrap_err();
    assert_eq!(violation.frame, None, "no frame exists for an unbound page");
}

#[test]
fn failed_node_kills_only_its_own_processors() {
    let mut lanes: Vec<Vec<Op>> = Vec::new();
    for p in 0..8 {
        let mut lane = Vec::new();
        for i in 0..500u64 {
            lane.push(Op::Read(private_va(p, (i * 64) % 16384)));
        }
        lanes.push(lane);
    }
    let trace = Trace {
        name: "private".into(),
        segments: vec![],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut m = Machine::new(config());
    m.fail_node(NodeId(2));
    assert!(m.node_failed(NodeId(2)));
    assert_eq!(m.live_procs(), 6);
    let report = m.run(&trace);
    assert_eq!(report.dead_procs, 2);
    // Six processors × 500 refs completed.
    assert_eq!(report.total_refs, 6 * 500);
}

#[test]
fn touching_a_failed_home_kills_the_toucher_but_not_others() {
    // proc 2 (node 1) uses a page homed on node 0; proc 4 (node 2) only
    // uses private data. Node 0 fails: proc 2's application dies at its
    // next fault, proc 4 finishes untouched.
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    lanes[2].push(Op::Write(VirtAddr(SHARED_BASE))); // page 0 → home node 0
    for i in 0..200u64 {
        lanes[4].push(Op::Read(private_va(4, i * 64)));
    }
    let trace = Trace {
        name: "mixed".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut m = Machine::new(config());
    m.fail_node(NodeId(0));
    let report = m.run(&trace);
    // Node 0's two processors plus the toucher died.
    assert_eq!(report.dead_procs, 3);
    assert_eq!(report.total_refs, 200 + 1, "private work completed");
}

#[test]
fn barriers_release_survivors_when_a_participant_dies() {
    // proc 2 needs node 0 (fails at its fault); everyone else reaches
    // the barrier. A dead processor is dropped from the barrier: the
    // machine must not deadlock. (The barrier releases when the last
    // live participant arrives; the dead one is force-arrived by the
    // machine's kill path.)
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    lanes[2].push(Op::Write(VirtAddr(SHARED_BASE)));
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(0));
        lane.push(Op::Compute(10));
    }
    let trace = Trace {
        name: "barrier-after-death".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut m = Machine::new(config());
    m.fail_node(NodeId(0));
    let report = m.run(&trace);
    assert!(report.dead_procs >= 3);
    assert_eq!(
        report.barrier_episodes, 1,
        "survivors completed the barrier"
    );
}
