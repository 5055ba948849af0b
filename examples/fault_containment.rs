//! Fault containment (paper §1, §3.2): PRISM's node-private physical
//! address spaces mean a faulty node cannot scribble on remote memory —
//! every inbound access crosses the victim's PIT, where a capability
//! list rejects wild writes — and a node failure only terminates the
//! work that used that node's resources.
//!
//! ```text
//! cargo run --release --example fault_containment
//! ```

use prism::machine::machine::Machine;
use prism::mem::addr::{GlobalPage, Gsid, NodeId, NodeSet, VirtAddr};
use prism::mem::pit::Caps;
use prism::mem::trace::{private_va, Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn main() {
    let config = MachineConfig::builder().nodes(4).procs_per_node(2).build();

    // ── Part 1: wild-write rejection ────────────────────────────────
    // Node 1 maps a shared page; we then restrict its PIT entry's
    // capability list and inject a rogue write from node 3 (as a faulty
    // coherence controller might emit).
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); config.total_procs()];
    lanes[2].push(Op::Write(VirtAddr(SHARED_BASE))); // proc 2 = node 1
    let trace = Trace {
        name: "firewall-demo".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut machine = Machine::new(config.clone());
    machine.run(&trace);

    let gp = GlobalPage::new(Gsid(0), 0);
    machine
        .restrict_page(NodeId(1), gp, Caps::Only(NodeSet::single(NodeId(0))))
        .expect("node 1 mapped the page during the run");
    println!("node 1's copy of {gp} now only accepts accesses from node 0");

    match machine.inject_wild_write(NodeId(0), NodeId(1), gp) {
        Ok(()) => println!("  write from node 0: ACCEPTED (it holds the capability)"),
        Err(v) => println!("  write from node 0: rejected?! {v}"),
    }
    match machine.inject_wild_write(NodeId(3), NodeId(1), gp) {
        Ok(()) => println!("  wild write from node 3: ACCEPTED — containment failed!"),
        Err(v) => println!("  wild write from node 3: REJECTED ({v})"),
    }

    // ── Part 2: node failure is contained ───────────────────────────
    // Every processor streams its own private data; node 0 fails before
    // the run. Only node 0's processors die — the rest of the machine
    // completes its work untouched, because no physical address on a
    // healthy node names memory on the failed one.
    let mut lanes: Vec<Vec<Op>> = Vec::new();
    for p in 0..config.total_procs() {
        let mut lane = Vec::new();
        for i in 0..2_000u64 {
            lane.push(Op::Read(private_va(p, (i * 64) % 65536)));
        }
        lanes.push(lane);
    }
    let trace = Trace {
        name: "failure-demo".into(),
        segments: vec![],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut machine = Machine::new(config.clone());
    machine.fail_node(NodeId(0));
    println!(
        "\nnode 0 failed before the run ({} live processors remain)",
        machine.live_procs()
    );
    let report = machine.run(&trace);
    println!(
        "  run completed: {} references executed, {} processors dead, {} survived",
        report.total_refs,
        report.dead_procs,
        config.total_procs() as u64 - report.dead_procs
    );
    println!(
        "\nOn a CC-NUMA machine with one global physical address space, the\n\
         failed node would have been a monolithic failure unit for everyone."
    );
}
