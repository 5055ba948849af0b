//! Randomized tests over the full machine: seeded random multiprocessor
//! access patterns must stay coherent under every policy, and the
//! simulation must be a deterministic function of its inputs.

use prism::machine::machine::Machine;
use prism::mem::addr::VirtAddr;
use prism::mem::trace::{private_va, Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;
use prism::sim::SimRng;

/// Builds a random 4-lane trace mixing shared reads/writes, private
/// reads, and compute, ending in a barrier on each lane.
fn random_trace(rng: &mut SimRng, max_ops: u64, shared_pages: u64) -> Trace {
    let bytes = shared_pages * 4096;
    let lanes = (0..4usize)
        .map(|p| {
            let len = rng.gen_range(1..max_ops);
            let mut lane: Vec<Op> = (0..len)
                .map(|_| match rng.gen_range(0..6) {
                    // Shared accesses dominate (4/6), as in the original
                    // weighted generator.
                    0..=3 => {
                        let va = VirtAddr(SHARED_BASE + rng.gen_range(0..bytes));
                        if rng.gen_bool(0.5) {
                            Op::Write(va)
                        } else {
                            Op::Read(va)
                        }
                    }
                    4 => Op::Read(private_va(p, rng.gen_range(0..65536))),
                    _ => Op::Compute(rng.gen_range(1..257) as u32),
                })
                .collect();
            lane.push(Op::Barrier(0));
            lane.into()
        })
        .collect();
    Trace {
        name: "prop".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes,
        }],
        lanes,
    }
}

fn config(policy: PolicyKind) -> MachineConfig {
    let mut cfg = MachineConfig::builder()
        .nodes(2)
        .procs_per_node(2)
        .l1_bytes(512)
        .l1_assoc(1)
        .l2_bytes(1024)
        .l2_assoc(2)
        .tlb_entries(4)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build();
    cfg.policy = policy.page_policy();
    cfg.page_cache_capacity = policy.is_capacity_limited().then_some(3);
    cfg
}

/// Random access interleavings stay coherent (the shadow checker
/// panics on any read of stale data) with pathologically small
/// caches, TLBs, and page caches.
#[test]
fn random_traces_are_coherent_under_all_policies() {
    for seed in 0..24 {
        let mut rng = SimRng::new(seed);
        let trace = random_trace(&mut rng, 150, 4);
        for policy in PolicyKind::ALL {
            let report = Machine::new(config(policy)).run(&trace);
            assert!(report.reads_checked > 0 || report.total_refs == 0);
        }
    }
}

/// The simulator is a pure function: same trace, same report.
#[test]
fn simulation_is_a_pure_function() {
    for seed in 0..24 {
        let mut rng = SimRng::new(seed);
        let trace = random_trace(&mut rng, 100, 4);
        let a = Machine::new(config(PolicyKind::DynLru)).run(&trace);
        let b = Machine::new(config(PolicyKind::DynLru)).run(&trace);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.remote_misses, b.remote_misses);
        assert_eq!(a.page_outs, b.page_outs);
        assert_eq!(a.ledger.total(), b.ledger.total());
    }
}

/// Execution time is monotone in the latency model: making every
/// network message slower can never make the machine faster.
#[test]
fn slower_network_never_speeds_execution() {
    for seed in 0..24 {
        let mut rng = SimRng::new(seed);
        let trace = random_trace(&mut rng, 100, 4);
        let fast = Machine::new(config(PolicyKind::Scoma)).run(&trace);
        let mut slow_cfg = config(PolicyKind::Scoma);
        slow_cfg.latency.net *= 4;
        let slow = Machine::new(slow_cfg).run(&trace);
        assert!(slow.exec_cycles >= fast.exec_cycles);
    }
}
