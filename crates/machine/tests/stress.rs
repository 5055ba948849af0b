//! Randomized stress tests: drive the full machine with random shared
//! access patterns under every policy, with the read-sees-latest-write
//! checker enabled and tiny caches/page-caches to force every protocol
//! path (evictions, upgrades, 3-party transfers, page-outs, conversions).

use prism_kernel::policy::PagePolicy;
use prism_machine::config::MachineConfig;
use prism_machine::machine::Machine;
use prism_mem::addr::VirtAddr;
use prism_mem::trace::{private_va, Op, SegmentSpec, Trace, SHARED_BASE};
use prism_sim::SimRng;

fn random_trace(seed: u64, procs: usize, pages: u64, refs: usize, write_pct: f64) -> Trace {
    let mut rng = SimRng::new(seed);
    let bytes = pages * 4096;
    let mut lanes = Vec::new();
    for p in 0..procs {
        let mut lane = Vec::with_capacity(refs + 8);
        let mut prng = rng.fork(p as u64);
        for i in 0..refs {
            // Mix of shared and private accesses with some locality:
            // 1/8 private, else a zipf-ish shared address.
            if prng.gen_bool(0.125) {
                let off = prng.gen_range(0..16 * 1024);
                lane.push(Op::Read(private_va(p, off)));
            } else {
                let addr = SHARED_BASE + prng.gen_range(0..bytes);
                if prng.gen_bool(write_pct) {
                    lane.push(Op::Write(VirtAddr(addr)));
                } else {
                    lane.push(Op::Read(VirtAddr(addr)));
                }
            }
            if i % 64 == 63 {
                lane.push(Op::Compute(20));
            }
            if i % 500 == 499 {
                lane.push(Op::Barrier((i / 500) as u32));
            }
        }
        // Everyone joins the same final barrier count.
        lane.push(Op::Barrier(u32::MAX));
        lanes.push(lane);
    }
    let trace = Trace {
        name: format!("stress-{seed}"),
        segments: vec![SegmentSpec {
            name: "shared".into(),
            va_base: SHARED_BASE,
            bytes,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    trace
        .validate(&prism_mem::addr::Geometry::default())
        .expect("trace well-formed");
    trace
}

fn tiny_machine(policy: PagePolicy, cap: Option<usize>) -> Machine {
    Machine::new(
        MachineConfig::builder()
            .nodes(4)
            .procs_per_node(2)
            .l1_bytes(512)
            .l1_assoc(2)
            .l2_bytes(2048)
            .l2_assoc(2)
            .tlb_entries(8)
            .policy(policy)
            .page_cache_capacity(cap)
            .check_coherence(true)
            .audit_interval(Some(50_000))
            .build(),
    )
}

#[test]
fn scoma_unlimited_is_coherent() {
    let trace = random_trace(1, 8, 16, 1500, 0.3);
    let report = tiny_machine(PagePolicy::Scoma, None).run(&trace);
    assert!(report.reads_checked > 0);
    assert_eq!(report.page_outs, 0, "unlimited page cache never pages out");
    assert!(report.remote_misses > 0);
}

#[test]
fn lanuma_is_coherent() {
    let trace = random_trace(2, 8, 16, 1500, 0.3);
    let report = tiny_machine(PagePolicy::Lanuma, None).run(&trace);
    assert!(report.reads_checked > 0);
    assert_eq!(report.page_outs, 0);
    // Tiny caches + no page cache: lots of refetches from remote homes.
    assert!(report.remote_misses > 0);
}

#[test]
fn scoma_limited_pages_out_and_stays_coherent() {
    let trace = random_trace(3, 8, 24, 2000, 0.3);
    // Very tight page cache: a few client pages per node.
    let report = tiny_machine(PagePolicy::Scoma, Some(4)).run(&trace);
    assert!(report.page_outs > 0, "tight cache must page out");
    assert_eq!(report.conversions_to_lanuma, 0);
    assert!(report.reads_checked > 0);
}

#[test]
fn dyn_fcfs_switches_to_lanuma() {
    let trace = random_trace(4, 8, 24, 2000, 0.3);
    let report = tiny_machine(PagePolicy::DynFcfs, Some(4)).run(&trace);
    assert_eq!(
        report.page_outs, 0,
        "Dyn-FCFS never pages out (paper Table 5)"
    );
    assert!(report.reads_checked > 0);
}

#[test]
fn dyn_util_converts_pages() {
    let trace = random_trace(5, 8, 24, 2000, 0.3);
    let report = tiny_machine(PagePolicy::DynUtil, Some(4)).run(&trace);
    assert!(report.conversions_to_lanuma > 0, "Dyn-Util must convert");
    assert_eq!(report.page_outs, report.conversions_to_lanuma);
    assert!(report.reads_checked > 0);
}

#[test]
fn dyn_lru_converts_pages() {
    let trace = random_trace(6, 8, 24, 2000, 0.3);
    let report = tiny_machine(PagePolicy::DynLru, Some(4)).run(&trace);
    assert!(report.conversions_to_lanuma > 0, "Dyn-LRU must convert");
    assert!(report.reads_checked > 0);
}

#[test]
fn determinism_same_seed_same_report() {
    let trace = random_trace(7, 8, 16, 1000, 0.4);
    let a = tiny_machine(PagePolicy::DynLru, Some(4)).run(&trace);
    let b = tiny_machine(PagePolicy::DynLru, Some(4)).run(&trace);
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.remote_misses, b.remote_misses);
    assert_eq!(a.page_outs, b.page_outs);
    assert_eq!(a.l1_hits, b.l1_hits);
    assert_eq!(a.ledger.total(), b.ledger.total());
}

#[test]
fn write_heavy_single_line_ping_pong() {
    // All processors hammer the same line: maximal invalidation traffic.
    let mut lanes = Vec::new();
    for p in 0..8 {
        let mut lane = Vec::new();
        for i in 0..200 {
            lane.push(Op::Write(VirtAddr(SHARED_BASE + 8 * ((p + i) % 8) as u64)));
            lane.push(Op::Read(VirtAddr(SHARED_BASE)));
        }
        lane.push(Op::Barrier(0));
        lanes.push(lane);
    }
    let trace = Trace {
        name: "ping-pong-heavy".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let report = tiny_machine(PagePolicy::Scoma, None).run(&trace);
    assert!(report.invalidations > 0);
    assert!(report.reads_checked > 0);
}

#[test]
fn migration_moves_hot_pages_and_stays_coherent() {
    use prism_kernel::migration::MigrationPolicy;
    // Node 1's processors hammer a page homed on node 0.
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    // gsid 0 page 0 homes on node 0 (static_home = (0+0)%4).
    for i in 0..2000u64 {
        lanes[2].push(Op::Write(VirtAddr(SHARED_BASE + (i % 64) * 64)));
        lanes[3].push(Op::Read(VirtAddr(SHARED_BASE + ((i + 17) % 64) * 64)));
    }
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(0));
    }
    let trace = Trace {
        name: "migratory".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(512)
        .l2_bytes(2048)
        .tlb_entries(8)
        .check_coherence(true)
        .migration(Some(MigrationPolicy {
            check_interval: 32,
            min_traffic: 64,
            dominance: 0.5,
        }))
        .audit_interval(Some(50_000))
        .build();
    let report = Machine::new(cfg).run(&trace);
    assert!(
        report.migrations > 0,
        "hot page should migrate toward node 1"
    );
    assert!(report.reads_checked > 0);
}

#[test]
fn node_failure_is_contained() {
    // Processors on nodes 2 and 3 only touch their private memory; the
    // machine survives failing node 0 before the run.
    let mut lanes: Vec<Vec<Op>> = Vec::new();
    for p in 0..8 {
        let mut lane = Vec::new();
        for i in 0..200u64 {
            lane.push(Op::Read(private_va(p, (i * 64) % 8192)));
        }
        lanes.push(lane);
    }
    let trace = Trace {
        name: "private-only".into(),
        segments: vec![],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut m = tiny_machine(PagePolicy::Scoma, None);
    m.fail_node(prism_mem::addr::NodeId(0));
    let report = m.run(&trace);
    assert_eq!(
        report.dead_procs, 2,
        "only the failed node's processors die"
    );
    assert!(report.total_refs > 0, "other nodes keep running");
}

#[test]
fn dyn_both_reconverts_reuse_pages_and_stays_coherent() {
    // A heavily reused working set larger than the page-cache capacity:
    // one-way conversion strands reuse pages in LA-NUMA mode; the
    // two-directional policy brings them back.
    let trace = random_trace(8, 8, 24, 3000, 0.2);
    let mut cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(512)
        .l2_bytes(2048)
        .tlb_entries(8)
        .policy(PagePolicy::DynBoth)
        .page_cache_capacity(Some(4))
        .check_coherence(true)
        .renuma_threshold(8)
        .audit_interval(Some(50_000))
        .build();
    cfg.policy = PagePolicy::DynBoth;
    let report = Machine::new(cfg).run(&trace);
    assert!(
        report.conversions_to_lanuma > 0,
        "overflow converts pages out"
    );
    assert!(
        report.conversions_to_scoma > 0,
        "reuse brings pages back to S-COMA"
    );
    assert!(report.reads_checked > 0);
}
