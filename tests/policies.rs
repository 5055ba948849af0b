//! End-to-end behaviour of the six page-mode configurations on the
//! application suite at test scale: the structural facts the paper's
//! evaluation relies on.

use prism::prelude::*;

fn base_config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .tlb_entries(16)
        .audit_interval(Some(50_000))
        .build()
}

#[test]
fn sweep_invariants_hold_for_every_app() {
    for (id, workload) in suite(Scale::Small) {
        let result = sweep(&base_config(), workload.as_ref(), &PolicyKind::ALL)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let r = |p: PolicyKind| &result.reports[&p];

        // SCOMA (infinite page cache) never pages out; LANUMA has no
        // page cache at all so it cannot page out either.
        assert_eq!(r(PolicyKind::Scoma).page_outs, 0, "{id}");
        assert_eq!(r(PolicyKind::Lanuma).page_outs, 0, "{id}");
        // Dyn-FCFS never pages out (paper Table 5).
        assert_eq!(r(PolicyKind::DynFcfs).page_outs, 0, "{id}");
        // Dyn-Util / Dyn-LRU page out exactly when they convert.
        for p in [PolicyKind::DynUtil, PolicyKind::DynLru] {
            assert_eq!(
                r(p).page_outs,
                r(p).conversions_to_lanuma,
                "{id}/{p}: conversions are page-outs"
            );
        }
        // Only the adaptive policies convert pages.
        for p in [PolicyKind::Scoma, PolicyKind::Lanuma, PolicyKind::Scoma70] {
            assert_eq!(r(p).conversions_to_lanuma, 0, "{id}/{p}");
        }
        // Table 3 shape: SCOMA allocates at least as many real frames as
        // LANUMA (client pages consume memory only under S-COMA).
        assert!(
            r(PolicyKind::Scoma).frames_allocated >= r(PolicyKind::Lanuma).frames_allocated,
            "{id}: SCOMA {} < LANUMA {} frames",
            r(PolicyKind::Scoma).frames_allocated,
            r(PolicyKind::Lanuma).frames_allocated
        );
        // Every run executed the full trace.
        let refs = r(PolicyKind::Scoma).total_refs;
        for p in PolicyKind::ALL {
            assert_eq!(r(p).total_refs, refs, "{id}/{p}");
            assert!(r(p).exec_cycles.as_u64() > 0, "{id}/{p}");
        }
    }
}

#[test]
fn page_cache_capacity_is_respected() {
    // A workload with far more shared pages than the page-cache cap.
    let w = workloads::Synthetic::uniform(8, 512 * 1024, 4_000);
    let cap = 8;
    let report = Simulation::new(base_config(), PolicyKind::Scoma70)
        .with_page_cache_capacity(cap)
        .run(&w)
        .unwrap();
    assert!(report.page_outs > 0, "capacity must bind");
    // Peak client S-COMA frames per node can never exceed the cap:
    // cumulative allocations - page-outs = live ≤ cap per node.
    for (i, node) in report.per_node.iter().enumerate() {
        let live = node.pool.scoma_client - node.kernel.page_outs;
        assert!(
            live <= cap as u64,
            "node {i}: {live} live client frames > cap {cap}"
        );
    }
}

#[test]
fn lanuma_pays_capacity_misses_when_working_set_exceeds_l2() {
    // Working set far beyond L2 with heavy reuse: S-COMA's page cache
    // absorbs refetches locally, LA-NUMA must refetch remotely.
    let mut lanes: Vec<Vec<prism::mem::trace::Op>> = vec![Vec::new(); 8];
    use prism::mem::addr::VirtAddr;
    use prism::mem::trace::{Op, SHARED_BASE};
    for (p, lane) in lanes.iter_mut().enumerate() {
        for pass in 0..6u64 {
            let _ = pass;
            // Each processor sweeps its own 32 KiB slab (L2 is 4 KiB here).
            for line in 0..512u64 {
                lane.push(Op::Read(VirtAddr(
                    SHARED_BASE + (p as u64 * 512 + line) * 64,
                )));
            }
        }
    }
    let trace = prism::mem::trace::Trace {
        name: "reuse".into(),
        segments: vec![prism::mem::trace::SegmentSpec {
            name: "slabs".into(),
            va_base: SHARED_BASE,
            bytes: 8 * 512 * 64,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let scoma = Simulation::new(base_config(), PolicyKind::Scoma)
        .run_trace(&trace)
        .unwrap();
    let lanuma = Simulation::new(base_config(), PolicyKind::Lanuma)
        .run_trace(&trace)
        .unwrap();
    assert!(
        lanuma.remote_misses > 2 * scoma.remote_misses,
        "LA-NUMA {} vs S-COMA {} remote misses",
        lanuma.remote_misses,
        scoma.remote_misses
    );
    assert!(lanuma.exec_cycles > scoma.exec_cycles);
}

#[test]
fn report_accessors_are_consistent() {
    let w = workloads::Synthetic::uniform(8, 64 * 1024, 2_000);
    let r = Simulation::new(base_config(), PolicyKind::Scoma)
        .run(&w)
        .unwrap();
    assert_eq!(r.network_accesses(), r.remote_misses + r.remote_upgrades);
    assert_eq!(r.total_faults(), r.faults.0 + r.faults.1 + r.faults.2);
    assert!(r.frames_allocated > 0);
    assert!((0.0..=1.0).contains(&r.avg_utilization));
    let text = r.to_string();
    assert!(text.contains("exec cycles"));
}
