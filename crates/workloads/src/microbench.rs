//! The memory-latency microbenchmark that regenerates the paper's
//! Table 1.
//!
//! Each scenario is a pair of traces: `setup` performs only the state
//! preparation (e.g. dirtying lines at a third node) and `full` appends
//! the measured accesses. Because the simulator is deterministic, the
//! setup prefix behaves identically in both runs, so the measured class's
//! mean latency is the difference of the two runs' histogram sums divided
//! by the added samples.

use prism_kernel::policy::PagePolicy;
use prism_mem::addr::VirtAddr;
use prism_mem::trace::{private_va, Op, OpLane, SegmentSpec, Trace, SHARED_BASE};

/// How to extract the scenario's latency from the two runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Difference of the remote-fetch histogram (sum/count) between
    /// `full` and `setup`.
    RemoteFetchDiff,
    /// Difference of the local-fill histogram.
    LocalFillDiff,
    /// Difference of total execution cycles divided by added references
    /// (for L1/L2/TLB classes where per-access cost is uniform).
    ExecPerRef,
    /// Difference of the page-fault histogram.
    FaultDiff,
}

/// One Table-1 row.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Row label, matching the paper's access type.
    pub name: &'static str,
    /// The paper's reported latency in cycles.
    pub paper_cycles: u64,
    /// Preparation-only trace.
    pub setup: Trace,
    /// Preparation plus measured accesses.
    pub full: Trace,
    /// Extraction method.
    pub metric: Metric,
    /// Page policy the scenario should run under.
    pub policy: PagePolicy,
}

struct Builder {
    lanes: Vec<OpLane>,
    segments: Vec<SegmentSpec>,
    next_barrier: u32,
}

impl Builder {
    fn new(procs: usize, pages: u64) -> Builder {
        Builder {
            lanes: vec![OpLane::new(); procs],
            segments: vec![SegmentSpec {
                name: "mb".into(),
                va_base: SHARED_BASE,
                bytes: pages * 4096,
            }],
            next_barrier: 0,
        }
    }

    fn barrier_all(&mut self) {
        let id = self.next_barrier;
        self.next_barrier += 1;
        for lane in &mut self.lanes {
            lane.push(Op::Barrier(id));
        }
    }

    fn trace(&self, name: &str) -> Trace {
        Trace {
            name: name.to_string(),
            segments: self.segments.clone(),
            lanes: self.lanes.clone(),
        }
    }
}

/// Shared page `p`'s base virtual address.
fn page_va(p: u64) -> u64 {
    SHARED_BASE + p * 4096
}

/// Builds all Table-1 scenarios for a machine of `nodes` nodes with
/// `ppn` processors per node and `tlb_entries`-entry TLBs.
///
/// # Panics
///
/// Panics if the machine has fewer than 3 nodes (3-party scenarios need
/// a third node).
pub fn scenarios(nodes: usize, ppn: usize, tlb_entries: usize) -> Vec<Scenario> {
    assert!(nodes >= 3, "microbenchmark needs at least 3 nodes");
    let procs = nodes * ppn;
    let proc_of_node = |n: usize| n * ppn;
    // Pages homed at node k (static home = (gsid 0 + page) % nodes).
    let homed_at = |k: usize, i: u64| -> u64 { i * nodes as u64 + k as u64 };
    let mut out = Vec::new();

    // ── L1 hit ────────────────────────────────────────────────────────
    {
        let mut b = Builder::new(procs, 1);
        b.lanes[0].push(Op::Read(private_va(0, 0)));
        let setup = b.trace("l1-setup");
        for _ in 0..2000 {
            b.lanes[0].push(Op::Read(private_va(0, 0)));
        }
        out.push(Scenario {
            name: "L1 hit",
            paper_cycles: 1,
            setup,
            full: b.trace("l1"),
            metric: Metric::ExecPerRef,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── L1 miss, L2 hit ───────────────────────────────────────────────
    {
        // Working set of 256 lines: 16 KiB fits L2 (32 KiB), not L1 (8 KiB).
        let lines = 256u64;
        let mut b = Builder::new(procs, 4);
        for i in 0..lines {
            b.lanes[0].push(Op::Read(private_va(0, (i * 64) % 16384)));
        }
        let setup = b.trace("l2-setup");
        for pass in 0..40u64 {
            let _ = pass;
            for i in 0..lines {
                b.lanes[0].push(Op::Read(private_va(0, (i * 64) % 16384)));
            }
        }
        out.push(Scenario {
            name: "L1 miss, L2 hit",
            paper_cycles: 12,
            setup,
            full: b.trace("l2"),
            metric: Metric::ExecPerRef,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── Uncached, line in local memory ────────────────────────────────
    {
        // 2048 lines = 128 KiB: far beyond L2, streaming misses to local
        // memory.
        let lines = 2048u64;
        let mut b = Builder::new(procs, 1);
        b.lanes[0].push(Op::Read(private_va(0, 0)));
        let setup = b.trace("localmem-setup");
        for pass in 0..8u64 {
            let _ = pass;
            for i in 0..lines {
                b.lanes[0].push(Op::Read(private_va(0, i * 64)));
            }
        }
        out.push(Scenario {
            name: "Uncached, line in local memory",
            paper_cycles: 36,
            setup,
            full: b.trace("localmem"),
            metric: Metric::LocalFillDiff,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── Uncached, line in remote memory ───────────────────────────────
    {
        // Node 1 reads lines of pages homed at node 0, each line once
        // (LA-NUMA: every fill crosses the network).
        let pages = 32u64;
        let reader = proc_of_node(1);
        let mut b = Builder::new(procs, pages * nodes as u64);
        // Touch each page once so faults happen in setup.
        for i in 0..pages {
            b.lanes[reader].push(Op::Read(VirtAddr(page_va(homed_at(0, i)))));
        }
        let setup = b.trace("remote-clean-setup");
        for i in 0..pages {
            for l in 1..64u64 {
                b.lanes[reader].push(Op::Read(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        out.push(Scenario {
            name: "Uncached, line in remote memory",
            paper_cycles: 573,
            setup,
            full: b.trace("remote-clean"),
            metric: Metric::RemoteFetchDiff,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── 2-party read to a modified line ───────────────────────────────
    {
        // A home processor dirties lines of home pages; node 1 reads them.
        let pages = 6u64;
        let home_proc = proc_of_node(0);
        let reader = proc_of_node(1);
        let mut b = Builder::new(procs, pages * nodes as u64);
        for i in 0..pages {
            for l in 0..64u64 {
                b.lanes[home_proc].push(Op::Write(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        b.barrier_all();
        let setup = b.trace("2party-setup");
        for i in 0..pages {
            for l in 0..64u64 {
                b.lanes[reader].push(Op::Read(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        out.push(Scenario {
            name: "2-party read/write to a modified line",
            paper_cycles: 608,
            setup,
            full: b.trace("2party"),
            metric: Metric::RemoteFetchDiff,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── 3-party read to a modified line ───────────────────────────────
    {
        // Node 1 dirties lines of node-0-homed pages (kept in its L2);
        // node 2 then reads them.
        let pages = 6u64; // 6 pages * 64 lines = 384 lines < 512-line L2
        let writer = proc_of_node(1);
        let reader = proc_of_node(2);
        let mut b = Builder::new(procs, pages * nodes as u64);
        for i in 0..pages {
            for l in 0..64u64 {
                b.lanes[writer].push(Op::Write(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        b.barrier_all();
        let setup = b.trace("3party-setup");
        for i in 0..pages {
            for l in 0..64u64 {
                b.lanes[reader].push(Op::Read(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        out.push(Scenario {
            name: "3-party read/write to a modified line",
            paper_cycles: 866,
            setup,
            full: b.trace("3party"),
            metric: Metric::RemoteFetchDiff,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── 2-party write to a shared line ────────────────────────────────
    {
        // Node 1 reads lines (shared with the home only), then upgrades.
        let pages = 6u64;
        let writer = proc_of_node(1);
        let mut b = Builder::new(procs, pages * nodes as u64);
        for i in 0..pages {
            for l in 0..64u64 {
                b.lanes[writer].push(Op::Read(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        b.barrier_all();
        let setup = b.trace("wshared2-setup");
        for i in 0..pages {
            for l in 0..64u64 {
                b.lanes[writer].push(Op::Write(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        out.push(Scenario {
            name: "2-party write to shared line",
            paper_cycles: 608,
            setup,
            full: b.trace("wshared2"),
            metric: Metric::RemoteFetchDiff,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── (3+n)-party write to a shared line (n = 0: one remote sharer) ─
    {
        let pages = 6u64;
        let sharer = proc_of_node(2);
        let writer = proc_of_node(1);
        let mut b = Builder::new(procs, pages * nodes as u64);
        for i in 0..pages {
            for l in 0..64u64 {
                let va = VirtAddr(page_va(homed_at(0, i)) + l * 64);
                b.lanes[sharer].push(Op::Read(va));
                b.lanes[writer].push(Op::Read(va));
            }
        }
        b.barrier_all();
        let setup = b.trace("wshared3-setup");
        for i in 0..pages {
            for l in 0..64u64 {
                b.lanes[writer].push(Op::Write(VirtAddr(page_va(homed_at(0, i)) + l * 64)));
            }
        }
        out.push(Scenario {
            name: "(3+n)-party write to shared line (n=0)",
            paper_cycles: 1142,
            setup,
            full: b.trace("wshared3"),
            metric: Metric::RemoteFetchDiff,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── TLB miss ──────────────────────────────────────────────────────
    {
        // Cycle through 1.5× the TLB's pages, one line each (lines stay
        // in L1): every access is TLB miss + L1 hit.
        let pages = (tlb_entries as u64 * 3) / 2;
        let mut b = Builder::new(procs, 1);
        // Stagger the line within each page so the cached lines spread
        // across cache sets (one line per page at page stride would
        // alias into a single set).
        let va_of = |i: u64| private_va(0, i * 4096 + (i % 64) * 64);
        for i in 0..pages {
            b.lanes[0].push(Op::Read(va_of(i)));
        }
        let setup = b.trace("tlb-setup");
        for pass in 0..20u64 {
            let _ = pass;
            for i in 0..pages {
                b.lanes[0].push(Op::Read(va_of(i)));
            }
        }
        out.push(Scenario {
            name: "TLB miss",
            paper_cycles: 30,
            setup,
            full: b.trace("tlb"),
            metric: Metric::ExecPerRef,
            policy: PagePolicy::Lanuma,
        });
    }

    // ── In-core page fault, local home ────────────────────────────────
    {
        let pages = 64u64;
        let toucher = proc_of_node(0);
        let mut b = Builder::new(procs, pages * nodes as u64);
        b.lanes[toucher].push(Op::Read(VirtAddr(page_va(homed_at(0, 0)))));
        let setup = b.trace("fault-local-setup");
        for i in 1..pages {
            b.lanes[toucher].push(Op::Read(VirtAddr(page_va(homed_at(0, i)))));
        }
        out.push(Scenario {
            name: "In-core page fault, local home",
            paper_cycles: 2300,
            setup,
            full: b.trace("fault-local"),
            metric: Metric::FaultDiff,
            policy: PagePolicy::Scoma,
        });
    }

    // ── In-core page fault, remote home ───────────────────────────────
    {
        let pages = 64u64;
        let toucher = proc_of_node(1);
        let mut b = Builder::new(procs, pages * nodes as u64);
        b.lanes[toucher].push(Op::Read(VirtAddr(page_va(homed_at(0, 0)))));
        let setup = b.trace("fault-remote-setup");
        for i in 1..pages {
            b.lanes[toucher].push(Op::Read(VirtAddr(page_va(homed_at(0, i)))));
        }
        out.push(Scenario {
            name: "In-core page fault, remote home",
            paper_cycles: 4400,
            setup,
            full: b.trace("fault-remote"),
            metric: Metric::FaultDiff,
            policy: PagePolicy::Scoma,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::addr::Geometry;

    #[test]
    fn scenarios_cover_table1() {
        let s = scenarios(8, 4, 64);
        assert_eq!(s.len(), 11);
        for sc in &s {
            sc.setup
                .validate(&Geometry::default())
                .expect("setup valid");
            sc.full.validate(&Geometry::default()).expect("full valid");
            assert!(
                sc.full.total_ops() > sc.setup.total_ops(),
                "{}: full extends setup",
                sc.name
            );
            // setup must be a prefix of full, lane by lane.
            for (a, b) in sc.setup.lanes.iter().zip(sc.full.lanes.iter()) {
                assert!(
                    a.iter().eq(b.iter().take(a.len())),
                    "{}: prefix property",
                    sc.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn too_few_nodes_rejected() {
        scenarios(2, 4, 64);
    }
}
