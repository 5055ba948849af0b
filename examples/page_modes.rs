//! The paper's thesis in one program: "PRISM outperforms both S-COMA and
//! CC-NUMA when the optimal configuration is a mix of S-COMA and
//! LA-NUMA pages" (§6) — here via *explicit user selection* of page
//! modes (§3.3's suggestion system call).
//!
//! The workload has two shared regions with opposite personalities:
//!   * `reused`  — swept repeatedly: wants S-COMA (local page cache).
//!   * `stream`  — touched once: wants LA-NUMA (no memory wasted, no
//!     page-outs displacing the reused region).
//!
//! The page cache is sized to hold only the reused region.
//!
//! ```text
//! cargo run --release --example page_modes
//! ```

use prism::machine::machine::Machine;
use prism::mem::addr::VirtAddr;
use prism::mem::mode::FrameMode;
use prism::mem::trace::{Op, OpLane, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

const REUSED_PAGES: u64 = 16;
const STREAM_PAGES: u64 = 256;
const STREAM_BASE: u64 = SHARED_BASE + REUSED_PAGES * 4096;

fn workload(procs: usize) -> Trace {
    let mut lanes = Vec::new();
    for p in 0..procs {
        let mut lane = Vec::new();
        for pass in 0..6u64 {
            // Sweep the reused region (all processors share it).
            for line in 0..REUSED_PAGES * 64 {
                if line % procs as u64 == p as u64 {
                    lane.push(Op::Read(VirtAddr(SHARED_BASE + line * 64)));
                }
            }
            // Stream a fresh slice of the big region exactly once.
            let slice = STREAM_PAGES * 64 / 6;
            for line in pass * slice..(pass + 1) * slice {
                if line % procs as u64 == p as u64 {
                    lane.push(Op::Read(VirtAddr(STREAM_BASE + line * 64)));
                }
            }
            lane.push(Op::Barrier(pass as u32));
        }
        lanes.push(lane);
    }
    Trace {
        name: "two-personalities".into(),
        segments: vec![
            SegmentSpec {
                name: "reused".into(),
                va_base: SHARED_BASE,
                bytes: REUSED_PAGES * 4096,
            },
            SegmentSpec {
                name: "stream".into(),
                va_base: STREAM_BASE,
                bytes: STREAM_PAGES * 4096,
            },
        ],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

fn main() {
    let cfg = {
        let mut c = MachineConfig::builder()
            .nodes(4)
            .procs_per_node(2)
            // Page cache holds the reused region and little more.
            .page_cache_capacity(Some(20))
            .build();
        c.policy = prism::kernel::policy::PagePolicy::Scoma;
        c
    };
    let trace = workload(8);

    // All-S-COMA: the stream thrashes the page cache (page-outs).
    let scoma = Machine::new(cfg.clone()).run(&trace);

    // All-LA-NUMA: the reused region is refetched remotely every sweep.
    let mut lanuma_cfg = cfg.clone();
    lanuma_cfg.policy = prism::kernel::policy::PagePolicy::Lanuma;
    let lanuma = Machine::new(lanuma_cfg).run(&trace);

    // User-tuned mix: suggest LA-NUMA for the stream, S-COMA stays for
    // the reused region (paper §3.3's system call).
    let mut machine = Machine::new(cfg);
    // Mappings are created at fault time, so suggestions must precede the
    // run — exactly how an application would annotate its regions.
    {
        // Prime the segment tables so the suggestion can resolve pages.
        let empty = Trace {
            name: "attach".into(),
            segments: trace.segments.clone(),
            lanes: vec![OpLane::new(); 8],
        };
        machine.run(&empty);
    }
    machine.suggest_region_mode(STREAM_BASE, STREAM_PAGES * 4096, FrameMode::LaNuma);
    let mixed = machine.run(&trace);

    println!(
        "{:<14} {:>14} {:>12} {:>10}",
        "Config", "Exec (cycles)", "Remote", "Page-outs"
    );
    for (name, r) in [
        ("all S-COMA", &scoma),
        ("all LA-NUMA", &lanuma),
        ("user mix", &mixed),
    ] {
        println!(
            "{:<14} {:>14} {:>12} {:>10}",
            name,
            r.exec_cycles.as_u64(),
            r.remote_misses,
            r.page_outs
        );
    }
    let best_static = scoma.exec_cycles.min(lanuma.exec_cycles).as_u64() as f64;
    let gain = 1.0 - mixed.exec_cycles.as_u64() as f64 / best_static;
    println!(
        "\nuser-selected modes beat the best static configuration by {:.1}%",
        gain * 100.0
    );
}
