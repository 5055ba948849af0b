//! Geometry sweep: the machine must be correct for any page/line
//! geometry, not just the default 4 KiB / 64 B (the paper's). Running
//! the coherence checker across geometries catches hidden 64-byte or
//! 4-KiB assumptions.

use prism::machine::machine::Machine;
use prism::mem::addr::{Geometry, VirtAddr};
use prism::mem::trace::{private_va, Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;
use prism::sim::SimRng;

fn random_trace(seed: u64, procs: usize, bytes: u64, refs: usize) -> Trace {
    let mut rng = SimRng::new(seed);
    let mut lanes = Vec::new();
    for p in 0..procs {
        let mut prng = rng.fork(p as u64);
        let mut lane = Vec::new();
        for _ in 0..refs {
            if prng.gen_bool(0.2) {
                lane.push(Op::Read(private_va(p, prng.gen_range(0..8192))));
            } else {
                let va = VirtAddr(SHARED_BASE + prng.gen_range(0..bytes));
                if prng.gen_bool(0.3) {
                    lane.push(Op::Write(va));
                } else {
                    lane.push(Op::Read(va));
                }
            }
        }
        lane.push(Op::Barrier(0));
        lanes.push(lane);
    }
    Trace {
        name: format!("geom-{seed}"),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

fn run_with(geometry: Geometry, policy: PolicyKind, cap: Option<usize>) -> prism::RunReport {
    let mut cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .geometry(geometry)
        // Cache/page sizes must respect the line size.
        .l1_bytes(32 * geometry.line_bytes())
        .l1_assoc(2)
        .l2_bytes(128 * geometry.line_bytes())
        .l2_assoc(2)
        .tlb_entries(8)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build();
    cfg.policy = policy.page_policy();
    cfg.page_cache_capacity = if policy.is_capacity_limited() {
        cap
    } else {
        None
    };
    // Segment sizes must be page-aligned for the geometry: use a
    // page-multiple region.
    let bytes = 24 * geometry.page_bytes();
    Machine::new(cfg).run(&random_trace(42, 8, bytes, 800))
}

#[test]
fn default_geometry_4k_pages_64b_lines() {
    let r = run_with(Geometry::new(12, 6), PolicyKind::Scoma70, Some(4));
    assert!(r.reads_checked > 0);
    assert!(r.page_outs > 0);
}

#[test]
fn small_lines_32b() {
    let r = run_with(Geometry::new(12, 5), PolicyKind::Scoma70, Some(4));
    assert!(r.reads_checked > 0);
}

#[test]
fn large_lines_128b() {
    let r = run_with(Geometry::new(12, 7), PolicyKind::DynLru, Some(4));
    assert!(r.reads_checked > 0);
}

#[test]
fn large_pages_8k() {
    let r = run_with(Geometry::new(13, 6), PolicyKind::DynUtil, Some(4));
    assert!(r.reads_checked > 0);
}

#[test]
fn small_pages_1k() {
    let r = run_with(Geometry::new(10, 5), PolicyKind::Lanuma, None);
    assert!(r.reads_checked > 0);
}

/// Larger lines mean fewer remote fetches for the same bytes (spatial
/// locality is free transfer) — a sanity property of the line-size knob.
#[test]
fn line_size_tradeoff_is_visible() {
    let small = run_with(Geometry::new(12, 5), PolicyKind::Lanuma, None);
    let large = run_with(Geometry::new(12, 7), PolicyKind::Lanuma, None);
    assert!(
        large.remote_misses < small.remote_misses,
        "128B lines {} vs 32B lines {}",
        large.remote_misses,
        small.remote_misses
    );
}
