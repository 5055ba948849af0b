//! Statistical characterization of the workload generators: guards the
//! properties that make each kernel behave like its SPLASH namesake
//! (write fractions, sharing, load balance, phase structure). A refactor
//! that silently flattens an access pattern will trip these.

use prism_mem::trace::{Op, Trace};
use prism_sim::FastSet;
use prism_workloads::{suite, AppId, Scale};

fn write_fraction(t: &Trace) -> f64 {
    let (mut reads, mut writes) = (0u64, 0u64);
    for op in t.lanes.iter().flatten() {
        match *op {
            Op::Read(_) => reads += 1,
            Op::Write(_) => writes += 1,
            _ => {}
        }
    }
    writes as f64 / (reads + writes) as f64
}

fn per_lane_refs(t: &Trace) -> Vec<u64> {
    t.lanes
        .iter()
        .map(|l| {
            l.iter()
                .filter(|op| matches!(**op, Op::Read(_) | Op::Write(_)))
                .count() as u64
        })
        .collect()
}

/// Lines of shared memory touched by at least two different lanes.
fn shared_lines(t: &Trace) -> (usize, usize) {
    let mut by_line: prism_sim::FastMap<u64, FastSet<usize>> = Default::default();
    for (lane, ops) in t.lanes.iter().enumerate() {
        for op in ops {
            if let Op::Read(va) | Op::Write(va) = *op {
                if va.0 < prism_mem::trace::PRIVATE_BASE {
                    by_line.entry(va.0 >> 6).or_default().insert(lane);
                }
            }
        }
    }
    let total = by_line.len();
    let shared = by_line.values().filter(|s| s.len() >= 2).count();
    (total, shared)
}

#[test]
fn write_fractions_are_in_kernel_appropriate_ranges() {
    for (id, w) in suite(Scale::Small) {
        let t = w.generate(8);
        let wf = write_fraction(&t);
        let (lo, hi) = match id {
            // Butterfly updates write what they read.
            AppId::Fft => (0.30, 0.60),
            // Block updates dominated by read+write element sweeps.
            AppId::Lu => (0.20, 0.50),
            // Stencil reads 4 neighbors per write.
            AppId::Ocean => (0.10, 0.35),
            // Histogram updates + scatter writes.
            AppId::Radix => (0.30, 0.60),
            // Particle/cell updates are read-modify-write heavy.
            AppId::Mp3d => (0.30, 0.60),
            // Tree walks are read-dominated.
            AppId::Barnes => (0.05, 0.45),
            // Pair interactions read two molecules, write force terms.
            AppId::WaterNsq | AppId::WaterSpa => (0.15, 0.50),
        };
        assert!(
            (lo..=hi).contains(&wf),
            "{id}: write fraction {wf:.3} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn every_kernel_actually_shares_data() {
    for (id, w) in suite(Scale::Small) {
        let t = w.generate(8);
        let (total, shared) = shared_lines(&t);
        assert!(total > 0, "{id}");
        let frac = shared as f64 / total as f64;
        assert!(
            frac > 0.02,
            "{id}: only {frac:.3} of shared lines touched by ≥2 processors"
        );
    }
}

#[test]
fn load_is_reasonably_balanced() {
    for (id, w) in suite(Scale::Small) {
        let t = w.generate(8);
        let refs = per_lane_refs(&t);
        let max = *refs.iter().max().unwrap() as f64;
        let min = *refs.iter().min().unwrap() as f64;
        // Barnes' serial tree build concentrates work on lane 0, and
        // LU's 2-D scatter is uneven at small block counts; the rest
        // are tightly SPMD-balanced.
        let limit = match id {
            AppId::Barnes => 20.0,
            AppId::Lu => 8.0,
            // Cell-list decomposition is uneven at tiny cell counts.
            AppId::WaterSpa => 12.0,
            _ => 3.0,
        };
        assert!(max / min.max(1.0) <= limit, "{id}: imbalance {max}/{min}");
    }
}

#[test]
fn phase_structure_matches_kernels() {
    for (id, w) in suite(Scale::Small) {
        let t = w.generate(4);
        let barriers = t.lanes[0]
            .iter()
            .filter(|op| matches!(**op, Op::Barrier(_)))
            .count();
        match id {
            AppId::Fft => assert_eq!(barriers, 11, "bit-reverse + log2(1024)"),
            AppId::Lu => assert_eq!(barriers, 3 * 8, "3 per step, 8 blocks"),
            AppId::Ocean => assert_eq!(barriers, 3 * 2, "3 per iteration"),
            AppId::Mp3d => assert_eq!(barriers, 2, "1 per step"),
            AppId::Barnes => assert_eq!(barriers, 3, "build/force/update"),
            AppId::WaterNsq | AppId::WaterSpa => assert_eq!(barriers, 3, "3 per step"),
            AppId::Radix => assert!(barriers % 3 == 0 && barriers > 0, "3 per pass"),
        }
    }
}

#[test]
fn locks_appear_only_in_water() {
    for (id, w) in suite(Scale::Small) {
        let t = w.generate(4);
        let locks = t
            .lanes
            .iter()
            .flatten()
            .filter(|op| matches!(**op, Op::Lock(_)))
            .count();
        match id {
            AppId::WaterNsq | AppId::WaterSpa => {
                assert!(locks > 0, "{id}: per-molecule locks expected")
            }
            _ => assert_eq!(locks, 0, "{id}: unexpected locks"),
        }
    }
}

#[test]
fn paper_scale_traces_are_substantially_larger() {
    for id in [AppId::Fft, AppId::Radix] {
        let small = prism_workloads::app(id, Scale::Small)
            .generate(8)
            .total_refs();
        let paper = prism_workloads::app(id, Scale::Paper)
            .generate(8)
            .total_refs();
        assert!(paper > 10 * small, "{id}: {small} -> {paper}");
    }
}
