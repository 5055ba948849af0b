//! FFT: 1-D complex fast Fourier transform (paper Table 2: "FFT
//! computation, 64K complex doubles").
//!
//! An iterative radix-2 Cooley–Tukey over a shared array of complex
//! doubles. Each of the log₂N stages partitions its butterflies across
//! the processors contiguously and ends with a barrier; the butterfly
//! access pattern (pairs at stride 2^s) produces the long-stride sharing
//! the original motivates.

use prism_mem::trace::Trace;

use crate::common::{finish_trace, partition, BarrierIds, Lane, Layout, Workload};

/// The FFT workload.
#[derive(Clone, Debug)]
pub struct Fft {
    /// Number of complex points (must be a power of two).
    pub points: u64,
}

impl Fft {
    /// An FFT over `points` complex doubles.
    ///
    /// # Panics
    ///
    /// Panics unless `points` is a power of two ≥ 2.
    pub fn new(points: u64) -> Fft {
        assert!(
            points.is_power_of_two() && points >= 2,
            "points must be a power of two"
        );
        Fft { points }
    }
}

impl Workload for Fft {
    fn name(&self) -> String {
        "FFT".into()
    }

    fn description(&self) -> String {
        format!("FFT computation, {}K complex doubles", self.points / 1024)
    }

    fn generate(&self, procs: usize) -> Trace {
        const COMPLEX_BYTES: u64 = 16;
        let n = self.points;
        let mut layout = Layout::new();
        let data = layout.array("fft-data", n, COMPLEX_BYTES);
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();

        // Bit-reversal permutation pass: each processor permutes its own
        // contiguous chunk (reads source, writes destination).
        for (p, lane) in lanes.iter_mut().enumerate() {
            for i in partition(n, procs, p) {
                let j = i.reverse_bits() >> (64 - n.trailing_zeros());
                if j > i {
                    lane.read(data.at(i)).read(data.at(j)).compute(2);
                    lane.write(data.at(i)).write(data.at(j));
                }
            }
        }
        let b = barriers.fresh();
        for lane in &mut lanes {
            lane.barrier(b);
        }

        // log2(n) butterfly stages.
        let stages = n.trailing_zeros();
        for s in 0..stages {
            let dist = 1u64 << s;
            let butterflies = n / 2;
            for (p, lane) in lanes.iter_mut().enumerate() {
                for k in partition(butterflies, procs, p) {
                    // Butterfly k pairs indices (i, i + dist) where the
                    // group-of-dist layout skips the partner half.
                    let group = k / dist;
                    let offset = k % dist;
                    let i = group * dist * 2 + offset;
                    let j = i + dist;
                    lane.read(data.at(i)).read(data.at(j));
                    lane.compute(10); // complex multiply-add
                    lane.write(data.at(i)).write(data.at(j));
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
        }
        finish_trace("FFT", layout, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::trace::Op;

    #[test]
    fn trace_is_valid_and_covers_all_points() {
        let trace = Fft::new(256).generate(4);
        assert_eq!(trace.lanes.len(), 4);
        // Every point is touched at least once in the butterfly stages.
        let mut touched = prism_sim::FastSet::default();
        for lane in &trace.lanes {
            for op in lane {
                if let Op::Read(va) | Op::Write(va) = op {
                    touched.insert((va.0 - prism_mem::trace::SHARED_BASE) / 16);
                }
            }
        }
        assert_eq!(touched.len(), 256);
    }

    #[test]
    fn butterfly_indices_stay_in_bounds() {
        // generate() debug-asserts bounds internally via SharedArray::at.
        for procs in [1, 3, 32] {
            let t = Fft::new(64).generate(procs);
            assert_eq!(t.lanes.len(), procs);
        }
    }

    #[test]
    fn stage_count_matches_log2() {
        let t = Fft::new(64).generate(1);
        let barriers = t.lanes[0]
            .iter()
            .filter(|op| matches!(op, Op::Barrier(_)))
            .count();
        assert_eq!(barriers, 1 + 6, "bit-reverse barrier + log2(64) stages");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Fft::new(100);
    }
}
