//! Trace-ingest batching: same-page run detection at trace-load time.
//!
//! Memory traces are bursty — SPLASH kernels touch a page many times in
//! a row before moving on — yet the access path translates every single
//! reference: a TLB lookup, then the frame's class for its mode (the
//! page table is walked only on a TLB miss). This module scans
//! each lane once at load time and groups consecutive references to the
//! same virtual page into *run-length records*: a run starts at the
//! first reference to a page and extends across every following
//! reference to the same page, spanning interleaved `Compute` ops
//! (which cannot change a translation) and breaking at synchronization
//! ops (which can reorder the world) or at a reference to a different
//! page.
//!
//! The records are materialized as a dense per-op continuation bitmap
//! (one bit per op) so the hot path pays one indexed load and a shift,
//! not a binary search over records. During execution, a reference
//! marked as a run continuation may reuse the processor's memoized
//! translation ([`crate::node::Processor::xlat_memo`]) instead of
//! repeating the TLB lookup and the frame-class read — both are
//! idempotent on a run continuation (the TLB entry is already
//! most-recently-used and the class read is pure), so timing and
//! statistics are byte-identical; only host work is saved. The hit-rate
//! is reported through [`crate::obs::Ctr::BatchedLookups`]. With the
//! dense per-reference path the memo saves little; EXPERIMENTS.md
//! ("Dense per-reference path") has the measurement.

use prism_mem::addr::Geometry;
use prism_mem::trace::{Op, Trace};

/// Per-lane same-page run-length index over a loaded trace (see module
/// docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct IngestIndex {
    /// Bit `pc % 64` of `cont[lane][pc / 64]` is set when the op at `pc`
    /// is a memory reference continuing the same-page run of the
    /// previous reference in its lane.
    cont: Vec<Vec<u64>>,
}

impl IngestIndex {
    /// Scans `trace` once, building the run-length records and the
    /// continuation bitmap.
    pub(crate) fn build(trace: &Trace, geom: Geometry) -> IngestIndex {
        let mut cont = Vec::with_capacity(trace.lanes.len());
        for lane in &trace.lanes {
            let mut bits = vec![0u64; lane.len().div_ceil(64)];
            // The page of the current run.
            let mut run_page: Option<u64> = None;
            for (pc, op) in lane.iter().enumerate() {
                match *op {
                    Op::Read(va) | Op::Write(va) => {
                        let vpage = geom.vpage(va);
                        if run_page == Some(vpage) {
                            bits[pc / 64] |= 1 << (pc % 64);
                        } else {
                            run_page = Some(vpage);
                        }
                    }
                    // Pure compute cannot invalidate a translation: runs
                    // span it.
                    Op::Compute(_) => {}
                    // Synchronization hands control elsewhere; be
                    // conservative and break the run.
                    Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_) => {
                        run_page = None;
                    }
                }
            }
            cont.push(bits);
        }
        IngestIndex { cont }
    }

    /// True when the op at `pc` of lane `flat` continues a same-page
    /// run (and may therefore reuse the memoized translation).
    #[inline]
    pub(crate) fn same_run(&self, flat: usize, pc: usize) -> bool {
        (self.cont[flat][pc / 64] >> (pc % 64)) & 1 != 0
    }

    /// References eligible for translation reuse (run continuations) —
    /// an upper bound on the run's
    /// [`crate::obs::Ctr::BatchedLookups`] count.
    #[cfg(test)]
    fn batchable(&self) -> u64 {
        self.cont
            .iter()
            .flatten()
            .map(|word| u64::from(word.count_ones()))
            .sum()
    }

    /// Same-page runs (length ≥ 2) found across all lanes: maximal
    /// blocks of continuation bits.
    #[cfg(test)]
    fn runs(&self) -> u64 {
        let mut runs = 0;
        for bits in &self.cont {
            // A block starts at a set bit whose predecessor (the previous
            // word's top bit, across a word boundary) is clear.
            let mut carry = 0;
            for &word in bits {
                runs += u64::from((word & !((word << 1) | carry)).count_ones());
                carry = word >> 63;
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::addr::VirtAddr;
    use prism_mem::trace::{SegmentSpec, SHARED_BASE};

    fn trace(lanes: Vec<Vec<Op>>) -> Trace {
        Trace {
            name: "t".into(),
            segments: vec![SegmentSpec {
                name: "d".into(),
                va_base: SHARED_BASE,
                bytes: 1 << 20,
            }],
            lanes: lanes.into_iter().map(Into::into).collect(),
        }
    }

    fn bits(idx: &IngestIndex, lane: usize, len: usize) -> Vec<bool> {
        (0..len).map(|pc| idx.same_run(lane, pc)).collect()
    }

    #[test]
    fn runs_span_compute_and_break_at_sync_and_page_change() {
        let geom = Geometry::default();
        let page = geom.page_bytes();
        let a = VirtAddr(SHARED_BASE);
        let a2 = VirtAddr(SHARED_BASE + 64);
        let b = VirtAddr(SHARED_BASE + page);
        let t = trace(vec![vec![
            Op::Read(a),    // starts run on page A
            Op::Compute(3), // spanned
            Op::Write(a2),  // continues (same page)
            Op::Barrier(0), // breaks
            Op::Read(a),    // new run on A
            Op::Read(b),    // page change: new run on B
            Op::Write(b),   // continues
        ]]);
        let idx = IngestIndex::build(&t, geom);
        let want = vec![false, false, true, false, false, false, true];
        assert_eq!(bits(&idx, 0, want.len()), want);
        assert_eq!(idx.runs(), 2);
        assert_eq!(idx.batchable(), 2);
    }

    #[test]
    fn empty_lanes_are_fine() {
        let idx = IngestIndex::build(&trace(vec![vec![], vec![]]), Geometry::default());
        assert_eq!(idx.runs(), 0);
        assert_eq!(idx.batchable(), 0);
    }

    #[test]
    fn runs_are_counted_across_word_boundaries() {
        let geom = Geometry::default();
        let page = geom.page_bytes();
        let on = |p: u64| Op::Read(VirtAddr(SHARED_BASE + p * page));
        // Page 0 for ops 0..70 (one run crossing the first word's end),
        // page 1 for ops 70..128 (a run ending exactly at a word's end),
        // then page 2 for ops 128..130.
        let lane: Vec<Op> = (0..130u64)
            .map(|pc| {
                on(if pc < 70 {
                    0
                } else if pc < 128 {
                    1
                } else {
                    2
                })
            })
            .collect();
        let idx = IngestIndex::build(&trace(vec![lane]), geom);
        let want: Vec<bool> = (0..130).map(|pc| !matches!(pc, 0 | 70 | 128)).collect();
        assert_eq!(bits(&idx, 0, 130), want);
        assert_eq!(idx.cont[0].len(), 3, "one bit per op");
        assert_eq!(idx.runs(), 3);
        assert_eq!(idx.batchable(), 127);
    }
}
