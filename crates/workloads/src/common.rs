//! Shared infrastructure for workload generators: shared-array layout,
//! per-processor lane builders, and the [`Workload`] trait.

use prism_mem::addr::VirtAddr;
use prism_mem::trace::{private_va, Op, OpLane, SegmentSpec, Trace, SHARED_BASE};

/// A generator of PRISM workload traces.
pub trait Workload {
    /// Workload name (used in reports and tables).
    fn name(&self) -> String;

    /// One-line description with problem size (paper Table 2 style).
    fn description(&self) -> String;

    /// Generates the per-processor trace for `procs` processors.
    fn generate(&self, procs: usize) -> Trace;
}

/// A shared array placed in the global address space.
#[derive(Clone, Copy, Debug)]
pub struct SharedArray {
    base: u64,
    elem_bytes: u64,
    elems: u64,
}

impl SharedArray {
    /// Virtual address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `i` is out of bounds.
    #[inline]
    pub fn at(&self, i: u64) -> VirtAddr {
        debug_assert!(i < self.elems, "array index {i} out of {}", self.elems);
        VirtAddr(self.base + i * self.elem_bytes)
    }

    /// Virtual address of byte `off` within element `i` (for multi-line
    /// records).
    #[inline]
    pub fn field(&self, i: u64, off: u64) -> VirtAddr {
        debug_assert!(off < self.elem_bytes);
        VirtAddr(self.base + i * self.elem_bytes + off)
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.elems
    }

    /// True when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.elems == 0
    }
}

/// Allocates shared arrays into consecutive page-aligned segments
/// starting at [`SHARED_BASE`].
#[derive(Debug, Default)]
pub struct Layout {
    segments: Vec<SegmentSpec>,
    cursor: u64,
}

impl Layout {
    /// An empty layout.
    pub fn new() -> Layout {
        Layout::default()
    }

    /// Reserves a shared array of `elems` elements of `elem_bytes` each,
    /// page-aligned, as its own global segment (the user-controlled
    /// binding granularity of paper §3.3).
    pub fn array(&mut self, name: &str, elems: u64, elem_bytes: u64) -> SharedArray {
        let bytes = (elems * elem_bytes).max(1).next_multiple_of(4096);
        let base = SHARED_BASE + self.cursor;
        self.cursor += bytes;
        self.segments.push(SegmentSpec {
            name: name.to_string(),
            va_base: base,
            bytes,
        });
        SharedArray {
            base,
            elem_bytes,
            elems,
        }
    }

    /// The accumulated segment declarations.
    pub fn into_segments(self) -> Vec<SegmentSpec> {
        self.segments
    }
}

/// Builds one processor's operation lane, merging consecutive compute
/// cycles into single ops. Ops are packed as they are appended.
#[derive(Debug)]
pub struct Lane {
    proc: usize,
    ops: OpLane,
    pending_compute: u64,
}

impl Lane {
    /// A lane for processor `proc`.
    pub fn new(proc: usize) -> Lane {
        Lane {
            proc,
            ops: OpLane::new(),
            pending_compute: 0,
        }
    }

    fn flush_compute(&mut self) {
        while self.pending_compute > 0 {
            let chunk = self.pending_compute.min(u32::MAX as u64);
            self.ops.push(Op::Compute(chunk as u32));
            self.pending_compute -= chunk;
        }
    }

    /// Appends a read.
    pub fn read(&mut self, va: VirtAddr) -> &mut Lane {
        self.flush_compute();
        self.ops.push(Op::Read(va));
        self
    }

    /// Appends a write.
    pub fn write(&mut self, va: VirtAddr) -> &mut Lane {
        self.flush_compute();
        self.ops.push(Op::Write(va));
        self
    }

    /// Appends a read-modify-write of the same address.
    pub fn update(&mut self, va: VirtAddr) -> &mut Lane {
        self.read(va);
        self.write(va)
    }

    /// Accumulates compute cycles (merged into one op per memory op).
    pub fn compute(&mut self, cycles: u64) -> &mut Lane {
        self.pending_compute += cycles;
        self
    }

    /// Appends a barrier.
    pub fn barrier(&mut self, id: u32) -> &mut Lane {
        self.flush_compute();
        self.ops.push(Op::Barrier(id));
        self
    }

    /// Appends a lock acquire.
    pub fn lock(&mut self, id: u32) -> &mut Lane {
        self.flush_compute();
        self.ops.push(Op::Lock(id));
        self
    }

    /// Appends a lock release.
    pub fn unlock(&mut self, id: u32) -> &mut Lane {
        self.flush_compute();
        self.ops.push(Op::Unlock(id));
        self
    }

    /// A read of this processor's private region at byte `off`.
    pub fn private_read(&mut self, off: u64) -> &mut Lane {
        let va = private_va(self.proc, off);
        self.read(va)
    }

    /// A write to this processor's private region at byte `off`.
    pub fn private_write(&mut self, off: u64) -> &mut Lane {
        let va = private_va(self.proc, off);
        self.write(va)
    }

    /// Finishes the lane, trimmed to exactly its ops: a trace keeps
    /// its lanes for as long as it runs.
    pub fn into_lane(mut self) -> OpLane {
        self.flush_compute();
        self.ops.shrink_to_fit();
        self.ops
    }

    /// Operations so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no op has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A monotonically increasing barrier-id dispenser shared by a workload's
/// phases, so every lane sees the same global sequence.
#[derive(Debug, Default)]
pub struct BarrierIds(u32);

impl BarrierIds {
    /// Starts at zero.
    pub fn new() -> BarrierIds {
        BarrierIds(0)
    }

    /// Dispenses the next barrier id.
    pub fn fresh(&mut self) -> u32 {
        let id = self.0;
        self.0 += 1;
        id
    }
}

/// Splits `items` as evenly as possible across `procs`; returns the
/// half-open range owned by `proc`.
pub fn partition(items: u64, procs: usize, proc: usize) -> std::ops::Range<u64> {
    let p = procs as u64;
    let i = proc as u64;
    let base = items / p;
    let extra = items % p;
    let start = i * base + i.min(extra);
    let len = base + u64::from(i < extra);
    start..start + len
}

/// Assembles lanes into a validated trace.
///
/// # Panics
///
/// Panics if the trace is structurally invalid (generator bug).
pub fn finish_trace(name: &str, layout: Layout, lanes: Vec<Lane>) -> Trace {
    let trace = Trace {
        name: name.to_string(),
        segments: layout.into_segments(),
        lanes: lanes.into_iter().map(Lane::into_lane).collect(),
    };
    if cfg!(debug_assertions) {
        trace
            .validate(&prism_mem::addr::Geometry::default())
            .expect("generated trace is well-formed");
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_page_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.array("a", 100, 8);
        let b = l.array("b", 1, 1);
        assert_eq!(a.at(0).0 % 4096, 0);
        assert_eq!(b.at(0).0 % 4096, 0);
        assert!(b.at(0).0 >= a.at(99).0 + 8);
        let segs = l.into_segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].bytes % 4096, 0);
    }

    #[test]
    fn lane_merges_compute() {
        let mut lane = Lane::new(0);
        lane.compute(5).compute(7).read(VirtAddr(SHARED_BASE));
        lane.compute(3).barrier(0);
        let ops = lane.into_lane();
        assert_eq!(
            ops,
            OpLane::from(vec![
                Op::Compute(12),
                Op::Read(VirtAddr(SHARED_BASE)),
                Op::Compute(3),
                Op::Barrier(0)
            ])
        );
    }

    #[test]
    fn partition_covers_everything_once() {
        for procs in [1, 3, 8, 32] {
            let mut covered = 0;
            let mut prev_end = 0;
            for p in 0..procs {
                let r = partition(100, procs, p);
                assert_eq!(r.start, prev_end, "ranges are contiguous");
                prev_end = r.end;
                covered += r.end - r.start;
            }
            assert_eq!(covered, 100);
            assert_eq!(prev_end, 100);
        }
    }

    #[test]
    fn partition_handles_fewer_items_than_procs() {
        let sizes: Vec<u64> = (0..8)
            .map(|p| {
                let r = partition(3, 8, p);
                r.end - r.start
            })
            .collect();
        assert_eq!(sizes.iter().sum::<u64>(), 3);
        assert!(sizes.iter().all(|&s| s <= 1));
    }

    #[test]
    fn shared_array_addresses() {
        let mut l = Layout::new();
        let a = l.array("a", 10, 32);
        assert_eq!(a.at(1).0, a.at(0).0 + 32);
        assert_eq!(a.field(2, 8).0, a.at(2).0 + 8);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn barrier_ids_are_sequential() {
        let mut b = BarrierIds::new();
        assert_eq!(b.fresh(), 0);
        assert_eq!(b.fresh(), 1);
    }
}
