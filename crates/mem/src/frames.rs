//! Page-frame pools and frame-utilization accounting.
//!
//! Each kernel keeps pools of free page frames per mode (paper §3.3,
//! "Page Mode Binding") and the evaluation reports how many frames each
//! configuration allocates and what fraction of each frame's cache lines
//! is actually touched (paper Table 3).

use prism_sim::FastMap;

use crate::addr::FrameNo;

/// What a frame is allocated for; refines [`crate::mode::FrameMode`] by
/// distinguishing home from client S-COMA frames (the page-cache capacity
/// limit applies to *client* frames only).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameClass {
    /// Node-private data (local mode).
    Local,
    /// S-COMA frame backing a page at its home node.
    ScomaHome,
    /// S-COMA frame acting as a page-cache entry at a client node.
    ScomaClient,
    /// Imaginary LA-NUMA frame (consumes no memory).
    LaNuma,
    /// Command-interface frame.
    Command,
}

impl FrameClass {
    /// True when the class consumes a real, memory-backed frame.
    pub fn is_real(&self) -> bool {
        !matches!(self, FrameClass::LaNuma)
    }
}

/// Cumulative allocation statistics (paper Table 3's "Page Frames
/// Allocated" counts every real-frame allocation event).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Real frames allocated for node-private data.
    pub local: u64,
    /// Real frames allocated for pages homed at this node.
    pub scoma_home: u64,
    /// Real frames allocated as client page-cache entries.
    pub scoma_client: u64,
    /// Imaginary LA-NUMA frames handed out.
    pub la_numa: u64,
    /// Command frames.
    pub command: u64,
}

impl PoolStats {
    /// Total real (memory-consuming) frames allocated.
    pub fn real_total(&self) -> u64 {
        self.local + self.scoma_home + self.scoma_client + self.command
    }
}

/// The free-frame pools of one node.
///
/// # Example
///
/// ```
/// use prism_mem::frames::{FramePool, FrameClass};
///
/// let mut pool = FramePool::new(4);
/// let f = pool.alloc(FrameClass::Local).expect("memory available");
/// assert!(!f.is_imaginary());
/// let g = pool.alloc(FrameClass::LaNuma).expect("imaginary frames are unlimited");
/// assert!(g.is_imaginary());
/// pool.free(f);
/// assert_eq!(pool.free_real(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct FramePool {
    free: Vec<FrameNo>,
    total_real: usize,
    next_imaginary: u32,
    active_class: FastMap<FrameNo, FrameClass>,
    stats: PoolStats,
}

impl FramePool {
    /// Creates a pool managing `real_frames` frames of local memory.
    pub fn new(real_frames: usize) -> FramePool {
        FramePool {
            // Hand out low frame numbers first (pop from the back).
            free: (0..real_frames as u32).rev().map(FrameNo).collect(),
            total_real: real_frames,
            next_imaginary: 0,
            active_class: FastMap::default(),
            stats: PoolStats::default(),
        }
    }

    /// Allocates a frame of the requested class. Real-frame classes return
    /// `None` when local memory is exhausted; LA-NUMA allocations always
    /// succeed (imaginary frames are just PIT names).
    pub fn alloc(&mut self, class: FrameClass) -> Option<FrameNo> {
        let frame = if class.is_real() {
            self.free.pop()?
        } else {
            let f = FrameNo::imaginary(self.next_imaginary);
            self.next_imaginary += 1;
            f
        };
        match class {
            FrameClass::Local => self.stats.local += 1,
            FrameClass::ScomaHome => self.stats.scoma_home += 1,
            FrameClass::ScomaClient => self.stats.scoma_client += 1,
            FrameClass::LaNuma => self.stats.la_numa += 1,
            FrameClass::Command => self.stats.command += 1,
        }
        self.active_class.insert(frame, class);
        Some(frame)
    }

    /// Returns a frame to its pool.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not currently allocated.
    pub fn free(&mut self, frame: FrameNo) {
        let class = self
            .active_class
            .remove(&frame)
            .unwrap_or_else(|| panic!("freeing unallocated frame {frame}"));
        if class.is_real() {
            debug_assert!(!frame.is_imaginary());
            self.free.push(frame);
        }
    }

    /// The class a live frame was allocated with.
    pub fn class_of(&self, frame: FrameNo) -> Option<FrameClass> {
        self.active_class.get(&frame).copied()
    }

    /// Currently free real frames.
    pub fn free_real(&self) -> usize {
        self.free.len()
    }

    /// Total real frames this node owns.
    pub fn total_real(&self) -> usize {
        self.total_real
    }

    /// Live frames of a given class.
    pub fn active_of(&self, class: FrameClass) -> usize {
        self.active_class.values().filter(|&&c| c == class).count()
    }

    /// Iterates the free list (unspecified order).
    pub fn free_frames(&self) -> impl Iterator<Item = FrameNo> + '_ {
        self.free.iter().copied()
    }

    /// Iterates live frames with their classes (unspecified order).
    pub fn active_frames(&self) -> impl Iterator<Item = (FrameNo, FrameClass)> + '_ {
        self.active_class.iter().map(|(&f, &c)| (f, c))
    }

    /// Live real (memory-consuming) frames.
    pub fn active_real(&self) -> usize {
        self.active_class.values().filter(|c| c.is_real()).count()
    }

    /// Cumulative allocation statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// Tracks which lines of each allocated real frame were ever touched, to
/// compute the paper's page-frame utilization metric (Table 3): the
/// fraction of cache lines within an allocated frame actually accessed,
/// averaged over all allocation instances.
#[derive(Clone, Debug, Default)]
pub struct UsageTracker {
    active: FastMap<FrameNo, LineMask>,
    finished_instances: u64,
    finished_touched: u64,
    lines_per_page: usize,
}

#[derive(Clone, Debug)]
struct LineMask(Box<[u64]>);

impl LineMask {
    fn new(lines: usize) -> LineMask {
        LineMask(vec![0u64; lines.div_ceil(64)].into_boxed_slice())
    }

    fn set(&mut self, line: usize) {
        self.0[line / 64] |= 1 << (line % 64);
    }

    fn count(&self) -> u64 {
        self.0.iter().map(|w| w.count_ones() as u64).sum()
    }
}

impl UsageTracker {
    /// Creates a tracker for frames of `lines_per_page` lines.
    pub fn new(lines_per_page: usize) -> UsageTracker {
        UsageTracker {
            active: FastMap::default(),
            finished_instances: 0,
            finished_touched: 0,
            lines_per_page,
        }
    }

    /// Records that `frame` was (re)allocated — starts a fresh instance.
    pub fn on_alloc(&mut self, frame: FrameNo) {
        if frame.is_imaginary() {
            return; // imaginary frames consume no memory: not tracked
        }
        let prev = self
            .active
            .insert(frame, LineMask::new(self.lines_per_page));
        debug_assert!(prev.is_none(), "frame {frame} allocated twice");
    }

    /// Records an access to `line` of `frame`.
    pub fn touch(&mut self, frame: FrameNo, line: usize) {
        if let Some(mask) = self.active.get_mut(&frame) {
            mask.set(line);
        }
    }

    /// Records that `frame` was freed — closes its instance.
    pub fn on_free(&mut self, frame: FrameNo) {
        if let Some(mask) = self.active.remove(&frame) {
            self.finished_instances += 1;
            self.finished_touched += mask.count();
        }
    }

    /// Closes all live instances (end of simulation) and returns
    /// `(instances, average_utilization)`.
    pub fn finalize(&mut self) -> (u64, f64) {
        let frames: Vec<FrameNo> = self.active.keys().copied().collect();
        for f in frames {
            self.on_free(f);
        }
        let instances = self.finished_instances;
        let util = if instances == 0 {
            0.0
        } else {
            self.finished_touched as f64 / (instances * self.lines_per_page as u64) as f64
        };
        (instances, util)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_exhausts_and_recycles() {
        let mut p = FramePool::new(2);
        let a = p.alloc(FrameClass::Local).unwrap();
        let b = p.alloc(FrameClass::ScomaClient).unwrap();
        assert_eq!(p.alloc(FrameClass::ScomaHome), None);
        assert_eq!(p.free_real(), 0);
        p.free(a);
        assert_eq!(p.free_real(), 1);
        let c = p.alloc(FrameClass::ScomaHome).unwrap();
        assert_eq!(c, a, "frames are recycled");
        assert_eq!(p.class_of(b), Some(FrameClass::ScomaClient));
        assert_eq!(p.stats().local, 1);
        assert_eq!(p.stats().scoma_client, 1);
        assert_eq!(p.stats().scoma_home, 1);
        assert_eq!(p.stats().real_total(), 3);
    }

    #[test]
    fn imaginary_frames_never_exhaust() {
        let mut p = FramePool::new(0);
        assert_eq!(p.alloc(FrameClass::Local), None);
        for i in 0..100 {
            let f = p.alloc(FrameClass::LaNuma).unwrap();
            assert!(f.is_imaginary());
            assert_eq!(f, FrameNo::imaginary(i));
        }
        assert_eq!(p.stats().la_numa, 100);
        assert_eq!(p.stats().real_total(), 0);
    }

    #[test]
    fn freeing_imaginary_frames_is_fine() {
        let mut p = FramePool::new(1);
        let f = p.alloc(FrameClass::LaNuma).unwrap();
        p.free(f);
        assert_eq!(
            p.free_real(),
            1,
            "imaginary frees do not grow the real pool"
        );
        assert_eq!(p.active_of(FrameClass::LaNuma), 0);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut p = FramePool::new(1);
        let f = p.alloc(FrameClass::Local).unwrap();
        p.free(f);
        p.free(f);
    }

    #[test]
    fn utilization_averages_over_instances() {
        let mut u = UsageTracker::new(64);
        u.on_alloc(FrameNo(0));
        for l in 0..32 {
            u.touch(FrameNo(0), l);
        }
        u.on_free(FrameNo(0));
        u.on_alloc(FrameNo(0)); // reallocation = fresh instance
        u.touch(FrameNo(0), 0);
        let (instances, util) = u.finalize();
        assert_eq!(instances, 2);
        // (32/64 + 1/64) / 2
        assert!((util - (32.0 + 1.0) / 128.0).abs() < 1e-12, "util={util}");
    }

    #[test]
    fn duplicate_touches_count_once() {
        let mut u = UsageTracker::new(4);
        u.on_alloc(FrameNo(1));
        u.touch(FrameNo(1), 2);
        u.touch(FrameNo(1), 2);
        let (n, util) = u.finalize();
        assert_eq!(n, 1);
        assert!((util - 0.25).abs() < 1e-12);
    }

    #[test]
    fn imaginary_frames_are_ignored() {
        let mut u = UsageTracker::new(4);
        u.on_alloc(FrameNo::imaginary(0));
        u.touch(FrameNo::imaginary(0), 1);
        let (n, _) = u.finalize();
        assert_eq!(n, 0);
    }

    #[test]
    fn empty_tracker_finalizes_to_zero() {
        assert_eq!(UsageTracker::new(8).finalize(), (0, 0.0));
    }
}
