//! The per-node coherence controller.
//!
//! Owns the PIT, fine-grain tags (S-COMA frames), node-level state for
//! LA-NUMA lines, the directory (for pages homed here), the directory
//! cache, and the per-page traffic counters used by migration policies.

use prism_kernel::migration::PageTraffic;
use prism_kernel::policy::ControllerQuery;
use prism_mem::addr::{FrameNo, GlobalPage, LineIdx};
use prism_mem::directory::{DirCache, Directory};
use prism_mem::pit::Pit;
use prism_mem::tags::{LineTag, TagArray};
use prism_sim::FastMap;

/// One node's coherence controller state.
#[derive(Clone, Debug)]
pub struct Controller {
    /// The Page Information Table.
    pub pit: Pit,
    /// Fine-grain tags for S-COMA frames.
    pub tags: TagArray,
    /// Node-level state for lines of LA-NUMA frames. LA-NUMA frames need
    /// no per-line tags in hardware (paper §3.2) — the controller *is*
    /// the backing store and tracks which lines it has vouched for to
    /// local processors so it knows when to consult the home. Absent
    /// entries mean Invalid.
    lanuma: FastMap<(u32, u16), LineTag>,
    /// The full-map directory for pages homed at this node.
    pub dir: Directory,
    /// The 8K-entry directory cache.
    pub dir_cache: DirCache,
    /// Per-page coherence-traffic counters (migration hardware counters).
    pub traffic: FastMap<GlobalPage, PageTraffic>,
    /// Watchdog bookkeeping: when each currently-Transit line entered
    /// the `T` tag, keyed by (frame, line). Normal transactions are
    /// atomic in the simulation, so entries only appear when a fault
    /// wedges a transaction mid-flight.
    transit_since: FastMap<(u32, u16), u64>,
}

impl Controller {
    /// Creates an idle controller for a node with `real_frames` frames.
    pub fn new(
        real_frames: usize,
        lines_per_page: usize,
        dir_cache_entries: usize,
        dir_cache_assoc: usize,
    ) -> Controller {
        Controller {
            pit: Pit::new(real_frames),
            tags: TagArray::new(real_frames, lines_per_page),
            lanuma: FastMap::default(),
            dir: Directory::new(),
            dir_cache: DirCache::new(dir_cache_entries, dir_cache_assoc),
            traffic: FastMap::default(),
            transit_since: FastMap::default(),
        }
    }

    /// Notes that a line entered the Transit tag at cycle `at` (the
    /// watchdog's deadline clock starts here).
    pub fn note_transit(&mut self, frame: FrameNo, line: LineIdx, at: u64) {
        self.transit_since.insert((frame.0, line.0), at);
    }

    /// Clears the watchdog clock for a recovered (or invalidated) line.
    pub fn clear_transit(&mut self, frame: FrameNo, line: LineIdx) {
        self.transit_since.remove(&(frame.0, line.0));
    }

    /// When the line entered Transit, if the watchdog is tracking it.
    pub fn transit_entered_at(&self, frame: FrameNo, line: LineIdx) -> Option<u64> {
        self.transit_since.get(&(frame.0, line.0)).copied()
    }

    /// All tracked Transit lines, sorted for deterministic iteration.
    pub fn transit_lines(&self) -> Vec<(FrameNo, LineIdx, u64)> {
        let mut v: Vec<(FrameNo, LineIdx, u64)> = self
            .transit_since
            .iter()
            .map(|(&(f, l), &at)| (FrameNo(f), LineIdx(l), at))
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of lines currently tracked as wedged in Transit.
    pub fn transit_pending(&self) -> usize {
        self.transit_since.len()
    }

    /// The node-level state of a line in an LA-NUMA frame
    /// (absent = Invalid).
    pub fn lanuma_tag(&self, frame: FrameNo, line: LineIdx) -> LineTag {
        debug_assert!(frame.is_imaginary());
        self.lanuma
            .get(&(frame.0, line.0))
            .copied()
            .unwrap_or(LineTag::Invalid)
    }

    /// Records the node-level state of an LA-NUMA line.
    pub fn set_lanuma_tag(&mut self, frame: FrameNo, line: LineIdx, tag: LineTag) {
        debug_assert!(frame.is_imaginary());
        if tag == LineTag::Invalid {
            self.lanuma.remove(&(frame.0, line.0));
        } else {
            self.lanuma.insert((frame.0, line.0), tag);
        }
    }

    /// Drops all node-level state for an LA-NUMA frame (unmap).
    pub fn clear_lanuma_frame(&mut self, frame: FrameNo) {
        debug_assert!(frame.is_imaginary());
        self.lanuma.retain(|&(f, _), _| f != frame.0);
    }

    /// Number of LA-NUMA lines currently vouched for.
    pub fn lanuma_lines(&self) -> usize {
        self.lanuma.len()
    }

    /// Per-page traffic counters, creating them on first use.
    pub fn traffic_mut(&mut self, gpage: GlobalPage) -> &mut PageTraffic {
        self.traffic.entry(gpage).or_default()
    }
}

impl ControllerQuery for Controller {
    fn invalid_count(&self, frame: FrameNo) -> usize {
        self.tags.count(frame, LineTag::Invalid)
    }

    fn has_transit(&self, frame: FrameNo) -> bool {
        self.tags.has_transit(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanuma_state_lifecycle() {
        let mut c = Controller::new(8, 64, 64, 8);
        let f = FrameNo::imaginary(3);
        assert_eq!(c.lanuma_tag(f, LineIdx(0)), LineTag::Invalid);
        c.set_lanuma_tag(f, LineIdx(0), LineTag::Shared);
        c.set_lanuma_tag(f, LineIdx(1), LineTag::Exclusive);
        assert_eq!(c.lanuma_tag(f, LineIdx(0)), LineTag::Shared);
        assert_eq!(c.lanuma_lines(), 2);
        c.set_lanuma_tag(f, LineIdx(0), LineTag::Invalid);
        assert_eq!(c.lanuma_lines(), 1);
        c.clear_lanuma_frame(f);
        assert_eq!(c.lanuma_lines(), 0);
        assert_eq!(c.lanuma_tag(f, LineIdx(1)), LineTag::Invalid);
    }

    #[test]
    fn controller_query_reads_tags() {
        let mut c = Controller::new(8, 4, 64, 8);
        c.tags.allocate(FrameNo(2), LineTag::Invalid);
        c.tags.set(FrameNo(2), LineIdx(0), LineTag::Exclusive);
        assert_eq!(c.invalid_count(FrameNo(2)), 3);
        assert!(!c.has_transit(FrameNo(2)));
        c.tags.set(FrameNo(2), LineIdx(1), LineTag::Transit);
        assert!(c.has_transit(FrameNo(2)));
    }

    #[test]
    fn transit_bookkeeping_lifecycle() {
        let mut c = Controller::new(8, 4, 64, 8);
        assert_eq!(c.transit_pending(), 0);
        c.note_transit(FrameNo(2), LineIdx(1), 100);
        c.note_transit(FrameNo(1), LineIdx(3), 50);
        assert_eq!(c.transit_pending(), 2);
        assert_eq!(c.transit_entered_at(FrameNo(2), LineIdx(1)), Some(100));
        assert_eq!(c.transit_entered_at(FrameNo(2), LineIdx(0)), None);
        let lines = c.transit_lines();
        assert_eq!(
            lines,
            vec![(FrameNo(1), LineIdx(3), 50), (FrameNo(2), LineIdx(1), 100)],
            "sorted for determinism"
        );
        c.clear_transit(FrameNo(1), LineIdx(3));
        assert_eq!(c.transit_pending(), 1);
    }

    #[test]
    fn traffic_counters_accumulate() {
        use prism_mem::addr::{Gsid, NodeId};
        let mut c = Controller::new(4, 4, 64, 8);
        let gp = GlobalPage::new(Gsid(0), 1);
        c.traffic_mut(gp).record(NodeId(3));
        c.traffic_mut(gp).record(NodeId(3));
        assert_eq!(c.traffic[&gp].total(), 2);
    }
}
