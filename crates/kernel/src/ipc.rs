//! The global IPC server and static home assignment.
//!
//! PRISM applications gain access to shared memory through globalized
//! System V calls (paper §3.4): `shmget` registers a global segment with
//! the IPC server (which allocates a [`Gsid`] and asks the home nodes to
//! create the segment), and `shmat` attaches a virtual region to it. The
//! IPC server is the only globally coordinated naming step; everything
//! after binding is node-local.

use prism_mem::addr::{GlobalPage, Gsid, NodeId};
use prism_sim::FastMap;

/// Static home assignment: shared pages are distributed round-robin
/// across nodes (paper §4.2), optionally restricted per segment to a
/// node range — the OS-controlled page placement that makes space-shared
/// jobs independent failure units. The *static* home never changes; the
/// *dynamic* home may migrate (paper §3.5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HomeMap {
    nodes: u16,
    /// `(gsid, first_node, node_count)` placements; empty = machine-wide
    /// round-robin.
    placements: Vec<(u32, u16, u16)>,
}

impl HomeMap {
    /// Creates a home map for a machine of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u16) -> HomeMap {
        assert!(nodes > 0, "machine needs at least one node");
        HomeMap {
            nodes,
            placements: Vec::new(),
        }
    }

    /// Restricts segment `gsid`'s pages to the nodes
    /// `[first, first + count)`, round-robin within the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the machine.
    pub fn place_segment(&mut self, gsid: u32, first: u16, count: u16) {
        assert!(
            count > 0 && first + count <= self.nodes,
            "bad placement range"
        );
        self.placements.retain(|&(g, _, _)| g != gsid);
        self.placements.push((gsid, first, count));
    }

    /// The static home node of a global page.
    pub fn static_home(&self, gpage: GlobalPage) -> NodeId {
        for &(g, first, count) in &self.placements {
            if g == gpage.gsid.0 {
                return NodeId(first + (gpage.page % count as u32) as u16);
            }
        }
        NodeId(((gpage.gsid.0 as u64 + gpage.page as u64) % self.nodes as u64) as u16)
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }
}

/// A registered global segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment's global id.
    pub gsid: Gsid,
    /// Length in pages.
    pub pages: u32,
    /// Number of attachments (shmat count).
    pub attach_count: u32,
}

/// The global IPC server (paper §3.4, step 1).
///
/// # Example
///
/// ```
/// use prism_kernel::ipc::GlobalIpc;
///
/// let mut ipc = GlobalIpc::new();
/// let gsid = ipc.shmget(0xBEEF, 16);
/// assert_eq!(ipc.shmget(0xBEEF, 16), gsid, "same key, same segment");
/// ipc.shmat(gsid);
/// assert_eq!(ipc.segment(gsid).unwrap().attach_count, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GlobalIpc {
    by_key: FastMap<u64, Gsid>,
    segments: FastMap<Gsid, SegmentInfo>,
    next_gsid: u32,
}

impl GlobalIpc {
    /// Creates an empty registry.
    pub fn new() -> GlobalIpc {
        GlobalIpc::default()
    }

    /// Creates (or finds) the global segment for `key`, `pages` long.
    ///
    /// # Panics
    ///
    /// Panics if the key exists with a different size (the real call
    /// would return `EINVAL`).
    pub fn shmget(&mut self, key: u64, pages: u32) -> Gsid {
        if let Some(&gsid) = self.by_key.get(&key) {
            let seg = &self.segments[&gsid];
            assert_eq!(seg.pages, pages, "shmget size mismatch for existing key");
            return gsid;
        }
        let gsid = Gsid(self.next_gsid);
        self.next_gsid += 1;
        self.by_key.insert(key, gsid);
        self.segments.insert(
            gsid,
            SegmentInfo {
                gsid,
                pages,
                attach_count: 0,
            },
        );
        gsid
    }

    /// Records an attachment to the segment (the globalized `shmat`).
    ///
    /// # Panics
    ///
    /// Panics if the segment does not exist.
    pub fn shmat(&mut self, gsid: Gsid) {
        self.segments
            .get_mut(&gsid)
            .expect("shmat on unknown segment")
            .attach_count += 1;
    }

    /// Records a detachment; when the attach count reaches zero the
    /// segment remains registered (like System V) until removed.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not exist or has no attachments.
    pub fn shmdt(&mut self, gsid: Gsid) {
        let seg = self
            .segments
            .get_mut(&gsid)
            .expect("shmdt on unknown segment");
        assert!(seg.attach_count > 0, "shmdt without attachment");
        seg.attach_count -= 1;
    }

    /// Looks up a segment.
    pub fn segment(&self, gsid: Gsid) -> Option<&SegmentInfo> {
        self.segments.get(&gsid)
    }

    /// Number of registered segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segment is registered.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_map_is_round_robin_and_total() {
        let hm = HomeMap::new(8);
        let mut counts = [0u32; 8];
        for p in 0..800 {
            let h = hm.static_home(GlobalPage::new(Gsid(0), p));
            counts[h.0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
        // Consecutive pages land on consecutive nodes.
        let h0 = hm.static_home(GlobalPage::new(Gsid(0), 0));
        let h1 = hm.static_home(GlobalPage::new(Gsid(0), 1));
        assert_eq!((h0.0 + 1) % 8, h1.0);
    }

    #[test]
    fn home_map_single_node() {
        let hm = HomeMap::new(1);
        assert_eq!(hm.static_home(GlobalPage::new(Gsid(3), 99)), NodeId(0));
    }

    #[test]
    fn segment_placement_restricts_homes() {
        let mut hm = HomeMap::new(8);
        hm.place_segment(3, 4, 2);
        for p in 0..100 {
            let h = hm.static_home(GlobalPage::new(Gsid(3), p));
            assert!(h.0 == 4 || h.0 == 5, "{h}");
        }
        // Other segments stay machine-wide.
        let h = hm.static_home(GlobalPage::new(Gsid(0), 7));
        assert_eq!(h, NodeId(7));
        // Re-placing replaces.
        hm.place_segment(3, 0, 1);
        assert_eq!(hm.static_home(GlobalPage::new(Gsid(3), 9)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "bad placement")]
    fn placement_beyond_machine_rejected() {
        HomeMap::new(4).place_segment(0, 3, 2);
    }

    #[test]
    fn shmget_is_idempotent_per_key() {
        let mut ipc = GlobalIpc::new();
        let a = ipc.shmget(1, 10);
        let b = ipc.shmget(2, 20);
        assert_ne!(a, b);
        assert_eq!(ipc.shmget(1, 10), a);
        assert_eq!(ipc.len(), 2);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn shmget_size_conflict_panics() {
        let mut ipc = GlobalIpc::new();
        ipc.shmget(1, 10);
        ipc.shmget(1, 11);
    }

    #[test]
    fn attach_detach_counting() {
        let mut ipc = GlobalIpc::new();
        let g = ipc.shmget(1, 4);
        ipc.shmat(g);
        ipc.shmat(g);
        assert_eq!(ipc.segment(g).unwrap().attach_count, 2);
        ipc.shmdt(g);
        assert_eq!(ipc.segment(g).unwrap().attach_count, 1);
    }

    #[test]
    #[should_panic(expected = "without attachment")]
    fn detach_below_zero_panics() {
        let mut ipc = GlobalIpc::new();
        let g = ipc.shmget(1, 4);
        ipc.shmdt(g);
    }
}
