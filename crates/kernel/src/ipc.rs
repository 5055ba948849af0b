//! Static home assignment for the globalized System V segments.
//!
//! PRISM applications gain access to shared memory through globalized
//! System V calls (paper §3.4): `shmget` names a global segment and
//! `shmat` attaches a virtual region to it. Here that binding is every
//! kernel attaching a trace's segment `i` as `Gsid(i)` at the same
//! virtual address ([`crate::kernel::Kernel::attach_segments`]), so no
//! registry is needed; everything after binding is node-local. What
//! stays global is where each page's static home lives.

use prism_mem::addr::{GlobalPage, NodeId};

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

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::addr::Gsid;

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
}
