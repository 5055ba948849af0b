//! Address spaces, identifiers, and machine geometry.
//!
//! PRISM distinguishes three address spaces (paper §3.3, Figure 6):
//!
//! * **Virtual addresses** ([`VirtAddr`]) — per-process; node-private
//!   translations to physical addresses.
//! * **Physical addresses** ([`PhysAddr`], [`FrameNo`]) — strictly
//!   node-local. A frame may be *real* (backed by local memory) or
//!   *imaginary* (an LA-NUMA frame with no memory behind it).
//! * **Global addresses** ([`GlobalPage`], [`GlobalLine`]) — system-wide
//!   names for shared data, composed of a global segment id ([`Gsid`]) and
//!   a page number. Global addresses never encode a home-node location,
//!   which is what enables lazy page migration.

use std::fmt;

/// Geometry of pages and cache lines, shared by every node of a machine.
///
/// # Example
///
/// ```
/// use prism_mem::addr::{Geometry, LineIdx, VirtAddr};
///
/// let geom = Geometry::new(12, 6); // 4 KiB pages, 64 B lines
/// assert_eq!(geom.page_bytes(), 4096);
/// assert_eq!(geom.line_bytes(), 64);
/// assert_eq!(geom.lines_per_page(), 64);
/// let va = VirtAddr(0x1234);
/// assert_eq!(geom.vpage(va), 0x1);
/// assert_eq!(geom.line_in_page(va.0), LineIdx(0x234 / 64));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Geometry {
    page_log2: u32,
    line_log2: u32,
}

impl Geometry {
    /// Creates a geometry with `2^page_log2`-byte pages and
    /// `2^line_log2`-byte cache lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_log2 < page_log2 <= 20` and the page holds no
    /// more than 1024 lines (directory lines per page are bounded).
    pub fn new(page_log2: u32, line_log2: u32) -> Geometry {
        assert!(line_log2 < page_log2, "lines must be smaller than pages");
        assert!(page_log2 <= 20, "pages larger than 1 MiB are unsupported");
        assert!(
            page_log2 - line_log2 <= 10,
            "more than 1024 lines per page is unsupported"
        );
        Geometry {
            page_log2,
            line_log2,
        }
    }

    /// Bytes per page.
    #[inline]
    pub const fn page_bytes(&self) -> u64 {
        1 << self.page_log2
    }

    /// Bytes per cache line.
    #[inline]
    pub const fn line_bytes(&self) -> u64 {
        1 << self.line_log2
    }

    /// Cache lines per page.
    #[inline]
    pub const fn lines_per_page(&self) -> usize {
        1 << (self.page_log2 - self.line_log2)
    }

    /// log₂ of the page size.
    #[inline]
    pub const fn page_log2(&self) -> u32 {
        self.page_log2
    }

    /// log₂ of the line size.
    #[inline]
    pub const fn line_log2(&self) -> u32 {
        self.line_log2
    }

    /// Virtual page number of a virtual address.
    #[inline]
    pub fn vpage(&self, va: VirtAddr) -> u64 {
        va.0 >> self.page_log2
    }

    /// Byte offset within the page.
    #[inline]
    pub fn page_offset(&self, addr: u64) -> u64 {
        addr & (self.page_bytes() - 1)
    }

    /// Line index within the page of any (virtual or physical) address.
    #[inline]
    pub fn line_in_page(&self, addr: u64) -> LineIdx {
        LineIdx((self.page_offset(addr) >> self.line_log2) as u16)
    }

    /// Number of pages needed to hold `bytes`.
    #[inline]
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_bytes())
    }
}

impl Default for Geometry {
    /// 4 KiB pages with 64-byte lines (the paper's page size).
    fn default() -> Geometry {
        Geometry::new(12, 6)
    }
}

/// A process virtual address (flat 64-bit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// A node-local physical address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Composes a physical address from a frame and an in-page offset.
    pub fn compose(frame: FrameNo, offset: u64, geom: &Geometry) -> PhysAddr {
        PhysAddr(((frame.0 as u64) << geom.page_log2()) | geom.page_offset(offset))
    }

    /// The frame this address falls in.
    pub fn frame(&self, geom: &Geometry) -> FrameNo {
        FrameNo((self.0 >> geom.page_log2()) as u32)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// A node-local page frame number.
///
/// Frames with the [`FrameNo::IMAGINARY_BIT`] set are *imaginary*: they
/// name an LA-NUMA mapping in the coherence controller's PIT but have no
/// local memory behind them (paper §3.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameNo(pub u32);

impl FrameNo {
    /// Bit distinguishing imaginary (LA-NUMA) frames from real frames.
    pub const IMAGINARY_BIT: u32 = 1 << 31;

    /// Creates the `i`-th imaginary frame number.
    pub fn imaginary(i: u32) -> FrameNo {
        debug_assert_eq!(i & Self::IMAGINARY_BIT, 0);
        FrameNo(i | Self::IMAGINARY_BIT)
    }

    /// True when this frame has no local memory behind it.
    #[inline]
    pub fn is_imaginary(&self) -> bool {
        self.0 & Self::IMAGINARY_BIT != 0
    }

    /// Index usable for dense per-real-frame tables.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when called on an imaginary frame.
    #[inline]
    pub fn real_index(&self) -> usize {
        debug_assert!(!self.is_imaginary(), "real_index on imaginary frame");
        self.0 as usize
    }
}

impl fmt::Display for FrameNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_imaginary() {
            write!(f, "if:{}", self.0 & !Self::IMAGINARY_BIT)
        } else {
            write!(f, "f:{}", self.0)
        }
    }
}

/// A node identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A machine-global processor identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u16);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A global segment identifier: segment `i` of a trace is `Gsid(i)` on
/// every node (the globalized `shmget` of paper §3.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gsid(pub u32);

impl fmt::Display for Gsid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gsid:{}", self.0)
    }
}

/// A system-wide name for one page of shared data: (segment, page-in-segment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalPage {
    /// The global segment the page belongs to.
    pub gsid: Gsid,
    /// Page index within the segment.
    pub page: u32,
}

impl GlobalPage {
    /// Creates a global page name.
    pub fn new(gsid: Gsid, page: u32) -> GlobalPage {
        GlobalPage { gsid, page }
    }

    /// The global name of line `line` within this page.
    pub fn line(&self, line: LineIdx) -> GlobalLine {
        GlobalLine { page: *self, line }
    }
}

impl fmt::Display for GlobalPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g:{}.{}", self.gsid.0, self.page)
    }
}

/// Index of a cache line within a page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineIdx(pub u16);

impl fmt::Display for LineIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A system-wide name for one cache line of shared data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalLine {
    /// The page the line belongs to.
    pub page: GlobalPage,
    /// Line index within the page.
    pub line: LineIdx,
}

impl fmt::Display for GlobalLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.page, self.line.0)
    }
}

/// A compact set of nodes (bitmap over up to 64 nodes).
///
/// # Example
///
/// ```
/// use prism_mem::addr::{NodeId, NodeSet};
///
/// let mut sharers = NodeSet::EMPTY;
/// sharers.insert(NodeId(2));
/// sharers.insert(NodeId(5));
/// assert_eq!(sharers.len(), 2);
/// assert!(sharers.contains(NodeId(2)));
/// assert_eq!(sharers.iter().collect::<Vec<_>>(), vec![NodeId(2), NodeId(5)]);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeSet(pub u64);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// A singleton set.
    pub fn single(node: NodeId) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        s.insert(node);
        s
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is ≥ 64.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        assert!(node.0 < 64, "NodeSet supports at most 64 nodes");
        self.0 |= 1 << node.0;
    }

    /// Removes a node.
    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        if node.0 < 64 {
            self.0 &= !(1 << node.0);
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 < 64 && self.0 & (1 << node.0) != 0
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no node is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set difference.
    pub fn without(&self, node: NodeId) -> NodeSet {
        let mut s = *self;
        s.remove(node);
        s
    }

    /// Iterates members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let bits = self.0;
        (0..64u16).filter(move |i| bits & (1 << i) != 0).map(NodeId)
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", n.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derives_sizes() {
        let g = Geometry::default();
        assert_eq!(g.page_bytes(), 4096);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.lines_per_page(), 64);
        assert_eq!(g.pages_for(1), 1);
        assert_eq!(g.pages_for(4096), 1);
        assert_eq!(g.pages_for(4097), 2);
        assert_eq!(g.pages_for(0), 0);
    }

    #[test]
    fn geometry_splits_addresses() {
        let g = Geometry::new(12, 6);
        let va = VirtAddr(0x12345);
        assert_eq!(g.vpage(va), 0x12);
        assert_eq!(g.page_offset(va.0), 0x345);
        assert_eq!(g.line_in_page(va.0), LineIdx(0x345 >> 6));
    }

    #[test]
    #[should_panic(expected = "smaller than pages")]
    fn geometry_rejects_line_ge_page() {
        Geometry::new(6, 6);
    }

    #[test]
    fn phys_addr_round_trips_frame() {
        let g = Geometry::default();
        let pa = PhysAddr::compose(FrameNo(17), 0x123, &g);
        assert_eq!(pa.frame(&g), FrameNo(17));
        assert_eq!(g.page_offset(pa.0), 0x123);
    }

    #[test]
    fn imaginary_frames_are_distinguishable() {
        let f = FrameNo::imaginary(5);
        assert!(f.is_imaginary());
        assert!(!FrameNo(5).is_imaginary());
        assert_eq!(FrameNo(5).real_index(), 5);
        assert_eq!(f.to_string(), "if:5");
        assert_eq!(FrameNo(5).to_string(), "f:5");
    }

    #[test]
    fn node_set_operations() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(NodeId(0));
        s.insert(NodeId(63));
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(63)));
        assert!(!s.contains(NodeId(1)));
        s.remove(NodeId(0));
        assert_eq!(s.len(), 1);
        let t: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.without(NodeId(1)), NodeSet::single(NodeId(2)));
        assert_eq!(t.to_string(), "{1,2}");
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn node_set_rejects_large_ids() {
        let mut s = NodeSet::EMPTY;
        s.insert(NodeId(64));
    }

    #[test]
    fn global_names_compose() {
        let p = GlobalPage::new(Gsid(3), 7);
        let l = p.line(LineIdx(9));
        assert_eq!(l.page, p);
        assert_eq!(l.to_string(), "g:3.7#9");
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(VirtAddr(16).to_string(), "va:0x10");
        assert_eq!(PhysAddr(16).to_string(), "pa:0x10");
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ProcId(3).to_string(), "p3");
        assert_eq!(Gsid(1).to_string(), "gsid:1");
        assert_eq!(LineIdx(2).to_string(), "l2");
    }
}
