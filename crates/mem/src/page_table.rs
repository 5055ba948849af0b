//! Node-private page tables and virtual→global segment bindings.
//!
//! Each PRISM kernel manages a completely node-private translation between
//! virtual and physical addresses (paper §1), so page tables here are
//! per-node structures with no global coordination. Virtual address
//! regions are *attached* to global segments at user-controlled
//! granularity (paper §3.3, "Global Naming and Binding"); the segment
//! table records those attachments.

use prism_sim::FastMap;

use crate::addr::{FrameNo, Geometry, GlobalPage, Gsid, VirtAddr};
use crate::mode::FrameMode;

/// A page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// The (possibly imaginary) frame backing the page.
    pub frame: FrameNo,
    /// The frame's mode.
    pub mode: FrameMode,
}

/// A node's virtual→physical page table (covering all processes of the
/// SPMD application, which attach segments at identical addresses).
///
/// # Example
///
/// ```
/// use prism_mem::page_table::{PageTable, Pte};
/// use prism_mem::addr::FrameNo;
/// use prism_mem::mode::FrameMode;
///
/// let mut pt = PageTable::new();
/// pt.map(0x10, Pte { frame: FrameNo(3), mode: FrameMode::Local });
/// assert_eq!(pt.lookup(0x10).unwrap().frame, FrameNo(3));
/// assert_eq!(pt.unmap(0x10).unwrap().frame, FrameNo(3));
/// assert!(pt.lookup(0x10).is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    map: FastMap<u64, Pte>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Installs a translation for virtual page `vpage`.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped.
    pub fn map(&mut self, vpage: u64, pte: Pte) {
        let prev = self.map.insert(vpage, pte);
        assert!(prev.is_none(), "vpage {vpage:#x} already mapped");
    }

    /// Removes and returns the translation for `vpage`.
    pub fn unmap(&mut self, vpage: u64) -> Option<Pte> {
        self.map.remove(&vpage)
    }

    /// The translation for `vpage`, if mapped.
    pub fn lookup(&self, vpage: u64) -> Option<Pte> {
        self.map.get(&vpage).copied()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One attachment of a virtual address region to a global segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attachment {
    /// Page-aligned base virtual address of the region.
    pub va_base: u64,
    /// Region length in bytes (multiple of the page size).
    pub bytes: u64,
    /// The global segment the region is bound to.
    pub gsid: Gsid,
}

/// The per-node table of virtual→global segment attachments.
///
/// Resolution is a binary search over non-overlapping, sorted regions.
///
/// # Example
///
/// ```
/// use prism_mem::page_table::SegmentTable;
/// use prism_mem::addr::{Geometry, Gsid, VirtAddr};
///
/// let geom = Geometry::default();
/// let mut st = SegmentTable::new();
/// st.attach(0x10_0000, 2 * 4096, Gsid(7), &geom);
/// let gp = st.resolve(VirtAddr(0x10_1004), &geom).unwrap();
/// assert_eq!(gp.gsid, Gsid(7));
/// assert_eq!(gp.page, 1);
/// assert!(st.resolve(VirtAddr(0x20_0000), &geom).is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SegmentTable {
    // Sorted by va_base; non-overlapping.
    segments: Vec<Attachment>,
}

impl SegmentTable {
    /// Creates an empty segment table.
    pub fn new() -> SegmentTable {
        SegmentTable::default()
    }

    /// Attaches `[va_base, va_base + bytes)` to global segment `gsid`
    /// (the globalized `shmat`).
    ///
    /// # Panics
    ///
    /// Panics if the base or length is not page-aligned, the length is
    /// zero, or the region overlaps an existing attachment.
    pub fn attach(&mut self, va_base: u64, bytes: u64, gsid: Gsid, geom: &Geometry) {
        assert!(bytes > 0, "cannot attach an empty region");
        assert_eq!(geom.page_offset(va_base), 0, "va_base must be page-aligned");
        assert_eq!(bytes % geom.page_bytes(), 0, "length must be page-aligned");
        let idx = self.segments.partition_point(|s| s.va_base < va_base);
        if let Some(next) = self.segments.get(idx) {
            assert!(
                va_base + bytes <= next.va_base,
                "attachment overlaps {next:?}"
            );
        }
        if idx > 0 {
            let prev = &self.segments[idx - 1];
            assert!(
                prev.va_base + prev.bytes <= va_base,
                "attachment overlaps {prev:?}"
            );
        }
        self.segments.insert(
            idx,
            Attachment {
                va_base,
                bytes,
                gsid,
            },
        );
    }

    /// Detaches the attachment based at `va_base`, returning it.
    pub fn detach(&mut self, va_base: u64) -> Option<Attachment> {
        let idx = self.segments.iter().position(|s| s.va_base == va_base)?;
        Some(self.segments.remove(idx))
    }

    /// Resolves a virtual address to the global page it is bound to, or
    /// `None` when the address lies in node-private memory.
    pub fn resolve(&self, va: VirtAddr, geom: &Geometry) -> Option<GlobalPage> {
        let idx = self.segments.partition_point(|s| s.va_base <= va.0);
        if idx == 0 {
            return None;
        }
        let seg = &self.segments[idx - 1];
        if va.0 >= seg.va_base + seg.bytes {
            return None;
        }
        let page = ((va.0 - seg.va_base) >> geom.page_log2()) as u32;
        Some(GlobalPage::new(seg.gsid, page))
    }

    /// Iterates attachments in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Attachment> + '_ {
        self.segments.iter()
    }

    /// Number of attachments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when there are no attachments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_table_map_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        pt.map(
            1,
            Pte {
                frame: FrameNo(2),
                mode: FrameMode::Scoma,
            },
        );
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.lookup(1).unwrap().mode, FrameMode::Scoma);
        assert!(pt.lookup(2).is_none());
        assert!(pt.unmap(1).is_some());
        assert!(pt.unmap(1).is_none());
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        let pte = Pte {
            frame: FrameNo(0),
            mode: FrameMode::Local,
        };
        pt.map(1, pte);
        pt.map(1, pte);
    }

    #[test]
    fn segment_resolution_boundaries() {
        let geom = Geometry::default();
        let mut st = SegmentTable::new();
        st.attach(0x1000, 0x2000, Gsid(1), &geom);
        st.attach(0x8000, 0x1000, Gsid(2), &geom);
        // First byte and last byte of each region.
        assert_eq!(st.resolve(VirtAddr(0x1000), &geom).unwrap().gsid, Gsid(1));
        assert_eq!(
            st.resolve(VirtAddr(0x2FFF), &geom).unwrap(),
            GlobalPage::new(Gsid(1), 1)
        );
        assert!(st.resolve(VirtAddr(0x3000), &geom).is_none());
        assert!(st.resolve(VirtAddr(0x0FFF), &geom).is_none());
        assert_eq!(st.resolve(VirtAddr(0x8000), &geom).unwrap().gsid, Gsid(2));
        assert!(st.resolve(VirtAddr(0x9000), &geom).is_none());
    }

    #[test]
    fn detach_removes_binding() {
        let geom = Geometry::default();
        let mut st = SegmentTable::new();
        st.attach(0x1000, 0x1000, Gsid(1), &geom);
        assert_eq!(st.len(), 1);
        let att = st.detach(0x1000).unwrap();
        assert_eq!(att.gsid, Gsid(1));
        assert!(st.is_empty());
        assert!(st.detach(0x1000).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_attach_panics() {
        let geom = Geometry::default();
        let mut st = SegmentTable::new();
        st.attach(0x1000, 0x2000, Gsid(1), &geom);
        st.attach(0x2000, 0x1000, Gsid(2), &geom);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn misaligned_attach_panics() {
        let geom = Geometry::default();
        SegmentTable::new().attach(0x1001, 0x1000, Gsid(1), &geom);
    }
}
