//! Client page-cache bookkeeping: which global pages this node caches in
//! S-COMA frames, with recency for LRU replacement.
//!
//! The LRU considers only accesses from local processors (paper §4.2,
//! SCOMA-70 definition). Every local reference refreshes recency, so the
//! stamps are indexed by the reference's frame in a dense array (0 =
//! the frame holds no client page): a reference to a home, local or
//! imaginary frame finds 0 and changes nothing. Only the page → record
//! map is keyed by global page, for faults and page-outs.

use prism_mem::addr::{FrameNo, GlobalPage};
use prism_sim::FastMap;

/// A client page resident in the local page cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientPage {
    /// The S-COMA frame backing the page locally.
    pub frame: FrameNo,
    /// The virtual page mapped to it (needed for unmapping at page-out).
    pub vpage: u64,
}

/// The set of client S-COMA pages on one node, with LRU recency and an
/// optional capacity limit.
///
/// # Example
///
/// ```
/// use prism_kernel::page_cache::PageCache;
/// use prism_mem::addr::{FrameNo, GlobalPage, Gsid};
///
/// let mut pc = PageCache::new(Some(2));
/// let g = |p| GlobalPage::new(Gsid(0), p);
/// pc.insert(g(0), FrameNo(0), 100);
/// pc.insert(g(1), FrameNo(1), 101);
/// assert!(pc.is_full());
/// pc.note_use(FrameNo(0));
/// assert_eq!(pc.lru_victim(), Some(g(1)));
/// ```
#[derive(Clone, Debug)]
pub struct PageCache {
    pages: FastMap<GlobalPage, ClientPage>,
    /// Recency stamp of each client frame, by real index (0 = none).
    stamps: Vec<u64>,
    capacity: Option<usize>,
    tick: u64,
}

impl PageCache {
    /// Creates a page cache limited to `capacity` client pages
    /// (`None` = unlimited, the pure-SCOMA configuration).
    pub fn new(capacity: Option<usize>) -> PageCache {
        PageCache {
            pages: FastMap::default(),
            stamps: Vec::new(),
            capacity,
            tick: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of resident client pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no client page is resident.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// True when inserting another page would exceed capacity.
    pub fn is_full(&self) -> bool {
        match self.capacity {
            Some(cap) => self.pages.len() >= cap,
            None => false,
        }
    }

    /// Registers a newly faulted-in client page.
    ///
    /// # Panics
    ///
    /// Panics if the page is already resident or `frame` is imaginary.
    pub fn insert(&mut self, gpage: GlobalPage, frame: FrameNo, vpage: u64) {
        assert!(!frame.is_imaginary(), "client page {gpage} on {frame}");
        self.tick += 1;
        let prev = self.pages.insert(gpage, ClientPage { frame, vpage });
        assert!(prev.is_none(), "client page {gpage} already resident");
        let i = frame.real_index();
        if i >= self.stamps.len() {
            self.stamps.resize(i + 1, 0);
        }
        debug_assert_eq!(self.stamps[i], 0, "{frame} holds two client pages");
        self.stamps[i] = self.tick;
    }

    /// Removes a client page (page-out), returning its record.
    pub fn remove(&mut self, gpage: GlobalPage) -> Option<ClientPage> {
        let cp = self.pages.remove(&gpage)?;
        self.stamps[cp.frame.real_index()] = 0;
        Some(cp)
    }

    /// The record for a resident client page.
    pub fn get(&self, gpage: GlobalPage) -> Option<ClientPage> {
        self.pages.get(&gpage).copied()
    }

    /// Refreshes the recency of the client page on `frame`, if any
    /// (called on local processor accesses).
    #[inline]
    pub fn note_use(&mut self, frame: FrameNo) {
        if frame.is_imaginary() {
            return;
        }
        if let Some(stamp) = self.stamps.get_mut(frame.real_index()) {
            if *stamp != 0 {
                self.tick += 1;
                *stamp = self.tick;
            }
        }
    }

    /// The least-recently-used resident page.
    pub fn lru_victim(&self) -> Option<GlobalPage> {
        self.pages
            .iter()
            .min_by_key(|&(gp, cp)| (self.stamps[cp.frame.real_index()], gp.gsid.0, gp.page))
            .map(|(&gp, _)| gp)
    }

    /// Iterates resident pages as `(page, record)` (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (GlobalPage, ClientPage)> + '_ {
        self.pages.iter().map(|(&g, &cp)| (g, cp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::addr::Gsid;

    fn g(p: u32) -> GlobalPage {
        GlobalPage::new(Gsid(0), p)
    }

    #[test]
    fn capacity_and_fullness() {
        let mut pc = PageCache::new(Some(1));
        assert!(!pc.is_full());
        pc.insert(g(0), FrameNo(0), 5);
        assert!(pc.is_full());
        assert_eq!(pc.len(), 1);
        let unlimited = PageCache::new(None);
        assert!(!unlimited.is_full());
    }

    #[test]
    fn lru_tracks_note_use() {
        let mut pc = PageCache::new(None);
        pc.insert(g(0), FrameNo(0), 0);
        pc.insert(g(1), FrameNo(1), 1);
        pc.insert(g(2), FrameNo(2), 2);
        assert_eq!(pc.lru_victim(), Some(g(0)));
        pc.note_use(FrameNo(0));
        assert_eq!(pc.lru_victim(), Some(g(1)));
        pc.note_use(FrameNo(1));
        assert_eq!(pc.lru_victim(), Some(g(2)));
    }

    #[test]
    fn remove_clears_recency() {
        let mut pc = PageCache::new(None);
        pc.insert(g(0), FrameNo(7), 9);
        let rec = pc.remove(g(0)).unwrap();
        assert_eq!(rec.frame, FrameNo(7));
        assert_eq!(rec.vpage, 9);
        assert_eq!(pc.lru_victim(), None);
        assert!(pc.remove(g(0)).is_none());
        assert!(pc.is_empty());
    }

    #[test]
    fn note_use_on_absent_page_is_noop() {
        let mut pc = PageCache::new(None);
        pc.note_use(FrameNo(5));
        assert!(pc.is_empty());
    }

    #[test]
    fn note_use_ignores_frames_without_a_client_page() {
        let mut pc = PageCache::new(None);
        pc.insert(g(0), FrameNo(0), 0);
        pc.insert(g(1), FrameNo(1), 1);
        // A home or local frame (never inserted) and an imaginary frame.
        pc.note_use(FrameNo(2));
        pc.note_use(FrameNo(1 << 20));
        pc.note_use(FrameNo::imaginary(0));
        assert_eq!(pc.lru_victim(), Some(g(0)));
        pc.note_use(FrameNo(0));
        assert_eq!(pc.lru_victim(), Some(g(1)));
    }

    #[test]
    fn reinserting_a_frame_resets_its_stamp() {
        let mut pc = PageCache::new(None);
        pc.insert(g(0), FrameNo(0), 0);
        pc.insert(g(1), FrameNo(1), 1);
        pc.note_use(FrameNo(0));
        // Frame 0 is freed, then reused for another page: the new page is
        // the most recent insert, and uses of the old page are gone.
        pc.remove(g(0));
        pc.note_use(FrameNo(0));
        assert_eq!(pc.lru_victim(), Some(g(1)));
        pc.insert(g(2), FrameNo(0), 2);
        assert_eq!(pc.lru_victim(), Some(g(1)));
        pc.remove(g(1));
        pc.insert(g(3), FrameNo(1), 3);
        assert_eq!(pc.lru_victim(), Some(g(2)));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut pc = PageCache::new(None);
        pc.insert(g(0), FrameNo(0), 0);
        pc.insert(g(0), FrameNo(1), 1);
    }

    #[test]
    fn victim_ties_break_deterministically() {
        // Two pages inserted at distinct ticks; LRU is the first.
        let mut pc = PageCache::new(None);
        pc.insert(g(9), FrameNo(0), 0);
        pc.insert(g(1), FrameNo(1), 1);
        assert_eq!(pc.lru_victim(), Some(g(9)));
    }
}
