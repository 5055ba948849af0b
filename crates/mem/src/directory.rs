//! The home-node cache-line directory and its access cache.
//!
//! The (dynamic) home of every global page keeps a full-map directory with
//! the state and sharer list of each cache line in the page (paper
//! Figure 5). Directory storage is modeled as DRAM fronted by an 8K-entry
//! directory cache (2-cycle hit, 22-cycle miss — paper §4.1).

use std::hash::{Hash, Hasher};

use prism_sim::FastMap;

use crate::addr::{FrameNo, GlobalLine, GlobalPage, LineIdx, NodeId, NodeSet};

/// Directory state of one cache line at its home.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LineDir {
    /// No node caches the line beyond the home's own memory.
    #[default]
    Uncached,
    /// One or more nodes hold read-only copies.
    Shared(NodeSet),
    /// One node holds the line exclusively (possibly modified).
    Owned(NodeId),
}

impl LineDir {
    /// Nodes holding a copy (the owner counts as one).
    pub fn holders(&self) -> NodeSet {
        match self {
            LineDir::Uncached => NodeSet::EMPTY,
            LineDir::Shared(s) => *s,
            LineDir::Owned(n) => NodeSet::single(*n),
        }
    }

    /// True when `node` holds a copy.
    pub fn held_by(&self, node: NodeId) -> bool {
        self.holders().contains(node)
    }
}

/// Per-page directory state kept at the page's (dynamic) home node.
#[derive(Clone, Debug)]
pub struct PageDir {
    /// Per-line sharing state.
    pub lines: Box<[LineDir]>,
    /// Client nodes that currently have the page mapped (paper §3.3:
    /// the home tracks clients so page-outs can notify them).
    pub clients: NodeSet,
    /// Optional cached client frame numbers (paper §3.2: speeds reverse
    /// translation of invalidations at the cost of directory space; the
    /// paper's experiments leave this *off*).
    pub client_frames: FastMap<NodeId, FrameNo>,
    /// The real frame backing the page in the home node's memory.
    pub home_frame: FrameNo,
    /// Coherence transactions that touched this page — the hardware
    /// monitoring counter used by migration policies (paper §3.5).
    pub traffic: u64,
}

impl PageDir {
    /// Creates directory state for a page of `lines` lines backed by
    /// `home_frame` at the home node.
    pub fn new(home_frame: FrameNo, lines: usize) -> PageDir {
        PageDir {
            lines: vec![LineDir::Uncached; lines].into_boxed_slice(),
            clients: NodeSet::EMPTY,
            client_frames: FastMap::default(),
            home_frame,
            traffic: 0,
        }
    }

    /// The directory entry for `line`.
    pub fn line(&self, line: LineIdx) -> LineDir {
        self.lines[line.0 as usize]
    }

    /// Mutable access to the directory entry for `line`.
    pub fn line_mut(&mut self, line: LineIdx) -> &mut LineDir {
        &mut self.lines[line.0 as usize]
    }
}

/// The full-map directory of one node (for the pages it is home to).
///
/// # Example
///
/// ```
/// use prism_mem::directory::{Directory, LineDir};
/// use prism_mem::addr::{FrameNo, GlobalPage, Gsid, LineIdx, NodeId};
///
/// let mut dir = Directory::new();
/// let gp = GlobalPage::new(Gsid(1), 4);
/// dir.page_in(gp, FrameNo(9), 64);
/// *dir.page_mut(gp).unwrap().line_mut(LineIdx(0)) = LineDir::Owned(NodeId(3));
/// assert!(dir.page(gp).unwrap().line(LineIdx(0)).held_by(NodeId(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Directory {
    pages: FastMap<GlobalPage, PageDir>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Registers directory state for a page now resident at this home.
    ///
    /// # Panics
    ///
    /// Panics if the page already has directory state here.
    pub fn page_in(&mut self, gpage: GlobalPage, home_frame: FrameNo, lines: usize) {
        let prev = self.pages.insert(gpage, PageDir::new(home_frame, lines));
        assert!(prev.is_none(), "directory already tracks {gpage}");
    }

    /// Installs previously built directory state (used when a page's
    /// dynamic home migrates and the directory moves with it).
    pub fn adopt(&mut self, gpage: GlobalPage, dir: PageDir) {
        let prev = self.pages.insert(gpage, dir);
        assert!(prev.is_none(), "directory already tracks {gpage}");
    }

    /// Removes and returns the page's directory state (page-out or
    /// migration hand-off).
    pub fn page_out(&mut self, gpage: GlobalPage) -> Option<PageDir> {
        self.pages.remove(&gpage)
    }

    /// Directory state for a page, if this node is its home.
    pub fn page(&self, gpage: GlobalPage) -> Option<&PageDir> {
        self.pages.get(&gpage)
    }

    /// Mutable directory state for a page.
    pub fn page_mut(&mut self, gpage: GlobalPage) -> Option<&mut PageDir> {
        self.pages.get_mut(&gpage)
    }

    /// Number of pages homed here.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no page is homed here.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterates `(page, state)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&GlobalPage, &PageDir)> + '_ {
        self.pages.iter()
    }
}

/// An 8-way set-associative LRU cache over directory entries, modeling the
/// paper's 8K-entry directory cache in front of DRAM directory storage.
///
/// Only timing is modeled: `probe` answers hit/miss and refreshes LRU
/// state; the actual directory content always comes from [`Directory`].
#[derive(Clone, Debug)]
pub struct DirCache {
    sets: Vec<Vec<(GlobalLine, u64)>>,
    assoc: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl DirCache {
    /// Creates a directory cache of `entries` total entries with
    /// associativity `assoc`.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` divides into a power-of-two number of sets.
    pub fn new(entries: usize, assoc: usize) -> DirCache {
        assert!(
            assoc > 0 && entries.is_multiple_of(assoc),
            "entries must divide by assoc"
        );
        let sets = entries / assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        DirCache {
            sets: vec![Vec::with_capacity(assoc); sets],
            assoc,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, key: GlobalLine) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & (self.sets.len() - 1)
    }

    /// Probes the cache for a directory entry; returns `true` on a hit.
    /// Misses install the entry (evicting LRU).
    pub fn probe(&mut self, key: GlobalLine) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let assoc = self.assoc;
        let set_idx = self.set_of(key);
        let set = &mut self.sets[set_idx];
        if let Some(e) = set.iter_mut().find(|(k, _)| *k == key) {
            e.1 = tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if set.len() == assoc {
            let (idx, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .expect("full set nonempty");
            set.swap_remove(idx);
        }
        set.push((key, tick));
        false
    }

    /// Hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Gsid;

    fn gp(p: u32) -> GlobalPage {
        GlobalPage::new(Gsid(0), p)
    }

    #[test]
    fn page_lifecycle() {
        let mut d = Directory::new();
        d.page_in(gp(1), FrameNo(4), 8);
        assert_eq!(d.len(), 1);
        let pd = d.page_mut(gp(1)).unwrap();
        pd.clients.insert(NodeId(2));
        *pd.line_mut(LineIdx(3)) = LineDir::Shared(NodeSet::single(NodeId(2)));
        pd.traffic += 1;
        let out = d.page_out(gp(1)).unwrap();
        assert_eq!(out.home_frame, FrameNo(4));
        assert!(out.clients.contains(NodeId(2)));
        assert!(d.is_empty());
        assert!(d.page_out(gp(1)).is_none());
    }

    #[test]
    fn adopt_moves_directory_state() {
        let mut home_a = Directory::new();
        let mut home_b = Directory::new();
        home_a.page_in(gp(1), FrameNo(0), 4);
        *home_a.page_mut(gp(1)).unwrap().line_mut(LineIdx(1)) = LineDir::Owned(NodeId(7));
        let state = home_a.page_out(gp(1)).unwrap();
        home_b.adopt(gp(1), state);
        assert_eq!(
            home_b.page(gp(1)).unwrap().line(LineIdx(1)),
            LineDir::Owned(NodeId(7))
        );
    }

    #[test]
    fn line_dir_holders() {
        assert_eq!(LineDir::Uncached.holders().len(), 0);
        assert!(LineDir::Owned(NodeId(3)).held_by(NodeId(3)));
        assert!(!LineDir::Owned(NodeId(3)).held_by(NodeId(4)));
        let s: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(LineDir::Shared(s).holders(), s);
    }

    #[test]
    #[should_panic(expected = "already tracks")]
    fn double_page_in_panics() {
        let mut d = Directory::new();
        d.page_in(gp(1), FrameNo(0), 4);
        d.page_in(gp(1), FrameNo(1), 4);
    }

    #[test]
    fn dir_cache_hits_on_reuse() {
        let mut c = DirCache::new(64, 8);
        let key = gp(1).line(LineIdx(0));
        assert!(!c.probe(key));
        assert!(c.probe(key));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn dir_cache_capacity_causes_misses() {
        let mut c = DirCache::new(16, 2);
        // Stream far more distinct keys than capacity…
        for p in 0..1000u32 {
            c.probe(gp(p).line(LineIdx(0)));
        }
        // …then re-probe the oldest: it must have been evicted.
        assert!(!c.probe(gp(0).line(LineIdx(0))));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn dir_cache_bad_geometry() {
        DirCache::new(24, 8);
    }
}
