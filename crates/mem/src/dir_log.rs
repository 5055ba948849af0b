//! Node-replicated directory backend: per-page operation logs with
//! lazily replayed per-node replicas.
//!
//! Follows the node-replication pattern (operation log + flat
//! combining + replica replay): every coherence-relevant mutation is a
//! [`DirOp`] appended to a bounded per-page log. The canonical state is
//! updated eagerly (so audits and footprint closures stay exact), while
//! each node's *replica* of the page replays the log only when that
//! node next reads the directory. Consecutive appends to the same page
//! model a flat-combining batch and are counted, not coalesced —
//! coalescing would desynchronize replica cursors.
//!
//! Compaction rule: once every live replica has replayed past a log
//! entry, the entry folds into the page's base image and is dropped.
//! When the log still exceeds its bound (a replica is lagging), the
//! lagging replicas are replayed to the tail first — an entry is
//! **never** dropped before every live replica has applied it.

use std::collections::VecDeque;

use prism_sim::FastMap;

use crate::addr::{FrameNo, GlobalPage, NodeId};
use crate::directory::{DirBackend, DirOp, PageDir};

/// How many ops a page's log may hold before compaction must run.
pub const LOG_CAP: usize = 128;

/// Cumulative activity counters of one node's [`DirLog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirLogStats {
    /// Ops appended to page logs.
    pub appends: u64,
    /// Appends that landed on the same page as the immediately
    /// preceding append (the flat-combining batch measure).
    pub combined_appends: u64,
    /// Log entries replayed into replicas (lazy reads plus the forced
    /// replay a bounded-log compaction performs on laggards).
    pub replayed: u64,
    /// Compaction passes that folded entries into a base image.
    pub compactions: u64,
}

impl DirLogStats {
    /// Accumulates another store's counters (report aggregation).
    pub fn absorb(&mut self, other: &DirLogStats) {
        self.appends += other.appends;
        self.combined_appends += other.combined_appends;
        self.replayed += other.replayed;
        self.compactions += other.compactions;
    }
}

/// One node's lazily replayed view of a page's directory state.
#[derive(Clone, Debug)]
struct Replica {
    state: PageDir,
    /// Global log index this replica has applied up to (exclusive).
    applied: u64,
}

/// The log-structured state of one page.
#[derive(Clone, Debug)]
struct PageLog {
    /// State with every op before `head` folded in (the log's origin).
    base: PageDir,
    /// Eagerly maintained canonical state (base + the whole log).
    canon: PageDir,
    /// Pending ops; `log[0]` has global index `head`.
    log: VecDeque<DirOp>,
    /// Global index of the first pending op.
    head: u64,
    /// Per-node replicas, created on first read.
    replicas: Vec<Option<Replica>>,
}

impl PageLog {
    fn new(state: PageDir, nodes: usize) -> PageLog {
        PageLog {
            base: state.clone(),
            canon: state,
            log: VecDeque::new(),
            head: 0,
            replicas: vec![None; nodes],
        }
    }

    fn tail(&self) -> u64 {
        self.head + self.log.len() as u64
    }

    /// Replays a replica to the tail; returns entries applied.
    fn catch_up(&mut self, idx: usize) -> u64 {
        let tail = self.tail();
        let rep = self.replicas[idx].get_or_insert_with(|| Replica {
            state: self.base.clone(),
            applied: self.head,
        });
        let pending = tail - rep.applied;
        if pending > 0 {
            for op in self.log.iter().skip((rep.applied - self.head) as usize) {
                rep.state.apply(op);
            }
            rep.applied = tail;
        }
        pending
    }

    /// Folds every op all live replicas have passed into the base.
    /// Returns `(entries folded, forced replays)`; the second count is
    /// nonzero only when the bounded log forced laggards to the tail.
    fn compact(&mut self) -> (u64, u64) {
        let tail = self.tail();
        let min_applied = self
            .replicas
            .iter()
            .flatten()
            .map(|r| r.applied)
            .min()
            .unwrap_or(tail);
        let mut folded = 0u64;
        while self.head < min_applied {
            let op = self.log.pop_front().expect("entries up to min_applied");
            self.base.apply(&op);
            self.head += 1;
            folded += 1;
        }
        let mut forced = 0u64;
        if self.log.len() > LOG_CAP {
            // A lagging replica pins the log past its bound: replay the
            // laggards to the tail (no entry is dropped un-replayed),
            // then fold everything.
            for idx in 0..self.replicas.len() {
                if self.replicas[idx].is_some() {
                    forced += self.catch_up(idx);
                }
            }
            while let Some(op) = self.log.pop_front() {
                self.base.apply(&op);
                folded += 1;
            }
            self.head = tail;
        }
        (folded, forced)
    }
}

/// The node-replicated directory store of one home node.
///
/// # Example
///
/// ```
/// use prism_mem::dir_log::DirLog;
/// use prism_mem::directory::{DirBackend, DirOp, LineDir};
/// use prism_mem::addr::{FrameNo, GlobalPage, Gsid, LineIdx, NodeId};
///
/// let mut dir = DirLog::new(4);
/// let gp = GlobalPage::new(Gsid(1), 4);
/// dir.page_in(gp, FrameNo(9), 64);
/// dir.apply(gp, DirOp::SetLine(LineIdx(0), LineDir::Owned(NodeId(3))));
/// // Canonical state is eager; node 2's replica replays on read.
/// assert!(dir.page(gp).unwrap().line(LineIdx(0)).held_by(NodeId(3)));
/// assert!(dir.read(NodeId(2), gp).unwrap().line(LineIdx(0)).held_by(NodeId(3)));
/// ```
#[derive(Clone, Debug)]
pub struct DirLog {
    pages: FastMap<GlobalPage, PageLog>,
    nodes: usize,
    last_append: Option<GlobalPage>,
    stats: DirLogStats,
}

impl DirLog {
    /// Creates an empty store for a machine of `nodes` nodes.
    pub fn new(nodes: usize) -> DirLog {
        DirLog {
            pages: FastMap::default(),
            nodes,
            last_append: None,
            stats: DirLogStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> DirLogStats {
        self.stats
    }

    /// Pending (uncompacted) log entries for a page — test hook.
    pub fn log_len(&self, gpage: GlobalPage) -> Option<usize> {
        self.pages.get(&gpage).map(|pl| pl.log.len())
    }

    /// Iterates `(page, canonical state)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&GlobalPage, &PageDir)> + '_ {
        self.pages.iter().map(|(gp, pl)| (gp, &pl.canon))
    }
}

impl DirBackend for DirLog {
    fn page_in(&mut self, gpage: GlobalPage, home_frame: FrameNo, lines: usize) {
        let prev = self.pages.insert(
            gpage,
            PageLog::new(PageDir::new(home_frame, lines), self.nodes),
        );
        assert!(prev.is_none(), "directory already tracks {gpage}");
    }

    fn adopt(&mut self, gpage: GlobalPage, dir: PageDir) {
        // A home re-master starts a fresh log: the old home's log died
        // (or was folded by page_out) and every node's next read
        // bootstraps a replica from the adopted image.
        let prev = self.pages.insert(gpage, PageLog::new(dir, self.nodes));
        assert!(prev.is_none(), "directory already tracks {gpage}");
    }

    fn page_out(&mut self, gpage: GlobalPage) -> Option<PageDir> {
        if self.last_append == Some(gpage) {
            self.last_append = None;
        }
        self.pages.remove(&gpage).map(|pl| pl.canon)
    }

    fn page(&self, gpage: GlobalPage) -> Option<&PageDir> {
        self.pages.get(&gpage).map(|pl| &pl.canon)
    }

    fn read(&mut self, reader: NodeId, gpage: GlobalPage) -> Option<&PageDir> {
        let pl = self.pages.get_mut(&gpage)?;
        let idx = reader.0 as usize;
        if pl.replicas.len() <= idx {
            pl.replicas.resize(idx + 1, None);
        }
        self.stats.replayed += pl.catch_up(idx);
        Some(
            &pl.replicas[idx]
                .as_ref()
                .expect("created by catch_up")
                .state,
        )
    }

    fn apply(&mut self, gpage: GlobalPage, op: DirOp) {
        let Some(pl) = self.pages.get_mut(&gpage) else {
            return;
        };
        pl.canon.apply(&op);
        pl.log.push_back(op);
        self.stats.appends += 1;
        if self.last_append == Some(gpage) {
            self.stats.combined_appends += 1;
        }
        self.last_append = Some(gpage);
        if pl.log.len() > LOG_CAP {
            let (folded, forced) = pl.compact();
            if folded > 0 {
                self.stats.compactions += 1;
            }
            self.stats.replayed += forced;
        }
    }

    fn len(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Gsid, LineIdx, NodeSet};
    use crate::directory::LineDir;

    fn gp(p: u32) -> GlobalPage {
        GlobalPage::new(Gsid(0), p)
    }

    fn mk(nodes: usize) -> DirLog {
        let mut d = DirLog::new(nodes);
        d.page_in(gp(1), FrameNo(4), 8);
        d
    }

    #[test]
    fn append_then_replay_matches_canonical() {
        let mut d = mk(4);
        d.apply(gp(1), DirOp::SetLine(LineIdx(0), LineDir::Owned(NodeId(2))));
        d.apply(gp(1), DirOp::AddClient(NodeId(2)));
        d.apply(gp(1), DirOp::TrafficTick(3));
        let canon = d.page(gp(1)).unwrap().clone();
        for n in 0..4u16 {
            let seen = d.read(NodeId(n), gp(1)).unwrap();
            assert_eq!(seen.line(LineIdx(0)), canon.line(LineIdx(0)));
            assert_eq!(seen.clients, canon.clients);
            assert_eq!(seen.traffic, canon.traffic);
        }
    }

    #[test]
    fn replay_is_idempotent() {
        let mut d = mk(2);
        d.apply(gp(1), DirOp::SetLine(LineIdx(3), LineDir::Owned(NodeId(1))));
        let first = d.read(NodeId(0), gp(1)).unwrap().line(LineIdx(3));
        // A second read with nothing new pending must replay nothing
        // and observe the same state.
        let before = d.stats().replayed;
        let again = d.read(NodeId(0), gp(1)).unwrap().line(LineIdx(3));
        assert_eq!(first, again);
        assert_eq!(d.stats().replayed, before, "no pending entries to replay");
        // Re-applying the same absolute op converges to the same state.
        d.apply(gp(1), DirOp::SetLine(LineIdx(3), LineDir::Owned(NodeId(1))));
        assert_eq!(
            d.read(NodeId(0), gp(1)).unwrap().line(LineIdx(3)),
            LineDir::Owned(NodeId(1))
        );
    }

    #[test]
    fn compaction_never_drops_unreplayed_entries() {
        let mut d = mk(2);
        // Node 0 bootstraps a replica at the log head, then lags while
        // far more than LOG_CAP ops stream in.
        assert_eq!(d.read(NodeId(0), gp(1)).unwrap().traffic, 0);
        for i in 0..(3 * LOG_CAP as u64) {
            d.apply(gp(1), DirOp::TrafficTick(1));
            d.apply(
                gp(1),
                DirOp::SetLine(
                    LineIdx((i % 8) as u16),
                    LineDir::Owned(NodeId((i % 2) as u16)),
                ),
            );
        }
        assert!(
            d.log_len(gp(1)).unwrap() <= LOG_CAP + 1,
            "log stays bounded"
        );
        assert!(d.stats().compactions > 0, "compaction ran");
        // The lagging replica was forced through every entry before any
        // was dropped: its replayed view equals the canonical state.
        let canon = d.page(gp(1)).unwrap().clone();
        let seen = d.read(NodeId(0), gp(1)).unwrap();
        assert_eq!(seen.traffic, canon.traffic);
        for l in 0..8u16 {
            assert_eq!(seen.line(LineIdx(l)), canon.line(LineIdx(l)));
        }
    }

    #[test]
    fn combined_appends_count_same_page_batches() {
        let mut d = mk(2);
        d.page_in(gp(2), FrameNo(5), 8);
        d.apply(gp(1), DirOp::TrafficTick(1));
        d.apply(gp(1), DirOp::TrafficTick(1)); // combined with previous
        d.apply(gp(2), DirOp::TrafficTick(1)); // breaks the batch
        d.apply(gp(1), DirOp::TrafficTick(1));
        let s = d.stats();
        assert_eq!(s.appends, 4);
        assert_eq!(s.combined_appends, 1);
    }

    #[test]
    fn ops_on_absent_pages_are_noops() {
        let mut d = DirLog::new(2);
        d.apply(gp(9), DirOp::TrafficTick(1));
        assert_eq!(d.stats().appends, 0);
        assert!(d.read(NodeId(0), gp(9)).is_none());
        assert!(d.page_out(gp(9)).is_none());
    }

    #[test]
    fn adopt_resets_the_log_and_replicas() {
        let mut d = mk(2);
        d.apply(gp(1), DirOp::AddClient(NodeId(1)));
        let _ = d.read(NodeId(1), gp(1));
        let mut pd = d.page_out(gp(1)).unwrap();
        assert!(pd.clients.contains(NodeId(1)), "page_out returns canon");
        pd.home_frame = FrameNo(7);
        d.adopt(gp(1), pd);
        assert_eq!(d.log_len(gp(1)), Some(0));
        let seen = d.read(NodeId(0), gp(1)).unwrap();
        assert_eq!(seen.home_frame, FrameNo(7));
        assert!(seen.clients.contains(NodeId(1)));
    }

    #[test]
    fn remove_client_scrubs_frames_too() {
        let mut d = mk(2);
        d.apply(gp(1), DirOp::AddClient(NodeId(1)));
        d.apply(gp(1), DirOp::SetClientFrame(NodeId(1), FrameNo(3)));
        d.apply(gp(1), DirOp::RemoveClient(NodeId(1)));
        let pd = d.page(gp(1)).unwrap();
        assert_eq!(pd.clients, NodeSet::EMPTY);
        assert!(pd.client_frames.is_empty());
    }
}
