//! The Page Information Table (paper §3.2, Figure 5).
//!
//! The PIT is the coherence controller's per-frame table translating
//! node-local physical frames to global pages, holding home-node
//! information (static *and* dynamic home, for lazy page migration), cached
//! home-frame hints, and the capability list used as a memory firewall
//! against wild writes from remote nodes.

use prism_sim::FastMap;

use crate::addr::{FrameNo, GlobalPage, NodeId, NodeSet};
use crate::mode::FrameMode;

/// Access capabilities attached to a frame's PIT entry.
///
/// Remote accesses to S-COMA and LA-NUMA frames are checked against the
/// entry; an extension of the PIT entry to a capability list filters out
/// wild writes from faulty remote nodes (paper §3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Caps {
    /// Any node may access (the default for shared pages).
    #[default]
    AllNodes,
    /// Only the listed nodes may access.
    Only(NodeSet),
}

impl Caps {
    /// Whether `node` may access the frame.
    pub fn allows(&self, node: NodeId) -> bool {
        match self {
            Caps::AllNodes => true,
            Caps::Only(set) => set.contains(node),
        }
    }
}

/// One Page Information Table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PitEntry {
    /// The global page this frame backs (or names, for LA-NUMA frames).
    pub gpage: GlobalPage,
    /// The frame's mode; decides which protocol the controller runs.
    pub mode: FrameMode,
    /// The page's fixed static home (tracks the dynamic home's location).
    pub static_home: NodeId,
    /// The page's current dynamic home, as last known by this node.
    /// May be stale after a lazy migration; requests are then forwarded.
    pub dyn_home: NodeId,
    /// Cached frame number of the page at the home node — a *hint* that
    /// accelerates reverse translation at the home (paper §3.2).
    pub home_frame_hint: Option<FrameNo>,
    /// Firewall capabilities for remote access.
    pub caps: Caps,
}

impl PitEntry {
    /// Creates an entry for a shared page with the same static and
    /// dynamic home and default (permissive) capabilities.
    pub fn shared(gpage: GlobalPage, mode: FrameMode, home: NodeId) -> PitEntry {
        PitEntry {
            gpage,
            mode,
            static_home: home,
            dyn_home: home,
            home_frame_hint: None,
            caps: Caps::AllNodes,
        }
    }
}

/// How a reverse (global→physical) translation was satisfied, which
/// determines its cost (paper §3.2: guessed frame hit vs hash search).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReverseOutcome {
    /// The guessed frame number carried in the message matched.
    GuessHit,
    /// The controller fell back to its hash structure.
    HashLookup,
}

/// The Page Information Table of one node's coherence controller.
///
/// Real frames are stored densely, filled on demand up to the highest
/// frame bound so far (frames come low-first from the free list);
/// imaginary (LA-NUMA) frames sparsely.
/// The reverse map implements the "standard OS techniques for sparse
/// address translations" the paper prescribes (a hash table).
///
/// # Example
///
/// ```
/// use prism_mem::pit::{Pit, PitEntry, ReverseOutcome};
/// use prism_mem::addr::{FrameNo, GlobalPage, Gsid, NodeId};
/// use prism_mem::mode::FrameMode;
///
/// let mut pit = Pit::new(64);
/// let gp = GlobalPage::new(Gsid(1), 0);
/// pit.insert(FrameNo(5), PitEntry::shared(gp, FrameMode::Scoma, NodeId(0)));
/// assert_eq!(pit.translate(FrameNo(5)).unwrap().gpage, gp);
/// let (frame, how) = pit.reverse(gp, Some(FrameNo(5))).unwrap();
/// assert_eq!(frame, FrameNo(5));
/// assert_eq!(how, ReverseOutcome::GuessHit);
/// ```
#[derive(Clone, Debug)]
pub struct Pit {
    real_frames: usize,
    real: Vec<Option<PitEntry>>,
    imaginary: FastMap<u32, PitEntry>,
    reverse: FastMap<GlobalPage, FrameNo>,
    guess_hits: u64,
    hash_lookups: u64,
}

impl Pit {
    /// Creates a PIT for a node with `real_frames` frames of local memory.
    pub fn new(real_frames: usize) -> Pit {
        Pit {
            real_frames,
            // Reserved but untouched, so not resident until frames bind.
            real: Vec::with_capacity(real_frames),
            imaginary: FastMap::default(),
            reverse: FastMap::default(),
            guess_hits: 0,
            hash_lookups: 0,
        }
    }

    /// Inserts (binds) an entry for `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame already has an entry, the global page is
    /// already bound to another frame on this node, or a real frame is
    /// beyond the node's memory.
    pub fn insert(&mut self, frame: FrameNo, entry: PitEntry) {
        let prev = self.reverse.insert(entry.gpage, frame);
        assert!(
            prev.is_none(),
            "global page {} already bound on this node",
            entry.gpage
        );
        if frame.is_imaginary() {
            let prev = self.imaginary.insert(frame.0, entry);
            assert!(prev.is_none(), "PIT entry already present for {frame}");
        } else {
            let i = frame.real_index();
            assert!(i < self.real_frames, "{frame} is beyond the node's memory");
            if i >= self.real.len() {
                self.real.resize(i + 1, None);
            }
            let slot = &mut self.real[i];
            assert!(slot.is_none(), "PIT entry already present for {frame}");
            *slot = Some(entry);
        }
    }

    /// Removes the entry for `frame`, returning it.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists.
    pub fn remove(&mut self, frame: FrameNo) -> PitEntry {
        let entry = if frame.is_imaginary() {
            self.imaginary
                .remove(&frame.0)
                .unwrap_or_else(|| panic!("no PIT entry for {frame}"))
        } else {
            self.real
                .get_mut(frame.real_index())
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("no PIT entry for {frame}"))
        };
        self.reverse.remove(&entry.gpage);
        entry
    }

    /// Physical→global translation: the entry for `frame`, if bound.
    pub fn translate(&self, frame: FrameNo) -> Option<&PitEntry> {
        if frame.is_imaginary() {
            self.imaginary.get(&frame.0)
        } else {
            self.real.get(frame.real_index()).and_then(|s| s.as_ref())
        }
    }

    /// Mutable access to the entry for `frame`.
    pub fn translate_mut(&mut self, frame: FrameNo) -> Option<&mut PitEntry> {
        if frame.is_imaginary() {
            self.imaginary.get_mut(&frame.0)
        } else {
            self.real
                .get_mut(frame.real_index())
                .and_then(|s| s.as_mut())
        }
    }

    /// Global→physical reverse translation.
    ///
    /// `guess` models the frame-number hint carried in coherence messages:
    /// if it names a frame whose entry matches `gpage` the translation is
    /// a cheap indexed probe ([`ReverseOutcome::GuessHit`]); otherwise the
    /// controller searches its hash table ([`ReverseOutcome::HashLookup`]).
    pub fn reverse(
        &mut self,
        gpage: GlobalPage,
        guess: Option<FrameNo>,
    ) -> Option<(FrameNo, ReverseOutcome)> {
        if let Some(g) = guess {
            if let Some(entry) = self.translate(g) {
                if entry.gpage == gpage {
                    self.guess_hits += 1;
                    return Some((g, ReverseOutcome::GuessHit));
                }
            }
        }
        self.hash_lookups += 1;
        self.reverse
            .get(&gpage)
            .map(|&f| (f, ReverseOutcome::HashLookup))
    }

    /// Non-statistical reverse lookup (for assertions and bookkeeping).
    pub fn frame_of(&self, gpage: GlobalPage) -> Option<FrameNo> {
        self.reverse.get(&gpage).copied()
    }

    /// Number of bound entries (real + imaginary).
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True when no entry is bound.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Reverse translations satisfied by the message hint.
    pub fn guess_hits(&self) -> u64 {
        self.guess_hits
    }

    /// Reverse translations that needed the hash structure.
    pub fn hash_lookups(&self) -> u64 {
        self.hash_lookups
    }

    /// Iterates all bound `(frame, entry)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (FrameNo, &PitEntry)> + '_ {
        let real = self
            .real
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (FrameNo(i as u32), e)));
        let imag = self.imaginary.iter().map(|(&i, e)| (FrameNo(i), e));
        real.chain(imag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Gsid;

    fn gp(p: u32) -> GlobalPage {
        GlobalPage::new(Gsid(1), p)
    }

    fn entry(p: u32) -> PitEntry {
        PitEntry::shared(gp(p), FrameMode::Scoma, NodeId(0))
    }

    #[test]
    fn insert_translate_remove_round_trip() {
        let mut pit = Pit::new(8);
        pit.insert(FrameNo(2), entry(7));
        assert_eq!(pit.translate(FrameNo(2)).unwrap().gpage, gp(7));
        assert_eq!(pit.frame_of(gp(7)), Some(FrameNo(2)));
        assert_eq!(pit.len(), 1);
        let e = pit.remove(FrameNo(2));
        assert_eq!(e.gpage, gp(7));
        assert!(pit.is_empty());
        assert_eq!(pit.frame_of(gp(7)), None);
    }

    #[test]
    fn imaginary_frames_are_tracked_sparsely() {
        let mut pit = Pit::new(2);
        let f = FrameNo::imaginary(12345);
        let mut e = entry(3);
        e.mode = FrameMode::LaNuma;
        pit.insert(f, e);
        assert_eq!(pit.translate(f).unwrap().mode, FrameMode::LaNuma);
        assert_eq!(pit.frame_of(gp(3)), Some(f));
        pit.remove(f);
        assert!(pit.translate(f).is_none());
    }

    #[test]
    fn reverse_uses_guess_when_valid() {
        let mut pit = Pit::new(8);
        pit.insert(FrameNo(1), entry(10));
        pit.insert(FrameNo(2), entry(20));
        let (f, how) = pit.reverse(gp(10), Some(FrameNo(1))).unwrap();
        assert_eq!((f, how), (FrameNo(1), ReverseOutcome::GuessHit));
        // Wrong guess falls back to the hash table.
        let (f, how) = pit.reverse(gp(10), Some(FrameNo(2))).unwrap();
        assert_eq!((f, how), (FrameNo(1), ReverseOutcome::HashLookup));
        // No guess at all.
        let (f, how) = pit.reverse(gp(20), None).unwrap();
        assert_eq!((f, how), (FrameNo(2), ReverseOutcome::HashLookup));
        assert_eq!(pit.guess_hits(), 1);
        assert_eq!(pit.hash_lookups(), 2);
    }

    #[test]
    fn reverse_missing_page_is_none() {
        let mut pit = Pit::new(4);
        assert_eq!(pit.reverse(gp(9), None), None);
        assert_eq!(pit.reverse(gp(9), Some(FrameNo(0))), None);
    }

    #[test]
    fn stale_guess_to_unbound_frame_is_safe() {
        let mut pit = Pit::new(4);
        pit.insert(FrameNo(1), entry(10));
        let (f, how) = pit.reverse(gp(10), Some(FrameNo(3))).unwrap();
        assert_eq!((f, how), (FrameNo(1), ReverseOutcome::HashLookup));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_binding_a_page_panics() {
        let mut pit = Pit::new(4);
        pit.insert(FrameNo(0), entry(1));
        pit.insert(FrameNo(1), entry(1));
    }

    #[test]
    #[should_panic(expected = "beyond the node's memory")]
    fn binding_a_frame_beyond_memory_panics() {
        let mut pit = Pit::new(4);
        pit.insert(FrameNo(4), entry(1));
    }

    #[test]
    fn untouched_frames_read_as_unbound() {
        let mut pit = Pit::new(64);
        assert!(pit.translate(FrameNo(63)).is_none());
        assert!(pit.translate_mut(FrameNo(40)).is_none());
        pit.insert(FrameNo(2), entry(1));
        assert!(pit.translate(FrameNo(3)).is_none());
        assert!(pit.translate(FrameNo(63)).is_none());
        assert_eq!(pit.reverse(gp(1), Some(FrameNo(50))).unwrap().0, FrameNo(2));
        assert_eq!(pit.iter().count(), 1);
        // A frame bound after a higher one reuses the grown slots.
        pit.insert(FrameNo(63), entry(2));
        pit.insert(FrameNo(0), entry(3));
        assert_eq!(pit.translate(FrameNo(63)).unwrap().gpage, gp(2));
        assert_eq!(pit.translate(FrameNo(0)).unwrap().gpage, gp(3));
        assert_eq!(pit.len(), 3);
    }

    #[test]
    #[should_panic(expected = "no PIT entry")]
    fn removing_an_untouched_frame_panics() {
        Pit::new(64).remove(FrameNo(10));
    }

    #[test]
    fn caps_filter_nodes() {
        assert!(Caps::AllNodes.allows(NodeId(7)));
        let caps = Caps::Only(NodeSet::single(NodeId(2)));
        assert!(caps.allows(NodeId(2)));
        assert!(!caps.allows(NodeId(3)));
    }

    #[test]
    fn iter_covers_real_and_imaginary() {
        let mut pit = Pit::new(4);
        pit.insert(FrameNo(0), entry(1));
        let mut e = entry(2);
        e.mode = FrameMode::LaNuma;
        pit.insert(FrameNo::imaginary(0), e);
        let mut frames: Vec<FrameNo> = pit.iter().map(|(f, _)| f).collect();
        frames.sort();
        assert_eq!(frames, vec![FrameNo(0), FrameNo::imaginary(0)]);
    }

    #[test]
    fn dyn_home_is_updatable_for_migration() {
        let mut pit = Pit::new(4);
        pit.insert(FrameNo(0), entry(1));
        pit.translate_mut(FrameNo(0)).unwrap().dyn_home = NodeId(5);
        assert_eq!(pit.translate(FrameNo(0)).unwrap().dyn_home, NodeId(5));
        assert_eq!(pit.translate(FrameNo(0)).unwrap().static_home, NodeId(0));
    }
}
