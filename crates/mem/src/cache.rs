//! Set-associative writeback processor cache model (L1/L2).
//!
//! The cache tracks line addresses and MES (Modified / Exclusive / Shared)
//! states; Invalid lines are simply absent. Timing is not modeled here —
//! the machine charges latencies — only state, LRU replacement, and
//! statistics.
//!
//! The sets live in one flat array of ways with an `assoc` stride, so a
//! lookup is a mask, a multiply and a scan of `assoc` adjacent ways; an
//! empty way is marked by an impossible line address. Replacement is
//! true LRU by per-access stamps: the victim is the minimum stamp of a
//! full set, found by a scan on the (rare) eviction rather than by
//! re-ordering a list on every access.

use std::fmt;

/// Coherence state of a line present in a processor cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Dirty, exclusive to this cache.
    Modified,
    /// Clean, exclusive to this cache.
    Exclusive,
    /// Clean, possibly present in other caches.
    Shared,
}

impl LineState {
    /// True when the line would need writing back on eviction.
    pub fn is_dirty(&self) -> bool {
        matches!(self, LineState::Modified)
    }

    /// True when a write hit can proceed without an upgrade.
    pub fn is_writable(&self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// A line evicted to make room for an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line address (`physical address >> line_log2`).
    pub line: u64,
    /// Whether the line was dirty (requires writeback).
    pub dirty: bool,
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line present.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines displaced by insertions.
    pub evictions: u64,
    /// Displaced lines that were dirty.
    pub writebacks: u64,
}

/// One way of a set. An empty way holds [`EMPTY`] with stamp 0, so the
/// minimum-stamp victim search picks it before any resident line.
#[derive(Clone, Copy, Debug)]
struct Way {
    line: u64,
    state: LineState,
    stamp: u64,
}

/// The line address of an empty way. Real line addresses stay below it.
const EMPTY: u64 = u64::MAX;

const EMPTY_WAY: Way = Way {
    line: EMPTY,
    state: LineState::Shared,
    stamp: 0,
};

/// A set-associative, write-back, write-allocate cache.
///
/// Lines are identified by *line address* (`physical address >> line_log2`),
/// which must be below `u64::MAX`. Set `s` holds ways
/// `[s * assoc, (s + 1) * assoc)` of one flat array (see the module docs).
///
/// # Example
///
/// ```
/// use prism_mem::cache::{Cache, LineState};
///
/// // 8 KiB, 2-way, 64-byte lines.
/// let mut l1 = Cache::new("L1", 8 * 1024, 2, 6);
/// assert_eq!(l1.touch(0x40), None); // miss
/// l1.insert(0x40, LineState::Exclusive);
/// assert_eq!(l1.touch(0x40), Some(LineState::Exclusive)); // hit
/// assert_eq!(l1.stats().hits, 1);
/// assert_eq!(l1.stats().misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    ways: Vec<Way>,
    assoc: usize,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `assoc` ways and
    /// `2^line_log2`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless capacity is divisible into a power-of-two number of
    /// sets of `assoc` lines.
    pub fn new(name: &'static str, capacity_bytes: u64, assoc: usize, line_log2: u32) -> Cache {
        assert!(assoc > 0, "associativity must be positive");
        let line_bytes = 1u64 << line_log2;
        let lines = capacity_bytes / line_bytes;
        assert_eq!(
            lines * line_bytes,
            capacity_bytes,
            "capacity must be a multiple of the line size"
        );
        let set_count = lines / assoc as u64;
        assert!(
            set_count.is_power_of_two(),
            "number of sets ({set_count}) must be a power of two"
        );
        Cache {
            name,
            ways: vec![EMPTY_WAY; set_count as usize * assoc],
            assoc,
            set_mask: set_count - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The ways of the set `line` maps to.
    #[inline]
    fn set(&self, line: u64) -> &[Way] {
        let base = (line & self.set_mask) as usize * self.assoc;
        &self.ways[base..base + self.assoc]
    }

    #[inline]
    fn set_mut(&mut self, line: u64) -> &mut [Way] {
        let base = (line & self.set_mask) as usize * self.assoc;
        &mut self.ways[base..base + self.assoc]
    }

    /// The way holding `line`, if present.
    #[inline]
    fn way_mut(&mut self, line: u64) -> Option<&mut Way> {
        debug_assert_ne!(line, EMPTY, "line address u64::MAX");
        self.set_mut(line).iter_mut().find(|w| w.line == line)
    }

    /// The cache's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total lines the cache can hold.
    pub fn capacity_lines(&self) -> usize {
        self.ways.len()
    }

    /// Lines currently present.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no line is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a line without updating replacement state or statistics.
    pub fn probe(&self, line: u64) -> Option<LineState> {
        debug_assert_ne!(line, EMPTY, "line address u64::MAX");
        self.set(line)
            .iter()
            .find(|w| w.line == line)
            .map(|w| w.state)
    }

    /// Accesses a line: on a hit, refreshes LRU state and returns the
    /// current state; on a miss returns `None`. Hit/miss statistics are
    /// updated.
    #[inline]
    pub fn touch(&mut self, line: u64) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(w) = self.way_mut(line) {
            w.stamp = tick;
            let state = w.state;
            self.stats.hits += 1;
            Some(state)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Changes the state of a present line.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        let name = self.name;
        let w = self
            .way_mut(line)
            .unwrap_or_else(|| panic!("{name}: set_state on absent line {line:#x}"));
        w.state = state;
    }

    /// Inserts a line (write-allocate). If the set is full the LRU way is
    /// evicted and returned so the caller can process a writeback.
    ///
    /// Inserting a line that is already present just updates its state.
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u64::MAX`.
    pub fn insert(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        assert_ne!(line, EMPTY, "{}: line address u64::MAX", self.name);
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_mut(line);
        if let Some(w) = set.iter_mut().find(|w| w.line == line) {
            w.state = state;
            w.stamp = tick;
            return None;
        }
        // An empty way has stamp 0, so it wins over every resident line;
        // in a full set the minimum stamp is the LRU line.
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.stamp)
            .expect("sets have at least one way");
        let old = std::mem::replace(
            victim,
            Way {
                line,
                state,
                stamp: tick,
            },
        );
        if old.line == EMPTY {
            return None;
        }
        let dirty = old.state.is_dirty();
        self.stats.evictions += 1;
        if dirty {
            self.stats.writebacks += 1;
        }
        Some(Evicted {
            line: old.line,
            dirty,
        })
    }

    /// Removes a line; returns whether it was present and dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let w = self.way_mut(line)?;
        let dirty = w.state.is_dirty();
        *w = EMPTY_WAY;
        Some(dirty)
    }

    /// Downgrades a line to `Shared`; returns whether it was dirty
    /// (needing a writeback of the modified data) or `None` if absent.
    pub fn downgrade(&mut self, line: u64) -> Option<bool> {
        let w = self.way_mut(line)?;
        let was_dirty = w.state.is_dirty();
        w.state = LineState::Shared;
        Some(was_dirty)
    }

    /// Invalidates every line in `[start_line, start_line + count)` —
    /// used when a page is unmapped. Returns the removed `(line, dirty)`
    /// pairs.
    pub fn invalidate_range(&mut self, start_line: u64, count: u64) -> Vec<(u64, bool)> {
        let mut removed = Vec::new();
        for line in start_line..start_line + count {
            if let Some(dirty) = self.invalidate(line) {
                removed.push((line, dirty));
            }
        }
        removed
    }

    /// Iterates over all `(line, state)` pairs currently present
    /// (unspecified order). Intended for invariant checks in tests.
    pub fn iter(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.ways
            .iter()
            .filter(|w| w.line != EMPTY)
            .map(|w| (w.line, w.state))
    }

    /// Drops all contents and statistics.
    pub fn reset(&mut self) {
        self.ways.fill(EMPTY_WAY);
        self.tick = 0;
        self.stats = CacheStats::default();
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} lines, {} hits / {} misses",
            self.name,
            self.len(),
            self.capacity_lines(),
            self.stats.hits,
            self.stats.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways of 64-byte lines = 512 B.
        Cache::new("t", 512, 2, 6)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert_eq!(c.touch(10), None);
        c.insert(10, LineState::Shared);
        assert_eq!(c.touch(10), Some(LineState::Shared));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0, LineState::Exclusive);
        c.insert(4, LineState::Modified);
        c.touch(0); // 0 becomes MRU; 4 is LRU
        let ev = c.insert(8, LineState::Exclusive).expect("eviction");
        assert_eq!(
            ev,
            Evicted {
                line: 4,
                dirty: true
            }
        );
        assert_eq!(c.probe(0), Some(LineState::Exclusive));
        assert_eq!(c.probe(8), Some(LineState::Exclusive));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = tiny();
        for line in 0..1000u64 {
            c.insert(line, LineState::Shared);
            assert!(c.len() <= c.capacity_lines());
        }
        assert_eq!(c.len(), c.capacity_lines());
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(3, LineState::Shared);
        assert_eq!(c.insert(3, LineState::Modified), None);
        assert_eq!(c.probe(3), Some(LineState::Modified));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.insert(1, LineState::Modified);
        c.insert(2, LineState::Shared);
        assert_eq!(c.invalidate(1), Some(true));
        assert_eq!(c.invalidate(2), Some(false));
        assert_eq!(c.invalidate(3), None);
        assert!(c.is_empty());
    }

    #[test]
    fn downgrade_keeps_line_shared() {
        let mut c = tiny();
        c.insert(1, LineState::Modified);
        assert_eq!(c.downgrade(1), Some(true));
        assert_eq!(c.probe(1), Some(LineState::Shared));
        assert_eq!(c.downgrade(1), Some(false));
        assert_eq!(c.downgrade(99), None);
    }

    #[test]
    fn invalidate_range_clears_page() {
        let mut c = Cache::new("t", 4096, 4, 6);
        for line in 64..128 {
            c.insert(line, LineState::Modified);
        }
        let removed = c.invalidate_range(64, 64);
        // Capacity is 64 lines, so everything that survived insertion is
        // removed and dirty.
        assert!(removed.iter().all(|&(l, d)| (64..128).contains(&l) && d));
        assert!(c.is_empty());
    }

    #[test]
    fn probe_does_not_affect_lru_or_stats() {
        let mut c = tiny();
        c.insert(0, LineState::Shared);
        c.insert(4, LineState::Shared);
        let s = c.stats();
        c.probe(0);
        assert_eq!(c.stats(), s);
        // 0 was inserted first and probe must not refresh it: inserting a
        // third conflicting line evicts 0.
        let ev = c.insert(8, LineState::Shared).unwrap();
        assert_eq!(ev.line, 0);
    }

    #[test]
    fn state_predicates() {
        assert!(LineState::Modified.is_dirty());
        assert!(!LineState::Exclusive.is_dirty());
        assert!(LineState::Exclusive.is_writable());
        assert!(!LineState::Shared.is_writable());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new("bad", 3 * 64, 1, 6);
    }

    #[test]
    #[should_panic(expected = "absent line")]
    fn set_state_on_absent_line_panics() {
        tiny().set_state(1, LineState::Shared);
    }

    #[test]
    fn reset_restores_empty() {
        let mut c = tiny();
        c.insert(1, LineState::Shared);
        c.touch(1);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.stats(), CacheStats::default());
    }
}
