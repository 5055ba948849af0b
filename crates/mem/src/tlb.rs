//! A small fully-associative TLB model.
//!
//! PRISM keeps virtual→physical translations node-private, so TLB
//! invalidations never cross node boundaries (one of the paper's key
//! scalability arguments). The TLB here affects timing (30-cycle refill on
//! a miss, per Table 1) and lets page-outs account their node-local
//! shootdown work.
//!
//! Entries sit in a small array with true-LRU stamps; a full TLB evicts
//! the minimum stamp. A direct-mapped *hint* table maps `vpage` bits to
//! the slot that last held that page. A lookup checks the hinted slot's
//! `vpage` first and scans the array only when the hint is wrong
//! (a collision, or a slot that was since flushed, invalidated or
//! re-used). Hints never decide a result, so hits, misses and the LRU
//! order are exactly those of a plain scan.

use crate::addr::FrameNo;

/// A fully-associative, LRU translation lookaside buffer.
///
/// # Example
///
/// ```
/// use prism_mem::tlb::Tlb;
/// use prism_mem::addr::FrameNo;
///
/// let mut tlb = Tlb::new(2);
/// assert!(tlb.lookup(0x10).is_none()); // cold miss
/// tlb.insert(0x10, FrameNo(3));
/// assert_eq!(tlb.lookup(0x10), Some(FrameNo(3)));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    /// Slot index last holding each `vpage & hint_mask` (see module docs).
    hint: Box<[u32]>,
    hint_mask: u64,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    vpage: u64,
    frame: FrameNo,
    stamp: u64,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB capacity must be positive");
        // Four hint slots per entry keep collisions between the pages a
        // full TLB holds rare.
        let hints = (capacity * 4).next_power_of_two();
        Tlb {
            entries: Vec::with_capacity(capacity),
            hint: vec![0; hints].into_boxed_slice(),
            hint_mask: hints as u64 - 1,
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot holding `vpage`, trying its hint before a full scan.
    #[inline]
    fn slot_of(&mut self, vpage: u64) -> Option<usize> {
        let h = (vpage & self.hint_mask) as usize;
        let hinted = self.hint[h] as usize;
        if self.entries.get(hinted).is_some_and(|e| e.vpage == vpage) {
            return Some(hinted);
        }
        let slot = self.entries.iter().position(|e| e.vpage == vpage)?;
        self.hint[h] = slot as u32;
        Some(slot)
    }

    /// Looks up a virtual page, refreshing its LRU position on a hit.
    #[inline]
    pub fn lookup(&mut self, vpage: u64) -> Option<FrameNo> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.slot_of(vpage) {
            let e = &mut self.entries[slot];
            e.stamp = tick;
            self.hits += 1;
            Some(e.frame)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Installs (or updates) a translation, evicting the LRU entry when
    /// full.
    pub fn insert(&mut self, vpage: u64, frame: FrameNo) {
        self.tick += 1;
        let entry = TlbEntry {
            vpage,
            frame,
            stamp: self.tick,
        };
        let slot = if let Some(slot) = self.slot_of(vpage) {
            self.entries[slot] = entry;
            slot
        } else if self.entries.len() == self.capacity {
            let (slot, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("full TLB is nonempty");
            self.entries[slot] = entry;
            slot
        } else {
            self.entries.push(entry);
            self.entries.len() - 1
        };
        self.hint[(vpage & self.hint_mask) as usize] = slot as u32;
    }

    /// Drops the translation for `vpage`; returns whether it was present.
    pub fn invalidate(&mut self, vpage: u64) -> bool {
        match self.slot_of(vpage) {
            Some(slot) => {
                // The last entry moves into `slot`; its hint goes stale
                // and is repaired by its next lookup's scan.
                self.entries.swap_remove(slot);
                true
            }
            None => false,
        }
    }

    /// Drops every translation.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no translation is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(7), None);
        t.insert(7, FrameNo(1));
        assert_eq!(t.lookup(7), Some(FrameNo(1)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.insert(1, FrameNo(1));
        t.insert(2, FrameNo(2));
        t.lookup(1); // 2 becomes LRU
        t.insert(3, FrameNo(3));
        assert_eq!(t.lookup(2), None, "LRU entry evicted");
        assert!(t.lookup(1).is_some());
        assert!(t.lookup(3).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_updates_existing() {
        let mut t = Tlb::new(2);
        t.insert(1, FrameNo(1));
        t.insert(1, FrameNo(9));
        assert_eq!(t.lookup(1), Some(FrameNo(9)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = Tlb::new(4);
        t.insert(1, FrameNo(1));
        t.insert(2, FrameNo(2));
        assert!(t.invalidate(1));
        assert!(!t.invalidate(1));
        assert_eq!(t.len(), 1);
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn stale_hints_fall_back_to_the_scan() {
        let mut t = Tlb::new(4);
        for v in 1..=4 {
            t.insert(v, FrameNo(v as u32));
        }
        // Entry 4 moves from slot 3 into slot 1; its hint still says 3.
        assert!(t.invalidate(2));
        // Slot 3 is re-filled by another page, so the stale hint now
        // names a live slot holding the wrong page.
        t.insert(5, FrameNo(5));
        assert_eq!(t.lookup(4), Some(FrameNo(4)));
        assert_eq!(t.lookup(5), Some(FrameNo(5)));
        assert_eq!(t.lookup(2), None);
        t.flush();
        assert_eq!(t.lookup(4), None, "hints outlive a flush harmlessly");
        assert_eq!((t.hits(), t.misses()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }
}
