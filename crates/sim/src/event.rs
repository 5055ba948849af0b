//! Generic observability primitives: a bounded event ring and a named
//! counter registry.
//!
//! These are the storage layer of the machine's event bus. The ring
//! keeps the last `capacity` structural events (faults, migrations,
//! audit sweeps) for post-mortem inspection without unbounded growth;
//! the registry holds named monotonic counters that reports snapshot at
//! the end of a run. Both are deliberately simulation-agnostic so other
//! layers (kernel, protocol) can adopt them.

/// A fixed-capacity ring buffer: pushes are O(1) and the oldest entry
/// is overwritten once the ring is full.
///
/// # Example
///
/// ```
/// use prism_sim::event::EventRing;
///
/// let mut ring: EventRing<u32> = EventRing::new(2);
/// ring.push(1);
/// ring.push(2);
/// ring.push(3); // overwrites 1
/// assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
/// assert_eq!(ring.total_pushed(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct EventRing<T> {
    buf: Vec<T>,
    head: usize,
    total: u64,
    capacity: usize,
}

impl<T> EventRing<T> {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> EventRing<T> {
        assert!(capacity > 0, "event ring needs room for at least one event");
        EventRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            total: 0,
            capacity,
        }
    }

    /// Appends an event, evicting the oldest one when full.
    pub fn push(&mut self, ev: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops all retained events (the total-pushed count survives).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// A registry of named monotonic counters addressed by dense index.
///
/// Subscribers register names once at construction and update counters
/// by index on the hot path (a bare `Vec` add, no hashing). Reports
/// read them back by the same index or snapshot everything by name.
///
/// # Example
///
/// ```
/// use prism_sim::event::CounterRegistry;
///
/// let mut reg = CounterRegistry::new();
/// let misses = reg.register("remote-misses");
/// reg.add(misses, 3);
/// assert_eq!(reg.get(misses), 3);
/// assert_eq!(reg.snapshot(), vec![("remote-misses", 3)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CounterRegistry {
    names: Vec<&'static str>,
    counts: Vec<u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> CounterRegistry {
        CounterRegistry::default()
    }

    /// Registers a counter and returns its index.
    pub fn register(&mut self, name: &'static str) -> usize {
        self.names.push(name);
        self.counts.push(0);
        self.names.len() - 1
    }

    /// Adds `n` to counter `idx`.
    #[inline]
    pub fn add(&mut self, idx: usize, n: u64) {
        self.counts[idx] += n;
    }

    /// Current value of counter `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no counter is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All counters as `(name, value)` pairs, in registration order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.names
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest() {
        let mut r = EventRing::new(3);
        for i in 0..5u32 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_pushed(), 5);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn ring_below_capacity_is_in_order() {
        let mut r = EventRing::new(8);
        r.push("a");
        r.push("b");
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(!r.is_empty());
    }

    #[test]
    fn ring_clear_resets_contents_not_total() {
        let mut r = EventRing::new(2);
        r.push(1);
        r.push(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_pushed(), 2);
        r.push(9);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn ring_rejects_zero_capacity() {
        let _ = EventRing::<u8>::new(0);
    }

    #[test]
    fn registry_is_dense_and_ordered() {
        let mut reg = CounterRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        reg.add(a, 1);
        reg.add(b, 2);
        reg.add(b, 3);
        assert_eq!(reg.get(a), 1);
        assert_eq!(reg.get(b), 5);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.snapshot(), vec![("a", 1), ("b", 5)]);
    }
}
