//! A generic observability primitive: a bounded event ring.
//!
//! It is the storage layer of the machine's event bus: the ring keeps
//! the last `capacity` structural events (faults, migrations, audit
//! sweeps) for post-mortem inspection without unbounded growth. It is
//! deliberately simulation-agnostic so other layers (kernel, protocol)
//! can adopt it.

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
/// ```
#[derive(Clone, Debug)]
pub struct EventRing<T> {
    buf: Vec<T>,
    head: usize,
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

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
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
    #[should_panic(expected = "at least one event")]
    fn ring_rejects_zero_capacity() {
        let _ = EventRing::<u8>::new(0);
    }
}
