//! Occupancy-based contended resources.

use crate::Cycle;

/// Cycles per capacity bucket (power of two).
const BUCKET: u64 = 64;
const BUCKET_LOG2: u32 = 6;

// A bucket's occupancy never exceeds `BUCKET`, so one byte holds it.
const _: () = assert!(BUCKET <= u8::MAX as u64);

/// A contended hardware resource modeled by *bucketized occupancy*.
///
/// A `Resource` represents something with finite service throughput — a
/// split-transaction memory bus, a memory bank, a coherence controller's
/// protocol engine, a network interface. Time is divided into 64-cycle
/// buckets, each able to perform 64 cycles of service. A request arriving
/// at `now` needing `occ` cycles of service begins at the first instant
/// at/after `now` with free capacity, and its occupancy is consumed from
/// that point forward (spilling into later buckets when needed).
///
/// Unlike a plain "busy-until" model, this handles *out-of-order
/// arrivals* correctly: a reservation made for the future (e.g. by a
/// request that is still crossing the network) does not delay an earlier
/// local request — essential in a simulator that executes whole
/// transactions atomically.
///
/// For arrivals in time order the model degrades to classic FIFO
/// queueing: back-to-back requests serialize exactly.
///
/// The occupancy timeline is a byte per bucket, indexed by bucket number
/// and grown on demand, so it costs one byte per 64 cycles of the
/// resource's horizon.
///
/// # Example
///
/// ```
/// use prism_sim::{Cycle, Resource};
///
/// let mut mem = Resource::new("memory");
/// assert_eq!(mem.acquire(Cycle(0), Cycle(24)), Cycle(0));
/// // A request that arrives while the first is in service is queued.
/// assert_eq!(mem.acquire(Cycle(10), Cycle(24)), Cycle(24));
/// // A request that arrives after the backlog drains starts immediately.
/// assert_eq!(mem.acquire(Cycle(100), Cycle(24)), Cycle(100));
/// ```
#[derive(Clone, Debug)]
pub struct Resource {
    name: &'static str,
    used: Vec<u8>,
    horizon: Cycle,
    busy_cycles: u64,
    wait_cycles: u64,
    acquisitions: u64,
}

impl Resource {
    /// Creates an idle resource. `name` is used in diagnostics and reports.
    pub fn new(name: &'static str) -> Resource {
        Resource {
            name,
            used: Vec::new(),
            horizon: Cycle::ZERO,
            busy_cycles: 0,
            wait_cycles: 0,
            acquisitions: 0,
        }
    }

    /// Reserves `occupancy` cycles of service for a request arriving at
    /// `now`. Returns the cycle at which service begins (`>= now`); the
    /// request completes at `start + occupancy` when uncontended (the
    /// occupancy may spill into later buckets under heavy load).
    ///
    /// # Panics
    ///
    /// Panics if `now` is [`Cycle::NEVER`].
    pub fn acquire(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        assert!(!now.is_never(), "{}: acquire at Cycle::NEVER", self.name);
        self.acquisitions += 1;
        self.busy_cycles += occupancy.as_u64();
        let mut remaining = occupancy.as_u64();
        if remaining == 0 {
            return now;
        }
        // Find the first bucket at/after `now` with free capacity.
        let mut bucket =
            usize::try_from(now.as_u64() >> BUCKET_LOG2).expect("bucket index fits in usize");
        let mut start: Option<Cycle> = None;
        loop {
            if bucket >= self.used.len() {
                self.used.resize(bucket + 1, 0);
            }
            let used = u64::from(self.used[bucket]);
            if used < BUCKET {
                if start.is_none() {
                    // Service begins where this bucket's backlog ends,
                    // but never before the arrival instant.
                    let begin = ((bucket as u64) << BUCKET_LOG2) + used;
                    start = Some(now.max(Cycle(begin)));
                }
                let free = BUCKET - used;
                let take = free.min(remaining);
                self.used[bucket] = (used + take) as u8;
                remaining -= take;
                if remaining == 0 {
                    break;
                }
            }
            bucket += 1;
        }
        let start = start.expect("capacity was found");
        self.wait_cycles += (start - now).as_u64();
        self.horizon = self.horizon.max(start + occupancy);
        start
    }

    /// Like [`Resource::acquire`] but returns the *completion* time
    /// (`start + occupancy`), which is what most latency compositions need.
    pub fn acquire_until(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        self.acquire(now, occupancy) + occupancy
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The latest service completion scheduled so far.
    pub fn busy_until(&self) -> Cycle {
        self.horizon
    }

    /// Total cycles of service performed.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total cycles requests spent queued behind earlier requests.
    pub fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }

    /// Number of acquisitions served.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Utilization over an interval of `horizon` cycles (clamped to 1.0).
    pub fn utilization(&self, horizon: Cycle) -> f64 {
        if horizon == Cycle::ZERO {
            return 0.0;
        }
        (self.busy_cycles as f64 / horizon.as_u64() as f64).min(1.0)
    }

    /// Resets timing state and statistics to idle.
    pub fn reset(&mut self) {
        self.used.clear();
        self.horizon = Cycle::ZERO;
        self.busy_cycles = 0;
        self.wait_cycles = 0;
        self.acquisitions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastMap, SimRng};

    /// The bucket-map model the byte timeline replaced: same search and
    /// spill, with buckets kept in a hash map that never drops an entry.
    #[derive(Default)]
    struct MapModel {
        used: FastMap<u64, u64>,
        horizon: Cycle,
        busy_cycles: u64,
        wait_cycles: u64,
    }

    impl MapModel {
        fn acquire(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
            self.busy_cycles += occupancy.as_u64();
            let mut remaining = occupancy.as_u64();
            if remaining == 0 {
                return now;
            }
            let mut bucket = now.as_u64() >> BUCKET_LOG2;
            let mut start = None;
            while remaining > 0 {
                let used = self.used.entry(bucket).or_insert(0);
                if *used < BUCKET {
                    let begin = Cycle((bucket << BUCKET_LOG2) + *used);
                    start.get_or_insert(now.max(begin));
                    let take = (BUCKET - *used).min(remaining);
                    *used += take;
                    remaining -= take;
                }
                bucket += 1;
            }
            let start = start.expect("capacity was found");
            self.wait_cycles += (start - now).as_u64();
            self.horizon = self.horizon.max(start + occupancy);
            start
        }
    }

    #[test]
    fn byte_timeline_matches_bucket_map_model() {
        const OCCUPANCIES: [u64; 9] = [0, 1, 63, 64, 65, 128, 130, 200, 333];
        for seed in 0..8 {
            let mut rng = SimRng::new(seed);
            let mut r = Resource::new("diff");
            let mut model = MapModel::default();
            for i in 0..4_000u64 {
                // Arrivals drift forward but jump back and ahead, so
                // reservations land out of order, in full buckets and
                // past the end of the timeline.
                let base = i * 160;
                let now = match rng.gen_index(4) {
                    0 => base.saturating_sub(rng.gen_range(0..2_000)),
                    1 => base + rng.gen_range(0..5_000),
                    _ => base + rng.gen_range(0..64),
                };
                let occ = if rng.gen_bool(0.5) {
                    OCCUPANCIES[rng.gen_index(OCCUPANCIES.len())]
                } else {
                    rng.gen_range(1..300)
                };
                let (now, occ) = (Cycle(now), Cycle(occ));
                assert_eq!(
                    r.acquire(now, occ),
                    model.acquire(now, occ),
                    "seed {seed}, request {i}: acquire({now:?}, {occ:?})"
                );
            }
            assert_eq!(r.wait_cycles(), model.wait_cycles, "seed {seed}");
            assert_eq!(r.busy_cycles(), model.busy_cycles, "seed {seed}");
            assert_eq!(r.busy_until(), model.horizon, "seed {seed}");
            assert_eq!(r.acquisitions(), 4_000);
            for (b, &used) in r.used.iter().enumerate() {
                let expect = model.used.get(&(b as u64)).copied().unwrap_or(0);
                assert_eq!(u64::from(used), expect, "seed {seed}, bucket {b}");
                assert!(u64::from(used) <= BUCKET, "seed {seed}, bucket {b}");
            }
            assert!(model.used.keys().all(|&b| b < r.used.len() as u64));
            // Every cycle of service sits in exactly one bucket.
            let held: u64 = r.used.iter().map(|&u| u64::from(u)).sum();
            assert_eq!(held, r.busy_cycles(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "acquire at Cycle::NEVER")]
    fn acquire_at_never_panics() {
        Resource::new("x").acquire(Cycle::NEVER, Cycle(1));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = Resource::new("bus");
        assert_eq!(r.acquire(Cycle(0), Cycle(8)), Cycle(0));
        assert_eq!(r.acquire(Cycle(0), Cycle(8)), Cycle(8));
        assert_eq!(r.acquire(Cycle(0), Cycle(8)), Cycle(16));
        assert_eq!(r.busy_cycles(), 24);
        assert_eq!(r.acquisitions(), 3);
        // Second and third requests waited 8 and 16 cycles respectively.
        assert_eq!(r.wait_cycles(), 24);
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let mut r = Resource::new("mem");
        r.acquire(Cycle(0), Cycle(10));
        r.acquire(Cycle(100), Cycle(10));
        assert_eq!(r.busy_cycles(), 20);
        assert_eq!(r.busy_until(), Cycle(110));
        assert_eq!(r.wait_cycles(), 0);
        assert!((r.utilization(Cycle(200)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn future_reservations_do_not_block_earlier_requests() {
        let mut r = Resource::new("bus");
        // A transaction still crossing the network reserves capacity at
        // t=1000…
        assert_eq!(r.acquire(Cycle(1000), Cycle(14)), Cycle(1000));
        // …which must not delay a local request at t=10.
        assert_eq!(r.acquire(Cycle(10), Cycle(14)), Cycle(10));
        assert_eq!(r.wait_cycles(), 0);
    }

    #[test]
    fn bucket_capacity_spills_forward() {
        let mut r = Resource::new("x");
        // Fill bucket 0 completely (64 cycles of service).
        for i in 0..4 {
            assert_eq!(r.acquire(Cycle(0), Cycle(16)), Cycle(16 * i));
        }
        // The next request of the same arrival time starts in bucket 1.
        assert_eq!(r.acquire(Cycle(0), Cycle(16)), Cycle(64));
    }

    #[test]
    fn large_occupancies_span_buckets() {
        let mut r = Resource::new("mem");
        assert_eq!(r.acquire(Cycle(0), Cycle(200)), Cycle(0));
        assert_eq!(r.busy_cycles(), 200);
        // The follow-up request queues behind the burst.
        let start = r.acquire(Cycle(0), Cycle(10));
        assert!(start >= Cycle(192), "{start:?}");
    }

    #[test]
    fn acquire_until_returns_completion() {
        let mut r = Resource::new("ni");
        assert_eq!(r.acquire_until(Cycle(5), Cycle(30)), Cycle(35));
        // The second request queues behind the first's bucket usage
        // (service capacity is tracked per 64-cycle bucket, so the
        // backlog position is 30, not 35).
        assert_eq!(r.acquire_until(Cycle(5), Cycle(30)), Cycle(60));
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut r = Resource::new("x");
        assert_eq!(r.acquire(Cycle(7), Cycle::ZERO), Cycle(7));
        assert_eq!(r.busy_cycles(), 0);
    }

    #[test]
    fn utilization_clamps_and_handles_zero_horizon() {
        let mut r = Resource::new("x");
        r.acquire(Cycle(0), Cycle(100));
        assert_eq!(r.utilization(Cycle::ZERO), 0.0);
        assert_eq!(r.utilization(Cycle(50)), 1.0);
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut r = Resource::new("x");
        r.acquire(Cycle(0), Cycle(100));
        r.reset();
        assert!(r.used.is_empty());
        assert_eq!(r.busy_until(), Cycle::ZERO);
        assert_eq!(r.busy_cycles(), 0);
        assert_eq!(r.acquisitions(), 0);
    }
}
