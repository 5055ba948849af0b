//! Occupancy-based contended resources.
//!
//! A resource keeps only the part of its timeline that a later request
//! can still reach (see [`Resource::retire_before`]), so its memory is
//! O(window), not one byte per 64 cycles of its horizon.

use crate::Cycle;

/// Cycles per capacity bucket (power of two).
const BUCKET: u64 = 64;
const BUCKET_LOG2: u32 = 6;

// A bucket's occupancy never exceeds `BUCKET`, so one byte holds it.
const _: () = assert!(BUCKET <= u8::MAX as u64);

/// The fewest dead buckets worth a drain: moving the live window costs
/// a copy of it, so a drain waits until the dead prefix is also at least
/// half the timeline, which makes the copy amortized O(1) per bucket.
const RETIRE_MIN: usize = 1024;

/// Buckets a new timeline reserves room for.
const INITIAL_SLOTS: usize = 4 * RETIRE_MIN;

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
/// The occupancy timeline is a byte per bucket, grown on demand past its
/// end. The owner may declare a *low-water mark* with
/// [`Resource::retire_before`]: a promise that no later request arrives
/// before it. Buckets wholly below the mark are then dead, and the
/// timeline drops its dead prefix once that prefix is at least 1,024
/// buckets and half the stored timeline. The memory is therefore
/// O(window), the buckets between the mark and the latest reservation
/// (at most twice that, or the window plus 1,024 buckets), however long
/// the resource's horizon grows. A resource that is never told a mark
/// keeps its whole horizon, one byte per 64 cycles.
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
    /// Occupancy of buckets `base..base + used.len()`.
    used: Vec<u8>,
    /// The bucket number of `used[0]`.
    base: u64,
    /// The highest low-water mark declared: no request may arrive
    /// before it.
    retired: Cycle,
    /// The most buckets `used` has held at once.
    peak_len: usize,
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
            // Storage for a typical live window, taken with the rest of
            // the machine: growing it by reallocation mid-run scatters
            // small blocks over the heap and raised `ocean-scoma`'s peak
            // RSS (EXPERIMENTS.md "Sliding resource timelines").
            used: Vec::with_capacity(INITIAL_SLOTS),
            base: 0,
            retired: Cycle::ZERO,
            peak_len: 0,
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
    /// Panics if `now` is [`Cycle::NEVER`], or if it lies before the
    /// low-water mark declared by [`Resource::retire_before`].
    pub fn acquire(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        assert!(!now.is_never(), "{}: acquire at Cycle::NEVER", self.name);
        assert!(
            now >= self.retired,
            "{}: acquire at cycle {} is below the retired horizon {}",
            self.name,
            now.as_u64(),
            self.retired.as_u64()
        );
        self.acquisitions += 1;
        self.busy_cycles += occupancy.as_u64();
        let mut remaining = occupancy.as_u64();
        if remaining == 0 {
            return now;
        }
        // Find the first bucket at/after `now` with free capacity. The
        // mark check above keeps `now`'s bucket at or past `base`.
        let mut slot = usize::try_from((now.as_u64() >> BUCKET_LOG2) - self.base)
            .expect("bucket index fits in usize");
        let mut start: Option<Cycle> = None;
        loop {
            if slot >= self.used.len() {
                self.used.resize(slot + 1, 0);
                self.peak_len = self.peak_len.max(self.used.len());
            }
            let used = u64::from(self.used[slot]);
            if used < BUCKET {
                if start.is_none() {
                    // Service begins where this bucket's backlog ends,
                    // but never before the arrival instant.
                    let begin = ((self.base + slot as u64) << BUCKET_LOG2) + used;
                    start = Some(now.max(Cycle(begin)));
                }
                let free = BUCKET - used;
                let take = free.min(remaining);
                self.used[slot] = (used + take) as u8;
                remaining -= take;
                if remaining == 0 {
                    break;
                }
            }
            slot += 1;
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

    /// Declares a low-water mark: no later request arrives before
    /// `mark`. Buckets wholly below it are dropped once enough of them
    /// have gathered (see the type docs); results never change. A mark
    /// at or below an earlier one is ignored.
    pub fn retire_before(&mut self, mark: Cycle) {
        if mark <= self.retired {
            return;
        }
        self.retired = mark;
        let dead = (mark.as_u64() >> BUCKET_LOG2) - self.base;
        if dead >= self.used.len() as u64 {
            // Nothing reserved at or after the mark's bucket.
            self.used.clear();
            self.base += dead;
        } else if dead as usize >= RETIRE_MIN.max(self.used.len() / 2) {
            self.used.drain(..dead as usize);
            self.base += dead;
        }
    }

    /// The low-water mark: the earliest arrival [`Resource::acquire`]
    /// still accepts.
    pub fn retired_before(&self) -> Cycle {
        self.retired
    }

    /// The widest span of simulated time the timeline has held at once.
    pub fn peak_retained_span(&self) -> Cycle {
        Cycle((self.peak_len as u64) << BUCKET_LOG2)
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
        self.base = 0;
        self.retired = Cycle::ZERO;
        self.peak_len = 0;
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
        // The model never retires, so equality with and without a rising
        // low-water mark shows that retiring is invisible.
        for retire in [false, true] {
            for seed in 0..8 {
                let mut rng = SimRng::new(seed);
                let mut r = Resource::new("diff");
                let mut model = MapModel::default();
                for i in 0..4_000u64 {
                    // Arrivals drift forward but jump back and ahead, so
                    // reservations land out of order, in full buckets and
                    // past the end of the timeline. None lands more than
                    // 2,000 cycles before `i * 160`, the low-water mark.
                    let base = i * 160;
                    if retire && i % 7 == 0 {
                        r.retire_before(Cycle(base.saturating_sub(2_000)));
                    }
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
                        "retire {retire}, seed {seed}, request {i}: acquire({now:?}, {occ:?})"
                    );
                }
                let what = format!("retire {retire}, seed {seed}");
                assert_eq!(r.wait_cycles(), model.wait_cycles, "{what}");
                assert_eq!(r.busy_cycles(), model.busy_cycles, "{what}");
                assert_eq!(r.busy_until(), model.horizon, "{what}");
                assert_eq!(r.acquisitions(), 4_000);
                assert_eq!(r.base > 0, retire, "{what}: a drain happened");
                for (slot, &used) in r.used.iter().enumerate() {
                    let b = r.base + slot as u64;
                    let expect = model.used.get(&b).copied().unwrap_or(0);
                    assert_eq!(u64::from(used), expect, "{what}, bucket {b}");
                    assert!(u64::from(used) <= BUCKET, "{what}, bucket {b}");
                }
                let end = r.base + r.used.len() as u64;
                assert!(model.used.keys().all(|&b| b < end));
                // Every cycle of service sits in exactly one bucket,
                // retained or retired.
                let held: u64 = r.used.iter().map(|&u| u64::from(u)).sum();
                let retired: u64 = model
                    .used
                    .iter()
                    .filter(|&(&b, _)| b < r.base)
                    .map(|(_, &u)| u)
                    .sum();
                assert_eq!(held + retired, r.busy_cycles(), "{what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bus: acquire at cycle 6399 is below the retired horizon 6400")]
    fn acquire_below_the_retired_horizon_panics() {
        let mut r = Resource::new("bus");
        r.acquire(Cycle(0), Cycle(10));
        r.retire_before(Cycle(6_400));
        r.acquire(Cycle(6_399), Cycle(1));
    }

    #[test]
    fn retiring_keeps_a_steady_stream_bounded() {
        // Ten million cycles of back-to-back traffic with the mark
        // trailing arrivals by 10,000 cycles: without retiring the
        // timeline would hold 156,250 buckets.
        let mut r = Resource::new("memory");
        let mut now = 0u64;
        while now < 10_000_000 {
            r.acquire(Cycle(now), Cycle(24));
            now += 30;
            if now.is_multiple_of(3_000) {
                r.retire_before(Cycle(now.saturating_sub(10_000)));
            }
        }
        // The live window at a retirement is at most 13,000 cycles
        // (the trail plus one period of arrivals). A drain leaves at most
        // twice that, or the window plus `RETIRE_MIN` buckets, and one
        // more period of arrivals lands before the next retirement.
        let window = 13_000 / BUCKET + 1;
        let period = 3_000 / BUCKET + 1;
        let bound = Cycle(((2 * window).max(window + RETIRE_MIN as u64) + period) << BUCKET_LOG2);
        assert!(
            r.peak_retained_span() <= bound,
            "{:?}",
            r.peak_retained_span()
        );
        assert_eq!(r.busy_cycles(), 24 * 333_334);
        assert_eq!(r.wait_cycles(), 0);
    }

    #[test]
    fn a_mark_past_every_reservation_empties_the_timeline() {
        let mut r = Resource::new("ni");
        r.acquire(Cycle(0), Cycle(100));
        r.retire_before(Cycle(1_000));
        assert!(r.used.is_empty());
        assert_eq!(r.retired_before(), Cycle(1_000));
        // A lower mark is ignored, and arrivals at the mark are served
        // against a fresh bucket.
        r.retire_before(Cycle(500));
        assert_eq!(r.retired_before(), Cycle(1_000));
        assert_eq!(r.acquire(Cycle(1_000), Cycle(64)), Cycle(1_000));
        assert_eq!(r.acquire(Cycle(1_000), Cycle(10)), Cycle(1_024));
        assert_eq!(r.busy_until(), Cycle(1_064));
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
        r.acquire(Cycle(200_000), Cycle(100));
        r.retire_before(Cycle(190_000));
        assert!(r.base > 0);
        r.reset();
        assert!(r.used.is_empty());
        assert_eq!(r.base, 0);
        assert_eq!(r.retired_before(), Cycle::ZERO);
        assert_eq!(r.peak_retained_span(), Cycle::ZERO);
        assert_eq!(r.busy_until(), Cycle::ZERO);
        assert_eq!(r.busy_cycles(), 0);
        assert_eq!(r.acquisitions(), 0);
        // Arrivals before the old mark are accepted again.
        assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(0));
    }
}
