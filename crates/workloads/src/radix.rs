//! Radix: parallel radix sort (paper Table 2: "Radix sort, 1M integer
//! keys, radix 1K").
//!
//! A real radix sort is executed over deterministic pseudo-random keys so
//! the *scatter* permutation in each pass is genuine: the irregular
//! all-to-all writes it produces are exactly the sparse page-access
//! pattern that hurts S-COMA page utilization (paper Table 3 shows Radix
//! with SCOMA utilization 0.33).

use prism_mem::trace::Trace;
use prism_sim::SimRng;

use crate::common::{finish_trace, partition, BarrierIds, Lane, Layout, Workload};

/// The radix-sort workload.
#[derive(Clone, Debug)]
pub struct Radix {
    /// Number of keys.
    pub keys: u64,
    /// Radix (bucket count per pass); the paper uses 1024.
    pub radix: u64,
    /// RNG seed for the key data.
    pub seed: u64,
}

impl Radix {
    /// Sorts `keys` pseudo-random integers with the given radix.
    ///
    /// # Panics
    ///
    /// Panics unless the radix is a power of two ≥ 2.
    pub fn new(keys: u64, radix: u64, seed: u64) -> Radix {
        assert!(
            radix.is_power_of_two() && radix >= 2,
            "radix must be a power of two"
        );
        Radix { keys, radix, seed }
    }
}

impl Workload for Radix {
    fn name(&self) -> String {
        "Radix".into()
    }

    fn description(&self) -> String {
        format!(
            "Radix sort, {}K integer keys, radix {}",
            self.keys / 1024,
            self.radix
        )
    }

    fn generate(&self, procs: usize) -> Trace {
        let n = self.keys;
        let r = self.radix;
        let bits = r.trailing_zeros();
        let passes = 30u32.div_ceil(bits); // 30-bit keys
        let mut rng = SimRng::new(self.seed);
        let mut data: Vec<u32> = (0..n)
            .map(|_| (rng.next_u32() >> 2) & 0x3FFF_FFFF)
            .collect();

        let mut layout = Layout::new();
        let src = layout.array("radix-src", n, 4);
        let dst = layout.array("radix-dst", n, 4);
        // Global histogram: per-processor rows to mirror SPLASH's
        // global density array.
        let hist = layout.array("radix-hist", r * procs as u64, 4);
        let arrays = [src, dst];
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();

        for pass in 0..passes {
            let shift = pass * bits;
            let from = arrays[(pass % 2) as usize];
            let to = arrays[((pass + 1) % 2) as usize];

            // 1. Local histogram: read own keys, count into the
            //    processor's row of the shared histogram.
            let mut counts = vec![vec![0u64; r as usize]; procs];
            for (p, lane) in lanes.iter_mut().enumerate() {
                for i in partition(n, procs, p) {
                    let digit = ((data[i as usize] as u64) >> shift) & (r - 1);
                    counts[p][digit as usize] += 1;
                    lane.read(from.at(i)).compute(2);
                    lane.update(hist.at(p as u64 * r + digit));
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }

            // 2. Prefix sum over the histogram (each processor scans a
            //    slice of digits across all rows).
            let mut offsets = vec![vec![0u64; r as usize]; procs];
            let mut running = 0u64;
            for digit in 0..r as usize {
                for (p, c) in counts.iter().enumerate() {
                    offsets[p][digit] = running;
                    running += c[digit];
                }
            }
            for (p, lane) in lanes.iter_mut().enumerate() {
                for digit in partition(r, procs, p) {
                    for row in 0..procs as u64 {
                        lane.update(hist.at(row * r + digit)).compute(1);
                    }
                }
            }
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }

            // 3. Permute: read own keys, write to their sorted positions
            //    (a genuine scatter based on the actual key values).
            let mut next = offsets;
            let mut new_data = data.clone();
            for (p, lane) in lanes.iter_mut().enumerate() {
                for i in partition(n, procs, p) {
                    let key = data[i as usize];
                    let digit = (((key as u64) >> shift) & (r - 1)) as usize;
                    let pos = next[p][digit];
                    next[p][digit] += 1;
                    new_data[pos as usize] = key;
                    lane.read(from.at(i)).compute(2).write(to.at(pos));
                }
            }
            data = new_data;
            let b = barriers.fresh();
            for lane in &mut lanes {
                lane.barrier(b);
            }
        }
        finish_trace("Radix", layout, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::trace::Op;

    #[test]
    fn trace_validates() {
        let t = Radix::new(1024, 16, 42).generate(4);
        assert_eq!(t.lanes.len(), 4);
        assert!(t.total_refs() > 0);
    }

    #[test]
    fn the_underlying_sort_is_correct() {
        // Re-run the generator's sorting logic independently: generate,
        // then verify the permutation described by the scatter is a sort.
        let w = Radix::new(512, 16, 7);
        let mut rng = SimRng::new(7);
        let mut keys: Vec<u32> = (0..512)
            .map(|_| (rng.next_u32() >> 2) & 0x3FFF_FFFF)
            .collect();
        // The generator sorts via successive digit passes; emulate via
        // stable sort to compare multiset + final order by full key.
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Run the same passes as the generator does.
        let r = 16u64;
        let bits = 4;
        for pass in 0..30u32.div_ceil(bits) {
            let shift = pass * bits;
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); r as usize];
            for &k in &keys {
                buckets[(((k as u64) >> shift) & (r - 1)) as usize].push(k);
            }
            keys = buckets.concat();
        }
        assert_eq!(keys, expect, "LSD radix sort must sort");
        let t = w.generate(2);
        assert!(t.total_refs() > 512 * 2);
    }

    #[test]
    fn scatter_writes_cover_destination_exactly_once_per_pass() {
        let t = Radix::new(256, 16, 3).generate(2);
        // Count writes to the two data arrays in the first pass (up to
        // the third barrier).
        let mut writes = prism_sim::FastMap::default();
        'outer: for lane in &t.lanes {
            let mut barriers_seen = 0;
            for op in lane {
                match *op {
                    Op::Barrier(_) => {
                        barriers_seen += 1;
                        if barriers_seen == 3 {
                            continue 'outer;
                        }
                    }
                    Op::Write(va) => {
                        // dst array occupies the second segment.
                        let dst_base = t.segments[1].va_base;
                        if va.0 >= dst_base && va.0 < dst_base + 256 * 4 {
                            *writes.entry(va.0).or_insert(0) += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(writes.len(), 256, "each destination slot written");
        assert!(writes.values().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_radix_rejected() {
        Radix::new(100, 100, 0);
    }
}
