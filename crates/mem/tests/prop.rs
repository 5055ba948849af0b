//! Randomized model tests for the core memory-system data structures.
//!
//! Each test drives the structure under test with a seeded [`SimRng`]
//! stream against a naive reference model, over many independent seeds
//! — the offline, deterministic equivalent of a property-based test.

use prism_mem::addr::{FrameNo, Geometry, GlobalPage, Gsid, NodeId, VirtAddr};
use prism_mem::cache::{Cache, LineState};
use prism_mem::frames::{FrameClass, FramePool, UsageTracker};
use prism_mem::mode::FrameMode;
use prism_mem::page_table::SegmentTable;
use prism_mem::pit::{Pit, PitEntry};
use prism_mem::trace::{Op, SegmentSpec, Trace};
use prism_mem::trace_io::{read_trace, write_trace};
use prism_sim::{FastMap, SimRng};

const CASES: u64 = 32;

fn gp(p: u32) -> GlobalPage {
    GlobalPage::new(Gsid(0), p)
}

/// The PIT's forward and reverse translations stay mutually consistent
/// under arbitrary interleavings of inserts and removes.
#[test]
fn pit_forward_reverse_bijection() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let mut pit = Pit::new(64);
        let mut model: FastMap<u32, FrameNo> = Default::default();
        let mut next_frame = 0u32;
        let steps = rng.gen_range(1..200);
        for _ in 0..steps {
            let page = rng.gen_range(0..32) as u32;
            if rng.gen_bool(0.5) {
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(page) {
                    let f = FrameNo(next_frame % 64);
                    if pit.translate(f).is_none() {
                        pit.insert(f, PitEntry::shared(gp(page), FrameMode::Scoma, NodeId(0)));
                        e.insert(f);
                    }
                    next_frame += 1;
                }
            } else if let Some(f) = model.remove(&page) {
                let e = pit.remove(f);
                assert_eq!(e.gpage, gp(page));
            }
            // Invariant: every model entry round-trips both ways.
            for (&p, &f) in &model {
                assert_eq!(pit.frame_of(gp(p)), Some(f));
                assert_eq!(pit.translate(f).map(|e| e.gpage), Some(gp(p)));
            }
            assert_eq!(pit.len(), model.len());
        }
    }
}

/// Reverse translation returns the bound frame regardless of whether
/// the guess hint is right, wrong, or absent.
#[test]
fn pit_reverse_ignores_bad_guesses() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let mut pit = Pit::new(64);
        let mut bound = FastMap::default();
        let count = rng.gen_range(1..16);
        for i in 0..count {
            let p = rng.gen_range(0..16) as u32;
            bound.entry(p).or_insert_with(|| {
                let f = FrameNo(i as u32);
                pit.insert(f, PitEntry::shared(gp(p), FrameMode::Scoma, NodeId(0)));
                f
            });
        }
        for (&p, &f) in bound.iter() {
            let guess = match rng.gen_range(0..3) {
                0 => None,
                1 => Some(FrameNo(f.0)),                         // right
                _ => Some(FrameNo(rng.gen_range(0..64) as u32)), // possibly wrong
            };
            let (found, _) = pit.reverse(gp(p), guess).expect("bound page resolves");
            assert_eq!(found, f);
        }
    }
}

/// A cache never holds more lines than its capacity, never holds
/// duplicates, and a probe after insert finds the line unless a
/// conflicting insert displaced it.
#[test]
fn cache_capacity_and_uniqueness() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let mut c = Cache::new("prop", 1024, 2, 6); // 16 lines
        let steps = rng.gen_range(1..500);
        for _ in 0..steps {
            let l = rng.gen_range(0..256);
            c.insert(l, LineState::Shared);
            assert!(c.len() <= c.capacity_lines());
            // Uniqueness: collect all and check for duplicates.
            let mut seen: Vec<u64> = c.iter().map(|(a, _)| a).collect();
            let before = seen.len();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), before, "duplicate line in cache");
            assert_eq!(c.probe(l), Some(LineState::Shared));
        }
    }
}

/// Dirty evictions are reported exactly when the victim was Modified.
#[test]
fn cache_dirty_evictions_reported() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let mut c = Cache::new("prop", 512, 1, 6); // 8 direct-mapped lines
        let mut dirty_model = FastMap::default();
        let steps = rng.gen_range(1..300);
        for _ in 0..steps {
            let line = rng.gen_range(0..64);
            let write = rng.gen_bool(0.5);
            let state = if write {
                LineState::Modified
            } else {
                LineState::Shared
            };
            if let Some(ev) = c.insert(line, state) {
                let was = dirty_model.remove(&ev.line).unwrap_or(false);
                assert_eq!(ev.dirty, was, "eviction dirtiness mismatch");
            }
            // insert() may overwrite the state of an existing line.
            dirty_model.insert(line, write);
        }
    }
}

/// SegmentTable::resolve agrees with a naive linear scan.
#[test]
fn segment_resolution_matches_naive() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let geom = Geometry::default();
        let mut st = SegmentTable::new();
        let mut naive: Vec<(u64, u64, Gsid)> = Vec::new();
        let count = rng.gen_range(1..8);
        let mut sorted: Vec<u64> = (0..count).map(|_| rng.gen_range(0..64)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, &b) in sorted.iter().enumerate() {
            let base = b * 4096 * 2; // leave gaps so segments never overlap
            st.attach(base, 4096, Gsid(i as u32), &geom);
            naive.push((base, 4096, Gsid(i as u32)));
        }
        for _ in 0..64 {
            let probe = rng.gen_range(0..65 * 4096);
            let got = st.resolve(VirtAddr(probe), &geom);
            let expect = naive
                .iter()
                .find(|&&(b, l, _)| probe >= b && probe < b + l)
                .map(|&(b, _, g)| GlobalPage::new(g, ((probe - b) / 4096) as u32));
            assert_eq!(got, expect);
        }
    }
}

/// Frame pools conserve frames: free + live == total, and allocation
/// statistics equal the number of allocation events.
#[test]
fn frame_pool_conservation() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let mut pool = FramePool::new(16);
        let mut live: Vec<FrameNo> = Vec::new();
        let mut allocs = 0u64;
        let steps = rng.gen_range(1..200);
        for _ in 0..steps {
            if rng.gen_bool(0.5) {
                if let Some(f) = pool.alloc(FrameClass::Local) {
                    live.push(f);
                    allocs += 1;
                }
            } else if let Some(f) = live.pop() {
                pool.free(f);
            }
            assert_eq!(pool.free_real() + live.len(), 16);
        }
        assert_eq!(pool.stats().local, allocs);
    }
}

/// Utilization is always within [0, 1].
#[test]
fn utilization_is_a_fraction() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let mut u = UsageTracker::new(64);
        for f in 0..8u32 {
            u.on_alloc(FrameNo(f));
        }
        let touches = rng.gen_range(0..200);
        for _ in 0..touches {
            u.touch(FrameNo(rng.gen_range(0..8) as u32), rng.gen_index(64));
        }
        let (n, util) = u.finalize();
        assert_eq!(n, 8);
        assert!((0.0..=1.0).contains(&util));
    }
}

fn arb_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(0..6) {
        0 => Op::Read(VirtAddr(rng.next_u64())),
        1 => Op::Write(VirtAddr(rng.next_u64())),
        2 => Op::Compute(rng.next_u64() as u32),
        3 => Op::Barrier(rng.next_u64() as u32),
        4 => Op::Lock(rng.next_u64() as u32),
        _ => Op::Unlock(rng.next_u64() as u32),
    }
}

fn arb_lanes(
    rng: &mut SimRng,
    lanes: std::ops::Range<u64>,
    ops: std::ops::Range<u64>,
) -> Vec<Vec<Op>> {
    let n = rng.gen_range(lanes.start..lanes.end);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(ops.start..ops.end);
            (0..len).map(|_| arb_op(rng)).collect()
        })
        .collect()
}

/// PRTR serialization round-trips arbitrary traces exactly.
#[test]
fn trace_io_round_trips() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let name: String = (0..rng.gen_range(0..33))
            .map(|_| (b'a' + rng.gen_index(26) as u8) as char)
            .collect();
        let segments = (0..rng.gen_range(0..4))
            .map(|i| SegmentSpec {
                name: format!("seg{i}"),
                va_base: rng.next_u64(),
                bytes: rng.next_u64(),
            })
            .collect::<Vec<_>>();
        let lanes = arb_lanes(&mut rng, 0..6, 1..64);
        let trace = Trace {
            name,
            segments,
            lanes,
        };
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write");
        let back = read_trace(&mut buf.as_slice()).expect("read");
        assert_eq!(back.name, trace.name);
        assert_eq!(back.segments, trace.segments);
        assert_eq!(back.lanes, trace.lanes);
    }
}

/// Any single-byte corruption is detected (checksum, tag, or length
/// validation) — never silently misparsed into a "valid" trace that
/// differs from the original.
#[test]
fn trace_io_detects_any_single_flip() {
    for seed in 0..CASES * 4 {
        let mut rng = SimRng::new(seed);
        let lanes = arb_lanes(&mut rng, 1..3, 1..16);
        let trace = Trace {
            name: "t".into(),
            segments: vec![],
            lanes,
        };
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write");
        let pos = rng.gen_index(buf.len());
        let bit = rng.gen_range(0..8) as u8;
        buf[pos] ^= 1 << bit;
        match read_trace(&mut buf.as_slice()) {
            Err(_) => {} // detected: good
            Ok(back) => {
                // The only undetectable flip would have to reproduce the
                // same content; anything else is a checksum failure.
                assert_eq!(back.lanes, trace.lanes);
                assert_eq!(back.name, trace.name);
            }
        }
    }
}
