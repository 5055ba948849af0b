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
use prism_mem::tlb::Tlb;
use prism_mem::trace::{Op, OpLane, SegmentSpec, Trace, LANE_VA_LIMIT};
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
        let (n, util) = u.snapshot();
        assert_eq!(n, 8);
        assert!((0.0..=1.0).contains(&util));
    }
}

/// True-LRU reference model of one cache: per set, the resident
/// `(line, state)` pairs from least to most recently used.
struct LruCacheModel {
    sets: Vec<Vec<(u64, LineState)>>,
    assoc: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

impl LruCacheModel {
    fn set(&mut self, line: u64) -> &mut Vec<(u64, LineState)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn pos(&mut self, line: u64) -> Option<usize> {
        self.set(line).iter().position(|&(l, _)| l == line)
    }

    fn touch(&mut self, line: u64) -> Option<LineState> {
        match self.pos(line) {
            Some(i) => {
                let way = self.set(line).remove(i);
                self.set(line).push(way);
                self.hits += 1;
                Some(way.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, line: u64, state: LineState) -> Option<(u64, bool)> {
        if let Some(i) = self.pos(line) {
            self.set(line).remove(i);
            self.set(line).push((line, state));
            return None;
        }
        let assoc = self.assoc;
        let set = self.set(line);
        let evicted = (set.len() == assoc).then(|| set.remove(0));
        set.push((line, state));
        evicted.map(|(l, st)| {
            self.evictions += 1;
            if st.is_dirty() {
                self.writebacks += 1;
            }
            (l, st.is_dirty())
        })
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.pos(line)?;
        Some(self.set(line).remove(i).1.is_dirty())
    }

    fn modify(&mut self, line: u64, f: impl FnOnce(&mut LineState)) -> Option<LineState> {
        let i = self.pos(line)?;
        let way = &mut self.set(line)[i];
        let before = way.1;
        f(&mut way.1);
        Some(before)
    }

    fn probe(&mut self, line: u64) -> Option<LineState> {
        let i = self.pos(line)?;
        Some(self.set(line)[i].1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

fn arb_state(rng: &mut SimRng) -> LineState {
    [LineState::Modified, LineState::Exclusive, LineState::Shared][rng.gen_index(3)]
}

/// The flat-set cache agrees with a per-set true-LRU list model on every
/// operation's result, on eviction victims and their dirtiness, and on
/// occupancy and statistics, across associativities 1, 2, 4 and 8.
#[test]
fn cache_matches_true_lru_model() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let assoc = 1 << rng.gen_range(0..4);
        let sets = 1 << rng.gen_range(0..4);
        let mut c = Cache::new("prop", (sets * assoc * 64) as u64, assoc, 6);
        let mut m = LruCacheModel {
            sets: vec![Vec::new(); sets],
            assoc,
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
        };
        // Enough distinct lines to overflow every set several times.
        let span = (sets * assoc * 3) as u64;
        for _ in 0..rng.gen_range(1..600) {
            let line = rng.gen_range(0..span);
            match rng.gen_range(0..7) {
                0 | 1 => assert_eq!(c.touch(line), m.touch(line)),
                2 | 3 => {
                    let st = arb_state(&mut rng);
                    let got = c.insert(line, st).map(|e| (e.line, e.dirty));
                    assert_eq!(got, m.insert(line, st), "insert {line}");
                }
                4 => {
                    if m.probe(line).is_some() {
                        let st = arb_state(&mut rng);
                        c.set_state(line, st);
                        m.modify(line, |s| *s = st);
                    }
                    assert_eq!(c.invalidate(line), m.invalidate(line));
                }
                5 => {
                    let want = m
                        .modify(line, |s| *s = LineState::Shared)
                        .map(|before| before.is_dirty());
                    assert_eq!(c.downgrade(line), want);
                }
                _ => {
                    let count = rng.gen_range(1..8);
                    let want: Vec<(u64, bool)> = (line..line + count)
                        .filter_map(|l| m.invalidate(l).map(|d| (l, d)))
                        .collect();
                    assert_eq!(c.invalidate_range(line, count), want);
                }
            }
            let probe = rng.gen_range(0..span);
            assert_eq!(c.probe(probe), m.probe(probe), "probe {probe}");
            assert_eq!(c.len(), m.len());
            let s = c.stats();
            assert_eq!(
                (s.hits, s.misses, s.evictions, s.writebacks),
                (m.hits, m.misses, m.evictions, m.writebacks)
            );
        }
        let mut got: Vec<_> = c.iter().collect();
        let mut want: Vec<_> = m.sets.iter().flatten().copied().collect();
        got.sort_unstable_by_key(|&(l, _)| l);
        want.sort_unstable_by_key(|&(l, _)| l);
        assert_eq!(got, want);
    }
}

/// The hinted TLB agrees with an LRU list model, including lookups
/// after an `invalidate` has moved an entry under a stale hint, after a
/// `flush`, and at capacities 1, 4 and 64.
#[test]
fn tlb_matches_lru_model() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let capacity = [1, 4, 64][rng.gen_index(3)];
        let mut tlb = Tlb::new(capacity);
        // Least to most recently used.
        let mut model: Vec<(u64, FrameNo)> = Vec::new();
        let (mut hits, mut misses) = (0, 0);
        // Spans past the hint table's size, so hints collide.
        let span = rng.gen_range(2..(capacity as u64 * 16).max(8));
        for _ in 0..rng.gen_range(1..800) {
            let vpage = rng.gen_range(0..span);
            let pos = model.iter().position(|&(v, _)| v == vpage);
            match rng.gen_range(0..10) {
                0..=4 => {
                    let want = pos.map(|i| {
                        let e = model.remove(i);
                        model.push(e);
                        e.1
                    });
                    if want.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    assert_eq!(tlb.lookup(vpage), want, "lookup {vpage}");
                }
                5..=7 => {
                    let frame = FrameNo(rng.next_u32() >> 1);
                    tlb.insert(vpage, frame);
                    if let Some(i) = pos {
                        model.remove(i);
                    } else if model.len() == capacity {
                        model.remove(0);
                    }
                    model.push((vpage, frame));
                }
                8 => {
                    assert_eq!(tlb.invalidate(vpage), pos.is_some());
                    if let Some(i) = pos {
                        model.remove(i);
                    }
                }
                _ => {
                    if rng.gen_bool(0.2) {
                        tlb.flush();
                        model.clear();
                    }
                }
            }
            assert_eq!(tlb.len(), model.len());
            assert_eq!((tlb.hits(), tlb.misses()), (hits, misses));
        }
    }
}

/// The dense usage tracker agrees with a per-instance model: touches of
/// imaginary or freed frames count nowhere, a re-allocated frame starts
/// with an empty mask, and a snapshot counts open instances as they
/// stand without closing them.
#[test]
fn usage_tracker_matches_instance_model() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let lpp = [4, 64, 128][rng.gen_index(3)];
        let mut u = UsageTracker::new(lpp);
        let mut live: FastMap<u32, Vec<bool>> = FastMap::default();
        let (mut instances, mut touched) = (0u64, 0u64);
        for _ in 0..rng.gen_range(1..400) {
            let f = rng.gen_range(0..12) as u32;
            match rng.gen_range(0..6) {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = live.entry(f) {
                        u.on_alloc(FrameNo(f));
                        e.insert(vec![false; lpp]);
                    }
                }
                1 => {
                    u.on_free(FrameNo(f));
                    if let Some(mask) = live.remove(&f) {
                        instances += 1;
                        touched += mask.iter().filter(|&&t| t).count() as u64;
                    }
                }
                2 => {
                    // Imaginary frames are never tracked.
                    u.on_alloc(FrameNo::imaginary(f));
                    u.touch(FrameNo::imaginary(f), rng.gen_index(lpp));
                }
                _ => {
                    let line = rng.gen_index(lpp);
                    u.touch(FrameNo(f), line);
                    if let Some(mask) = live.get_mut(&f) {
                        mask[line] = true;
                    }
                }
            }
            let open: u64 = live
                .values()
                .map(|m| m.iter().filter(|&&t| t).count() as u64)
                .sum();
            let n = instances + live.len() as u64;
            let want = if n == 0 {
                0.0
            } else {
                (touched + open) as f64 / (n * lpp as u64) as f64
            };
            assert_eq!(u.snapshot(), (n, want));
        }
    }
}

/// A random address: most fall in one of four 2^28-byte windows (an op
/// lane holds two, so the others spill), the rest anywhere below 2^61,
/// with window edges and the top address drawn often.
fn arb_va(rng: &mut SimRng) -> VirtAddr {
    const WINDOWS: [u64; 4] = [1 << 32, 0x7000_0000_0000, 0x7000_1000_0000, 0];
    const SPAN: u64 = 1 << 28;
    VirtAddr(match rng.gen_range(0..8) {
        0 => rng.next_u64() % LANE_VA_LIMIT,
        1 => LANE_VA_LIMIT - 1,
        2 => WINDOWS[rng.gen_index(4)] + SPAN - 1,
        3 => WINDOWS[rng.gen_index(4)],
        _ => WINDOWS[rng.gen_index(4)] + rng.next_u64() % SPAN,
    })
}

/// A random 32-bit op argument: small, at the 2^29 edge, large, or
/// `u32::MAX`.
fn arb_value(rng: &mut SimRng) -> u32 {
    match rng.gen_range(0..6) {
        0 => u32::MAX,
        1 => (1 << 29) - 1,
        2 => 1 << 29,
        3 => rng.next_u64() as u32,
        _ => rng.gen_range(0..1000) as u32,
    }
}

/// A random op; addresses and values cover everything an op lane can
/// hold, inline and spilled.
fn arb_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(0..6) {
        0 => Op::Read(arb_va(rng)),
        1 => Op::Write(arb_va(rng)),
        2 => Op::Compute(arb_value(rng)),
        3 => Op::Barrier(arb_value(rng)),
        4 => Op::Lock(arb_value(rng)),
        _ => Op::Unlock(arb_value(rng)),
    }
}

/// An op lane holds exactly the ops pushed into it: `push`, `from`,
/// `iter`, `get`, `Eq` and `Debug` agree with the `Vec<Op>` it was
/// built from, and a PRTR write and read gives the lane back.
#[test]
fn op_lane_round_trips_random_ops() {
    let mut spilled = 0;
    for seed in 0..CASES * 4 {
        let mut rng = SimRng::new(seed);
        let ops: Vec<Op> = (0..rng.gen_range(0..200))
            .map(|_| arb_op(&mut rng))
            .collect();
        let lane = OpLane::from(ops.clone());
        let mut pushed = OpLane::new();
        for &op in &ops {
            pushed.push(op);
        }
        assert_eq!(pushed, lane);
        assert_eq!(lane.len(), ops.len());
        assert_eq!(lane.is_empty(), ops.is_empty());
        assert_eq!(lane.iter().map(|op| *op).collect::<Vec<_>>(), ops);
        assert_eq!(lane.iter().size_hint(), (ops.len(), Some(ops.len())));
        for (pc, &op) in ops.iter().enumerate() {
            assert_eq!(lane.get(pc), Some(op));
        }
        assert_eq!(lane.get(ops.len()), None);
        assert_eq!(format!("{lane:?}"), format!("{ops:?}"));
        spilled += lane.spilled();

        // Equal lanes hold equal ops: change one op, or drop the last.
        if !ops.is_empty() {
            let mut other = ops.clone();
            let at = rng.gen_index(ops.len());
            other[at] = arb_op(&mut rng);
            assert_eq!(OpLane::from(other.clone()) == lane, other == ops);
            assert_ne!(OpLane::from(ops[..ops.len() - 1].to_vec()), lane);
        }

        let trace = Trace {
            name: "lane".into(),
            segments: vec![],
            lanes: vec![lane.clone()],
        };
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("write");
        let back = read_trace(&mut buf.as_slice()).expect("read");
        assert_eq!(back.lanes, vec![lane]);
    }
    assert!(spilled > 0, "the cases never reach the side table");
}

fn arb_lanes(
    rng: &mut SimRng,
    lanes: std::ops::Range<u64>,
    ops: std::ops::Range<u64>,
) -> Vec<OpLane> {
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
