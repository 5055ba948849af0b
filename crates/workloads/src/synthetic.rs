//! Synthetic access patterns for tests, examples, and ablations.

use prism_mem::addr::VirtAddr;
use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism_sim::SimRng;

use crate::common::{finish_trace, BarrierIds, Lane, Layout, Workload};

/// A configurable synthetic workload.
#[derive(Clone, Debug)]
pub struct Synthetic {
    kind: Kind,
    procs_hint: usize,
    bytes: u64,
    refs_per_proc: usize,
    seed: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Uniform,
    Migratory,
    ProducerConsumer,
    PrivateOnly,
}

impl Synthetic {
    /// Uniformly random reads/writes (2:1) over `bytes` of shared data.
    pub fn uniform(procs_hint: usize, bytes: u64, refs_per_proc: usize) -> Synthetic {
        Synthetic {
            kind: Kind::Uniform,
            procs_hint,
            bytes,
            refs_per_proc,
            seed: 12345,
        }
    }

    /// Migratory sharing: the whole machine takes turns owning a hot
    /// region, writing it heavily — the pattern lazy home migration
    /// targets (paper §3.5).
    pub fn migratory(procs_hint: usize, bytes: u64, refs_per_proc: usize) -> Synthetic {
        Synthetic {
            kind: Kind::Migratory,
            procs_hint,
            bytes,
            refs_per_proc,
            seed: 12345,
        }
    }

    /// Processor 0 produces, everyone else consumes after a barrier.
    pub fn producer_consumer(procs_hint: usize, bytes: u64, refs_per_proc: usize) -> Synthetic {
        Synthetic {
            kind: Kind::ProducerConsumer,
            procs_hint,
            bytes,
            refs_per_proc,
            seed: 12345,
        }
    }

    /// Node-private streaming only (no coherence traffic at all).
    pub fn private_only(procs_hint: usize, bytes: u64, refs_per_proc: usize) -> Synthetic {
        Synthetic {
            kind: Kind::PrivateOnly,
            procs_hint,
            bytes,
            refs_per_proc,
            seed: 12345,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Synthetic {
        self.seed = seed;
        self
    }
}

impl Workload for Synthetic {
    fn name(&self) -> String {
        format!("synthetic-{:?}", self.kind).to_lowercase()
    }

    fn description(&self) -> String {
        format!(
            "{:?} synthetic pattern over {} KiB, {} refs/processor",
            self.kind,
            self.bytes / 1024,
            self.refs_per_proc
        )
    }

    fn generate(&self, procs: usize) -> Trace {
        let _ = self.procs_hint;
        let mut layout = Layout::new();
        let mut rng = SimRng::new(self.seed);
        let mut lanes: Vec<Lane> = (0..procs).map(Lane::new).collect();
        let mut barriers = BarrierIds::new();

        match self.kind {
            Kind::Uniform => {
                let data = layout.array("uniform", self.bytes, 1);
                for (p, lane) in lanes.iter_mut().enumerate() {
                    let mut prng = rng.fork(p as u64);
                    for _ in 0..self.refs_per_proc {
                        let va = data.at(prng.gen_range(0..self.bytes));
                        if prng.gen_bool(1.0 / 3.0) {
                            lane.write(va);
                        } else {
                            lane.read(va);
                        }
                        lane.compute(2);
                    }
                }
            }
            Kind::Migratory => {
                let data = layout.array("migratory", self.bytes, 1);
                let turns = 4usize;
                let per_turn = self.refs_per_proc / turns;
                for turn in 0..turns {
                    // Spread the owning processor across the machine so
                    // ownership genuinely migrates between nodes.
                    let owner_group = (turn * procs / turns) % procs;
                    for (p, lane) in lanes.iter_mut().enumerate() {
                        if p == owner_group {
                            let mut prng = rng.fork((turn * procs + p) as u64);
                            for _ in 0..per_turn * procs {
                                let va = data.at(prng.gen_range(0..self.bytes));
                                lane.update(va);
                                lane.compute(2);
                            }
                        }
                    }
                    let b = barriers.fresh();
                    for lane in &mut lanes {
                        lane.barrier(b);
                    }
                }
            }
            Kind::ProducerConsumer => {
                let data = layout.array("prodcons", self.bytes, 1);
                let lines = self.bytes / 64;
                for i in 0..lines.min(self.refs_per_proc as u64) {
                    lanes[0].write(data.at(i * 64));
                }
                let b = barriers.fresh();
                for lane in &mut lanes {
                    lane.barrier(b);
                }
                for (p, lane) in lanes.iter_mut().enumerate() {
                    if p == 0 {
                        continue;
                    }
                    for i in 0..lines.min(self.refs_per_proc as u64) {
                        lane.read(data.at(i * 64));
                        lane.compute(1);
                    }
                }
            }
            Kind::PrivateOnly => {
                for (p, lane) in lanes.iter_mut().enumerate() {
                    let mut prng = rng.fork(p as u64);
                    for _ in 0..self.refs_per_proc {
                        let off = prng.gen_range(0..self.bytes);
                        if prng.gen_bool(0.25) {
                            lane.private_write(off);
                        } else {
                            lane.private_read(off);
                        }
                    }
                    let _ = p;
                }
            }
        }
        let trace = finish_trace(&self.name(), layout, lanes);
        Trace {
            name: self.name(),
            ..trace
        }
    }
}

/// The one-page home-failover scenario, for a machine of 4 nodes × 2
/// processors with lazy migration on. The page's static home is node 0.
///
/// 1. Node 2 (lane 4) writes every line, faulting the page in.
/// 2. Node 1 (lane 2) reads every line, downgrading node 2's copies.
/// 3. Node 2 writes every line again. By the page's 192nd request node 2
///    holds 2/3 of its traffic, and the default migration policy moves
///    the dynamic home to node 2.
/// 4. With `dirty` off, node 1 reads every line again, healing its stale
///    home hint and leaving the image at node 2 clean. With `dirty` on,
///    node 2, now the home, writes every line, so all 64 stay Modified
///    in its processor caches.
/// 5. Every lane computes for 2,000,000 cycles in one `Compute` op.
/// 6. Node 3 (lane 6), a stranger to the page, reads every line through
///    the static home.
///
/// A barrier follows each of steps 1–5. Faults strike only between
/// ops, so a node failure planned inside the step-5 pad fires at the
/// first pick after the pad ends, right before the barrier that
/// releases step 6.
pub fn failover_trace(dirty: bool) -> Trace {
    const LINES: u64 = 64; // 4 KiB page / 64 B lines
    let sweep = |lane: &mut Vec<Op>, write: bool| {
        for l in 0..LINES {
            let va = VirtAddr(SHARED_BASE + l * 64);
            lane.push(if write { Op::Write(va) } else { Op::Read(va) });
        }
    };
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    let phases = [
        (4, true),
        (2, false),
        (4, true),
        if dirty { (4, true) } else { (2, false) },
    ];
    for (id, (lane, write)) in phases.into_iter().enumerate() {
        sweep(&mut lanes[lane], write);
        for lane in &mut lanes {
            lane.push(Op::Barrier(id as u32));
        }
    }
    for lane in &mut lanes {
        lane.push(Op::Compute(2_000_000));
        lane.push(Op::Barrier(4));
    }
    sweep(&mut lanes[6], false);
    Trace {
        name: if dirty { "dirty-failover" } else { "failover" }.into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::addr::Geometry;
    use prism_mem::trace::Op;

    #[test]
    fn all_kinds_generate_valid_traces() {
        for w in [
            Synthetic::uniform(4, 8192, 100),
            Synthetic::migratory(4, 8192, 100),
            Synthetic::producer_consumer(4, 8192, 100),
            Synthetic::private_only(4, 8192, 100),
        ] {
            let t = w.generate(4);
            t.validate(&Geometry::default()).expect("valid");
            assert!(t.total_ops() > 0, "{}", w.name());
        }
    }

    #[test]
    fn private_only_touches_no_shared_memory() {
        let t = Synthetic::private_only(2, 4096, 50).generate(2);
        assert!(t.segments.is_empty());
        for lane in &t.lanes {
            for op in lane {
                if let Op::Read(va) | Op::Write(va) = *op {
                    assert!(va.0 >= prism_mem::trace::PRIVATE_BASE);
                }
            }
        }
    }

    #[test]
    fn producer_writes_before_consumers_read() {
        let t = Synthetic::producer_consumer(3, 4096, 1000).generate(3);
        assert!(matches!(t.lanes[0].get(0).unwrap(), Op::Write(_)));
        // Consumers start with the barrier.
        assert!(matches!(t.lanes[1].get(0).unwrap(), Op::Barrier(_)));
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = Synthetic::uniform(2, 4096, 100).with_seed(9).generate(2);
        let b = Synthetic::uniform(2, 4096, 100).with_seed(9).generate(2);
        assert_eq!(a.lanes, b.lanes);
    }
}
