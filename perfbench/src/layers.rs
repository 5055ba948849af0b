//! Per-structure timings for the traced run.
//!
//! Each unit's own trace is turned into a lane-interleaved address
//! stream, which is replayed through the public `prism-mem` and
//! `prism-protocol` structures the access path and the home controller
//! use: the L1 cache, the TLB, the page table, the directory cache, the
//! PIT and the directory-protocol transition. The timings come from
//! outside the simulator, so they move only when the structure itself
//! gets faster or slower.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use prism_core::mem::addr::{FrameNo, GlobalLine, GlobalPage, Gsid, NodeId};
use prism_core::mem::cache::{Cache, LineState};
use prism_core::mem::directory::{DirCache, LineDir};
use prism_core::mem::page_table::{PageTable, Pte, SegmentTable};
use prism_core::mem::pit::{Pit, PitEntry};
use prism_core::mem::tags::LineTag;
use prism_core::mem::tlb::Tlb;
use prism_core::mem::trace::{Op, Trace};
use prism_core::mem::FrameMode;
use prism_core::protocol::{transition, ReqKind};
use prism_core::MachineConfig;

/// One reference of the replayed stream.
#[derive(Clone, Copy, Debug)]
struct Ref {
    /// Processor (lane) that issued it.
    proc: usize,
    /// Its node.
    node: usize,
    /// Virtual address.
    va: u64,
    write: bool,
    /// Dense index of its global line and page; `None` for private
    /// addresses, which never reach the directory.
    shared: Option<(usize, usize)>,
}

/// A replayable stream plus the dense tables the structures are keyed by.
#[derive(Debug)]
pub struct Stream {
    refs: Vec<Ref>,
    lines: Vec<GlobalLine>,
    pages: Vec<GlobalPage>,
    procs: usize,
}

/// Builds a stream of at most `max_refs` references from `trace`,
/// taking them round-robin across its lanes.
pub fn stream(trace: &Trace, cfg: &MachineConfig, max_refs: usize) -> Stream {
    let geom = cfg.geometry;
    let mut segs = SegmentTable::new();
    for (gsid, seg) in (0u32..).zip(&trace.segments) {
        let bytes = geom.pages_for(seg.bytes) * geom.page_bytes();
        segs.attach(seg.va_base, bytes, Gsid(gsid), &geom);
    }
    let mut lanes: Vec<_> = trace.lanes.iter().map(|l| l.iter()).collect();
    let procs = lanes.len();
    let ppn = (procs / cfg.nodes).max(1);
    let mut line_ids = HashMap::new();
    let mut page_ids = HashMap::new();
    let (mut lines, mut pages) = (Vec::new(), Vec::new());
    let mut refs = Vec::with_capacity(max_refs);
    let mut live = true;
    while live && refs.len() < max_refs {
        live = false;
        for (proc, ops) in lanes.iter_mut().enumerate() {
            let Some((va, write)) = ops.find_map(|op| match *op {
                Op::Read(va) => Some((va, false)),
                Op::Write(va) => Some((va, true)),
                _ => None,
            }) else {
                continue;
            };
            live = true;
            let shared = segs.resolve(va, &geom).map(|gp| {
                let gl = gp.line(geom.line_in_page(va.0));
                let next = lines.len();
                let line = *line_ids.entry(gl).or_insert_with(|| {
                    lines.push(gl);
                    next
                });
                let next = pages.len();
                let page = *page_ids.entry(gp).or_insert_with(|| {
                    pages.push(gp);
                    next
                });
                (line, page)
            });
            refs.push(Ref {
                proc,
                node: (proc / ppn).min(cfg.nodes - 1),
                va: va.0,
                write,
                shared,
            });
            if refs.len() == max_refs {
                break;
            }
        }
    }
    Stream {
        refs,
        lines,
        pages,
        procs,
    }
}

/// Host time spent on a number of operations of one structure.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    /// Nanoseconds.
    pub ns: f64,
    /// Operations.
    pub ops: usize,
}

impl Timing {
    fn since(start: Instant, ops: usize) -> Timing {
        Timing {
            ns: start.elapsed().as_nanos() as f64,
            ops,
        }
    }

    /// Nanoseconds per operation (0 when nothing ran).
    pub fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }

    fn add(&mut self, other: Timing) {
        self.ns += other.ns;
        self.ops += other.ops;
    }
}

/// Time spent in each replayed structure.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// `Cache::touch` on the issuing processor's L1 (plus `insert` on a
    /// miss), per reference.
    pub cache_touch: Timing,
    /// `Tlb::lookup` (plus `insert` on a miss), per reference.
    pub tlb_lookup: Timing,
    /// `PageTable::lookup` on the issuing node's table, per reference.
    pub page_table_lookup: Timing,
    /// `DirCache::probe` at the page's home, per shared reference.
    pub dir_cache_probe: Timing,
    /// `Pit::translate` on the issuing node, per shared reference.
    pub pit_translate: Timing,
    /// `dirproto::transition`, per shared reference that needs the home.
    pub transition: Timing,
}

impl LayerTimes {
    /// Adds another replay's times to these.
    pub fn add(&mut self, other: &LayerTimes) {
        self.cache_touch.add(other.cache_touch);
        self.tlb_lookup.add(other.tlb_lookup);
        self.page_table_lookup.add(other.page_table_lookup);
        self.dir_cache_probe.add(other.dir_cache_probe);
        self.pit_translate.add(other.pit_translate);
        self.transition.add(other.transition);
    }
}

/// Replays `s` through every structure once.
pub fn replay(s: &Stream, cfg: &MachineConfig) -> LayerTimes {
    let geom = cfg.geometry;
    let line_log2 = geom.line_log2();
    let shared = || s.refs.iter().filter_map(|r| r.shared.map(|sh| (r, sh)));
    let shared_count = shared().count();
    let home = |page: usize| s.pages[page].page as usize % cfg.nodes;
    let mut out = LayerTimes::default();

    let mut l1: Vec<Cache> = (0..s.procs)
        .map(|_| Cache::new("L1", cfg.l1_bytes, cfg.l1_assoc, line_log2))
        .collect();
    let t = Instant::now();
    for r in &s.refs {
        let c = &mut l1[r.proc];
        let line = r.va >> line_log2;
        if c.touch(black_box(line)).is_none() {
            let state = if r.write {
                LineState::Modified
            } else {
                LineState::Shared
            };
            black_box(c.insert(line, state));
        }
    }
    out.cache_touch = Timing::since(t, s.refs.len());

    let mut tlbs: Vec<Tlb> = (0..s.procs).map(|_| Tlb::new(cfg.tlb_entries)).collect();
    let t = Instant::now();
    for r in &s.refs {
        let vpage = geom.vpage(prism_core::mem::addr::VirtAddr(r.va));
        let tlb = &mut tlbs[r.proc];
        if tlb.lookup(black_box(vpage)).is_none() {
            tlb.insert(vpage, FrameNo(vpage as u32));
        }
    }
    out.tlb_lookup = Timing::since(t, s.refs.len());

    let mut tables: Vec<PageTable> = (0..cfg.nodes).map(|_| PageTable::new()).collect();
    for r in &s.refs {
        let vpage = r.va >> geom.page_log2();
        if tables[r.node].lookup(vpage).is_none() {
            let pte = Pte {
                frame: FrameNo(vpage as u32),
                mode: FrameMode::Scoma,
            };
            tables[r.node].map(vpage, pte);
        }
    }
    let t = Instant::now();
    for r in &s.refs {
        black_box(tables[r.node].lookup(black_box(r.va >> geom.page_log2())));
    }
    out.page_table_lookup = Timing::since(t, s.refs.len());

    let mut dir_caches: Vec<DirCache> = (0..cfg.nodes)
        .map(|_| DirCache::new(cfg.dir_cache_entries, cfg.dir_cache_assoc))
        .collect();
    let t = Instant::now();
    for (_, (line, page)) in shared() {
        black_box(dir_caches[home(page)].probe(black_box(s.lines[line])));
    }
    out.dir_cache_probe = Timing::since(t, shared_count);

    // Each node binds a frame to every shared page it touches, in first-
    // touch order, as its kernel would.
    let mut pits: Vec<Pit> = (0..cfg.nodes)
        .map(|_| Pit::new(cfg.frames_per_node))
        .collect();
    let mut frame_of: HashMap<(usize, usize), FrameNo> = HashMap::new();
    let mut next = vec![0u32; cfg.nodes];
    for (r, (_, page)) in shared() {
        frame_of.entry((r.node, page)).or_insert_with(|| {
            let f = FrameNo(next[r.node]);
            next[r.node] += 1;
            let entry =
                PitEntry::shared(s.pages[page], FrameMode::Scoma, NodeId(home(page) as u16));
            pits[r.node].insert(f, entry);
            f
        });
    }
    let frames: Vec<FrameNo> = shared()
        .map(|(r, (_, page))| frame_of[&(r.node, page)])
        .collect();
    let t = Instant::now();
    for ((r, _), &f) in shared().zip(&frames) {
        black_box(pits[r.node].translate(black_box(f)));
    }
    out.pit_translate = Timing::since(t, shared_count);

    let mut dir = vec![LineDir::Uncached; s.lines.len()];
    let mut calls = 0usize;
    let t = Instant::now();
    for (r, (line, _)) in shared() {
        let node = NodeId(r.node as u16);
        let cur = dir[line];
        let has_copy = cur.holders().contains(node);
        if matches!(cur, LineDir::Owned(o) if o == node) || (has_copy && !r.write) {
            continue; // satisfied without the home
        }
        let kind = if r.write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        let outcome = transition(
            black_box(cur),
            LineTag::Invalid,
            false,
            node,
            kind,
            has_copy,
        );
        dir[line] = black_box(outcome).new_state;
        calls += 1;
    }
    out.transition = Timing::since(t, calls);
    out
}
