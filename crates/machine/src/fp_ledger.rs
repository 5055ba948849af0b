//! Footprint ledger: persistent per-processor window cursors plus a
//! page-level footprint memo, so epoch formation cost is incremental in
//! what *changed* since the last attempt rather than linear in window
//! length every time.
//!
//! # Why
//!
//! The parallel scheduler ([`crate::par`]) forms an epoch by scanning
//! each runnable processor's upcoming trace window and computing the
//! [`NodeSet`] its operations can touch. Before this ledger existed the
//! scan re-derived every page's destination set from scratch on every
//! epoch attempt — and a *rejected* attempt (conflict, insufficient
//! parallelism) threw all of that work away, only to redo it verbatim a
//! few picks later. Worse, the footprint helpers had to be so
//! conservative about mutable routing state (migration targets, LA-NUMA
//! write-back owners, page-cache eviction victims) that entire
//! configurations were declared structurally ineligible.
//!
//! The ledger flips that around:
//!
//! * [`WindowCursor`] — one per processor — remembers the window the
//!   last scan covered, the footprint it computed, how it truncated
//!   (sync op, window cap, or lane end), and the `(pc, clock)`
//!   watermark the scan started from. A later request at the same
//!   watermark reuses the whole scan; a request whose watermark drifted
//!   *forward but stayed inside the window* **slides** the cursor:
//!   the already-executed prefix is retired (its page contributions
//!   subtracted by recomputing the footprint over the surviving
//!   `(node, vpage)` deps only), the suffix is extended by scanning
//!   just the newly visible operations, and the cursor rewatermarks in
//!   place — O(delta) instead of O(window).
//! * A `(node, vpage)` memo caches each page's *contribution* to a
//!   footprint (home, dynamic home, sharers, migration targets …) so
//!   even a cold cursor rebuilds cheaply from warm pages. Each entry
//!   carries its own **generation**: invalidation bumps the generation
//!   and marks the entry stale in place, so staleness is discovered
//!   lazily — by the cursor that actually depends on the page — rather
//!   than by scanning every cursor at event time.
//! * A per-node cached *closure* (the node-local fill footprint:
//!   LA-NUMA write-back owners and page-cache eviction victims) with
//!   the member pages whose homes it embeds, behind a per-node
//!   generation counter.
//!
//! Entries are invalidated **precisely** — by the events that can
//! actually change a page's destination set, reported through the
//! observability bus as [`CursorInval`] events (directory state
//! transitions that add a sharer, migration / re-mastering, home
//! failover, PIT corruption, page-cache eviction, LA-NUMA write-back).
//! Everything else leaves the memo warm. Because memo generations are
//! sharded per `(node, vpage)` and closure invalidations carry whether
//! the member set *grew*, a destination-set change on one page no
//! longer cold-starts every cursor on the node: only cursors whose
//! surviving window actually depends on the changed page rescan.
//!
//! # Soundness and exactness
//!
//! A memoized footprint may be *stale-superset* but never stale-subset:
//! every event that can grow a page's destination set emits an
//! invalidation before the growth becomes visible to routing, and the
//! footprint helpers close over prospective destinations (migration
//! targets from the traffic ledger, the page-cache's current residents)
//! rather than just current ones. A superset only costs parallelism
//! (two groups conflict that need not have), never determinism.
//!
//! A **slide is exact**: the `(window, footprint, trunc_at)` it serves
//! is bitwise what a fresh scan from the new watermark would compute.
//! Retirement cannot under-approximate because the footprint is not
//! subtracted bitwise (a node bit may be contributed by several pages
//! and by the closure); it is *recomputed* as the node singleton, OR
//! the fill closure (iff the surviving window still references any
//! page), OR the surviving deps' memoized contributions — each
//! generation-checked against the live memo, so a stale contribution
//! forces a full rescan instead of a wrong reuse. The suffix extension
//! replays exactly the operations a fresh scan would visit (the
//! truncation kind records *why* the window ended: a sync op and the
//! lane end never extend, only a `MAX_WINDOW` cap does), and the
//! truncation clock rebases to `clock + Σ lower-bound(remaining ops)`,
//! which is the same sum a fresh scan accumulates.

use prism_mem::addr::{NodeId, NodeSet, VirtAddr};
use prism_sim::FastMap;

use crate::obs::CursorInval;

/// How many recent deps a scan checks before falling back to the memo
/// hash map. Covers the alternating / short-stride reference patterns
/// that dominate dense kernels; anything with a longer period pays one
/// hash lookup per run boundary, exactly as before.
const DEP_LOOKBACK: usize = 4;

/// Why a scanned window ended where it did. Stored on the cursor so a
/// slide knows whether the suffix may be extended: only a window that
/// ended at the operation cap can grow; a sync op stays where it is
/// and a finished lane has nothing left.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum TruncKind {
    /// The lane ran out of trace (`trunc_at` is `None`).
    #[default]
    LaneEnd,
    /// A sync operation (barrier/lock/unlock) stopped the scan.
    Sync,
    /// The scan hit the `max_window` operation cap.
    Cap,
}

/// One operation step reported by the scan callback: what the trace
/// holds at a given pc, reduced to exactly what the ledger needs to
/// maintain a window incrementally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScanStep {
    /// The lane has no operation at this pc.
    End,
    /// A sync operation (barrier/lock/unlock) — never enters a window.
    Sync,
    /// A compute burst advancing the clock lower bound by exactly this.
    Compute(u64),
    /// A memory reference.
    Ref {
        /// The `(node, vpage)` memo key the reference contributes.
        key: (usize, u64),
        /// The referenced address, handed to the page-footprint
        /// callback on a cold or stale memo entry.
        va: VirtAddr,
        /// True when the trace-ingest bitmap marks this reference as a
        /// continuation of the previous reference's same-page run.
        same_run: bool,
    },
}

/// One `(node, vpage)` page contribution a cursor consumed, with the
/// memo generation it was read at. Deps are stored in window order and
/// `last_op` (the window-relative index of the run's final reference)
/// is strictly increasing, so retiring a prefix of the window retires a
/// prefix of the deps.
#[derive(Clone, Debug)]
struct CursorDep {
    key: (usize, u64),
    /// Memo generation at capture; a mismatch at reuse time means the
    /// page's destination set changed and the cursor must rescan.
    gen: u64,
    /// The contribution as read — kept so retirement can recompute the
    /// footprint without re-touching the memo.
    fp: NodeSet,
    /// Index (relative to the original scan start) of the last
    /// operation in this dep's reference run.
    last_op: usize,
}

/// A memoized page contribution with its sharded invalidation state.
#[derive(Clone, Debug)]
struct PageMemo {
    fp: NodeSet,
    /// Bumped (wrapping) every time the entry goes fresh→stale, so a
    /// cursor holding an old generation can never revalidate against a
    /// recomputed entry by accident.
    gen: u64,
    /// False after an invalidation event; the next reader recomputes
    /// in place (keeping the bumped generation).
    fresh: bool,
}

/// A persistent record of one processor's last trace-window scan.
///
/// The watermark is `(orig_pc + op_base, clock)`. `cum_lb[i]` is the
/// cumulative clock lower bound of operations `[0, i)` relative to the
/// original scan start; the live window is `[op_base, cum_lb.len()-1)`
/// and `deps[dep_base..]` are the page contributions it still depends
/// on. Retirement advances the bases; compaction rebases them to zero
/// once the retired prefix exceeds the window cap, keeping the arrays
/// bounded by twice the cap.
#[derive(Clone, Debug, Default)]
struct WindowCursor {
    /// False until a scan stores a window, and again after a reuse
    /// attempt finds a generation-stale dep.
    valid: bool,
    /// Node the processor lives on.
    node: usize,
    /// Value of the ledger's per-node closure generation when the
    /// footprint was last assembled.
    node_gen: u64,
    /// Trace program counter of the *original* scan start.
    orig_pc: usize,
    /// Absolute clock of the processor at the current watermark.
    clock: u64,
    /// Operations retired since the original scan.
    op_base: usize,
    /// Cumulative clock lower bounds; `len() - 1` is the total
    /// operation count scanned (retired prefix included).
    cum_lb: Vec<u64>,
    /// Page contributions in window order (`last_op` increasing).
    deps: Vec<CursorDep>,
    /// Deps `[..dep_base]` belong entirely to the retired prefix.
    dep_base: usize,
    /// Footprint of the live window.
    footprint: NodeSet,
    /// Why the window ended (drives slide extension and `trunc_at`).
    trunc: TruncKind,
    /// Ledger [`FootprintLedger::apply_seq`] value at the last time the
    /// cursor's deps were known generation-clean. Memo generations move
    /// only inside [`FootprintLedger::apply`], so an unchanged sequence
    /// proves every dep still matches without touching the memo — the
    /// O(live deps) hash walk per scan collapses to one comparison in
    /// the (overwhelmingly common) event-free stretches.
    seen_seq: u64,
}

impl WindowCursor {
    /// Total operations scanned, retired prefix included.
    fn total_ops(&self) -> usize {
        self.cum_lb.len() - 1
    }

    /// Live window length.
    fn window(&self) -> usize {
        self.total_ops() - self.op_base
    }
}

/// The machine-wide footprint ledger. Owned by [`crate::Machine`];
/// reset at the start of every parallel run loop.
#[derive(Clone, Debug, Default)]
pub(crate) struct FootprintLedger {
    /// One cursor per flat processor index.
    cursors: Vec<WindowCursor>,
    /// `(node, vpage)` → that page's contribution to a footprint
    /// beyond the node's own closure, with its sharded generation.
    /// Private pages memoize [`NodeSet::EMPTY`]. Entries persist across
    /// invalidation (marked stale in place) so generations are never
    /// lost while cursors still reference them.
    memo: FastMap<(usize, u64), PageMemo>,
    /// Cached per-node fill closure (LA-NUMA write-back owners,
    /// page-cache eviction victims) plus the shared vpages whose homes
    /// it embeds — the member list lets a `HomeMoved` invalidate only
    /// the nodes whose closure could actually reach the moved page.
    node_fp: Vec<Option<(NodeSet, Vec<u64>)>>,
    /// Per-node closure generation; bumped (wrapping) whenever the
    /// node's closure may have *grown* — shrink-only changes drop the
    /// cached value without a bump, so cursors keep their (superset)
    /// footprints and survive eviction churn.
    node_gen: Vec<u64>,
    /// Window requests served whole from an exact-watermark cursor.
    pub(crate) hits: u64,
    /// Window requests served incrementally by sliding a cursor
    /// (retire + extend + rewatermark, including pure footprint
    /// refreshes after a closure generation bump).
    pub(crate) slides: u64,
    /// Window requests that ran a full scan (cursor cold, stale, out
    /// of tolerance, or absent).
    pub(crate) misses: u64,
    /// Ledger state killed by invalidation: memo entries marked stale,
    /// closure slots dropped, and cursors discovered generation-stale
    /// at reuse time.
    pub(crate) invalidations: u64,
    /// Bumped once per non-empty [`Self::apply`] batch. Generations
    /// (memo and node) change *only* under `apply`, so a cursor whose
    /// [`WindowCursor::seen_seq`] equals this value needs no per-dep
    /// generation check at all.
    apply_seq: u64,
}

impl FootprintLedger {
    /// Clears all state and sizes the ledger for `procs` flat
    /// processors across `nodes` nodes. Counters restart from zero.
    pub(crate) fn reset(&mut self, procs: usize, nodes: usize) {
        self.cursors.clear();
        self.cursors.resize_with(procs, WindowCursor::default);
        self.memo.clear();
        self.node_fp.clear();
        self.node_fp.resize(nodes, None);
        self.node_gen.clear();
        self.node_gen.resize(nodes, 0);
        self.hits = 0;
        self.slides = 0;
        self.misses = 0;
        self.invalidations = 0;
        self.apply_seq = 0;
    }

    /// Serves one window request for processor `flat` at watermark
    /// `(node, pc, clock)`, maintaining the processor's cursor:
    ///
    /// * **hit** — the cursor sits at exactly this watermark with an
    ///   unmoved closure generation and generation-clean deps: the
    ///   stored window is returned (footprint reassembled from the
    ///   same parts, so a re-cached closure is picked up).
    /// * **slide** — the watermark drifted forward by `delta ≤
    ///   tolerance` operations but stays inside the scanned window:
    ///   the prefix retires, a capped window extends over the newly
    ///   visible suffix, and the cursor rewatermarks in place. Serves
    ///   the request at O(delta + live deps).
    /// * **miss** — anything else (including a generation-stale dep):
    ///   a full scan runs through the callbacks and replaces the
    ///   cursor.
    ///
    /// `step` describes the operation at an absolute trace pc,
    /// `page_compute` derives a page's destination-set contribution,
    /// and `closure_compute` derives the node's fill closure plus the
    /// member vpages it embeds. All three are consulted only as needed;
    /// results land in the memo under sharded generations. The result
    /// `(window, footprint, trunc_at)` is bitwise identical to what a
    /// fresh scan at the same watermark would return (see module docs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan(
        &mut self,
        flat: usize,
        node: usize,
        pc: usize,
        clock: u64,
        l1: u64,
        max_window: usize,
        tolerance: u64,
        closure_compute: impl FnOnce() -> (NodeSet, Vec<u64>),
        mut step: impl FnMut(usize) -> ScanStep,
        mut page_compute: impl FnMut(VirtAddr) -> NodeSet,
    ) -> (usize, NodeSet, Option<u64>) {
        let cur_gen = self.node_gen.get(node).copied().unwrap_or(0);
        let mut c = match self.cursors.get_mut(flat) {
            Some(slot) => std::mem::take(slot),
            None => WindowCursor::default(),
        };

        // Classify the request against the cursor's watermark.
        let mut exact = false;
        let mut reusable = false;
        if c.valid && c.node == node && pc >= c.orig_pc + c.op_base && clock >= c.clock {
            let delta = pc - (c.orig_pc + c.op_base);
            exact = delta == 0 && clock == c.clock && c.node_gen == cur_gen;
            // A fully consumed window can only be re-served when it
            // cannot extend (sync/lane-end): a consumed Cap window
            // would re-scan `max_window` operations, i.e. a miss.
            let covered =
                delta < c.window() || (delta == c.window() && !matches!(c.trunc, TruncKind::Cap));
            if exact || (tolerance > 0 && delta as u64 <= tolerance && covered) {
                // Retire the prefix, then generation-check what the
                // surviving window still depends on. A dep invalidated
                // while sitting entirely inside the retired prefix is
                // irrelevant — the slide must survive it.
                let op_base = c.op_base + delta;
                let mut dep_base = c.dep_base;
                while dep_base < c.deps.len() && c.deps[dep_base].last_op < op_base {
                    dep_base += 1;
                }
                // Fast path: no invalidation batch has landed since the
                // deps were last verified, so no generation can have
                // moved and the per-dep memo walk is provably a no-op.
                reusable = c.seen_seq == self.apply_seq
                    || c.deps[dep_base..].iter().all(|d| {
                        self.memo
                            .get(&d.key)
                            .is_some_and(|m| m.fresh && m.gen == d.gen)
                    });
                if reusable {
                    debug_assert!(
                        clock >= c.clock + (c.cum_lb[op_base] - c.cum_lb[c.op_base]),
                        "executed operations must cost at least their scanned lower bound"
                    );
                    c.op_base = op_base;
                    c.dep_base = dep_base;
                    c.clock = clock;
                    c.seen_seq = self.apply_seq;
                } else {
                    // Discovered stale: the cursor dies here (lazily),
                    // which is where sharded invalidation pays its
                    // per-cursor cost.
                    self.invalidations += 1;
                    c.valid = false;
                }
            }
        }

        if !reusable {
            return self.full_scan(
                flat,
                node,
                pc,
                clock,
                l1,
                max_window,
                cur_gen,
                closure_compute,
                step,
                page_compute,
            );
        }
        if exact {
            self.hits += 1;
        } else {
            self.slides += 1;
        }

        // Extend a capped window over the newly visible suffix. Sync
        // and lane-end windows never extend: the stopper is still the
        // next operation a fresh scan would see.
        if matches!(c.trunc, TruncKind::Cap) && c.window() < max_window {
            // The extension continues the original scan's last
            // same-page run only if that run is still live; a fresh
            // scan from the new watermark would otherwise start with
            // no run context.
            let mut last_fp = match c.deps.last() {
                Some(d) if c.deps.len() > c.dep_base => Some(d.fp),
                _ => None,
            };
            loop {
                let pc_i = c.orig_pc + c.total_ops();
                match step(pc_i) {
                    ScanStep::End => {
                        c.trunc = TruncKind::LaneEnd;
                        break;
                    }
                    ScanStep::Sync => {
                        c.trunc = TruncKind::Sync;
                        break;
                    }
                    _ if c.window() == max_window => break,
                    ScanStep::Compute(cost) => {
                        let t = *c.cum_lb.last().expect("cum_lb is never empty");
                        c.cum_lb.push(t + cost);
                    }
                    ScanStep::Ref { key, va, same_run } => {
                        let idx = c.total_ops();
                        let live_last = c.deps.len() > c.dep_base;
                        let v = match last_fp {
                            Some(f) if same_run && live_last => {
                                c.deps.last_mut().expect("live dep exists").last_op = idx;
                                f
                            }
                            // Look back over *live* deps only: every
                            // live dep was generation-verified when this
                            // slide was admitted, so its `(fp, gen)` is
                            // exactly what the memo holds right now.
                            _ => match c.deps[c.dep_base..]
                                .iter()
                                .rev()
                                .take(DEP_LOOKBACK)
                                .find(|d| d.key == key)
                            {
                                Some(d) => {
                                    let (v, g) = (d.fp, d.gen);
                                    if c.deps.last().expect("live dep exists").key == key {
                                        c.deps.last_mut().expect("live dep exists").last_op = idx;
                                    } else {
                                        c.deps.push(CursorDep {
                                            key,
                                            gen: g,
                                            fp: v,
                                            last_op: idx,
                                        });
                                    }
                                    v
                                }
                                None => {
                                    let (v, g) = self.page_entry(key, va, &mut page_compute);
                                    c.deps.push(CursorDep {
                                        key,
                                        gen: g,
                                        fp: v,
                                        last_op: idx,
                                    });
                                    v
                                }
                            },
                        };
                        last_fp = Some(v);
                        let t = *c.cum_lb.last().expect("cum_lb is never empty");
                        c.cum_lb.push(t + l1);
                    }
                }
            }
        }

        // Reassemble the footprint from the surviving parts: the node
        // singleton, the fill closure iff the live window still
        // references any page, and the live deps' contributions. This
        // *is* the retirement subtraction — recomputation over the
        // survivors can never under-approximate.
        let mut fp = NodeSet::single(NodeId(node as u16));
        if c.deps.len() > c.dep_base {
            let cl = match self.node_fp.get_mut(node) {
                Some(slot) => slot.get_or_insert_with(closure_compute).0,
                None => closure_compute().0,
            };
            fp.0 |= cl.0;
            for d in &c.deps[c.dep_base..] {
                fp.0 |= d.fp.0;
            }
        }
        c.footprint = fp;
        c.node_gen = cur_gen;
        c.valid = true;

        // Compact once the retired prefix exceeds the window cap, so
        // the arrays stay bounded by twice the cap and the amortized
        // slide cost stays O(delta).
        if c.op_base >= max_window {
            let base_lb = c.cum_lb[c.op_base];
            c.orig_pc += c.op_base;
            c.cum_lb.drain(..c.op_base);
            for v in &mut c.cum_lb {
                *v -= base_lb;
            }
            c.deps.drain(..c.dep_base);
            for d in &mut c.deps {
                d.last_op -= c.op_base;
            }
            c.op_base = 0;
            c.dep_base = 0;
        }

        let window = c.window();
        let trunc_at = match c.trunc {
            TruncKind::LaneEnd => None,
            _ => Some(
                clock + (c.cum_lb.last().expect("cum_lb is never empty") - c.cum_lb[c.op_base]),
            ),
        };
        if let Some(slot) = self.cursors.get_mut(flat) {
            *slot = c;
        }
        (window, fp, trunc_at)
    }

    /// The miss path: scans the lane from `(pc, clock)` through the
    /// callbacks, stores the fresh cursor, and returns the window.
    #[allow(clippy::too_many_arguments)]
    fn full_scan(
        &mut self,
        flat: usize,
        node: usize,
        pc: usize,
        clock: u64,
        l1: u64,
        max_window: usize,
        cur_gen: u64,
        closure_compute: impl FnOnce() -> (NodeSet, Vec<u64>),
        mut step: impl FnMut(usize) -> ScanStep,
        mut page_compute: impl FnMut(VirtAddr) -> NodeSet,
    ) -> (usize, NodeSet, Option<u64>) {
        self.misses += 1;
        let mut cum_lb: Vec<u64> = vec![0];
        let mut deps: Vec<CursorDep> = Vec::new();
        let mut fp = NodeSet::single(NodeId(node as u16));
        let mut last_fp: Option<NodeSet> = None;
        let mut closure_compute = Some(closure_compute);
        let kind;
        let mut pc_i = pc;
        loop {
            match step(pc_i) {
                ScanStep::End => {
                    kind = TruncKind::LaneEnd;
                    break;
                }
                ScanStep::Sync => {
                    kind = TruncKind::Sync;
                    break;
                }
                _ if cum_lb.len() - 1 == max_window => {
                    kind = TruncKind::Cap;
                    break;
                }
                ScanStep::Compute(cost) => {
                    let t = *cum_lb.last().expect("cum_lb is never empty");
                    cum_lb.push(t + cost);
                }
                ScanStep::Ref { key, va, same_run } => {
                    // Any reference can trigger a fill and therefore an
                    // eviction: the fill closure joins at the first one.
                    if let Some(compute) = closure_compute.take() {
                        let cl = match self.node_fp.get_mut(node) {
                            Some(slot) => slot.get_or_insert_with(compute).0,
                            None => compute().0,
                        };
                        fp.0 |= cl.0;
                    }
                    let idx = cum_lb.len() - 1;
                    let v = match last_fp {
                        // Same-page run continuations (trace-ingest
                        // bitmap) reuse the previous reference's
                        // contribution without a memo lookup.
                        Some(f) if same_run => {
                            if let Some(d) = deps.last_mut() {
                                d.last_op = idx;
                            }
                            f
                        }
                        // Alternating page runs (stride patterns) hit
                        // the same few keys over and over: a short
                        // look-back over deps captured *this scan*
                        // replaces the memo hash walk. Sound because no
                        // generation can move mid-scan.
                        _ => match deps.iter().rev().take(DEP_LOOKBACK).find(|d| d.key == key) {
                            Some(d) => {
                                let (v, g) = (d.fp, d.gen);
                                if deps.last().map(|d| d.key) == Some(key) {
                                    deps.last_mut().expect("dep exists").last_op = idx;
                                } else {
                                    deps.push(CursorDep {
                                        key,
                                        gen: g,
                                        fp: v,
                                        last_op: idx,
                                    });
                                }
                                v
                            }
                            None => {
                                let (v, g) = self.page_entry(key, va, &mut page_compute);
                                deps.push(CursorDep {
                                    key,
                                    gen: g,
                                    fp: v,
                                    last_op: idx,
                                });
                                v
                            }
                        },
                    };
                    last_fp = Some(v);
                    fp.0 |= v.0;
                    let t = *cum_lb.last().expect("cum_lb is never empty");
                    cum_lb.push(t + l1);
                }
            }
            pc_i += 1;
        }
        let window = cum_lb.len() - 1;
        let trunc_at = match kind {
            TruncKind::LaneEnd => None,
            _ => Some(clock + cum_lb.last().expect("cum_lb is never empty")),
        };
        if let Some(slot) = self.cursors.get_mut(flat) {
            *slot = WindowCursor {
                valid: true,
                node,
                node_gen: cur_gen,
                orig_pc: pc,
                clock,
                op_base: 0,
                cum_lb,
                deps,
                dep_base: 0,
                footprint: fp,
                trunc: kind,
                seen_seq: self.apply_seq,
            };
        }
        (window, fp, trunc_at)
    }

    /// The memoized contribution of `key`, recomputing a cold or stale
    /// entry via `page_compute`. Returns the value and the generation
    /// it is valid at (for dep capture).
    fn page_entry(
        &mut self,
        key: (usize, u64),
        va: VirtAddr,
        page_compute: &mut impl FnMut(VirtAddr) -> NodeSet,
    ) -> (NodeSet, u64) {
        let m = self.memo.entry(key).or_insert_with(|| PageMemo {
            fp: NodeSet::EMPTY,
            gen: 0,
            fresh: false,
        });
        if !m.fresh {
            m.fp = page_compute(va);
            m.fresh = true;
        }
        (m.fp, m.gen)
    }

    /// Applies a batch of invalidation events drained from the
    /// observability bus. Memo entries are marked stale in place with
    /// their generation bumped (cursors that depend on them die lazily,
    /// at their next reuse attempt); closure slots drop, bumping the
    /// node generation only when the member set may have grown.
    pub(crate) fn apply(&mut self, events: Vec<CursorInval>) {
        if !events.is_empty() {
            self.apply_seq = self.apply_seq.wrapping_add(1);
        }
        for ev in events {
            match ev {
                CursorInval::HomeMoved { vpage } => {
                    // The page's home changed: every node's memo entry
                    // for it is stale, and a node *closure* that embeds
                    // the old home (the page is in its member list) is
                    // too. Nodes whose closure provably never reached
                    // the page keep closure and generation — the
                    // sharding that stops one migration from
                    // cold-starting every cursor in the machine.
                    self.stale_page_all_nodes(vpage);
                    for n in 0..self.node_gen.len() {
                        match &self.node_fp[n] {
                            Some((_, members)) if !members.contains(&vpage) => {}
                            Some(_) => {
                                self.node_fp[n] = None;
                                self.node_gen[n] = self.node_gen[n].wrapping_add(1);
                                self.invalidations += 1;
                            }
                            None => {
                                // Membership unknown (slot dropped by a
                                // shrink event): bump conservatively so
                                // cursors still holding the uncached
                                // closure reassemble from fresh parts.
                                self.node_gen[n] = self.node_gen[n].wrapping_add(1);
                            }
                        }
                    }
                }
                CursorInval::PageDest { vpage } => self.stale_page_all_nodes(vpage),
                CursorInval::NodePage { node, vpage } => self.stale_page(node, vpage),
                CursorInval::NodeClosure { node, grew } => {
                    if let Some(slot) = self.node_fp.get_mut(node) {
                        if slot.take().is_some() {
                            self.invalidations += 1;
                        }
                    }
                    // A shrink-only change keeps the generation:
                    // existing cursors hold a superset closure (sound),
                    // and the next compute re-caches the precise one
                    // under the same generation.
                    if grew {
                        if let Some(g) = self.node_gen.get_mut(node) {
                            *g = g.wrapping_add(1);
                        }
                    }
                }
            }
        }
    }

    /// Marks `(node, vpage)`'s memo entry stale, bumping its sharded
    /// generation exactly once per fresh→stale transition (a captured
    /// generation can therefore never match again until recompute).
    fn stale_page(&mut self, node: usize, vpage: u64) {
        if let Some(m) = self.memo.get_mut(&(node, vpage)) {
            if m.fresh {
                m.fresh = false;
                m.gen = m.gen.wrapping_add(1);
                self.invalidations += 1;
            }
        }
    }

    /// Marks `vpage`'s memo entry stale for every node.
    fn stale_page_all_nodes(&mut self, vpage: u64) {
        for n in 0..self.node_gen.len() {
            self.stale_page(n, vpage);
        }
    }

    /// Number of live (valid) cursors — test introspection.
    #[cfg(test)]
    pub(crate) fn valid_cursors(&self) -> usize {
        self.cursors.iter().filter(|c| c.valid).count()
    }

    /// Whether `(node, vpage)` currently has a *fresh* memo entry —
    /// test introspection.
    #[cfg(test)]
    pub(crate) fn has_memo(&self, node: usize, vpage: u64) -> bool {
        self.memo.get(&(node, vpage)).is_some_and(|m| m.fresh)
    }

    /// Whether `node`'s closure is currently cached — test
    /// introspection.
    #[cfg(test)]
    pub(crate) fn has_closure(&self, node: usize) -> bool {
        self.node_fp.get(node).is_some_and(|s| s.is_some())
    }

    /// Number of memoized page entries (fresh or stale) — test
    /// introspection.
    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Forces `(node, vpage)`'s memo generation — test hook for
    /// generation-wraparound coverage.
    #[cfg(test)]
    pub(crate) fn set_memo_gen(&mut self, key: (usize, u64), gen: u64) {
        if let Some(m) = self.memo.get_mut(&key) {
            m.gen = gen;
        }
        // Generations never move outside `apply`; advancing the
        // sequence keeps the seen_seq fast path honest under this
        // test-only backdoor.
        self.apply_seq = self.apply_seq.wrapping_add(1);
    }

    /// Pre-caches `node`'s closure with an explicit member list — test
    /// hook for priming `HomeMoved` sharding scenarios.
    #[cfg(test)]
    pub(crate) fn prime_closure(&mut self, node: usize, fp: NodeSet, members: Vec<u64>) {
        if let Some(slot) = self.node_fp.get_mut(node) {
            *slot = Some((fp, members));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1: u64 = 4;
    const CAP: usize = 8;
    const TOL: u64 = 8;

    fn ledger() -> FootprintLedger {
        let mut l = FootprintLedger::default();
        l.reset(4, 4);
        l
    }

    fn nset(nodes: &[u16]) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        for &n in nodes {
            s.insert(NodeId(n));
        }
        s
    }

    /// A memory reference to `(node, vpage)` (never a run
    /// continuation, so each one reads the memo).
    fn r(node: usize, vpage: u64) -> ScanStep {
        ScanStep::Ref {
            key: (node, vpage),
            va: VirtAddr(vpage << 12),
            same_run: false,
        }
    }

    /// Drives one scan over a synthetic lane: `lane[pc]` is the step at
    /// pc (missing entries are `End`). Page contributions come from
    /// `pages` as `(vpage, contribution)`; the closure is `closure`
    /// with `members`.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        l: &mut FootprintLedger,
        flat: usize,
        node: usize,
        pc: usize,
        clock: u64,
        lane: &[ScanStep],
        pages: &[(u64, NodeSet)],
        closure: NodeSet,
        members: &[u64],
    ) -> (usize, NodeSet, Option<u64>) {
        l.scan(
            flat,
            node,
            pc,
            clock,
            L1,
            CAP,
            TOL,
            || (closure, members.to_vec()),
            |pc| lane.get(pc).copied().unwrap_or(ScanStep::End),
            |va| {
                let vp = va.0 >> 12;
                pages
                    .iter()
                    .find(|(p, _)| *p == vp)
                    .map(|(_, fp)| *fp)
                    .expect("page contribution is defined")
            },
        )
    }

    /// The canonical little lane: two refs to page 9, a compute, a ref
    /// to page 5, then a barrier.
    fn lane_to_sync() -> Vec<ScanStep> {
        vec![
            r(1, 9),
            r(1, 9),
            ScanStep::Compute(10),
            r(1, 5),
            ScanStep::Sync,
        ]
    }

    #[test]
    fn exact_watermark_is_a_hit_and_drift_slides() {
        let mut l = ledger();
        let pages = [(9, nset(&[2])), (5, nset(&[3]))];
        let lane = lane_to_sync();
        let (w, fp, t) = drive(&mut l, 0, 1, 0, 100, &lane, &pages, nset(&[1]), &[]);
        assert_eq!((w, fp), (4, nset(&[1, 2, 3])));
        // lb = 4 + 4 + 10 + 4 = 22 past clock 100.
        assert_eq!(t, Some(122));
        assert_eq!((l.hits, l.slides, l.misses), (0, 0, 1));

        // Same watermark: exact hit, same answer.
        let (w2, fp2, t2) = drive(&mut l, 0, 1, 0, 100, &lane, &pages, nset(&[1]), &[]);
        assert_eq!((w2, fp2, t2), (w, fp, t));
        assert_eq!((l.hits, l.slides, l.misses), (1, 0, 1));

        // Two ops executed (cost 9 ≥ lb 8): slide. Window shrinks, the
        // truncation clock rebases to the new clock + remaining lb.
        let (w3, fp3, t3) = drive(&mut l, 0, 1, 2, 109, &lane, &pages, nset(&[1]), &[]);
        assert_eq!(w3, 2);
        assert_eq!(fp3, nset(&[1, 3]), "page 9's contribution retired");
        assert_eq!(t3, Some(109 + 10 + 4));
        assert_eq!((l.hits, l.slides, l.misses), (1, 1, 1));
    }

    #[test]
    fn slide_result_matches_a_fresh_scan_bitwise() {
        let pages = [(9, nset(&[2])), (5, nset(&[3]))];
        let lane = lane_to_sync();
        // Fresh ledger scanned directly at the drifted watermark (the
        // three executed ops cost at least their scanned lb of 18).
        let mut fresh = ledger();
        let want = drive(&mut fresh, 0, 1, 3, 121, &lane, &pages, nset(&[1]), &[]);
        // Warm ledger slid to the same watermark.
        let mut warm = ledger();
        drive(&mut warm, 0, 1, 0, 100, &lane, &pages, nset(&[1]), &[]);
        let got = drive(&mut warm, 0, 1, 3, 121, &lane, &pages, nset(&[1]), &[]);
        assert_eq!(got, want);
        assert_eq!(warm.slides, 1);
    }

    #[test]
    fn capped_window_extends_on_slide() {
        let mut l = ledger();
        // CAP + 4 refs to page 9: the scan caps at CAP ops.
        let lane: Vec<ScanStep> = (0..CAP + 4).map(|_| r(1, 9)).collect();
        let pages = [(9, nset(&[2]))];
        let (w, _, t) = drive(&mut l, 0, 1, 0, 0, &lane, &pages, nset(&[1]), &[]);
        assert_eq!(w, CAP);
        assert_eq!(t, Some(CAP as u64 * L1));
        // Slide by 3: the suffix extends back to the cap.
        let clock = 3 * L1;
        let (w2, fp2, t2) = drive(&mut l, 0, 1, 3, clock, &lane, &pages, nset(&[1]), &[]);
        assert_eq!(w2, CAP, "extension refills the capped window");
        assert_eq!(fp2, nset(&[1, 2]));
        assert_eq!(t2, Some(clock + CAP as u64 * L1));
        assert_eq!(l.slides, 1);
        // Slide far enough that the lane end comes into view: the
        // window stops extending and the truncation clock disappears.
        let clock = 8 * L1;
        let (w3, _, t3) = drive(&mut l, 0, 1, 8, clock, &lane, &pages, nset(&[1]), &[]);
        assert_eq!(w3, 4);
        assert_eq!(t3, None, "lane end leaves nothing to truncate at");
        assert_eq!(l.slides, 2);
        assert_eq!(
            l.misses, 1,
            "every request after the first reused the cursor"
        );
    }

    #[test]
    fn slide_stops_at_a_sync_truncation_boundary() {
        let mut l = ledger();
        let pages = [(9, nset(&[2])), (5, nset(&[3]))];
        let lane = lane_to_sync();
        drive(&mut l, 0, 1, 0, 100, &lane, &pages, nset(&[1]), &[]);
        // Slide TO the sync op: an empty window, truncated right at
        // the current clock — exactly what a fresh scan returns.
        let (w, fp, t) = drive(&mut l, 0, 1, 4, 130, &lane, &pages, nset(&[1]), &[]);
        assert_eq!((w, fp, t), (0, nset(&[1]), Some(130)));
        assert_eq!(
            l.slides, 1,
            "the consumed window still serves the sync pick"
        );
        // A watermark PAST the sync is outside the window: full rescan
        // (the serial path executed the barrier in between).
        let (w2, _, _) = drive(&mut l, 0, 1, 5, 200, &lane, &pages, nset(&[1]), &[]);
        assert_eq!(w2, 0);
        assert_eq!(l.misses, 2, "crossing a sync boundary is a miss");
    }

    #[test]
    fn drift_past_tolerance_is_a_miss() {
        let mut l = ledger();
        let lane: Vec<ScanStep> = (0..CAP + 8).map(|_| r(1, 9)).collect();
        let pages = [(9, nset(&[2]))];
        drive(&mut l, 0, 1, 0, 0, &lane, &pages, nset(&[1]), &[]);
        // TOL is CAP here, so any in-window drift slides; drive with a
        // zero-tolerance scan to prove the knob gates the slide path.
        let got = l.scan(
            0,
            1,
            2,
            2 * L1,
            L1,
            CAP,
            0,
            || (nset(&[1]), vec![]),
            |pc| lane.get(pc).copied().unwrap_or(ScanStep::End),
            |_| nset(&[2]),
        );
        assert_eq!(got.0, CAP);
        assert_eq!((l.hits, l.slides, l.misses), (0, 0, 2));
    }

    #[test]
    fn node_page_inval_on_live_dep_kills_cursor_lazily() {
        let mut l = ledger();
        let pages = [(9, nset(&[2])), (5, nset(&[3]))];
        let lane = lane_to_sync();
        drive(&mut l, 0, 1, 0, 100, &lane, &pages, nset(&[1]), &[]);
        l.apply(vec![CursorInval::NodePage { node: 1, vpage: 5 }]);
        assert!(!l.has_memo(1, 5), "exact entry staled");
        assert!(l.has_memo(1, 9), "other page stays fresh");
        assert_eq!(l.invalidations, 1, "event time: one memo staled");
        // The cursor still exists; the stale dep is discovered (and
        // counted) at the reuse attempt, which becomes a full rescan.
        let (w, fp, _) = drive(&mut l, 0, 1, 0, 100, &lane, &pages, nset(&[1]), &[]);
        assert_eq!((w, fp), (4, nset(&[1, 2, 3])));
        assert_eq!(l.invalidations, 2, "reuse time: the dependent cursor died");
        assert_eq!((l.hits, l.misses), (0, 2));
    }

    #[test]
    fn slide_survives_inval_on_a_retired_prefix_page() {
        let mut l = ledger();
        let pages = [(9, nset(&[2])), (5, nset(&[3]))];
        let lane = lane_to_sync();
        drive(&mut l, 0, 1, 0, 100, &lane, &pages, nset(&[1]), &[]);
        // Page 9 lives only in ops 0-1. Invalidate it, then request a
        // watermark past its run: the dep retires before the
        // generation check, so the slide must survive.
        l.apply(vec![CursorInval::NodePage { node: 1, vpage: 9 }]);
        let (w, fp, t) = drive(&mut l, 0, 1, 2, 109, &lane, &pages, nset(&[1]), &[]);
        assert_eq!((w, fp, t), (2, nset(&[1, 3]), Some(123)));
        assert_eq!(
            l.slides, 1,
            "a retired-prefix invalidation cannot force a rescan"
        );
        assert_eq!(l.misses, 1);
        // The same event on the still-live page 5 does kill it.
        l.apply(vec![CursorInval::NodePage { node: 1, vpage: 5 }]);
        drive(&mut l, 0, 1, 2, 109, &lane, &pages, nset(&[1]), &[]);
        assert_eq!(l.misses, 2);
    }

    #[test]
    fn page_dest_inval_hits_all_nodes() {
        let mut l = ledger();
        let pages = [(9, nset(&[2])), (4, nset(&[3]))];
        drive(&mut l, 0, 0, 0, 0, &[r(0, 9)], &pages, nset(&[0]), &[]);
        drive(
            &mut l,
            1,
            3,
            0,
            0,
            &[r(3, 9), r(3, 4)],
            &pages,
            nset(&[3]),
            &[],
        );
        l.apply(vec![CursorInval::PageDest { vpage: 9 }]);
        assert!(!l.has_memo(0, 9));
        assert!(!l.has_memo(3, 9));
        assert!(l.has_memo(3, 4));
        assert_eq!(l.invalidations, 2);
    }

    #[test]
    fn home_moved_shards_by_closure_membership() {
        let mut l = ledger();
        let pages = [(9, nset(&[2])), (7, nset(&[3]))];
        // Node 1's cursor depends on page 9; node 2's only on page 7.
        drive(&mut l, 0, 1, 0, 0, &[r(1, 9)], &pages, nset(&[1]), &[9]);
        drive(&mut l, 1, 2, 0, 0, &[r(2, 7)], &pages, nset(&[2]), &[7]);
        l.apply(vec![CursorInval::HomeMoved { vpage: 9 }]);
        // Node 1's closure embeds page 9's home: dropped. Node 2's
        // provably does not: it survives, and so does its cursor.
        assert!(!l.has_closure(1));
        assert!(l.has_closure(2));
        assert!(!l.has_memo(1, 9));
        assert!(!l.has_memo(2, 9), "node 2 never memoized page 9");
        assert!(l.has_memo(2, 7));
        let before = l.misses;
        drive(&mut l, 1, 2, 0, 0, &[r(2, 7)], &pages, nset(&[2]), &[7]);
        assert_eq!(l.misses, before, "the unrelated node's cursor still serves");
        assert_eq!(l.hits, 1);
    }

    #[test]
    fn closure_shrink_keeps_cursors_closure_growth_stales_them() {
        let mut l = ledger();
        let pages = [(9, nset(&[2]))];
        let lane = [r(1, 9), r(1, 9), r(1, 9)];
        drive(&mut l, 0, 1, 0, 0, &lane, &pages, nset(&[1, 3]), &[9]);
        // Shrink (eviction): slot drops, generation holds — the exact
        // watermark still serves, re-caching the (smaller) closure.
        l.apply(vec![CursorInval::NodeClosure {
            node: 1,
            grew: false,
        }]);
        assert!(!l.has_closure(1));
        let (_, fp, _) = drive(&mut l, 0, 1, 0, 0, &lane, &pages, nset(&[1]), &[9]);
        assert_eq!(l.hits, 1, "shrink-only churn must not cost the cursor");
        assert_eq!(
            fp,
            nset(&[1, 2]),
            "the exact hit reassembles with the fresh closure"
        );
        // Growth (new cached page): the generation bumps; the same
        // watermark now serves as a slide that refreshes the closure.
        l.apply(vec![CursorInval::NodeClosure {
            node: 1,
            grew: true,
        }]);
        let (_, fp2, _) = drive(&mut l, 0, 1, 0, 0, &lane, &pages, nset(&[1, 3]), &[9]);
        assert_eq!(fp2, nset(&[1, 2, 3]));
        assert_eq!(l.slides, 1, "a generation bump costs a slide, not a rescan");
        assert_eq!(l.misses, 1);
    }

    #[test]
    fn memo_generation_wraparound_still_detects_staleness() {
        let mut l = ledger();
        let pages = [(9, nset(&[2]))];
        // Seed the entry, park its generation at the wrap point, then
        // capture a cursor at the wrapped-in generation.
        drive(&mut l, 1, 1, 0, 0, &[r(1, 9)], &pages, nset(&[1]), &[]);
        l.set_memo_gen((1, 9), u64::MAX);
        l.apply(vec![CursorInval::NodePage { node: 1, vpage: 9 }]);
        // Recompute: entry is fresh again at generation 0 (wrapped).
        drive(&mut l, 0, 1, 0, 0, &[r(1, 9)], &pages, nset(&[1]), &[]);
        assert!(l.has_memo(1, 9));
        // Stale it again and confirm the wrapped-generation cursor
        // does not survive: gen moves 0 → 1, mismatching the capture.
        l.apply(vec![CursorInval::NodePage { node: 1, vpage: 9 }]);
        let inv = l.invalidations;
        drive(&mut l, 0, 1, 0, 0, &[r(1, 9)], &pages, nset(&[1]), &[]);
        assert_eq!(
            l.invalidations,
            inv + 1,
            "wrapped generations still mismatch"
        );
    }

    #[test]
    fn reset_zeroes_counters_and_state() {
        let mut l = ledger();
        let pages = [(1, nset(&[0]))];
        drive(&mut l, 0, 0, 0, 0, &[r(0, 1)], &pages, nset(&[0]), &[]);
        l.apply(vec![CursorInval::PageDest { vpage: 1 }]);
        assert!(l.hits + l.slides + l.misses + l.invalidations > 0);
        l.reset(2, 2);
        assert_eq!((l.hits, l.slides, l.misses, l.invalidations), (0, 0, 0, 0));
        assert_eq!(l.memo_len(), 0);
        assert_eq!(l.valid_cursors(), 0);
    }

    #[test]
    fn compaction_preserves_slide_results() {
        let mut l = ledger();
        // A long all-ref lane; slide repeatedly by 3 so op_base crosses
        // the cap and compaction triggers, then check against fresh.
        let lane: Vec<ScanStep> = (0..CAP * 6).map(|_| r(1, 9)).collect();
        let pages = [(9, nset(&[2]))];
        drive(&mut l, 0, 1, 0, 0, &lane, &pages, nset(&[1]), &[]);
        let mut fresh = ledger();
        for k in 1..=(CAP * 4) / 3 {
            let pc = 3 * k;
            let clock = (3 * k) as u64 * L1;
            let got = drive(&mut l, 0, 1, pc, clock, &lane, &pages, nset(&[1]), &[]);
            let mut f = std::mem::take(&mut fresh);
            f.reset(4, 4);
            let want = drive(&mut f, 0, 1, pc, clock, &lane, &pages, nset(&[1]), &[]);
            fresh = f;
            assert_eq!(got, want, "slide diverged from fresh scan at pc {pc}");
        }
        assert_eq!(l.misses, 1, "one cold scan, everything after slid");
    }
}
