//! Intra-node fill transactions: everything that satisfies a reference
//! without leaving the node, plus the client-side write-back paths a
//! fill can trigger.
//!
//! Covers the per-node snoop every protocol path uses to invalidate or
//! downgrade a line in a node's processors ([`Snoop`]), sibling-cache
//! and local-memory fills, the write grant of remote upgrades, L1/L2
//! insertion with inclusion-preserving evictions, and the one step that
//! gives a modified LA-NUMA line back to its home ([`GiveBack`]). The
//! access-path driver in `access` classifies the reference and
//! delegates here.

use prism_mem::addr::{FrameNo, LineIdx, NodeId};
use prism_mem::cache::LineState;
use prism_mem::directory::LineDir;
use prism_mem::tags::LineTag;
use prism_protocol::dirproto;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::access::Request;
use crate::machine::Machine;
use crate::obs::Ctr;

/// What backs an intra-node fill when no sibling cache supplies the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FillBacking {
    /// Local memory / page cache supplies the data. `authoritative` is
    /// true for home and private frames (untouched lines hold initial
    /// data); false for client page-cache frames (only fetched lines are
    /// present) — this distinction matters to the coherence checker.
    Memory {
        /// See above.
        authoritative: bool,
    },
    /// No memory behind the frame (LA-NUMA): only sibling caches can
    /// supply.
    CacheOnly,
}

/// What a snoop on a node's bus leaves of each processor's copy of a
/// line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Snoop {
    /// The copy leaves L1 and L2.
    Invalidate,
    /// The copy stays, Shared in L1 and L2.
    Downgrade,
}

/// How a node's modified LA-NUMA line goes back to the page's home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GiveBack {
    /// The node's copy leaves (an eviction or a frame release): the
    /// directory applies [`dirproto::release`].
    Release,
    /// The node keeps shared copies (a sibling read the Modified copy
    /// supplied): the directory applies [`dirproto::demote`].
    Demote,
}

impl Machine {
    /// Snoops `key` in L1 and L2 of every processor of node `n` except
    /// `spare`: each copy is invalidated or downgraded, and an
    /// invalidated copy leaves the shadow (`lid` is the line's id there).
    /// Returns the processor (flat id) whose copy was dirty, if any.
    ///
    /// The node's own memory, its tags and where dirty data goes are the
    /// caller's concern.
    pub(crate) fn snoop_node(
        &mut self,
        n: usize,
        key: u64,
        lid: u64,
        spare: Option<usize>,
        snoop: Snoop,
    ) -> Option<u16> {
        let mut dirty = None;
        for spi in (0..self.ppn()).filter(|&spi| Some(spi) != spare) {
            let flat = self.flat(n, spi) as u16;
            let p = &mut self.nodes[n].procs[spi];
            let (l1, l2) = match snoop {
                Snoop::Invalidate => (p.l1.invalidate(key), p.l2.invalidate(key)),
                Snoop::Downgrade => (p.l1.downgrade(key), p.l2.downgrade(key)),
            };
            if l1.is_none() && l2.is_none() {
                continue;
            }
            if l1 == Some(true) || l2 == Some(true) {
                dirty = Some(flat);
            }
            if snoop == Snoop::Invalidate {
                if let Some(sh) = self.shadow.as_mut() {
                    sh.drop_proc(flat, lid);
                }
            }
        }
        dirty
    }

    /// Makes the copy the requester holds Modified in L2 and L1: the
    /// write permission an ownership upgrade grants. The shadow checks
    /// the held copy is current before the write.
    pub(crate) fn grant_write(&mut self, req: &Request) {
        let Request {
            n, pi, key, lid, ..
        } = *req;
        let flat = req.flat(self);
        if let Some(sh) = self.shadow.as_mut() {
            sh.observe_hit(flat, lid);
        }
        let p = &mut self.nodes[n].procs[pi];
        p.l2.set_state(key, LineState::Modified);
        if p.l1.probe(key).is_some() {
            p.l1.set_state(key, LineState::Modified);
        } else {
            self.fill_l1(n, pi, key, LineState::Modified);
        }
        if let Some(sh) = self.shadow.as_mut() {
            sh.write(flat, lid);
        }
    }

    /// The sibling processor (same node, different processor) holding a
    /// copy of `key`, preferring a Modified holder.
    pub(crate) fn sibling_with_copy(
        &self,
        n: usize,
        pi: usize,
        key: u64,
    ) -> Option<(usize, LineState)> {
        let mut found: Option<(usize, LineState)> = None;
        for spi in 0..self.ppn() {
            if spi == pi {
                continue;
            }
            if let Some(st) = self.nodes[n].procs[spi].l2.probe(key) {
                if st == LineState::Modified {
                    return Some((spi, st));
                }
                found.get_or_insert((spi, st));
            }
        }
        found
    }

    /// Satisfies a miss within the node: sibling cache or local memory /
    /// page cache.
    pub(crate) fn intra_node_fill(
        &mut self,
        req: &Request,
        backing: FillBacking,
        read_cap: LineState,
        t: Cycle,
    ) -> Cycle {
        let Request {
            n,
            pi,
            frame,
            line,
            key,
            lid,
            write,
            ..
        } = *req;
        let memory_backed = matches!(backing, FillBacking::Memory { .. });
        let lat = self.cfg.latency;
        let flat = req.flat(self);
        let t0 = t;
        let sibling = self.sibling_with_copy(n, pi, key);
        let mut t = t;
        if let Some((spi, sstate)) = sibling {
            let sflat = self.flat(n, spi) as u16;
            let cost = if sstate == LineState::Modified {
                lat.bus_addr + lat.cache_intervention + lat.bus_data
            } else {
                lat.bus_addr + lat.mem_access + lat.bus_data
            };
            t = self.nodes[n]
                .bus
                .acquire_until(t, Cycle(lat.bus_addr + lat.bus_data));
            t += Cycle(cost - lat.bus_addr - lat.bus_data);
            if write {
                // Data comes cache-to-cache, then every sibling copy is
                // invalidated (shadow reads the source before the drop).
                if let Some(sh) = self.shadow.as_mut() {
                    sh.fill_from_proc(flat, sflat, lid);
                }
                self.snoop_node(n, key, lid, Some(pi), Snoop::Invalidate);
                self.insert_line(n, pi, key, LineState::Modified);
                if let Some(sh) = self.shadow.as_mut() {
                    sh.write(flat, lid);
                }
            } else {
                // MESI: every sibling copy drops to Shared.
                self.snoop_node(n, key, lid, Some(pi), Snoop::Downgrade);
                if sstate == LineState::Modified {
                    // The downgrade writes back: dirty data reaches the
                    // node's memory (or, for LA-NUMA, the remote home).
                    if memory_backed {
                        self.nodes[n].memory.acquire(t, Cycle(lat.mem_access));
                        if let Some(sh) = self.shadow.as_mut() {
                            sh.writeback(sflat, n as u16, lid);
                        }
                    } else {
                        // The node keeps (shared) copies, so this is a
                        // demotion, not an eviction: the node's LA-NUMA
                        // state drops to Shared so future local writes
                        // re-request ownership, and the home directory
                        // moves to Shared({n}).
                        self.nodes[n]
                            .controller
                            .set_lanuma_tag(frame, line, LineTag::Shared);
                        self.lanuma_give_back(n, key, lid, sflat, t, GiveBack::Demote);
                    }
                }
                if let Some(sh) = self.shadow.as_mut() {
                    sh.fill_from_proc(flat, sflat, lid);
                }
                self.insert_line(n, pi, key, LineState::Shared);
            }
            self.obs.incr(Ctr::SiblingFills);
        } else {
            assert!(
                memory_backed,
                "intra-node fill from memory on a memory-less frame"
            );
            t = self.nodes[n]
                .bus
                .acquire_until(t, Cycle(lat.bus_addr + lat.bus_data));
            t = self.nodes[n].memory.acquire(t, Cycle(lat.mem_occupancy)) + Cycle(lat.mem_access);
            let authoritative = matches!(
                backing,
                FillBacking::Memory {
                    authoritative: true
                }
            );
            if let Some(sh) = self.shadow.as_mut() {
                sh.fill_from_node_memory(flat, n as u16, lid, authoritative);
            }
            if write {
                self.insert_line(n, pi, key, LineState::Modified);
                if let Some(sh) = self.shadow.as_mut() {
                    sh.write(flat, lid);
                }
            } else {
                self.insert_line(n, pi, key, read_cap);
            }
            self.obs.incr(Ctr::LocalFills);
        }
        self.obs.local_fill_latency.record(t - t0);
        t
    }

    /// Inserts a line into L2 then L1, processing evictions (inclusion:
    /// an L2 eviction removes the L1 copy and merges dirtiness).
    pub(crate) fn insert_line(&mut self, n: usize, pi: usize, key: u64, state: LineState) {
        if let Some(ev) = self.nodes[n].procs[pi].l2.insert(key, state) {
            let l1_dirty = self.nodes[n].procs[pi]
                .l1
                .invalidate(ev.line)
                .unwrap_or(false);
            self.process_l2_eviction(n, pi, ev.line, ev.dirty || l1_dirty);
        }
        self.fill_l1(n, pi, key, state);
    }

    /// Fills L1 (assuming L2 already holds the line), processing the L1
    /// eviction: a dirty L1 victim folds into L2.
    pub(crate) fn fill_l1(&mut self, n: usize, pi: usize, key: u64, state: LineState) {
        if let Some(ev) = self.nodes[n].procs[pi].l1.insert(key, state) {
            if ev.dirty && self.nodes[n].procs[pi].l2.probe(ev.line).is_some() {
                self.nodes[n].procs[pi]
                    .l2
                    .set_state(ev.line, LineState::Modified);
            }
        }
    }

    /// Handles an L2 eviction: local frames write back to node memory;
    /// a dirty LA-NUMA line goes back to its home.
    pub(crate) fn process_l2_eviction(
        &mut self,
        n: usize,
        pi: usize,
        evicted_key: u64,
        dirty: bool,
    ) {
        let lpp = self.cfg.geometry.lines_per_page() as u64;
        let frame = FrameNo((evicted_key / lpp) as u32);
        let line = LineIdx((evicted_key % lpp) as u16);
        let flat = self.flat(n, pi) as u16;
        let lid = self
            .shadow
            .as_ref()
            .and_then(|sh| sh.lid_for(n as u16, evicted_key));
        let t = self.nodes[n].procs[pi].clock;
        // Only a clean LA-NUMA eviction needs to know whether a sibling
        // still holds the line; elsewhere the scan only checks, in
        // debug builds, that a dirty line was the node's only copy.
        let no_sibling_copy = || self.sibling_with_copy(n, pi, evicted_key).is_none();

        if !frame.is_imaginary() {
            // Local / S-COMA / home frame: posted writeback into local
            // memory.
            if dirty {
                debug_assert!(no_sibling_copy(), "dirty line cannot be shared intra-node");
                let lat = self.cfg.latency;
                self.nodes[n].memory.acquire(t, Cycle(lat.mem_access));
                if let (Some(sh), Some(lid)) = (self.shadow.as_mut(), lid) {
                    sh.writeback(flat, n as u16, lid);
                }
            }
        } else if dirty {
            // LA-NUMA: the node loses its only copy of the line.
            debug_assert!(no_sibling_copy(), "dirty line cannot be shared intra-node");
            self.lanuma_give_back(n, evicted_key, lid.unwrap_or(0), flat, t, GiveBack::Release);
            self.nodes[n]
                .controller
                .set_lanuma_tag(frame, line, LineTag::Invalid);
        } else if no_sibling_copy() {
            // The node's last copy leaves clean: its tag is not
            // Exclusive, so no ownership goes back to the home.
            debug_assert!(
                self.lanuma_tag_invariant_holds(n, frame, line, evicted_key),
                "clean eviction of an Exclusive LA-NUMA line: node {n} frame {frame} line {line}"
            );
            self.nodes[n]
                .controller
                .set_lanuma_tag(frame, line, LineTag::Invalid);
        }
        if let (Some(sh), Some(lid)) = (self.shadow.as_mut(), lid) {
            sh.drop_proc(flat, lid);
        }
    }

    /// The LA-NUMA tag invariant: node `n`'s tag for an LA-NUMA line is
    /// Exclusive only while one of its processors holds the line
    /// Modified. The tag turns Exclusive only through a write, which
    /// leaves the writer Modified, and each way that copy stops being
    /// the node's only one (a sibling read, a remote downgrade, an
    /// eviction, an invalidation) moves the tag off Exclusive. So no
    /// clean copy is ever `Owned` by the node, and a write to a line its
    /// processor holds Shared never meets tag Exclusive.
    pub(crate) fn lanuma_tag_invariant_holds(
        &self,
        n: usize,
        frame: FrameNo,
        line: LineIdx,
        key: u64,
    ) -> bool {
        let modified = |p: &crate::node::Processor| {
            p.l1.probe(key) == Some(LineState::Modified)
                || p.l2.probe(key) == Some(LineState::Modified)
        };
        self.nodes[n].controller.lanuma_tag(frame, line) != LineTag::Exclusive
            || self.nodes[n].procs.iter().any(modified)
    }

    /// Gives node `n`'s modified LA-NUMA line `key` back to the page's
    /// home, posted at `t` without stalling `from_flat`, the processor
    /// whose copy held the data. The PIT names the page, whose dynamic
    /// home takes the data; a dead home fails over to the static home,
    /// and when failover is refused the data is lost (the directory
    /// refuses later readers). One `Writeback` goes out, the home's
    /// memory takes it (a demotion reserves occupancy only), and the
    /// directory applies `kind`. A line the directory held `Owned(n)`
    /// leaves the home's memory valid again, so its tag turns Shared.
    pub(crate) fn lanuma_give_back(
        &mut self,
        n: usize,
        key: u64,
        lid: u64,
        from_flat: u16,
        t: Cycle,
        kind: GiveBack,
    ) {
        let lpp = self.cfg.geometry.lines_per_page() as u64;
        let frame = FrameNo((key / lpp) as u32);
        let line = LineIdx((key % lpp) as u16);
        let Some(entry) = self.nodes[n].controller.pit.translate(frame) else {
            return;
        };
        let gpage = entry.gpage;
        let mut home = self.resolve_dyn_home(gpage).0 as usize;
        if self.nodes[home].failed {
            match self.try_home_failover(gpage, home, t) {
                Some(out) => home = out.new_home,
                None => return,
            }
        }
        self.post_send(n, home, MsgKind::Writeback, t);
        self.obs.incr(Ctr::RemoteWritebacks);
        let lat = self.cfg.latency;
        let (occupancy, apply): (u64, fn(LineDir, NodeId) -> LineDir) = match kind {
            GiveBack::Release => (lat.mem_access, dirproto::release),
            GiveBack::Demote => (lat.mem_occupancy, dirproto::demote),
        };
        self.nodes[home].memory.acquire(t, Cycle(occupancy));
        let from = NodeId(n as u16);
        let was_owned = self.nodes[home]
            .controller
            .dir
            .page_mut(gpage)
            .and_then(|pd| {
                let cur = pd.line(line);
                *pd.line_mut(line) = apply(cur, from);
                (cur == LineDir::Owned(from)).then_some(pd.home_frame)
            });
        if let Some(home_frame) = was_owned {
            self.nodes[home]
                .controller
                .tags
                .set(home_frame, line, LineTag::Shared);
        }
        if let Some(sh) = self.shadow.as_mut() {
            sh.writeback(from_flat, home as u16, lid);
        }
    }
}
