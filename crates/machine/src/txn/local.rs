//! Intra-node fill transactions: everything that satisfies a reference
//! without leaving the node, plus the client-side write-back paths a
//! fill can trigger.
//!
//! Covers sibling-cache snoops, local-memory fills, node-local bus
//! upgrades, L1/L2 insertion with inclusion-preserving evictions, and
//! the LA-NUMA client obligations on eviction (posted write-backs,
//! demotions to shared, replacement hints). The access-path driver in
//! `access` classifies the reference and delegates here.

use prism_mem::addr::{FrameNo, LineIdx};
use prism_mem::cache::LineState;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

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

impl Machine {
    /// A node-local bus upgrade: the accessor holds the line Shared and
    /// the node already has exclusivity; one address phase invalidates
    /// (nonexistent) sibling copies and grants write permission.
    pub(crate) fn local_bus_upgrade(
        &mut self,
        n: usize,
        pi: usize,
        key: u64,
        lid: u64,
        t: Cycle,
    ) -> Cycle {
        let lat = self.cfg.latency;
        let flat = self.flat(n, pi) as u16;
        let t = self.nodes[n].bus.acquire_until(t, Cycle(lat.bus_addr));
        if let Some(sh) = self.shadow.as_mut() {
            sh.observe_hit(flat, lid);
        }
        self.nodes[n].procs[pi]
            .l2
            .set_state(key, LineState::Modified);
        if self.nodes[n].procs[pi].l1.probe(key).is_some() {
            self.nodes[n].procs[pi]
                .l1
                .set_state(key, LineState::Modified);
        } else {
            self.fill_l1(n, pi, key, LineState::Modified, lid);
        }
        if let Some(sh) = self.shadow.as_mut() {
            sh.write(flat, lid);
        }
        self.obs.incr(Ctr::LocalFills);
        t
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn intra_node_fill(
        &mut self,
        n: usize,
        pi: usize,
        key: u64,
        lid: u64,
        write: bool,
        backing: FillBacking,
        read_cap: LineState,
        t: Cycle,
    ) -> Cycle {
        let memory_backed = matches!(backing, FillBacking::Memory { .. });
        let lat = self.cfg.latency;
        let flat = self.flat(n, pi) as u16;
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
                for spi2 in 0..self.ppn() {
                    if spi2 == pi {
                        continue;
                    }
                    let f2 = self.flat(n, spi2) as u16;
                    let in_l1 = self.nodes[n].procs[spi2].l1.invalidate(key).is_some();
                    let in_l2 = self.nodes[n].procs[spi2].l2.invalidate(key).is_some();
                    if in_l1 || in_l2 {
                        if let Some(sh) = self.shadow.as_mut() {
                            sh.drop_proc(f2, lid);
                        }
                    }
                }
                self.insert_line(n, pi, key, LineState::Modified, lid);
                if let Some(sh) = self.shadow.as_mut() {
                    sh.write(flat, lid);
                }
            } else {
                if sstate == LineState::Modified {
                    // MESI downgrade with writeback: dirty data reaches the
                    // node's memory (or, for LA-NUMA, the remote home).
                    self.nodes[n].procs[spi].l1.downgrade(key);
                    self.nodes[n].procs[spi].l2.downgrade(key);
                    if memory_backed {
                        self.nodes[n].memory.acquire(t, Cycle(lat.mem_access));
                        if let Some(sh) = self.shadow.as_mut() {
                            sh.writeback(sflat, n as u16, lid);
                        }
                    } else {
                        // The node keeps (shared) copies, so this is a
                        // demotion, not an eviction: the home directory
                        // moves to Shared({n}) and the node's LA-NUMA
                        // state drops to Shared so future local writes
                        // re-request ownership.
                        self.lanuma_demote_to_shared(n, key, lid, sflat, t);
                    }
                } else if sstate == LineState::Exclusive {
                    self.nodes[n].procs[spi]
                        .l2
                        .set_state(key, LineState::Shared);
                    if self.nodes[n].procs[spi].l1.probe(key).is_some() {
                        self.nodes[n].procs[spi]
                            .l1
                            .set_state(key, LineState::Shared);
                    }
                }
                if let Some(sh) = self.shadow.as_mut() {
                    sh.fill_from_proc(flat, sflat, lid);
                }
                self.insert_line(n, pi, key, LineState::Shared, lid);
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
                self.insert_line(n, pi, key, LineState::Modified, lid);
                if let Some(sh) = self.shadow.as_mut() {
                    sh.write(flat, lid);
                }
            } else {
                self.insert_line(n, pi, key, read_cap, lid);
            }
            self.obs.incr(Ctr::LocalFills);
        }
        self.obs.local_fill_latency.record(t - t0);
        t
    }

    /// Inserts a line into L2 then L1, processing evictions (inclusion:
    /// an L2 eviction removes the L1 copy and merges dirtiness).
    pub(crate) fn insert_line(
        &mut self,
        n: usize,
        pi: usize,
        key: u64,
        state: LineState,
        lid: u64,
    ) {
        let _ = lid;
        if let Some(ev) = self.nodes[n].procs[pi].l2.insert(key, state) {
            let l1_dirty = self.nodes[n].procs[pi]
                .l1
                .invalidate(ev.line)
                .unwrap_or(false);
            self.process_l2_eviction(n, pi, ev.line, ev.dirty || l1_dirty);
        }
        self.fill_l1(n, pi, key, state, lid);
    }

    /// Fills L1 (assuming L2 already holds the line), processing the L1
    /// eviction: a dirty L1 victim folds into L2.
    pub(crate) fn fill_l1(&mut self, n: usize, pi: usize, key: u64, state: LineState, lid: u64) {
        let _ = lid;
        if let Some(ev) = self.nodes[n].procs[pi].l1.insert(key, state) {
            if ev.dirty && self.nodes[n].procs[pi].l2.probe(ev.line).is_some() {
                self.nodes[n].procs[pi]
                    .l2
                    .set_state(ev.line, LineState::Modified);
            }
        }
    }

    /// Handles an L2 eviction: local frames write back to node memory;
    /// LA-NUMA frames write back to (or send replacement hints to) the
    /// home.
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
        let sibling_has = self.sibling_with_copy(n, pi, evicted_key).is_some();

        if !frame.is_imaginary() {
            // Local / S-COMA / home frame: posted writeback into local
            // memory.
            if dirty {
                debug_assert!(!sibling_has, "dirty line cannot be shared intra-node");
                let lat = self.cfg.latency;
                self.nodes[n].memory.acquire(t, Cycle(lat.mem_access));
                if let (Some(sh), Some(lid)) = (self.shadow.as_mut(), lid) {
                    sh.writeback(flat, n as u16, lid);
                }
            }
        } else {
            // LA-NUMA: the node may lose its last copy of the line.
            if dirty {
                debug_assert!(!sibling_has);
                if let Some(lid) = lid {
                    self.lanuma_posted_writeback(n, evicted_key, lid, flat, t);
                } else {
                    self.lanuma_posted_writeback(n, evicted_key, 0, flat, t);
                }
                self.nodes[n].controller.set_lanuma_tag(
                    frame,
                    line,
                    prism_mem::tags::LineTag::Invalid,
                );
            } else if !sibling_has {
                let was = self.nodes[n].controller.lanuma_tag(frame, line);
                self.nodes[n].controller.set_lanuma_tag(
                    frame,
                    line,
                    prism_mem::tags::LineTag::Invalid,
                );
                if was == prism_mem::tags::LineTag::Exclusive {
                    // Replacement hint keeps the directory's Owned state
                    // honest (see prism-protocol docs on invariants).
                    self.lanuma_replacement_hint(n, frame, line, t);
                }
            }
        }
        if let (Some(sh), Some(lid)) = (self.shadow.as_mut(), lid) {
            sh.drop_proc(flat, lid);
        }
    }

    /// Posts a dirty LA-NUMA line back to its home: updates the home's
    /// directory and memory without stalling the evicting processor.
    pub(crate) fn lanuma_posted_writeback(
        &mut self,
        n: usize,
        key: u64,
        lid: u64,
        from_flat: u16,
        t: Cycle,
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
            // Try to save the dirty data by re-mastering the page at the
            // static home; an unrecoverable page loses the writeback
            // (its directory state will refuse future readers).
            match self.try_home_failover(gpage, home, t) {
                Some(out) => home = out.new_home,
                None => return,
            }
        }
        self.post_send(n, home, MsgKind::Writeback, t);
        self.obs.incr(Ctr::RemoteWritebacks);
        let lat = self.cfg.latency;
        self.nodes[home].memory.acquire(t, Cycle(lat.mem_access));
        let reader = prism_mem::addr::NodeId(n as u16);
        let snap = self.nodes[home].controller.dir.page_mut(gpage).map(|pd| {
            let cur = pd.line(line);
            *pd.line_mut(line) = prism_protocol::dirproto::apply_writeback(cur, reader);
            (cur, pd.home_frame)
        });
        if let Some((cur, home_frame)) = snap {
            let was_owned =
                matches!(cur, prism_mem::directory::LineDir::Owned(o) if o.0 as usize == n);
            if was_owned {
                // Home memory is valid again.
                self.nodes[home].controller.tags.set(
                    home_frame,
                    line,
                    prism_mem::tags::LineTag::Shared,
                );
            }
        }
        if let Some(sh) = self.shadow.as_mut() {
            sh.writeback(from_flat, home as u16, lid);
        }
    }

    /// Demotes a node's modified LA-NUMA line to shared: the dirty data
    /// is written back to the home (whose memory becomes valid again)
    /// but the node *keeps* shared copies, so the directory records it
    /// as a sharer rather than forgetting it.
    pub(crate) fn lanuma_demote_to_shared(
        &mut self,
        n: usize,
        key: u64,
        lid: u64,
        from_flat: u16,
        t: Cycle,
    ) {
        let lpp = self.cfg.geometry.lines_per_page() as u64;
        let frame = FrameNo((key / lpp) as u32);
        let line = LineIdx((key % lpp) as u16);
        let Some(entry) = self.nodes[n].controller.pit.translate(frame) else {
            return;
        };
        let gpage = entry.gpage;
        let mut home = self.resolve_dyn_home(gpage).0 as usize;
        self.nodes[n]
            .controller
            .set_lanuma_tag(frame, line, prism_mem::tags::LineTag::Shared);
        if self.nodes[home].failed {
            match self.try_home_failover(gpage, home, t) {
                Some(out) => home = out.new_home,
                None => return,
            }
        }
        self.post_send(n, home, MsgKind::Writeback, t);
        self.obs.incr(Ctr::RemoteWritebacks);
        let lat = self.cfg.latency;
        self.nodes[home].memory.acquire(t, Cycle(lat.mem_occupancy));
        let reader = prism_mem::addr::NodeId(n as u16);
        let demoted = self.nodes[home]
            .controller
            .dir
            .page_mut(gpage)
            .and_then(|pd| {
                let owned =
                    matches!(pd.line(line), prism_mem::directory::LineDir::Owned(o) if o == reader);
                owned.then(|| {
                    *pd.line_mut(line) = prism_mem::directory::LineDir::Shared(
                        prism_mem::addr::NodeSet::single(reader),
                    );
                    pd.home_frame
                })
            });
        if let Some(home_frame) = demoted {
            self.nodes[home].controller.tags.set(
                home_frame,
                line,
                prism_mem::tags::LineTag::Shared,
            );
        }
        if let Some(sh) = self.shadow.as_mut() {
            sh.writeback(from_flat, home as u16, lid);
        }
    }

    /// Posts a replacement hint for a clean-exclusive LA-NUMA line.
    pub(crate) fn lanuma_replacement_hint(
        &mut self,
        n: usize,
        frame: FrameNo,
        line: LineIdx,
        t: Cycle,
    ) {
        let Some(entry) = self.nodes[n].controller.pit.translate(frame) else {
            return;
        };
        let gpage = entry.gpage;
        let home = self.resolve_dyn_home(gpage).0 as usize;
        if self.nodes[home].failed {
            // A hint is advisory; losing it only leaves the directory's
            // Owned state stale, which failover treats conservatively.
            return;
        }
        self.post_send(n, home, MsgKind::Writeback, t);
        let reader = prism_mem::addr::NodeId(n as u16);
        let snap = self.nodes[home].controller.dir.page_mut(gpage).map(|pd| {
            let cur = pd.line(line);
            *pd.line_mut(line) = prism_protocol::dirproto::apply_replacement_hint(cur, reader);
            (cur, pd.home_frame)
        });
        if let Some((cur, home_frame)) = snap {
            let was_owned =
                matches!(cur, prism_mem::directory::LineDir::Owned(o) if o.0 as usize == n);
            if was_owned {
                // The node's copy was clean-exclusive, so home memory was
                // already current; mark the home tag valid again.
                self.nodes[home].controller.tags.set(
                    home_frame,
                    line,
                    prism_mem::tags::LineTag::Shared,
                );
            }
        }
    }
}
