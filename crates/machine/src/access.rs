//! Thin driver for the memory-access path: TLB (page table on a miss)
//! → L1 → L2 → node-level (mode-dispatched) → possibly the inter-node
//! protocol.
//!
//! A reference that hits in the TLB and L1 touches only array-indexed
//! state: the TLB's hinted slot, the kernel's dense per-frame class,
//! usage-mask and page-cache-stamp arrays, and the flat cache sets. The
//! page table is walked only on a TLB miss, and the PIT translates the
//! frame to its global page only where one is used (journaling writes
//! and the node-level dispatch after an L2 miss).
//!
//! A reference that misses in L2 (or writes a line L2 holds Shared)
//! becomes one [`Request`], which the node-level dispatch hands to the
//! transaction layer: intra-node fills live in [`crate::txn::local`],
//! the inter-node protocol in [`crate::txn::remote_txn`].

use prism_mem::addr::{FrameNo, GlobalPage, LineIdx, VirtAddr};
use prism_mem::cache::LineState;
use prism_mem::mode::FrameMode;
use prism_mem::page_table::Pte;
use prism_mem::tags::LineTag;
use prism_protocol::dirproto::{tag_action, TagAction};
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::node::ProcState;
use crate::obs::Ctr;
use crate::txn::local::FillBacking;
use crate::txn::remote_txn::RemoteTxn;

/// One reference that missed in L2 (or writes a line L2 holds
/// Shared), as the node controller sees it: who asks, for which line of
/// which frame, and whether to write. It is built once, after the cache
/// checks, and carried through the node-level dispatch, the intra-node
/// fill and the remote transaction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Request {
    /// The requesting node.
    pub(crate) n: usize,
    /// The requesting processor, within its node.
    pub(crate) pi: usize,
    /// The frame the reference maps to on node `n`.
    pub(crate) frame: FrameNo,
    /// The frame's mode.
    pub(crate) mode: FrameMode,
    /// The global page the PIT binds the frame to (shared frames only).
    pub(crate) gpage: Option<GlobalPage>,
    /// The line within the page.
    pub(crate) line: LineIdx,
    /// The line's cache key on node `n`.
    pub(crate) key: u64,
    /// The line's virtual identity (the shadow checker's line id).
    pub(crate) lid: u64,
    /// A write (or an ownership upgrade) rather than a read.
    pub(crate) write: bool,
}

impl Request {
    /// The global page of a shared frame.
    pub(crate) fn gpage(&self) -> GlobalPage {
        self.gpage.expect("a shared frame has a PIT entry")
    }

    /// The requesting processor's flat id.
    pub(crate) fn flat(&self, m: &Machine) -> u16 {
        m.flat(self.n, self.pi) as u16
    }
}

impl Machine {
    /// Executes one memory reference by processor `pi` of node `n`,
    /// advancing its clock by the reference's full latency.
    pub(crate) fn access(&mut self, n: usize, pi: usize, va: VirtAddr, write: bool) {
        let geom = self.cfg.geometry;
        let lat = self.cfg.latency;
        let flat = self.flat(n, pi) as u16;
        let mut t = self.nodes[n].procs[pi].clock;
        self.obs.incr(Ctr::TotalRefs);
        let vpage = geom.vpage(va);

        // Trace-ingest batching: a run continuation can reuse the
        // memoized translation when the configuration guarantees it is
        // still valid. The skipped work — a TLB re-touch of the entry
        // that is already most-recently-used and a read of the frame's
        // class — is idempotent, so timing and statistics are
        // unchanged; only host cycles are saved.
        let pc = self.nodes[n].procs[pi].pc;
        let memo = self.nodes[n].procs[pi].xlat_memo;
        let (frame, mode) = match memo {
            Some((mv, frame, mode))
                if self.fast_xlat && mv == vpage && self.ingest.same_run(flat as usize, pc) =>
            {
                self.obs.incr(Ctr::BatchedLookups);
                (frame, mode)
            }
            _ => {
                let (frame, mode) = match self.nodes[n].procs[pi].tlb.lookup(vpage) {
                    // A TLB hit gives the frame, and the frame's class
                    // gives the mode: no page-table walk. Every unmap
                    // shoots down the node's TLBs, so a cached frame is
                    // always the one the page table holds.
                    Some(frame) => {
                        let kernel = &self.nodes[n].kernel;
                        let mode = kernel.mode_of(frame);
                        debug_assert_eq!(kernel.lookup(vpage), Some(Pte { frame, mode }));
                        (frame, mode)
                    }
                    // A TLB miss walks the page table; a miss on an
                    // unmapped page is a page fault.
                    None => {
                        t += Cycle(lat.tlb_miss);
                        if self.nodes[n].kernel.lookup(vpage).is_none() {
                            t = self.handle_fault(n, pi, vpage, va, t);
                            if self.nodes[n].procs[pi].state == ProcState::Dead {
                                return;
                            }
                        }
                        let pte = self.nodes[n]
                            .kernel
                            .lookup(vpage)
                            .expect("fault handler mapped the page");
                        self.nodes[n].procs[pi].tlb.insert(vpage, pte.frame);
                        (pte.frame, pte.mode)
                    }
                };
                self.nodes[n].procs[pi].xlat_memo = Some((vpage, frame, mode));
                (frame, mode)
            }
        };
        let line = geom.line_in_page(va.0);
        let key = self.line_key(frame, line);
        let lid = va.0 >> geom.line_log2();

        // Per-access bookkeeping (frame utilization, page-cache LRU,
        // shadow line identity).
        self.nodes[n].kernel.on_access(frame, line);
        if let Some(sh) = self.shadow.as_mut() {
            sh.note_lid(n as u16, key, lid);
        }

        // Write-back journaling: a dynamic home streams a version record
        // for every dirty line to the static home, so a later failover
        // can re-master the page from the journal (§5b). Only writes at
        // a *migrated* home are journaled — data at the static home is
        // already on its own durable memory.
        if write && mode == FrameMode::Scoma && self.journal.is_some() {
            if let Some(gp) = self.gpage_of(n, frame) {
                let dyn_home = self.resolve_dyn_home(gp);
                let stat = self.homes.static_home(gp);
                if dyn_home.0 as usize == n && stat != dyn_home {
                    t += Cycle(self.cfg.journal.record_cycles());
                    self.post_send(n, stat.0 as usize, MsgKind::Journal, t);
                    if let Some(j) = self.journal.as_mut() {
                        j.record_line(gp, line, t);
                    }
                }
            }
        }

        // L1.
        if let Some(st) = self.nodes[n].procs[pi].l1.touch(key) {
            if !write {
                self.nodes[n].procs[pi].clock = t + Cycle(lat.l1_hit);
                if let Some(sh) = self.shadow.as_mut() {
                    sh.observe_hit(flat, lid);
                }
                return;
            }
            if st.is_writable() {
                let p = &mut self.nodes[n].procs[pi];
                if st != LineState::Modified {
                    p.l1.set_state(key, LineState::Modified);
                    p.l2.set_state(key, LineState::Modified);
                }
                p.clock = t + Cycle(lat.l1_hit);
                if let Some(sh) = self.shadow.as_mut() {
                    sh.write(flat, lid);
                }
                return;
            }
            // Write to a Shared L1 line: continue into the upgrade path.
        }

        // L2.
        let l2_state = self.nodes[n].procs[pi].l2.touch(key);
        match l2_state {
            Some(st) if !write => {
                t += Cycle(lat.l2_hit);
                self.fill_l1(n, pi, key, st);
                self.nodes[n].procs[pi].clock = t;
                if let Some(sh) = self.shadow.as_mut() {
                    sh.observe_hit(flat, lid);
                }
                return;
            }
            Some(st) if st.is_writable() => {
                t += Cycle(lat.l2_hit);
                self.nodes[n].procs[pi]
                    .l2
                    .set_state(key, LineState::Modified);
                self.fill_l1(n, pi, key, LineState::Modified);
                self.nodes[n].procs[pi].clock = t;
                if let Some(sh) = self.shadow.as_mut() {
                    sh.write(flat, lid);
                }
                return;
            }
            _ => {}
        }
        let has_shared_copy = matches!(l2_state, Some(LineState::Shared));

        // Node-level action, dispatched on the frame mode (paper Fig. 4).
        // Only shared frames have a global page, translated by the PIT
        // here, past the cache hits that never need it.
        let gpage = if mode.is_shared() {
            self.gpage_of(n, frame)
        } else {
            None
        };
        let req = Request {
            n,
            pi,
            frame,
            mode,
            gpage,
            line,
            key,
            lid,
            write,
        };
        t = self.node_level(&req, has_shared_copy, t);
        if self.nodes[n].procs[pi].state != ProcState::Dead {
            self.nodes[n].procs[pi].clock = t;
        }
    }

    /// The global page node `n`'s PIT binds `frame` to, if any.
    fn gpage_of(&self, n: usize, frame: FrameNo) -> Option<GlobalPage> {
        self.nodes[n]
            .controller
            .pit
            .translate(frame)
            .map(|e| e.gpage)
    }

    /// The controller's mode-dispatched handling of an L2 miss, or of a
    /// write to a copy the requester holds Shared (`has_shared_copy`).
    /// Returns the completion time.
    fn node_level(&mut self, req: &Request, has_shared_copy: bool, t: Cycle) -> Cycle {
        let Request {
            n,
            pi,
            frame,
            line,
            write,
            ..
        } = *req;
        match req.mode {
            FrameMode::Local | FrameMode::Command | FrameMode::Sync => {
                // Node-private: the local bus protocol prevails.
                let backing = FillBacking::Memory {
                    authoritative: true,
                };
                self.intra_node_fill(req, backing, LineState::Exclusive, t)
            }
            FrameMode::Scoma => {
                let tag = self.nodes[n].controller.tags.get(frame, line);
                match tag_action(tag, write) {
                    TagAction::Proceed => {
                        let read_cap = if tag == LineTag::Exclusive {
                            LineState::Exclusive
                        } else {
                            LineState::Shared
                        };
                        // Home frames' memory is authoritative (untouched
                        // lines hold initial data); a client page cache
                        // only holds what was fetched.
                        let authoritative = self.resolve_dyn_home(req.gpage()).0 as usize == n;
                        let backing = FillBacking::Memory { authoritative };
                        self.intra_node_fill(req, backing, read_cap, t)
                    }
                    TagAction::Stall => {
                        // A wedged transaction: the watchdog waits out the
                        // deadline, repairs the tag from the directory's
                        // truth, then the access re-dispatches. The
                        // repaired tag is never Transit, so this recurses
                        // at most once.
                        let t = self.watchdog_stall(n, frame, line, t);
                        if self.nodes[n].procs[pi].state == ProcState::Dead {
                            return t;
                        }
                        self.node_level(req, has_shared_copy, t)
                    }
                    action => {
                        let has_data = action == TagAction::Upgrade && has_shared_copy;
                        RemoteTxn::new(*req, has_data, t).run(self)
                    }
                }
            }
            FrameMode::LaNuma => {
                let tag = self.nodes[n].controller.lanuma_tag(frame, line);
                match tag_action(tag, write) {
                    TagAction::Proceed => {
                        // The controller vouched for this line, so a local
                        // copy exists: in a sibling cache, or — for a
                        // write reaching here — Shared in the accessor's
                        // own L2 (node-exclusive but intra-node shared
                        // after read sharing), needing only a local bus
                        // upgrade.
                        if self.sibling_with_copy(n, pi, req.key).is_some() {
                            self.intra_node_fill(req, FillBacking::CacheOnly, LineState::Shared, t)
                        } else if write && has_shared_copy {
                            self.local_bus_upgrade(req, t)
                        } else {
                            debug_assert!(false, "LA-NUMA node state without a local copy: node {n} proc {pi} frame {frame} line {line} tag {tag:?} write {write}");
                            RemoteTxn::new(*req, false, t).run(self)
                        }
                    }
                    TagAction::Upgrade => RemoteTxn::new(*req, has_shared_copy, t).run(self),
                    TagAction::Stall => unreachable!("LA-NUMA node state is never Transit"),
                    TagAction::FetchShared | TagAction::FetchExclusive => {
                        let t = RemoteTxn::new(*req, false, t).run(self);
                        self.maybe_reconvert_lanuma(n, pi, frame, req.gpage(), t)
                    }
                }
            }
        }
    }
}
