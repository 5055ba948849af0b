//! Page-fault handling and external paging (paper §3.3–§3.4).

use prism_kernel::kernel::{EvictOrder, FaultClass};
use prism_mem::addr::{FrameNo, GlobalPage, LineIdx, NodeId, VirtAddr};
use prism_mem::mode::FrameMode;
use prism_mem::pit::PitEntry;
use prism_mem::tags::LineTag;
use prism_protocol::dirproto;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::obs::Ctr;

impl Machine {
    /// Services a page fault on `vpage` for processor `pi` of node `n`.
    /// Returns the time at which the faulting access can be retried.
    pub(crate) fn handle_fault(
        &mut self,
        n: usize,
        pi: usize,
        vpage: u64,
        va: VirtAddr,
        t: Cycle,
    ) -> Cycle {
        let lat = self.cfg.latency;
        let gpage = self.nodes[n].kernel.resolve(va);
        let dyn_home = gpage
            .map(|gp| self.resolve_dyn_home(gp))
            .unwrap_or(NodeId(n as u16));
        let plan = {
            // The policy may query the local controller's fine-grain tags
            // (Dyn-Util).
            let node = &self.nodes[n];
            node.kernel
                .plan_fault(vpage, gpage, dyn_home, &node.controller)
        };
        let mut t = t;
        let t0 = t;
        match plan.class {
            FaultClass::Private => {
                t += Cycle(lat.uncontended_fault_local());
                self.nodes[n].kernel.commit_private_fault(vpage);
            }
            FaultClass::SharedHome => {
                t += Cycle(lat.uncontended_fault_local());
                let gp = plan.gpage.expect("shared fault has a page");
                let (frame, newly) = self.nodes[n].kernel.ensure_home_resident(gp);
                if newly {
                    self.init_home_page(n, gp, frame);
                }
                self.nodes[n].kernel.commit_home_fault(vpage, gp, frame);
            }
            FaultClass::SharedClient => {
                let gp = plan.gpage.expect("shared fault has a page");
                if let Some(evict) = plan.evict {
                    t = self.page_out_client(n, evict, t);
                }
                if plan.contact_home {
                    // Page-in request round trip (paper §3.3, "External
                    // Paging"); covers bringing the page in at home.
                    let mut home = dyn_home.0 as usize;
                    if self.nodes[home].failed {
                        // Recover via the static home (redirect or home
                        // failover) — or the fault is fatal.
                        match self.reroute_after_home_failure(n, gp, t) {
                            Some((h, tt)) => {
                                home = h;
                                t = tt;
                            }
                            None => {
                                self.freport(|r| r.fatal_faults += 1);
                                self.kill_proc(n, pi);
                                return t;
                            }
                        }
                    }
                    let dyn_home = NodeId(home as u16);
                    t += Cycle(lat.fault_kernel + lat.tlb_miss);
                    // Page-in requests are addressed with the shmat-time
                    // (static) home information; if the dynamic home has
                    // migrated, the static home forwards (paper §3.5).
                    let static_home = self.homes.static_home(gp).0 as usize;
                    let delivered = if static_home != home {
                        self.send_reliable(n, static_home, MsgKind::PageInReq, t)
                            .map(|tt| {
                                self.obs.incr(Ctr::Forwards);
                                self.send(
                                    static_home,
                                    home,
                                    MsgKind::Forward,
                                    tt + Cycle(lat.dispatch),
                                )
                            })
                    } else {
                        self.send_reliable(n, home, MsgKind::PageInReq, t)
                    };
                    t = match delivered {
                        Ok(tt) => tt,
                        Err(_) => {
                            self.freport(|r| r.fatal_faults += 1);
                            self.kill_proc(n, pi);
                            return t;
                        }
                    };
                    t += Cycle(lat.home_pagein_service * self.slow_factor(home, t));
                    let (home_frame, newly) = self.nodes[home].kernel.ensure_home_resident(gp);
                    if newly {
                        self.init_home_page(home, gp, home_frame);
                    }
                    self.nodes[home]
                        .controller
                        .dir
                        .page_mut(gp)
                        .expect("home page initialized")
                        .clients
                        .insert(NodeId(n as u16));
                    t = self.send(home, n, MsgKind::PageInReply, t);
                    t += Cycle(lat.dispatch + lat.pit_access());
                    self.nodes[n]
                        .kernel
                        .learn_home(gp, dyn_home, Some(home_frame));
                } else {
                    t += Cycle(lat.uncontended_fault_local());
                }
                let frame = self.nodes[n].kernel.commit_client_fault(
                    vpage,
                    gp,
                    plan.mode,
                    plan.contact_home,
                );
                // Bind the frame in the controller's PIT.
                let known = self.nodes[n].kernel.known_home(gp);
                let entry = PitEntry {
                    gpage: gp,
                    mode: plan.mode,
                    static_home: self.homes.static_home(gp),
                    dyn_home: known.map(|k| k.dyn_home).unwrap_or(dyn_home),
                    home_frame_hint: known.and_then(|k| k.frame_hint),
                    caps: prism_mem::pit::Caps::AllNodes,
                };
                self.nodes[n].controller.pit.insert(frame, entry);
                if plan.mode == FrameMode::Scoma {
                    self.nodes[n]
                        .controller
                        .tags
                        .allocate(frame, LineTag::Invalid);
                }
            }
        }
        self.obs.fault_latency.record(t - t0);
        t
    }

    /// Initializes controller state for a page newly resident at its
    /// (dynamic) home: PIT entry, fine-grain tags all Exclusive, and
    /// directory state (paper §3.3: "initializes the page's fine-grain
    /// tags to Exclusive").
    pub(crate) fn init_home_page(&mut self, home: usize, gpage: GlobalPage, frame: FrameNo) {
        let entry = self.home_pit_entry(gpage, home, frame);
        let ctl = &mut self.nodes[home].controller;
        ctl.pit.insert(frame, entry);
        ctl.tags.allocate(frame, LineTag::Exclusive);
        ctl.dir
            .page_in(gpage, frame, self.cfg.geometry.lines_per_page());
    }

    /// Pages a shared page out *at its home* (paper §3.3, "During a home
    /// node page-out"): every client is asked to page out its copy and
    /// write back modified data, all clients' home-page-status flags are
    /// reset (so their next fault contacts the home again), the home
    /// flushes its own copies and writes the page to backing store, and
    /// all controller state (PIT entry, tags, directory) is released.
    /// Returns the completion time, or `None` if the page is not
    /// resident at its home.
    ///
    /// This is the mechanism a memory-pressured home kernel would use;
    /// the evaluation never triggers it (home memory is ample), so it is
    /// exposed for direct use and tests.
    pub fn home_page_out(&mut self, gpage: GlobalPage, t: Cycle) -> Option<Cycle> {
        let home = self.resolve_dyn_home(gpage).0 as usize;
        self.nodes[home].kernel.home_frame_of(gpage)?;
        let lat = self.cfg.latency;
        let mut t = t + Cycle(lat.pageout_kernel);

        // 1. Ask every client to page out (their dirty lines flush back
        //    through the normal client page-out path while the directory
        //    is still live) and reset their home-page-status flags.
        let clients: Vec<usize> = self.nodes[home]
            .controller
            .dir
            .page(gpage)
            .map(|pd| pd.clients.iter().map(|c| c.0 as usize).collect())
            .unwrap_or_default();
        for c in clients {
            if c == home || self.nodes[c].failed {
                continue;
            }
            t = self.send(home, c, MsgKind::PageOutReq, t);
            t = self.retire_mapping(c, gpage, t);
            self.nodes[c].kernel.reset_home_status(gpage);
            t = self.send(c, home, MsgKind::PageOutAck, t);
        }

        // 2. The home flushes its own processors' copies (dirty data
        //    folds into home memory, which is about to go to disk) and
        //    unmaps its own virtual mapping (node-local shootdown only).
        //    Shadow memory keeps the node_copy: it models the disk copy,
        //    which the next page-in restores.
        let home_frame = self.nodes[home]
            .controller
            .dir
            .page_out(gpage)
            .expect("residency checked above")
            .home_frame;
        let vpage = self.vpage_of_shared(home, gpage);
        self.release_frame(home, home_frame, vpage);
        if let Some(vp) = vpage {
            self.nodes[home].kernel.unmap_shared_vpage(vp);
        }

        // 3. Release all controller and kernel state.
        self.nodes[home].controller.pit.remove(home_frame);
        self.nodes[home].controller.tags.deallocate(home_frame);
        self.nodes[home].kernel.release_home_residency(gpage);
        // Disk write: a bulk memory read plus fixed device overhead.
        self.nodes[home]
            .memory
            .acquire(t, Cycle(lat.mem_occupancy * 8));
        t += Cycle(lat.pageout_per_line * self.cfg.geometry.lines_per_page() as u64 / 4);
        self.obs.incr(Ctr::HomePageOuts);
        Some(t)
    }

    /// Reactive-NUMA reconversion hook (the paper's §4.3 future work):
    /// after an LA-NUMA remote fetch, the two-directional policy may
    /// decide the page is a mis-converted reuse page. The mapping is
    /// dropped (dirty lines written back, node-local TLB shootdown) and
    /// the page's mode preference returns to S-COMA, so its next fault
    /// allocates a page-cache frame.
    pub(crate) fn maybe_reconvert_lanuma(
        &mut self,
        n: usize,
        pi: usize,
        frame: FrameNo,
        gpage: GlobalPage,
        t: Cycle,
    ) -> Cycle {
        if self.nodes[n].procs[pi].state == crate::node::ProcState::Dead {
            return t;
        }
        if !self.nodes[n].kernel.note_lanuma_refetch(gpage) {
            return t;
        }
        self.drop_lanuma_mapping(n, gpage, frame);
        self.nodes[n].kernel.commit_reconvert_to_scoma(gpage);
        // Mode changes go through the normal page-out path cost
        // (paper §3.3: "changed dynamically ... by paging out the page
        // and setting its mode").
        t + Cycle(self.cfg.latency.pageout_kernel)
    }

    /// Pages out a client page (and optionally converts it to LA-NUMA
    /// mode): flushes node-dirty lines to the home, invalidates local
    /// caches and TLBs, unbinds the PIT entry, and updates the home's
    /// directory. Returns the completion time.
    pub(crate) fn page_out_client(&mut self, n: usize, evict: EvictOrder, t: Cycle) -> Cycle {
        let lat = self.cfg.latency;
        let gp = evict.gpage;
        let frame = evict.frame;
        let home = self.resolve_dyn_home(gp).0 as usize;
        let lpp = self.cfg.geometry.lines_per_page();
        let mut t = t + Cycle(lat.pageout_kernel);

        // Collect node-level dirty lines: tag E means this node owns the
        // line (writes are the only way to obtain E at a client).
        let dirty_lines: Vec<LineIdx> = self.nodes[n]
            .controller
            .tags
            .iter_frame(frame)
            .filter(|&(_, tag)| tag == LineTag::Exclusive)
            .map(|(l, _)| l)
            .collect();
        let shared_lines: Vec<LineIdx> = self.nodes[n]
            .controller
            .tags
            .iter_frame(frame)
            .filter(|&(_, tag)| tag == LineTag::Shared)
            .map(|(l, _)| l)
            .collect();

        // Invalidate local processor caches for the whole frame, folding
        // any dirtier L1/L2 copies into the page cache first (their
        // versions supersede it), and shoot down the node's TLBs.
        self.release_frame(n, frame, Some(evict.vpage));

        // Flush dirty lines to the home and update its directory.
        if !dirty_lines.is_empty() && !self.nodes[home].failed {
            t += Cycle(lat.pageout_per_line * dirty_lines.len() as u64);
            self.post_send(n, home, MsgKind::PageData, t);
            self.nodes[home]
                .memory
                .acquire(t, Cycle(lat.mem_access * dirty_lines.len() as u64 / 4 + 1));
            self.obs.add(Ctr::PageOutLines, dirty_lines.len() as u64);
        }
        if !self.nodes[home].failed {
            t = self.send(n, home, MsgKind::PageOutReq, t);
            t += Cycle(lat.dispatch);
            // lid of line 0 of the page, derived from the victim vpage.
            let lid_base =
                evict.vpage << (self.cfg.geometry.page_log2() - self.cfg.geometry.line_log2());
            let reader = NodeId(n as u16);
            let mut home_frame = None;
            if let Some(pd) = self.nodes[home].controller.dir.page_mut(gp) {
                home_frame = Some(pd.home_frame);
                for &l in dirty_lines.iter().chain(&shared_lines) {
                    *pd.line_mut(l) = dirproto::release(pd.line(l), reader);
                }
                pd.client_frames.remove(&reader);
            }
            if let Some(hf) = home_frame {
                for &l in &dirty_lines {
                    // Home memory is current again for flushed lines.
                    self.nodes[home].controller.tags.set(hf, l, LineTag::Shared);
                    if let Some(sh) = self.shadow.as_mut() {
                        sh.copy_node_to_node(n as u16, home as u16, lid_base + l.0 as u64);
                    }
                }
            }
            t = self.send(home, n, MsgKind::PageOutAck, t);
        }

        // Drop the page-cache copies from the shadow.
        if self.shadow.is_some() {
            let lid_base =
                evict.vpage << (self.cfg.geometry.page_log2() - self.cfg.geometry.line_log2());
            for l in 0..lpp as u64 {
                if let Some(sh) = self.shadow.as_mut() {
                    sh.drop_node(n as u16, lid_base + l);
                }
            }
        }

        // Unbind controller state and commit the kernel side.
        self.nodes[n].controller.pit.remove(frame);
        self.nodes[n].controller.tags.deallocate(frame);
        self.nodes[n]
            .kernel
            .commit_page_out(gp, evict.convert_to_lanuma);
        t
    }
}
