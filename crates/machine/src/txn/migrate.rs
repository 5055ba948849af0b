//! Lazy dynamic-home migration (paper §3.5).
//!
//! Migration involves only the static home and the old and new dynamic
//! homes; clients are *not* notified. Their PIT entries keep pointing at
//! the old home until their next request is forwarded (via the static
//! home) and the reply teaches them the new location.

use prism_mem::addr::{GlobalPage, LineIdx, NodeId};
use prism_mem::cache::LineState;
use prism_mem::directory::LineDir;
use prism_mem::tags::LineTag;
use prism_protocol::dirproto;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::obs::{Ctr, ObsEvent};

/// Outcome of a successful [`Machine::try_home_failover`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct FailoverOutcome {
    /// The page's new dynamic home (always the static home).
    pub(crate) new_home: usize,
    /// Cycles spent replaying journal records over the backing store
    /// (charged to the first re-routed request; per-line counts are in
    /// the fault report).
    pub(crate) replay_cycles: u64,
}

impl Machine {
    /// Moves the dynamic home of `gpage` from node `old` to node `new`.
    ///
    /// The transfer is modeled as control messages among the static home
    /// and the two dynamic homes plus one bulk page-data message; no
    /// client is contacted and no TLB outside the two homes is touched.
    pub(crate) fn migrate_page(&mut self, gpage: GlobalPage, old: usize, new: usize, t: Cycle) {
        if old == new || self.nodes[new].failed {
            return;
        }
        let static_home = self.homes.static_home(gpage).0 as usize;
        let lpp = self.cfg.geometry.lines_per_page();

        // Control: static home coordinates the ownership transfer.
        self.post_send(old, static_home, MsgKind::MigrateCtl, t);
        self.post_send(static_home, new, MsgKind::MigrateCtl, t);

        // If the new home currently holds the page as a client, retire
        // that mapping first (an S-COMA page-out flushes its data home, so
        // the bulk transfer below carries fresh data).
        self.retire_mapping(new, gpage, t);

        // Move the directory state and the page data.
        let pd = self.nodes[old]
            .controller
            .dir
            .page_out(gpage)
            .expect("migrating page is resident at the old home");
        self.post_send(old, new, MsgKind::PageData, t);

        // The old home gives up residency: its processors' dirty copies
        // fold into its memory so the bulk transfer carries current data,
        // then its PIT entry, tags, and any virtual mapping go (its
        // processors will refault as clients).
        let old_frame = pd.home_frame;
        let vpage = self.vpage_of_shared(old, gpage);
        self.release_frame(old, old_frame, vpage);
        self.nodes[old].controller.pit.remove(old_frame);
        self.nodes[old].controller.tags.deallocate(old_frame);
        if let Some(vp) = vpage {
            self.nodes[old].kernel.unmap_shared_vpage(vp);
        }
        self.nodes[old].kernel.release_home_residency(gpage);
        self.adopt_home(new, gpage, pd, old);

        // Shadow: the page data moved old → new.
        if self.shadow.is_some() {
            if let Some(vp) = self.shared_vpage_value(gpage) {
                let lid_base =
                    vp << (self.cfg.geometry.page_log2() - self.cfg.geometry.line_log2());
                for l in 0..lpp as u64 {
                    if let Some(sh) = self.shadow.as_mut() {
                        sh.copy_node_to_node(old as u16, new as u16, lid_base + l);
                        sh.drop_node(old as u16, lid_base + l);
                    }
                }
            }
        }

        // Journal: a migration is a checkpoint. The bulk PageData
        // transfer above refreshed the image the static home journals
        // against, so accumulated per-line records are superseded; a
        // page migrating *onto* its static home needs no journal at all.
        if self.journal.is_some() {
            if new == static_home {
                if let Some(j) = self.journal.as_mut() {
                    j.retire_page(gpage);
                }
            } else {
                self.post_send(new, static_home, MsgKind::Journal, t);
                if let Some(j) = self.journal.as_mut() {
                    j.checkpoint_page(gpage, t);
                }
            }
        }

        self.obs.incr(Ctr::Migrations);
        self.obs.emit(
            t,
            ObsEvent::Migration {
                gpage,
                from: NodeId(old as u16),
                to: NodeId(new as u16),
            },
        );
    }

    /// Attempts to re-master `gpage` at its static home after its
    /// dynamic home `dead` failed (fault recovery, complementing the
    /// lazy-migration machinery above). Succeeds — returning a
    /// [`FailoverOutcome`] — when the paper's containment invariant
    /// allows it:
    ///
    /// * the static home is a different, surviving node (it owns the
    ///   page's backing store, from which the image is restored);
    /// * the directory shows no line whose sole up-to-date copy is
    ///   unreachable — no line owned by a failed node or dirty at the
    ///   static home itself (the dead home can no longer accept its
    ///   flush);
    /// * lines dirty in the dead home's own processor caches (node
    ///   memory survives a failure; cache contents do not) are
    ///   recoverable only under an eager
    ///   [`crate::faults::JournalPolicy`]: the static home replays the
    ///   streamed version records over its backing store. Without the
    ///   journal, such a page is refused and its dirty lines are lost.
    ///
    /// Lines owned by a failed *client* are beyond any journal — their
    /// sole copy died in that client's caches, never having passed
    /// through the dynamic home — so they always refuse failover.
    ///
    /// On success the static home drops any (clean) client mapping it
    /// held, adopts the directory with itself scrubbed from the sharer
    /// sets, replays the journal, and becomes the page's dynamic home;
    /// surviving clients keep stale PIT entries that heal through
    /// forwarding, exactly as after a migration.
    pub(crate) fn try_home_failover(
        &mut self,
        gpage: GlobalPage,
        dead: usize,
        t: Cycle,
    ) -> Option<FailoverOutcome> {
        let static_home = self.homes.static_home(gpage).0 as usize;
        if static_home == dead || self.nodes[static_home].failed {
            self.record_refusal(gpage, 0);
            return None;
        }
        let lpp = self.cfg.geometry.lines_per_page();
        let journal_on = self.cfg.journal.enabled();
        // Line indices dirty only in the dead home's own caches — the
        // class the journal exists for.
        let mut journal_lines: Vec<u64> = Vec::new();
        {
            // The dead home's last directory state is recoverable (the
            // static home mirrors it with the backing store), but a line
            // owned by a failed node — or dirty at the static home with
            // nowhere to flush — is unrecoverable: refuse, the access is
            // fatal.
            let pd = self.nodes[dead].controller.dir.page(gpage)?;
            let mut stranded = 0u64;
            for l in 0..lpp {
                if let LineDir::Owned(o) = pd.line(LineIdx(l as u16)) {
                    if self.nodes[o.0 as usize].failed || o.0 as usize == static_home {
                        stranded += 1;
                    }
                }
            }
            // Home-self writes live as Modified lines in the dead home's
            // own processor caches, not as Owned directory entries. The
            // memory image is stale for them; only the journal's records
            // (streamed to the static home at write time) can restore
            // them.
            let base_key = self.line_key(pd.home_frame, LineIdx(0));
            for l in 0..lpp as u64 {
                for spi in 0..self.ppn() {
                    let in_l1 = self.nodes[dead].procs[spi].l1.probe(base_key + l);
                    let in_l2 = self.nodes[dead].procs[spi].l2.probe(base_key + l);
                    if in_l1 == Some(LineState::Modified) || in_l2 == Some(LineState::Modified) {
                        journal_lines.push(l);
                        break;
                    }
                }
            }
            if stranded > 0 || (!journal_on && !journal_lines.is_empty()) {
                let lost = stranded
                    + if journal_on {
                        0
                    } else {
                        journal_lines.len() as u64
                    };
                self.record_refusal(gpage, lost);
                return None;
            }
        }
        if let Some(cp) = self.nodes[static_home].kernel.client_page(gpage) {
            let dirty_at_static = self.nodes[static_home]
                .controller
                .tags
                .iter_frame(cp.frame)
                .filter(|&(_, tag)| tag == LineTag::Exclusive)
                .count() as u64;
            if dirty_at_static > 0 {
                // The static home's own dirty client copies survive in
                // its caches, but the page cannot be re-mastered under
                // them (the frame would change identity beneath live
                // Modified lines): the application's data is stranded.
                self.record_refusal(gpage, dirty_at_static);
                return None;
            }
        }
        // Retire a clean client copy so the node can host the page as its
        // home; its page-out skips the dead home's directory update, and
        // the adoption below rebuilds it. An LA-NUMA mapping there is
        // necessarily clean too (its dirty lines are Owned(static_home),
        // refused above), so dropping it loses nothing.
        self.retire_mapping(static_home, gpage, t);

        // Strip the dead home's residency: directory, PIT, tags. Its
        // processors are dead; their caches need no invalidation.
        let mut pd = self.nodes[dead]
            .controller
            .dir
            .page_out(gpage)
            .expect("residency checked above");
        let old_frame = pd.home_frame;
        self.nodes[dead].controller.pit.remove(old_frame);
        self.nodes[dead].controller.tags.deallocate(old_frame);
        self.nodes[dead].kernel.release_home_residency(gpage);

        // The new home must not appear in its own directory as a client.
        pd.clients.remove(NodeId(static_home as u16));
        pd.client_frames.remove(&NodeId(static_home as u16));
        pd.clients.remove(NodeId(dead as u16));
        pd.client_frames.remove(&NodeId(dead as u16));
        // Neither holds a line `Owned` (refused above), so this only
        // drops them from sharer sets.
        for l in 0..lpp {
            let li = LineIdx(l as u16);
            let scrubbed = dirproto::release(pd.line(li), NodeId(static_home as u16));
            *pd.line_mut(li) = dirproto::release(scrubbed, NodeId(dead as u16));
        }

        // The static home adopts the page; the restored page image
        // comes from its backing store.
        self.adopt_home(static_home, gpage, pd, dead);

        // Shadow: the backing-store image (the dead home's node copy)
        // reappears at the static home. Journal-covered lines take the
        // version that only lived in the dead home's caches — that is
        // what the streamed records preserve. Lines owned by surviving
        // clients keep their authority at those clients; the dead
        // processors' cached copies die with them.
        if self.shadow.is_some() {
            if let Some(vp) = self.shared_vpage_value(gpage) {
                let lid_base =
                    vp << (self.cfg.geometry.page_log2() - self.cfg.geometry.line_log2());
                let dead_procs = self.node_proc_range(dead);
                for l in 0..lpp as u64 {
                    let lid = lid_base + l;
                    if let Some(sh) = self.shadow.as_mut() {
                        if journal_lines.contains(&l) {
                            let v = sh.freshest_at_node(dead as u16, dead_procs.clone(), lid);
                            sh.set_node_copy(static_home as u16, lid, v);
                        } else {
                            sh.copy_node_to_node(dead as u16, static_home as u16, lid);
                        }
                        sh.drop_node(dead as u16, lid);
                        for p in dead_procs.clone() {
                            sh.drop_proc(p, lid);
                        }
                    }
                }
            }
        }

        // Journal replay accounting: each recovered line costs a replay
        // over the backing store; lag measures how far behind the crash
        // its record was written.
        let recovered = journal_lines.len() as u64;
        let mut replay_cycles = 0u64;
        if journal_on {
            replay_cycles = recovered * self.cfg.journal.replay_cycles_per_line();
            let now = t.as_u64();
            let mut lag = 0u64;
            if let Some(j) = self.journal.as_ref() {
                if let Some(pj) = j.page(gpage) {
                    for &l in &journal_lines {
                        let rec = pj
                            .lines
                            .get(&LineIdx(l as u16))
                            .copied()
                            .or(pj.image_at)
                            .map(|c| c.as_u64())
                            .unwrap_or(now);
                        lag += now.saturating_sub(rec);
                    }
                }
            }
            if let Some(j) = self.journal.as_mut() {
                // The static home is the dynamic home again: journaling
                // for this page stops until it migrates away.
                j.retire_page(gpage);
            }
            self.freport(|r| {
                r.lines_recovered += recovered;
                r.journal_replay_cycles += replay_cycles;
                r.journal_lag_cycles += lag;
            });
        }

        self.freport(|r| r.failovers += 1);
        self.obs.emit(
            t,
            ObsEvent::Failover {
                gpage,
                to: NodeId(static_home as u16),
            },
        );
        Some(FailoverOutcome {
            new_home: static_home,
            replay_cycles,
        })
    }

    /// Accounts a refused failover. A page's unreachable dirty lines are
    /// counted as lost once, however many accesses subsequently trip
    /// over the refusal.
    fn record_refusal(&mut self, gpage: GlobalPage, stranded: u64) {
        let Some(state) = self.fault.as_mut() else {
            return;
        };
        let first_loss = stranded > 0 && state.lost_pages.insert(gpage);
        self.freport(|r| {
            r.failover_refusals += 1;
            if first_loss {
                r.lines_lost += stranded;
            }
        });
    }

    /// Re-routes a request whose (believed) home is on a failed node:
    /// after a timeout the requester re-asks the static home, which
    /// either knows a surviving dynamic home (stale-hint case) or
    /// performs a [`Machine::try_home_failover`]. Returns the surviving
    /// home and the time the re-routed request arrives there, or `None`
    /// when the access is unrecoverable (the caller kills the
    /// requester).
    pub(crate) fn reroute_after_home_failure(
        &mut self,
        n: usize,
        gpage: GlobalPage,
        t: Cycle,
    ) -> Option<(usize, Cycle)> {
        let lat = self.cfg.latency;
        let policy = self.cfg.retry;
        let static_home = self.homes.static_home(gpage).0 as usize;
        if self.nodes[static_home].failed {
            // Discovery and recovery both go through the static home;
            // with it gone the page is unreachable.
            return None;
        }
        // The request to the dead home went unanswered.
        let mut t = t + Cycle(policy.timeout_cycles);
        self.freport(|r| {
            r.timeouts += 1;
            r.retries += 1;
            r.backoff_cycles += policy.timeout_cycles;
        });
        let actual = self.resolve_dyn_home(gpage).0 as usize;
        let (target, recovered) = if !self.nodes[actual].failed {
            // A stale hint pointed at the failed node; the page already
            // lives elsewhere.
            (actual, None)
        } else {
            let out = self.try_home_failover(gpage, actual, t)?;
            (out.new_home, Some(out))
        };
        t = self.send(n, static_home, MsgKind::RetryReq, t);
        t = self.nodes[static_home]
            .engine
            .acquire(t, Cycle(lat.dispatch_occupancy))
            + Cycle(lat.dispatch);
        if let Some(out) = recovered {
            // Restoring the page image from backing store — plus any
            // journal replay — is on the critical path of the first
            // re-routed request.
            t += Cycle(
                lat.home_pagein_service
                    + lat.pageout_per_line * self.cfg.geometry.lines_per_page() as u64 / 4
                    + out.replay_cycles,
            );
        }
        if target != static_home {
            self.obs.incr(Ctr::Forwards);
            t = self.send(static_home, target, MsgKind::Forward, t);
        }
        self.freport(|r| r.contained_faults += 1);
        Some((target, t))
    }

    /// The virtual page a node maps `gpage` at, if it has a mapping.
    /// (Shared segments attach at identical addresses, so this is a
    /// machine-wide property; we consult the node's page table through
    /// the global attach layout.)
    pub(crate) fn vpage_of_shared(&self, n: usize, gpage: GlobalPage) -> Option<u64> {
        let vp = self.shared_vpage_value(gpage)?;
        self.nodes[n].kernel.lookup(vp).map(|_| vp)
    }

    /// The (machine-wide) virtual page number of a global page, derived
    /// from the segment attachments.
    pub(crate) fn shared_vpage_value(&self, gpage: GlobalPage) -> Option<u64> {
        // All nodes attach identically, so the first node that knows
        // the attachment answers for the machine.
        self.nodes
            .iter()
            .find_map(|node| node.kernel.shared_vpage(gpage, &self.cfg.geometry))
    }
}
