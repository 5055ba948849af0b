//! The transit-state watchdog (crash recovery for wedged transactions).
//!
//! Protocol transactions execute atomically in the simulation, so the
//! Transit tag is normally unobservable. A fault plan can wedge a line
//! in `T` ([`crate::faults::FaultPlan::wedge_transit`]), modeling a
//! reply lost after the tag transition was staged. The watchdog detects
//! lines stuck past [`crate::config::MachineConfig::watchdog_deadline`]
//! and escalates deterministically:
//!
//! 1. **Resend** — the home is alive: re-query it and repair the tag
//!    from the directory's truth.
//! 2. **Re-master** — the home died with the transaction: re-route via
//!    the static home, replaying the write-back journal
//!    ([`Machine::reroute_after_home_failure`]).
//! 3. **Kill** — the page is unrecoverable: invalidate the line and
//!    kill only the processor(s) still holding it, keeping the failure
//!    contained to the owning application.
//!
//! Each line recovered by step 1 or 2 publishes one
//! [`ObsEvent::WatchdogRecovery`] on the event ring, with `remastered`
//! telling the two apart; a kill publishes the `ProcKilled` events of
//! its victims instead.

use prism_mem::addr::{FrameNo, LineIdx, NodeId};
use prism_mem::directory::LineDir;
use prism_mem::tags::LineTag;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::obs::ObsEvent;
use crate::txn::local::Snoop;

impl Machine {
    /// Scans every live node for lines wedged in Transit past the
    /// deadline and recovers them. Called from the run loop at the same
    /// deterministic points scheduled faults strike at.
    pub(crate) fn watchdog_sweep(&mut self, now: Cycle) {
        let deadline = self.cfg.watchdog_deadline;
        for n in 0..self.cfg.nodes {
            if self.nodes[n].failed || self.nodes[n].controller.transit_pending() == 0 {
                continue;
            }
            for (frame, line, at) in self.nodes[n].controller.transit_lines() {
                if at.saturating_add(deadline) <= now.as_u64() {
                    self.watchdog_recover_line(n, frame, line, now);
                }
            }
        }
    }

    /// A stalled access found the line wedged: wait out the remainder of
    /// the watchdog deadline, then recover. Returns the time the line is
    /// usable (or declared dead) again.
    pub(crate) fn watchdog_stall(
        &mut self,
        n: usize,
        frame: FrameNo,
        line: LineIdx,
        t: Cycle,
    ) -> Cycle {
        let deadline = self.cfg.watchdog_deadline;
        let release = match self.nodes[n].controller.transit_entered_at(frame, line) {
            Some(at) => Cycle(at.saturating_add(deadline).max(t.as_u64())),
            // Untracked wedge (defensive): a full deadline from now.
            None => t + Cycle(deadline),
        };
        self.watchdog_recover_line(n, frame, line, release)
    }

    /// Recovers one wedged line through the escalation ladder. Returns
    /// the completion time.
    pub(crate) fn watchdog_recover_line(
        &mut self,
        n: usize,
        frame: FrameNo,
        line: LineIdx,
        t: Cycle,
    ) -> Cycle {
        self.nodes[n].controller.clear_transit(frame, line);
        let lat = self.cfg.latency;
        let Some(gpage) = self.nodes[n]
            .controller
            .pit
            .translate(frame)
            .map(|e| e.gpage)
        else {
            // The frame was unmapped while wedged; nothing to repair
            // beyond the tag itself.
            if self.nodes[n].controller.tags.is_allocated(frame) {
                self.nodes[n]
                    .controller
                    .tags
                    .set(frame, line, LineTag::Invalid);
            }
            return t;
        };
        let mut t = t;
        let mut home = self.resolve_dyn_home(gpage).0 as usize;
        let remastered = if self.nodes[home].failed {
            // Step 2: the home died with the transaction in flight;
            // re-master the page via the static home (journal replay
            // included).
            match self.reroute_after_home_failure(n, gpage, t) {
                Some((h, tt)) => {
                    home = h;
                    t = tt;
                    true
                }
                None => return self.watchdog_kill(n, frame, line, t),
            }
        } else {
            // Step 1: resend — ask the home to restate the line.
            t = match self.send_reliable(n, home, MsgKind::RetryReq, t) {
                Ok(tt) => tt,
                Err(_) => return self.watchdog_kill(n, frame, line, t),
            };
            t = self.nodes[home]
                .engine
                .acquire(t, Cycle(lat.dispatch_occupancy))
                + Cycle(lat.dispatch);
            false
        };
        // Repair the tag from the home directory's truth. Transactions
        // are atomic, so the directory never wedges: it still records
        // this node's standing from before the fault.
        let me = NodeId(n as u16);
        let dirline = self.nodes[home]
            .controller
            .dir
            .page(gpage)
            .map(|pd| pd.line(line));
        let tag = match dirline {
            Some(LineDir::Owned(o)) if o == me => LineTag::Exclusive,
            Some(LineDir::Shared(s)) if s.contains(me) => LineTag::Shared,
            _ => LineTag::Invalid,
        };
        if home != n {
            t = self.send(home, n, MsgKind::AckReply, t);
        }
        self.nodes[n].controller.tags.set(frame, line, tag);
        if tag == LineTag::Invalid {
            // The home does not count this node as a holder: local
            // copies are stale and must go.
            self.drop_local_copies(n, frame, line);
        }
        self.freport(|r| {
            if remastered {
                r.watchdog_remasters += 1;
            } else {
                r.watchdog_resends += 1;
                r.contained_faults += 1;
            }
        });
        self.obs.emit(
            t,
            ObsEvent::WatchdogRecovery {
                node: me,
                remastered,
            },
        );
        t
    }

    /// Escalation step 3: the line cannot be recovered. It is
    /// invalidated and only the processor(s) still holding it die.
    fn watchdog_kill(&mut self, n: usize, frame: FrameNo, line: LineIdx, t: Cycle) -> Cycle {
        let key = self.line_key(frame, line);
        if self.nodes[n].controller.tags.is_allocated(frame) {
            self.nodes[n]
                .controller
                .tags
                .set(frame, line, LineTag::Invalid);
        }
        for spi in 0..self.ppn() {
            let holds = self.nodes[n].procs[spi].l1.probe(key).is_some()
                || self.nodes[n].procs[spi].l2.probe(key).is_some();
            if holds {
                self.kill_proc(n, spi);
            }
        }
        self.drop_local_copies(n, frame, line);
        self.freport(|r| {
            r.watchdog_kills += 1;
            r.fatal_faults += 1;
        });
        t + Cycle(self.cfg.latency.dispatch)
    }

    /// Drops every local copy of a line: sibling caches and, in the
    /// shadow, the node's page-cache version.
    fn drop_local_copies(&mut self, n: usize, frame: FrameNo, line: LineIdx) {
        let key = self.line_key(frame, line);
        // Any cached copy was filled by an access on this node, which
        // noted the line's id with the shadow, so the shadow never sees
        // the 0 below.
        let lid = self
            .shadow
            .as_ref()
            .and_then(|sh| sh.lid_for(n as u16, key));
        self.snoop_node(n, key, lid.unwrap_or(0), None, Snoop::Invalidate);
        if let (Some(sh), Some(lid)) = (self.shadow.as_mut(), lid) {
            sh.drop_node(n as u16, lid);
        }
    }
}
