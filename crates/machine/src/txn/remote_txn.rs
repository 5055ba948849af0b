//! The remote-access transaction: one inter-node coherence request,
//! from the requester's bus to its cache fill.
//!
//! A [`RemoteTxn`] carries one `Request` (read, write, or ownership
//! upgrade) built by the access path through a fixed chain of steps:
//! PIT translation, routing (with failed-home re-routing and
//! lazy-migration forwarding), home-side dispatch and firewall, data
//! sourcing, invalidation fan-out, directory commit, the reply,
//! requester-side learning, the cache fill and the lazy-migration
//! check. Routing, home dispatch and data sourcing can abort with an
//! [`AbortCause`], which kills the requester. The node-level dispatch
//! in `access` builds the transaction and calls [`RemoteTxn::run`].
//!
//! Per-node cache actions (snooping the home's or a sharer's
//! processors) go through one primitive, `Machine::snoop_node` in
//! `txn::local`.

use prism_mem::addr::{FrameNo, GlobalPage, LineIdx, NodeId};
use prism_mem::cache::LineState;
use prism_mem::directory::LineDir;
use prism_mem::mode::FrameMode;
use prism_mem::tags::LineTag;
use prism_protocol::dirproto::{transition, DataSource, DirOutcome, ReqKind};
use prism_protocol::firewall;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::access::Request;
use crate::machine::Machine;
use crate::obs::Ctr;
use crate::txn::local::Snoop;

/// Why a remote transaction aborted. In every case the requesting
/// processor is killed (contained failure, paper §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// The line or page is unreachable: message delivery exhausted its
    /// retries, or the only up-to-date copy died with a failed node.
    Unreachable,
    /// The home's PIT firewall rejected the request (wild access).
    Firewall,
}

/// One in-flight remote coherence request. Construct with
/// [`RemoteTxn::new`], execute with [`RemoteTxn::run`].
#[derive(Debug)]
pub(crate) struct RemoteTxn {
    // The request, fixed at construction.
    req: Request,
    gpage: GlobalPage,
    has_data: bool,
    t0: Cycle,
    // Evolving transaction state, filled in step by step.
    t: Cycle,
    home: usize,
    static_home: usize,
    hint: Option<FrameNo>,
    slow: u64,
    home_frame: FrameNo,
    home_key: u64,
    version: u64,
    data_fetched: bool,
    reply_from_owner: bool,
}

impl RemoteTxn {
    /// Builds a transaction for `req`, which reaches the controller at
    /// `t`. A write with `has_data` is an ownership upgrade: the
    /// requester holds a valid shared copy.
    pub(crate) fn new(req: Request, has_data: bool, t: Cycle) -> RemoteTxn {
        RemoteTxn {
            req,
            gpage: req.gpage(),
            has_data,
            t0: t,
            t,
            home: 0,
            static_home: 0,
            hint: None,
            slow: 1,
            home_frame: FrameNo(0),
            home_key: 0,
            version: 0,
            data_fetched: false,
            reply_from_owner: false,
        }
    }

    /// Runs the transaction to completion, performing every state
    /// update and charging every latency; an aborted transaction kills
    /// the requester. Returns the completion time.
    pub(crate) fn run(mut self, m: &mut Machine) -> Cycle {
        if let Err(cause) = self.steps(m) {
            self.record_abort(m, cause);
        }
        self.t
    }

    /// The steps in order; routing, home dispatch and data sourcing can
    /// abort.
    fn steps(&mut self, m: &mut Machine) -> Result<(), AbortCause> {
        self.translate(m);
        self.route(m)?;
        let outcome = self.home_dispatch(m)?;
        self.data_fetch(m, &outcome)?;
        self.invalidate(m, &outcome);
        self.commit(m, &outcome);
        self.reply(m);
        self.learn(m);
        self.fill(m);
        self.migrate(m);
        Ok(())
    }

    /// Accounts the abort and kills the requesting processor.
    fn record_abort(&self, m: &mut Machine, cause: AbortCause) {
        match cause {
            AbortCause::Unreachable => m.freport(|r| r.fatal_faults += 1),
            AbortCause::Firewall => m.obs.incr(Ctr::FirewallRejections),
        }
        m.kill_proc(self.req.n, self.req.pi);
    }

    /// Requester-side: bus address phase, dispatch, PIT translation.
    fn translate(&mut self, m: &mut Machine) {
        let lat = m.cfg.latency;
        let n = self.req.n;
        self.t = m.nodes[n].bus.acquire_until(self.t, Cycle(lat.bus_addr));
        self.t = m.nodes[n]
            .engine
            .acquire(self.t, Cycle(lat.dispatch_occupancy))
            + Cycle(lat.dispatch);
        self.t += Cycle(lat.pit_access());

        let entry = m.nodes[n]
            .controller
            .pit
            .translate(self.req.frame)
            .copied()
            .expect("shared frame has a PIT entry");
        self.home = entry.dyn_home.0 as usize;
        self.static_home = entry.static_home.0 as usize;
        self.hint = entry.home_frame_hint;
    }

    /// Delivers the request to the dynamic home: reliable send, failed-
    /// home re-routing, and lazy-migration forwarding (paper §3.5).
    fn route(&mut self, m: &mut Machine) -> Result<(), AbortCause> {
        let lat = m.cfg.latency;
        let n = self.req.n;
        let kind_msg = if self.req.write {
            MsgKind::WriteReq
        } else {
            MsgKind::ReadReq
        };
        // Every allowed transmission may be lost or corrupted.
        self.t = m
            .send_reliable(n, self.home, kind_msg, self.t)
            .map_err(|_| AbortCause::Unreachable)?;

        // A failed (believed) home: after a timeout the requester
        // re-asks the static home, which redirects to a surviving
        // dynamic home or re-masters the page there (home failover) —
        // otherwise the access is fatal.
        if m.nodes[self.home].failed {
            (self.home, self.t) = m
                .reroute_after_home_failure(n, self.gpage, self.t)
                .ok_or(AbortCause::Unreachable)?;
        }

        // Lazy-migration forwarding: a stale dynamic-home hint bounces
        // through the static home, which knows the current location
        // (paper §3.5).
        if m.nodes[self.home].controller.dir.page(self.gpage).is_none() {
            if m.nodes[self.static_home].failed {
                // The forwarder is gone; the page cannot be located.
                return Err(AbortCause::Unreachable);
            }
            m.obs.incr(Ctr::Forwards);
            self.t = m.nodes[self.home]
                .engine
                .acquire(self.t, Cycle(lat.dispatch_occupancy))
                + Cycle(lat.dispatch);
            self.t = m.send(self.home, self.static_home, MsgKind::Forward, self.t);
            self.t = m.nodes[self.static_home]
                .engine
                .acquire(self.t, Cycle(lat.dispatch_occupancy))
                + Cycle(lat.dispatch);
            let target = m.resolve_dyn_home(self.gpage).0 as usize;
            if m.nodes[target].failed {
                (self.home, self.t) = m
                    .reroute_after_home_failure(n, self.gpage, self.t)
                    .ok_or(AbortCause::Unreachable)?;
            } else {
                self.t = m.send(self.static_home, target, MsgKind::Forward, self.t);
                self.home = target;
            }
        }
        assert!(
            m.nodes[self.home].controller.dir.page(self.gpage).is_some(),
            "dynamic home {} lacks directory state for {}",
            self.home,
            self.gpage
        );
        Ok(())
    }

    /// Home-side processing: dispatch (inflated by slow-node episodes),
    /// reverse translation with firewall check, frame utilization,
    /// directory lookup, and the protocol transition decision, which
    /// the remaining steps carry out.
    fn home_dispatch(&mut self, m: &mut Machine) -> Result<DirOutcome, AbortCause> {
        let lat = m.cfg.latency;
        let (n, home, line) = (self.req.n, self.home, self.req.line);
        self.slow = m.slow_factor(home, self.t);
        self.t = m.nodes[home]
            .engine
            .acquire(self.t, Cycle(lat.dispatch_occupancy))
            + Cycle(lat.dispatch * self.slow);
        if home != n {
            // Reverse translation (with the message's frame hint) and
            // firewall check against the home's own PIT entry.
            let (home_frame_rt, how) = m.nodes[home]
                .controller
                .pit
                .reverse(self.gpage, self.hint)
                .expect("home has a PIT entry for a resident page");
            self.t += Cycle(match how {
                prism_mem::pit::ReverseOutcome::GuessHit => lat.pit_access(),
                prism_mem::pit::ReverseOutcome::HashLookup => {
                    lat.pit_access() + lat.pit_hash_search
                }
            });
            let home_entry = *m.nodes[home]
                .controller
                .pit
                .translate(home_frame_rt)
                .expect("reverse translation is bound");
            firewall::check(&home_entry, home_frame_rt, NodeId(n as u16), self.req.write)
                .map_err(|_| AbortCause::Firewall)?;
        }

        // Remote accesses touch the home frame's lines too (frame
        // utilization counts every access, paper Table 3).
        if home != n {
            let hf = m.nodes[home]
                .controller
                .dir
                .page(self.gpage)
                .expect("checked above")
                .home_frame;
            m.nodes[home].kernel.on_access(hf, line);
        }

        // Directory cache and state.
        let dir_hit = m.nodes[home]
            .controller
            .dir_cache
            .probe(self.gpage.line(line));
        self.t += Cycle(lat.dir_access(dir_hit));
        m.nodes[home]
            .controller
            .traffic_mut(self.gpage)
            .record(NodeId(n as u16));

        let (dirline, home_frame) = {
            let pd = m.nodes[home]
                .controller
                .dir
                .page(self.gpage)
                .expect("checked above");
            (pd.line(line), pd.home_frame)
        };
        self.home_frame = home_frame;
        let home_tag = m.nodes[home].controller.tags.get(home_frame, line);
        self.home_key = m.line_key(home_frame, line);
        let home_key = self.home_key;
        let home_dirty = (0..m.ppn())
            .any(|hpi| m.nodes[home].procs[hpi].l2.probe(home_key) == Some(LineState::Modified));

        Ok(if home == n {
            m.home_self_transition(dirline, home_tag, self.req.write, self.has_data)
        } else {
            transition(
                dirline,
                home_tag,
                home_dirty,
                NodeId(n as u16),
                if self.req.write {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                },
                self.has_data,
            )
        })
    }

    /// Sources the data per the transition's [`DataSource`].
    fn data_fetch(&mut self, m: &mut Machine, outcome: &DirOutcome) -> Result<(), AbortCause> {
        let lat = m.cfg.latency;
        let Request { n, lid, write, .. } = self.req;
        let (home, home_key, slow) = (self.home, self.home_key, self.slow);
        match outcome.source {
            DataSource::HomeMemory => {
                self.t = m.nodes[home]
                    .bus
                    .acquire_until(self.t, Cycle(lat.bus_addr + lat.bus_data));
                self.t = m.nodes[home]
                    .memory
                    .acquire(self.t, Cycle(lat.mem_occupancy))
                    + Cycle(lat.mem_access * slow);
                if let Some(sh) = m.shadow.as_ref() {
                    self.version = sh.freshest_at_node(home as u16, m.node_proc_range(home), lid);
                }
                if !write {
                    // The line is now shared beyond the home node: any
                    // home processor holding it clean-exclusive is
                    // snooped down to Shared so its next write takes the
                    // upgrade path (writes are handled by the home
                    // invalidation in the Invalidate step).
                    m.snoop_node(home, home_key, lid, None, Snoop::Downgrade);
                }
                self.data_fetched = true;
            }
            DataSource::HomeIntervention => {
                self.t = m.nodes[home]
                    .bus
                    .acquire_until(self.t, Cycle(lat.bus_addr + lat.bus_data));
                self.t += Cycle(lat.cache_intervention);
                if let Some(sh) = m.shadow.as_ref() {
                    self.version = sh.freshest_at_node(home as u16, m.node_proc_range(home), lid);
                }
                // The modified holder at the home is invalidated (write)
                // or downgraded (read). On a read its dirty data reaches
                // home memory; on a write the home's memory copy goes in
                // the Invalidate step, as the home's tag is valid.
                if write {
                    debug_assert!(outcome.invalidate_home);
                    m.snoop_node(home, home_key, lid, None, Snoop::Invalidate);
                } else if let Some(holder) =
                    m.snoop_node(home, home_key, lid, None, Snoop::Downgrade)
                {
                    if let Some(sh) = m.shadow.as_mut() {
                        sh.writeback(holder, home as u16, lid);
                    }
                }
                self.data_fetched = true;
            }
            DataSource::Owner(owner) => {
                let o = owner.0 as usize;
                if m.nodes[o].failed {
                    // The line's only up-to-date copy died with its
                    // owner: unrecoverable, kill the requester.
                    return Err(AbortCause::Unreachable);
                }
                self.t = m
                    .send_reliable(home, o, MsgKind::Intervention, self.t)
                    .map_err(|_| AbortCause::Unreachable)?;
                self.t = m.nodes[o]
                    .engine
                    .acquire(self.t, Cycle(lat.dispatch_occupancy))
                    + Cycle(lat.dispatch);
                self.t += Cycle(lat.pit_access());
                if !m.cfg.client_frame_hints_in_directory {
                    self.t += Cycle(lat.pit_hash_search);
                }
                self.t = m.nodes[o]
                    .bus
                    .acquire_until(self.t, Cycle(lat.bus_addr + lat.bus_data));
                self.t += Cycle(lat.cache_intervention);
                if let Some(sh) = m.shadow.as_ref() {
                    self.version = sh.freshest_at_node(o as u16, m.node_proc_range(o), lid);
                }
                if write {
                    m.invalidate_at_node(o, self.gpage, self.req.line, lid);
                } else {
                    m.downgrade_at_node(o, self.gpage, self.req.line, lid, self.version);
                    // Data flows through the home, refreshing its memory.
                    m.nodes[home].memory.acquire(self.t, Cycle(lat.mem_access));
                    if let Some(sh) = m.shadow.as_mut() {
                        sh.set_node_copy(home as u16, lid, self.version);
                    }
                }
                // The owner replies directly to the requester.
                self.t = m.send(o, n, MsgKind::DataReply, self.t);
                self.reply_from_owner = true;
                self.data_fetched = true;
            }
            DataSource::None => {}
        }
        Ok(())
    }

    /// Invalidates remaining sharers (the owner case folded its
    /// invalidation into the intervention) and, for writes, the home's
    /// own copies.
    fn invalidate(&mut self, m: &mut Machine, outcome: &DirOutcome) {
        let lat = m.cfg.latency;
        let (home, home_key, lid) = (self.home, self.home_key, self.req.lid);
        let source = outcome.source;
        let sharers: Vec<usize> = outcome
            .invalidate
            .iter()
            .map(|s| s.0 as usize)
            .filter(|&s| !matches!(source, DataSource::Owner(o) if o.0 as usize == s))
            .collect();
        if !sharers.is_empty() {
            self.t += Cycle(lat.inval_first_extra);
            // First invalidation round trip is on the critical path; the
            // rest overlap with serialized ack processing at the home.
            let first = sharers[0];
            self.t = m.send(home, first, MsgKind::Invalidate, self.t);
            self.t = m.nodes[first]
                .engine
                .acquire(self.t, Cycle(lat.dispatch_occupancy))
                + Cycle(lat.dispatch);
            // The sharer reverse-translates the invalidation's global
            // address. Without client frame numbers cached in the home
            // directory (paper §3.2 option, off by default) the message
            // carries no hint, so the sharer searches its PIT hash.
            self.t += Cycle(lat.pit_access());
            if !m.cfg.client_frame_hints_in_directory {
                self.t += Cycle(lat.pit_hash_search);
            }
            self.t = m.send(first, home, MsgKind::InvalAck, self.t);
            self.t = m.nodes[home]
                .engine
                .acquire(self.t, Cycle(lat.dispatch_occupancy))
                + Cycle(lat.dispatch);
            for (i, &s) in sharers.iter().enumerate() {
                if i > 0 {
                    m.post_send(home, s, MsgKind::Invalidate, self.t);
                    m.post_send(s, home, MsgKind::InvalAck, self.t);
                    self.t += Cycle(lat.inval_extra);
                }
                m.invalidate_at_node(s, self.gpage, self.req.line, lid);
                m.obs.incr(Ctr::Invalidations);
            }
        }
        if outcome.invalidate_home {
            self.t += Cycle(lat.home_invalidate);
            m.snoop_node(home, home_key, lid, None, Snoop::Invalidate);
            if let Some(sh) = m.shadow.as_mut() {
                sh.drop_node(home as u16, lid);
            }
        }
    }

    /// Commits directory and home-tag updates.
    fn commit(&mut self, m: &mut Machine, outcome: &DirOutcome) {
        let (n, home, line) = (self.req.n, self.home, self.req.line);
        if let Some(pd) = m.nodes[home].controller.dir.page_mut(self.gpage) {
            *pd.line_mut(line) = outcome.new_state;
            pd.traffic += 1;
            if m.cfg.client_frame_hints_in_directory && home != n {
                pd.client_frames.insert(NodeId(n as u16), self.req.frame);
            }
        }
        if let Some(tag) = outcome.home_tag_to {
            m.nodes[home]
                .controller
                .tags
                .set(self.home_frame, line, tag);
        }
    }

    /// Replies to the requester (unless the owner already did, or this
    /// was the home's own access).
    fn reply(&mut self, m: &mut Machine) {
        let lat = m.cfg.latency;
        let n = self.req.n;
        if !self.reply_from_owner {
            let reply = if self.data_fetched {
                MsgKind::DataReply
            } else {
                MsgKind::AckReply
            };
            self.t = m.send(self.home, n, reply, self.t);
        }
        self.t = m.nodes[n]
            .engine
            .acquire(self.t, Cycle(lat.dispatch_occupancy))
            + Cycle(lat.dispatch);
        if self.data_fetched {
            self.t = m.nodes[n].bus.acquire_until(self.t, Cycle(lat.bus_data));
        }
    }

    /// Requester-side state: PIT learning (lazy migration + reverse-
    /// translation hint), node-level tags, sibling snoop-invalidations.
    fn learn(&mut self, m: &mut Machine) {
        let lat = m.cfg.latency;
        let Request {
            n,
            pi,
            frame,
            line,
            key,
            lid,
            write,
            ..
        } = self.req;
        let home = self.home;
        if home != n {
            if let Some(e) = m.nodes[n].controller.pit.translate_mut(frame) {
                e.dyn_home = NodeId(home as u16);
                e.home_frame_hint = Some(self.home_frame);
            }
            m.nodes[n]
                .kernel
                .learn_home(self.gpage, NodeId(home as u16), Some(self.home_frame));
        }

        let new_node_tag = if write {
            LineTag::Exclusive
        } else {
            LineTag::Shared
        };
        if home == n {
            // Home-self access: the home's own tag was set via
            // `home_tag_to`; nothing else to record.
        } else if self.req.mode == FrameMode::Scoma {
            m.nodes[n].controller.tags.set(frame, line, new_node_tag);
            if self.data_fetched {
                // Fetched data also lands in the local page frame.
                m.nodes[n].memory.acquire(self.t, Cycle(lat.mem_access));
            }
        } else {
            m.nodes[n]
                .controller
                .set_lanuma_tag(frame, line, new_node_tag);
        }

        // A write gains node-and-processor exclusivity: the bus
        // transaction snoop-invalidates sibling copies on the requesting
        // node (relevant for upgrades of intra-node-shared lines).
        if write {
            m.snoop_node(n, key, lid, Some(pi), Snoop::Invalidate);
        }
    }

    /// Fills (or upgrades) the requester's caches, counts the access,
    /// and records the fetch latency.
    fn fill(&mut self, m: &mut Machine) {
        let Request {
            n,
            pi,
            key,
            lid,
            write,
            ..
        } = self.req;
        if self.data_fetched {
            let flat = self.req.flat(m);
            let into_page_cache = self.req.mode == FrameMode::Scoma && self.home != n;
            if let Some(sh) = m.shadow.as_mut() {
                sh.fill_remote(flat, n as u16, lid, self.version, into_page_cache);
            }
            let state = if write {
                LineState::Modified
            } else {
                LineState::Shared
            };
            m.insert_line(n, pi, key, state);
            if write {
                if let Some(sh) = m.shadow.as_mut() {
                    sh.write(flat, lid);
                }
            }
            if self.home != n || self.reply_from_owner {
                m.obs.incr(Ctr::RemoteMisses);
            } else {
                m.obs.incr(Ctr::LocalFills);
            }
        } else {
            // Upgrade: the copy we hold becomes writable.
            m.grant_write(&self.req);
            m.obs.incr(Ctr::RemoteUpgrades);
        }
        m.obs.remote_fetch_latency.record(self.t - self.t0);
    }

    /// Lazy home migration: evaluates the policy on this page's
    /// hardware traffic counters (paper §3.5).
    fn migrate(&mut self, m: &mut Machine) {
        if let Some(policy) = m.cfg.migration {
            let traffic = m.nodes[self.home].controller.traffic_mut(self.gpage);
            if let Some(target) = policy.evaluate(NodeId(self.home as u16), traffic) {
                traffic.reset();
                m.migrate_page(self.gpage, self.home, target.0 as usize, self.t);
            }
        }
    }
}

impl Machine {
    /// Directory transition for the home node's *own* access to a page it
    /// homes, when its fine-grain tag is not sufficient (tag `S` write,
    /// or tag `I` because a client owns the line).
    pub(crate) fn home_self_transition(
        &self,
        dirline: LineDir,
        home_tag: LineTag,
        write: bool,
        has_data: bool,
    ) -> DirOutcome {
        let data_source = if has_data {
            DataSource::None
        } else {
            DataSource::HomeMemory
        };
        match (dirline, write) {
            (LineDir::Owned(owner), false) => DirOutcome {
                source: DataSource::Owner(owner),
                invalidate: prism_mem::addr::NodeSet::EMPTY,
                invalidate_home: false,
                new_state: LineDir::Shared(prism_mem::addr::NodeSet::single(owner)),
                home_tag_to: Some(LineTag::Shared),
                updates_home_memory: true,
            },
            (LineDir::Owned(owner), true) => DirOutcome {
                source: DataSource::Owner(owner),
                invalidate: prism_mem::addr::NodeSet::single(owner),
                invalidate_home: false,
                new_state: LineDir::Uncached,
                home_tag_to: Some(LineTag::Exclusive),
                updates_home_memory: true,
            },
            (LineDir::Shared(sharers), true) => DirOutcome {
                source: data_source,
                invalidate: sharers,
                invalidate_home: false,
                new_state: LineDir::Uncached,
                home_tag_to: Some(LineTag::Exclusive),
                updates_home_memory: false,
            },
            (LineDir::Uncached, true) => DirOutcome {
                // Stale sharer hints already drained; just take the tag.
                source: data_source,
                invalidate: prism_mem::addr::NodeSet::EMPTY,
                invalidate_home: false,
                new_state: LineDir::Uncached,
                home_tag_to: Some(LineTag::Exclusive),
                updates_home_memory: false,
            },
            (state, false) => {
                unreachable!(
                    "home read with valid memory should hit locally: {state:?} tag {home_tag:?}"
                )
            }
        }
    }

    /// Invalidates a line at a node: every processor cache, plus the
    /// node-level tag (S-COMA fine-grain tag or LA-NUMA state).
    pub(crate) fn invalidate_at_node(
        &mut self,
        s: usize,
        gpage: GlobalPage,
        line: LineIdx,
        lid: u64,
    ) {
        let Some(frame) = self.nodes[s].controller.pit.frame_of(gpage) else {
            return; // stale sharer: the node paged the page out already
        };
        self.snoop_node(s, self.line_key(frame, line), lid, None, Snoop::Invalidate);
        if frame.is_imaginary() {
            self.nodes[s]
                .controller
                .set_lanuma_tag(frame, line, LineTag::Invalid);
        } else if self.nodes[s].controller.tags.is_allocated(frame) {
            self.nodes[s]
                .controller
                .tags
                .set(frame, line, LineTag::Invalid);
            if let Some(sh) = self.shadow.as_mut() {
                sh.drop_node(s as u16, lid);
            }
        }
    }

    /// Downgrades a line at an owning node to Shared (3-party read).
    pub(crate) fn downgrade_at_node(
        &mut self,
        s: usize,
        gpage: GlobalPage,
        line: LineIdx,
        lid: u64,
        version: u64,
    ) {
        let Some(frame) = self.nodes[s].controller.pit.frame_of(gpage) else {
            return;
        };
        self.snoop_node(s, self.line_key(frame, line), lid, None, Snoop::Downgrade);
        if frame.is_imaginary() {
            self.nodes[s]
                .controller
                .set_lanuma_tag(frame, line, LineTag::Shared);
        } else if self.nodes[s].controller.tags.is_allocated(frame) {
            self.nodes[s]
                .controller
                .tags
                .set(frame, line, LineTag::Shared);
            // The owner's page-cache copy is refreshed by the writeback.
            if let Some(sh) = self.shadow.as_mut() {
                sh.set_node_copy(s as u16, lid, version);
            }
        }
    }
}
