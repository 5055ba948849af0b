//! The remote-access transaction: one inter-node coherence request
//! reified as a typed state machine.
//!
//! A [`RemoteTxn`] carries a single request (read, write, or ownership
//! upgrade) from the requesting processor's bus through PIT
//! translation, routing (with failed-home re-routing and lazy-migration
//! forwarding), home-side dispatch and firewall, data sourcing,
//! invalidation fan-out, directory commit, the reply, requester-side
//! learning, and the cache fill — each as an explicit [`TxnPhase`].
//! The driver in `remote` constructs the transaction and calls
//! [`RemoteTxn::run`], which steps phases until `Done` or `Abort`.
//!
//! Phases mutate the machine exactly as the former monolithic
//! `remote_access` did, in the same order — the golden determinism
//! tests hold the refactor to byte-identical reports.

use prism_mem::addr::{FrameNo, GlobalPage, LineIdx, NodeId};
use prism_mem::cache::LineState;
use prism_mem::directory::LineDir;
use prism_mem::tags::LineTag;
use prism_protocol::dirproto::{transition, DataSource, DirOutcome, ReqKind};
use prism_protocol::firewall;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::obs::Ctr;

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

/// The phases of a remote coherence transaction, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnPhase {
    /// Requester-side bus, dispatch, and PIT translation.
    Translate,
    /// Deliver the request to the (believed) dynamic home, re-routing
    /// around failed homes and following lazy-migration forwards.
    Route,
    /// Home-side dispatch: reverse translation, firewall, directory
    /// lookup, and the protocol transition decision.
    HomeDispatch,
    /// Source the data: home memory, home cache intervention, or a
    /// third-party owner intervention.
    DataFetch,
    /// Invalidate remaining sharers and (for writes) the home's copies.
    Invalidate,
    /// Commit the directory entry and home fine-grain tag.
    Commit,
    /// Reply to the requester.
    Reply,
    /// Requester-side learning: PIT dyn-home/frame hints, node tags,
    /// and sibling snoop-invalidations.
    Learn,
    /// Fill (or upgrade) the requester's caches and record latency.
    Fill,
    /// Evaluate the lazy home-migration policy on this page's traffic.
    Migrate,
    /// The transaction completed.
    Done,
    /// The transaction failed; the requester is killed.
    Abort(AbortCause),
}

/// One in-flight remote coherence request. Construct with
/// [`RemoteTxn::new`], execute with [`RemoteTxn::run`].
#[derive(Debug)]
pub(crate) struct RemoteTxn {
    phase: TxnPhase,
    // The request, fixed at construction.
    n: usize,
    pi: usize,
    frame: FrameNo,
    gpage: GlobalPage,
    line: LineIdx,
    key: u64,
    lid: u64,
    write: bool,
    has_data: bool,
    scoma: bool,
    t0: Cycle,
    // Evolving transaction state, filled in phase by phase.
    t: Cycle,
    home: usize,
    static_home: usize,
    hint: Option<FrameNo>,
    slow: u64,
    home_frame: FrameNo,
    home_key: u64,
    outcome: Option<DirOutcome>,
    version: u64,
    data_fetched: bool,
    reply_from_owner: bool,
}

impl RemoteTxn {
    /// Builds a transaction for one request by processor `pi` of node
    /// `n`. `write` selects read vs write/upgrade; `has_data` marks an
    /// ownership upgrade (requester holds a valid shared copy); `scoma`
    /// selects whether fetched data also lands in the local page cache.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        n: usize,
        pi: usize,
        frame: FrameNo,
        gpage: GlobalPage,
        line: LineIdx,
        key: u64,
        lid: u64,
        write: bool,
        has_data: bool,
        scoma: bool,
        t: Cycle,
    ) -> RemoteTxn {
        RemoteTxn {
            phase: TxnPhase::Translate,
            n,
            pi,
            frame,
            gpage,
            line,
            key,
            lid,
            write,
            has_data,
            scoma,
            t0: t,
            t,
            home: 0,
            static_home: 0,
            hint: None,
            slow: 1,
            home_frame: FrameNo(0),
            home_key: 0,
            outcome: None,
            version: 0,
            data_fetched: false,
            reply_from_owner: false,
        }
    }

    /// Steps the state machine to completion, performing every state
    /// update and charging every latency. Returns the completion time.
    pub(crate) fn run(mut self, m: &mut Machine) -> Cycle {
        loop {
            self.phase = match self.phase {
                TxnPhase::Translate => self.translate(m),
                TxnPhase::Route => self.route(m),
                TxnPhase::HomeDispatch => self.home_dispatch(m),
                TxnPhase::DataFetch => self.data_fetch(m),
                TxnPhase::Invalidate => self.invalidate(m),
                TxnPhase::Commit => self.commit(m),
                TxnPhase::Reply => self.reply(m),
                TxnPhase::Learn => self.learn(m),
                TxnPhase::Fill => self.fill(m),
                TxnPhase::Migrate => self.migrate(m),
                TxnPhase::Done => return self.t,
                TxnPhase::Abort(cause) => {
                    self.record_abort(m, cause);
                    return self.t;
                }
            };
        }
    }

    /// Accounts the abort and kills the requesting processor.
    fn record_abort(&self, m: &mut Machine, cause: AbortCause) {
        match cause {
            AbortCause::Unreachable => m.freport(|r| r.fatal_faults += 1),
            AbortCause::Firewall => m.obs.incr(Ctr::FirewallRejections),
        }
        m.kill_proc(self.n, self.pi);
    }

    /// Requester-side: bus address phase, dispatch, PIT translation.
    fn translate(&mut self, m: &mut Machine) -> TxnPhase {
        let lat = m.cfg.latency;
        self.t = m.nodes[self.n]
            .bus
            .acquire_until(self.t, Cycle(lat.bus_addr));
        self.t = m.nodes[self.n]
            .engine
            .acquire(self.t, Cycle(lat.dispatch_occupancy))
            + Cycle(lat.dispatch);
        self.t += Cycle(lat.pit_access());

        let entry = m.nodes[self.n]
            .controller
            .pit
            .translate(self.frame)
            .copied()
            .expect("shared frame has a PIT entry");
        self.home = entry.dyn_home.0 as usize;
        self.static_home = entry.static_home.0 as usize;
        self.hint = entry.home_frame_hint;
        TxnPhase::Route
    }

    /// Delivers the request to the dynamic home: reliable send, failed-
    /// home re-routing, and lazy-migration forwarding (paper §3.5).
    fn route(&mut self, m: &mut Machine) -> TxnPhase {
        let lat = m.cfg.latency;
        let kind_msg = if self.write {
            MsgKind::WriteReq
        } else {
            MsgKind::ReadReq
        };
        self.t = match m.send_reliable(self.n, self.home, kind_msg, self.t) {
            Ok(tt) => tt,
            Err(_) => {
                // Every allowed transmission was lost or corrupted.
                return TxnPhase::Abort(AbortCause::Unreachable);
            }
        };

        // A failed (believed) home: after a timeout the requester
        // re-asks the static home, which redirects to a surviving
        // dynamic home or re-masters the page there (home failover) —
        // otherwise the access is fatal.
        if m.nodes[self.home].failed {
            match m.reroute_after_home_failure(self.n, self.gpage, self.t) {
                Some((h, tt)) => {
                    self.home = h;
                    self.t = tt;
                }
                None => return TxnPhase::Abort(AbortCause::Unreachable),
            }
        }

        // Lazy-migration forwarding: a stale dynamic-home hint bounces
        // through the static home, which knows the current location
        // (paper §3.5).
        if m.nodes[self.home].controller.dir.page(self.gpage).is_none() {
            if m.nodes[self.static_home].failed {
                // The forwarder is gone; the page cannot be located.
                return TxnPhase::Abort(AbortCause::Unreachable);
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
                match m.reroute_after_home_failure(self.n, self.gpage, self.t) {
                    Some((h, tt)) => {
                        self.home = h;
                        self.t = tt;
                    }
                    None => return TxnPhase::Abort(AbortCause::Unreachable),
                }
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
        TxnPhase::HomeDispatch
    }

    /// Home-side processing: dispatch (inflated by slow-node episodes),
    /// reverse translation with firewall check, frame utilization,
    /// directory lookup, and the protocol transition decision.
    fn home_dispatch(&mut self, m: &mut Machine) -> TxnPhase {
        let lat = m.cfg.latency;
        let (n, home) = (self.n, self.home);
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
            if firewall::check(&home_entry, home_frame_rt, NodeId(n as u16), self.write).is_err() {
                return TxnPhase::Abort(AbortCause::Firewall);
            }
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
            m.nodes[home].kernel.on_access(hf, self.line);
        }

        // Directory cache and state.
        let dir_hit = m.nodes[home]
            .controller
            .dir_cache
            .probe(self.gpage.line(self.line));
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
            (pd.line(self.line), pd.home_frame)
        };
        self.home_frame = home_frame;
        let home_tag = m.nodes[home].controller.tags.get(home_frame, self.line);
        self.home_key = m.line_key(home_frame, self.line);
        let home_key = self.home_key;
        let home_dirty = (0..m.ppn())
            .any(|hpi| m.nodes[home].procs[hpi].l2.probe(home_key) == Some(LineState::Modified));

        self.outcome = Some(if home == n {
            m.home_self_transition(dirline, home_tag, self.write, self.has_data)
        } else {
            transition(
                dirline,
                home_tag,
                home_dirty,
                NodeId(n as u16),
                if self.write {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                },
                self.has_data,
            )
        });
        TxnPhase::DataFetch
    }

    /// Sources the data per the transition's [`DataSource`].
    fn data_fetch(&mut self, m: &mut Machine) -> TxnPhase {
        let lat = m.cfg.latency;
        let (n, home, home_key, lid, slow) =
            (self.n, self.home, self.home_key, self.lid, self.slow);
        let source = self.outcome.as_ref().expect("set by HomeDispatch").source;
        match source {
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
                if !self.write {
                    // The line is now shared beyond the home node: any
                    // home processor holding it clean-exclusive is
                    // snooped down to Shared so its next write takes the
                    // upgrade path (writes are handled by the home
                    // invalidation in the Invalidate phase).
                    for hpi in 0..m.ppn() {
                        if m.nodes[home].procs[hpi].l2.probe(home_key) == Some(LineState::Exclusive)
                        {
                            m.nodes[home].procs[hpi]
                                .l2
                                .set_state(home_key, LineState::Shared);
                            if m.nodes[home].procs[hpi].l1.probe(home_key).is_some() {
                                m.nodes[home].procs[hpi]
                                    .l1
                                    .set_state(home_key, LineState::Shared);
                            }
                        }
                    }
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
                // The modified holder at the home downgrades (read) or is
                // invalidated (write); dirty data reaches home memory.
                for hpi in 0..m.ppn() {
                    let hflat = m.flat(home, hpi) as u16;
                    let present = m.nodes[home].procs[hpi].l2.probe(home_key).is_some();
                    if !present {
                        continue;
                    }
                    if self.write {
                        m.nodes[home].procs[hpi].l1.invalidate(home_key);
                        m.nodes[home].procs[hpi].l2.invalidate(home_key);
                        if let Some(sh) = m.shadow.as_mut() {
                            sh.writeback(hflat, home as u16, lid);
                            sh.drop_proc(hflat, lid);
                        }
                    } else {
                        m.nodes[home].procs[hpi].l1.downgrade(home_key);
                        m.nodes[home].procs[hpi].l2.downgrade(home_key);
                        if let Some(sh) = m.shadow.as_mut() {
                            sh.writeback(hflat, home as u16, lid);
                        }
                    }
                }
                self.data_fetched = true;
            }
            DataSource::Owner(owner) => {
                let o = owner.0 as usize;
                if m.nodes[o].failed {
                    // The line's only up-to-date copy died with its
                    // owner: unrecoverable, kill the requester.
                    return TxnPhase::Abort(AbortCause::Unreachable);
                }
                self.t = match m.send_reliable(home, o, MsgKind::Intervention, self.t) {
                    Ok(tt) => tt,
                    Err(_) => return TxnPhase::Abort(AbortCause::Unreachable),
                };
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
                if self.write {
                    m.invalidate_at_node(o, self.gpage, self.line, lid);
                } else {
                    m.downgrade_at_node(o, self.gpage, self.line, lid, self.version);
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
        TxnPhase::Invalidate
    }

    /// Invalidates remaining sharers (the owner case folded its
    /// invalidation into the intervention) and, for writes, the home's
    /// own copies.
    fn invalidate(&mut self, m: &mut Machine) -> TxnPhase {
        let lat = m.cfg.latency;
        let (home, home_key, lid) = (self.home, self.home_key, self.lid);
        let outcome = self.outcome.as_ref().expect("set by HomeDispatch");
        let source = outcome.source;
        let invalidate_home = outcome.invalidate_home;
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
                m.invalidate_at_node(s, self.gpage, self.line, lid);
                m.obs.incr(Ctr::Invalidations);
            }
        }
        if invalidate_home {
            self.t += Cycle(lat.home_invalidate);
            for hpi in 0..m.ppn() {
                let hflat = m.flat(home, hpi) as u16;
                let a = m.nodes[home].procs[hpi].l1.invalidate(home_key).is_some();
                let b = m.nodes[home].procs[hpi].l2.invalidate(home_key).is_some();
                if a || b {
                    if let Some(sh) = m.shadow.as_mut() {
                        sh.drop_proc(hflat, lid);
                    }
                }
            }
            if let Some(sh) = m.shadow.as_mut() {
                sh.drop_node(home as u16, lid);
            }
        }
        TxnPhase::Commit
    }

    /// Commits directory and home-tag updates.
    fn commit(&mut self, m: &mut Machine) -> TxnPhase {
        let outcome = self.outcome.as_ref().expect("set by HomeDispatch");
        let new_state = outcome.new_state;
        let home_tag_to = outcome.home_tag_to;
        if let Some(pd) = m.nodes[self.home].controller.dir.page_mut(self.gpage) {
            *pd.line_mut(self.line) = new_state;
            pd.traffic += 1;
            if m.cfg.client_frame_hints_in_directory && self.home != self.n {
                pd.client_frames.insert(NodeId(self.n as u16), self.frame);
            }
        }
        if let Some(tag) = home_tag_to {
            m.nodes[self.home]
                .controller
                .tags
                .set(self.home_frame, self.line, tag);
        }
        TxnPhase::Reply
    }

    /// Replies to the requester (unless the owner already did, or this
    /// was the home's own access).
    fn reply(&mut self, m: &mut Machine) -> TxnPhase {
        let lat = m.cfg.latency;
        if !self.reply_from_owner {
            let reply = if self.data_fetched {
                MsgKind::DataReply
            } else {
                MsgKind::AckReply
            };
            self.t = m.send(self.home, self.n, reply, self.t);
        }
        self.t = m.nodes[self.n]
            .engine
            .acquire(self.t, Cycle(lat.dispatch_occupancy))
            + Cycle(lat.dispatch);
        if self.data_fetched {
            self.t = m.nodes[self.n]
                .bus
                .acquire_until(self.t, Cycle(lat.bus_data));
        }
        TxnPhase::Learn
    }

    /// Requester-side state: PIT learning (lazy migration + reverse-
    /// translation hint), node-level tags, sibling snoop-invalidations.
    fn learn(&mut self, m: &mut Machine) -> TxnPhase {
        let lat = m.cfg.latency;
        let (n, pi, home) = (self.n, self.pi, self.home);
        if home != n {
            if let Some(e) = m.nodes[n].controller.pit.translate_mut(self.frame) {
                e.dyn_home = NodeId(home as u16);
                e.home_frame_hint = Some(self.home_frame);
            }
            m.nodes[n]
                .kernel
                .learn_home(self.gpage, NodeId(home as u16), Some(self.home_frame));
        }

        let new_node_tag = if self.write {
            LineTag::Exclusive
        } else {
            LineTag::Shared
        };
        if home == n {
            // Home-self access: the home's own tag was set via
            // `home_tag_to`; nothing else to record.
        } else if self.scoma {
            m.nodes[n]
                .controller
                .tags
                .set(self.frame, self.line, new_node_tag);
            if self.data_fetched {
                // Fetched data also lands in the local page frame.
                m.nodes[n].memory.acquire(self.t, Cycle(lat.mem_access));
            }
        } else {
            m.nodes[n]
                .controller
                .set_lanuma_tag(self.frame, self.line, new_node_tag);
        }

        // A write gains node-and-processor exclusivity: the bus
        // transaction snoop-invalidates sibling copies on the requesting
        // node (relevant for upgrades of intra-node-shared lines).
        if self.write {
            for spi in 0..m.ppn() {
                if spi == pi {
                    continue;
                }
                let f2 = m.flat(n, spi) as u16;
                let a = m.nodes[n].procs[spi].l1.invalidate(self.key).is_some();
                let b = m.nodes[n].procs[spi].l2.invalidate(self.key).is_some();
                if a || b {
                    if let Some(sh) = m.shadow.as_mut() {
                        sh.drop_proc(f2, self.lid);
                    }
                }
            }
        }
        TxnPhase::Fill
    }

    /// Fills (or upgrades) the requester's caches, counts the access,
    /// and records the fetch latency.
    fn fill(&mut self, m: &mut Machine) -> TxnPhase {
        let (n, pi, home, key, lid) = (self.n, self.pi, self.home, self.key, self.lid);
        let flat = m.flat(n, pi) as u16;
        let data_remote = self.data_fetched && (home != n || self.reply_from_owner);
        if self.data_fetched {
            if let Some(sh) = m.shadow.as_mut() {
                sh.fill_remote(flat, n as u16, lid, self.version, self.scoma && home != n);
            }
            let state = if self.write {
                LineState::Modified
            } else {
                LineState::Shared
            };
            m.insert_line(n, pi, key, state, lid);
            if self.write {
                if let Some(sh) = m.shadow.as_mut() {
                    sh.write(flat, lid);
                }
            }
            if data_remote {
                m.obs.incr(Ctr::RemoteMisses);
            } else {
                m.obs.incr(Ctr::LocalFills);
            }
        } else {
            // Upgrade: the copy we hold becomes writable.
            if let Some(sh) = m.shadow.as_mut() {
                sh.observe_hit(flat, lid);
            }
            m.nodes[n].procs[pi].l2.set_state(key, LineState::Modified);
            if m.nodes[n].procs[pi].l1.probe(key).is_some() {
                m.nodes[n].procs[pi].l1.set_state(key, LineState::Modified);
            } else {
                m.fill_l1(n, pi, key, LineState::Modified, lid);
            }
            if let Some(sh) = m.shadow.as_mut() {
                sh.write(flat, lid);
            }
            m.obs.incr(Ctr::RemoteUpgrades);
        }
        m.obs.remote_fetch_latency.record(self.t - self.t0);
        TxnPhase::Migrate
    }

    /// Lazy home migration: evaluates the policy on this page's
    /// hardware traffic counters (paper §3.5).
    fn migrate(&mut self, m: &mut Machine) -> TxnPhase {
        if let Some(policy) = m.cfg.migration {
            let traffic = m.nodes[self.home].controller.traffic_mut(self.gpage);
            if let Some(target) = policy.evaluate(NodeId(self.home as u16), traffic) {
                traffic.reset();
                m.migrate_page(self.gpage, self.home, target.0 as usize, self.t);
            }
        }
        TxnPhase::Done
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
        let key = self.line_key(frame, line);
        for spi in 0..self.ppn() {
            let f2 = self.flat(s, spi) as u16;
            let a = self.nodes[s].procs[spi].l1.invalidate(key).is_some();
            let b = self.nodes[s].procs[spi].l2.invalidate(key).is_some();
            if a || b {
                if let Some(sh) = self.shadow.as_mut() {
                    sh.drop_proc(f2, lid);
                }
            }
        }
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
        let key = self.line_key(frame, line);
        for spi in 0..self.ppn() {
            if self.nodes[s].procs[spi].l2.probe(key).is_some() {
                self.nodes[s].procs[spi].l1.downgrade(key);
                self.nodes[s].procs[spi].l2.downgrade(key);
            }
        }
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
