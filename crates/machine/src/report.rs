//! Simulation results: report assembly and deterministic serialization.
//!
//! `Machine::finalize_report` is the one subscriber that drains the
//! observability bus ([`crate::obs`]) into a [`RunReport`]: protocol
//! counters, latency histograms, fault accounting, and audit findings
//! all come off the bus; per-node detail comes from the nodes and their
//! kernels (aggregated through [`KernelStats::absorb`]).
//!
//! A report has one serialized form, [`RunReport::to_json`]: a
//! [`Json`] value rendered by [`prism_sim::json`], the workspace's one
//! JSON writer. The golden fixtures, chaos repro baselines and the
//! benchmark's digests all hold or hash exactly that text.

use std::fmt;

use prism_kernel::kernel::KernelStats;
use prism_mem::frames::PoolStats;
use prism_protocol::msg::TrafficLedger;
use prism_sim::json::Json;
use prism_sim::stats::Histogram;
use prism_sim::Cycle;

use crate::faults::FaultReport;
use crate::machine::Machine;
use crate::obs::Ctr;
use crate::shadow::AuditFinding;

/// Per-node results.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// Cumulative frame-pool allocation statistics.
    pub pool: PoolStats,
    /// Kernel event counters.
    pub kernel: KernelStats,
    /// Real frame instances allocated (utilization denominators).
    pub frame_instances: u64,
    /// Average fraction of lines touched per allocated frame.
    pub utilization: f64,
    /// PIT reverse translations satisfied by message hints.
    pub pit_guess_hits: u64,
    /// PIT reverse translations that searched the hash structure.
    pub pit_hash_lookups: u64,
    /// Directory-cache hits.
    pub dir_cache_hits: u64,
    /// Directory-cache misses.
    pub dir_cache_misses: u64,
    /// Bus busy cycles.
    pub bus_busy: u64,
    /// Network-interface busy cycles.
    pub ni_busy: u64,
    /// Cycles requests waited on the bus.
    pub bus_wait: u64,
    /// Cycles messages waited at the network interface.
    pub ni_wait: u64,
    /// Cycles requests waited for the coherence engine.
    pub engine_wait: u64,
    /// Cycles requests waited for memory banks.
    pub memory_wait: u64,
}

/// Machine-wide results of one simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Execution time: the latest processor finish time.
    pub exec_cycles: Cycle,
    /// Total memory references executed.
    pub total_refs: u64,
    /// References to the same virtual page as their processor's
    /// previous one, with no sync op between (0 when the configuration
    /// lets translations change mid-run: faults, migration, a bounded
    /// page cache, a non-S-COMA policy or suggested modes).
    pub batched_lookups: u64,
    /// L1 hits / misses summed over processors.
    pub l1_hits: u64,
    /// L1 misses summed over processors.
    pub l1_misses: u64,
    /// L2 hits summed over processors.
    pub l2_hits: u64,
    /// L2 misses summed over processors.
    pub l2_misses: u64,
    /// Misses that fetched data from a *remote* node (the paper's
    /// "remote misses", Tables 4 and 5).
    pub remote_misses: u64,
    /// Ownership upgrades that crossed the network without data.
    pub remote_upgrades: u64,
    /// Misses satisfied by local memory or the local page cache.
    pub local_fills: u64,
    /// Misses satisfied by another processor on the same node.
    pub sibling_fills: u64,
    /// Client page-outs (paper Tables 4 and 5).
    pub page_outs: u64,
    /// Dirty lines flushed by page-outs.
    pub page_out_lines: u64,
    /// Pages paged out at their home node (with client notification and
    /// flag resets, paper §3.3).
    pub home_page_outs: u64,
    /// Pages converted to LA-NUMA mode by adaptive policies.
    pub conversions_to_lanuma: u64,
    /// LA-NUMA pages converted back to S-COMA by the two-directional
    /// policy (Reactive-NUMA reuse detection).
    pub conversions_to_scoma: u64,
    /// Page faults (private, home, client).
    pub faults: (u64, u64, u64),
    /// Client faults that messaged the home.
    pub faults_contacting_home: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// LA-NUMA dirty writebacks to remote homes.
    pub remote_writebacks: u64,
    /// Dynamic-home migrations performed.
    pub migrations: u64,
    /// Requests forwarded because a client's dynamic-home hint was stale.
    pub forwards: u64,
    /// Remote accesses rejected by the PIT firewall.
    pub firewall_rejections: u64,
    /// Processors killed by fault containment.
    pub dead_procs: u64,
    /// Barrier episodes completed.
    pub barrier_episodes: u64,
    /// Lock acquisitions (and how many found the lock held).
    pub lock_acquisitions: (u64, u64),
    /// All real frames allocated (instances), machine-wide.
    pub frames_allocated: u64,
    /// Average frame utilization, machine-wide.
    pub avg_utilization: f64,
    /// Message counts by kind.
    pub ledger: TrafficLedger,
    /// Latency distribution of misses filled locally.
    pub local_fill_latency: Histogram,
    /// Latency distribution of remote fetches.
    pub remote_fetch_latency: Histogram,
    /// Latency distribution of page faults.
    pub fault_latency: Histogram,
    /// Per-node details.
    pub per_node: Vec<NodeReport>,
    /// Reads verified by the coherence checker (0 when disabled).
    pub reads_checked: u64,
    /// Fault-injection accounting (all zero when no plan is installed).
    pub fault: FaultReport,
    /// Structural inconsistencies found by the online coherence auditor
    /// (empty when auditing is off or nothing was wrong).
    pub audit: Vec<AuditFinding>,
    /// Auditor sweeps completed (periodic plus the end-of-run sweep).
    pub audit_sweeps: u64,
}

impl Machine {
    /// Snapshots the event bus and per-node state into a [`RunReport`].
    pub(crate) fn finalize_report(&mut self) -> RunReport {
        let mut exec = Cycle::ZERO;
        let (mut l1h, mut l1m, mut l2h, mut l2m) = (0, 0, 0, 0);
        for node in &self.nodes {
            for p in &node.procs {
                if !p.clock.is_never() {
                    exec = exec.max(p.clock);
                }
                let s1 = p.l1.stats();
                let s2 = p.l2.stats();
                l1h += s1.hits;
                l1m += s1.misses;
                l2h += s2.hits;
                l2m += s2.misses;
            }
        }
        // Every audited run ends with a final structural sweep, so even
        // short runs (or faults striking after the last periodic sweep)
        // are checked.
        if self.cfg.audit_interval.is_some() {
            self.audit_sweep(exec);
        }
        let mut per_node = Vec::with_capacity(self.nodes.len());
        let (mut frames, mut util_num) = (0u64, 0.0f64);
        let mut agg = KernelStats::default();
        for node in &self.nodes {
            let (instances, utilization) = node.kernel.usage_snapshot();
            let ks = node.kernel.stats();
            agg.absorb(&ks);
            frames += instances;
            util_num += utilization * instances as f64;
            per_node.push(NodeReport {
                pool: node.kernel.pool_stats(),
                kernel: ks,
                frame_instances: instances,
                utilization,
                pit_guess_hits: node.controller.pit.guess_hits(),
                pit_hash_lookups: node.controller.pit.hash_lookups(),
                dir_cache_hits: node.controller.dir_cache.hits(),
                dir_cache_misses: node.controller.dir_cache.misses(),
                bus_busy: node.bus.busy_cycles(),
                ni_busy: node.ni.busy_cycles(),
                bus_wait: node.bus.wait_cycles(),
                ni_wait: node.ni.wait_cycles(),
                engine_wait: node.engine.wait_cycles(),
                memory_wait: node.memory.wait_cycles(),
            });
        }
        RunReport {
            workload: self.workload_name.clone(),
            exec_cycles: exec,
            total_refs: self.obs.get(Ctr::TotalRefs),
            batched_lookups: self.obs.get(Ctr::BatchedLookups),
            l1_hits: l1h,
            l1_misses: l1m,
            l2_hits: l2h,
            l2_misses: l2m,
            remote_misses: self.obs.get(Ctr::RemoteMisses),
            remote_upgrades: self.obs.get(Ctr::RemoteUpgrades),
            local_fills: self.obs.get(Ctr::LocalFills),
            sibling_fills: self.obs.get(Ctr::SiblingFills),
            page_outs: agg.page_outs,
            page_out_lines: self.obs.get(Ctr::PageOutLines),
            home_page_outs: self.obs.get(Ctr::HomePageOuts),
            conversions_to_lanuma: agg.conversions_to_lanuma,
            conversions_to_scoma: agg.conversions_to_scoma,
            faults: (agg.faults_private, agg.faults_home, agg.faults_client),
            faults_contacting_home: agg.faults_contacting_home,
            invalidations: self.obs.get(Ctr::Invalidations),
            remote_writebacks: self.obs.get(Ctr::RemoteWritebacks),
            migrations: self.obs.get(Ctr::Migrations),
            forwards: self.obs.get(Ctr::Forwards),
            firewall_rejections: self.obs.get(Ctr::FirewallRejections),
            dead_procs: self.obs.get(Ctr::DeadProcs),
            barrier_episodes: self.barrier_groups.iter().map(|(_, b)| b.episodes()).sum(),
            lock_acquisitions: (self.locks.acquisitions(), self.locks.contended()),
            frames_allocated: frames,
            avg_utilization: if frames == 0 {
                0.0
            } else {
                util_num / frames as f64
            },
            ledger: self.ledger.clone(),
            local_fill_latency: self.obs.local_fill_latency.clone(),
            remote_fetch_latency: self.obs.remote_fetch_latency.clone(),
            fault_latency: self.obs.fault_latency.clone(),
            per_node,
            reads_checked: self.shadow.as_ref().map(|s| s.reads_checked).unwrap_or(0),
            fault: self.fault_report(),
            audit: self.obs.findings.clone(),
            audit_sweeps: self.obs.sweeps,
        }
    }
}

impl RunReport {
    /// Remote misses plus upgrades: all accesses that crossed the network.
    pub fn network_accesses(&self) -> u64 {
        self.remote_misses + self.remote_upgrades
    }

    /// Total faults of all classes.
    pub fn total_faults(&self) -> u64 {
        self.faults.0 + self.faults.1 + self.faults.2
    }

    /// Serializes the full report as deterministic JSON through
    /// [`prism_sim::json`]: fixed key order, no whitespace,
    /// shortest-round-trip floats. Two runs that produced identical
    /// reports serialize to identical bytes, which is what the golden
    /// determinism test locks.
    pub fn to_json(&self) -> String {
        let (f, l) = (self.faults, self.lock_acquisitions);
        Json::obj([
            ("workload", self.workload.as_str().into()),
            ("exec_cycles", self.exec_cycles.as_u64().into()),
            ("total_refs", self.total_refs.into()),
            ("batched_lookups", self.batched_lookups.into()),
            ("l1_hits", self.l1_hits.into()),
            ("l1_misses", self.l1_misses.into()),
            ("l2_hits", self.l2_hits.into()),
            ("l2_misses", self.l2_misses.into()),
            ("remote_misses", self.remote_misses.into()),
            ("remote_upgrades", self.remote_upgrades.into()),
            ("local_fills", self.local_fills.into()),
            ("sibling_fills", self.sibling_fills.into()),
            ("page_outs", self.page_outs.into()),
            ("page_out_lines", self.page_out_lines.into()),
            ("home_page_outs", self.home_page_outs.into()),
            ("conversions_to_lanuma", self.conversions_to_lanuma.into()),
            ("conversions_to_scoma", self.conversions_to_scoma.into()),
            ("faults", vec![f.0, f.1, f.2].into()),
            ("faults_contacting_home", self.faults_contacting_home.into()),
            ("invalidations", self.invalidations.into()),
            ("remote_writebacks", self.remote_writebacks.into()),
            ("migrations", self.migrations.into()),
            ("forwards", self.forwards.into()),
            ("firewall_rejections", self.firewall_rejections.into()),
            ("dead_procs", self.dead_procs.into()),
            ("barrier_episodes", self.barrier_episodes.into()),
            ("lock_acquisitions", vec![l.0, l.1].into()),
            ("frames_allocated", self.frames_allocated.into()),
            ("avg_utilization", self.avg_utilization.into()),
            ("ledger", ledger_json(&self.ledger)),
            (
                "local_fill_latency",
                histogram_json(&self.local_fill_latency),
            ),
            (
                "remote_fetch_latency",
                histogram_json(&self.remote_fetch_latency),
            ),
            ("fault_latency", histogram_json(&self.fault_latency)),
            (
                "per_node",
                Json::Arr(self.per_node.iter().map(node_json).collect()),
            ),
            ("reads_checked", self.reads_checked.into()),
            ("fault", fault_json(&self.fault)),
            (
                "audit",
                Json::Arr(self.audit.iter().map(audit_json).collect()),
            ),
            ("audit_sweeps", self.audit_sweeps.into()),
        ])
        .to_string()
    }
}

fn ledger_json(l: &TrafficLedger) -> Json {
    let mut fields: Vec<(String, Json)> = prism_protocol::msg::MsgKind::ALL
        .into_iter()
        .filter(|&kind| l.count(kind) > 0)
        .map(|kind| (kind.to_string(), l.count(kind).into()))
        .collect();
    fields.push(("total".into(), l.total().into()));
    Json::Obj(fields)
}

fn histogram_json(h: &Histogram) -> Json {
    // Sparse bucket encoding: [bucket-index, count] pairs.
    let buckets: Vec<Json> = (0..64)
        .filter(|&i| h.bucket(i) > 0)
        .map(|i| vec![i as u64, h.bucket(i)].into())
        .collect();
    Json::obj([
        ("name", h.name().into()),
        ("count", h.count().into()),
        ("sum", h.sum().into()),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("buckets", Json::Arr(buckets)),
    ])
}

fn node_json(n: &NodeReport) -> Json {
    let (p, k) = (&n.pool, &n.kernel);
    Json::obj([
        (
            "pool",
            Json::obj([
                ("local", p.local.into()),
                ("scoma_home", p.scoma_home.into()),
                ("scoma_client", p.scoma_client.into()),
                ("la_numa", p.la_numa.into()),
                ("command", p.command.into()),
            ]),
        ),
        (
            "kernel",
            Json::obj([
                ("faults_private", k.faults_private.into()),
                ("faults_home", k.faults_home.into()),
                ("faults_client", k.faults_client.into()),
                ("faults_contacting_home", k.faults_contacting_home.into()),
                ("page_outs", k.page_outs.into()),
                ("conversions_to_lanuma", k.conversions_to_lanuma.into()),
                ("conversions_to_scoma", k.conversions_to_scoma.into()),
            ]),
        ),
        ("frame_instances", n.frame_instances.into()),
        ("utilization", n.utilization.into()),
        ("pit_guess_hits", n.pit_guess_hits.into()),
        ("pit_hash_lookups", n.pit_hash_lookups.into()),
        ("dir_cache_hits", n.dir_cache_hits.into()),
        ("dir_cache_misses", n.dir_cache_misses.into()),
        ("bus_busy", n.bus_busy.into()),
        ("ni_busy", n.ni_busy.into()),
        ("bus_wait", n.bus_wait.into()),
        ("ni_wait", n.ni_wait.into()),
        ("engine_wait", n.engine_wait.into()),
        ("memory_wait", n.memory_wait.into()),
    ])
}

fn fault_json(f: &FaultReport) -> Json {
    Json::obj([
        ("dropped_messages", f.dropped_messages.into()),
        ("corrupted_messages", f.corrupted_messages.into()),
        ("nacks", f.nacks.into()),
        ("retries", f.retries.into()),
        ("timeouts", f.timeouts.into()),
        ("backoff_cycles", f.backoff_cycles.into()),
        ("failovers", f.failovers.into()),
        ("pit_corruptions", f.pit_corruptions.into()),
        ("node_failures", f.node_failures.into()),
        ("contained_faults", f.contained_faults.into()),
        ("fatal_faults", f.fatal_faults.into()),
        ("journal_records", f.journal_records.into()),
        ("journal_replay_cycles", f.journal_replay_cycles.into()),
        ("journal_lag_cycles", f.journal_lag_cycles.into()),
        ("lines_recovered", f.lines_recovered.into()),
        ("lines_lost", f.lines_lost.into()),
        ("failover_refusals", f.failover_refusals.into()),
        ("transit_wedges", f.transit_wedges.into()),
        ("watchdog_resends", f.watchdog_resends.into()),
        ("watchdog_remasters", f.watchdog_remasters.into()),
        ("watchdog_kills", f.watchdog_kills.into()),
    ])
}

fn audit_json(a: &AuditFinding) -> Json {
    Json::obj([
        ("at", a.at.as_u64().into()),
        ("node", u64::from(a.node.0).into()),
        ("gpage", a.gpage.map(|g| g.to_string()).into()),
        ("kind", a.kind.to_string().into()),
        ("detail", a.detail.as_str().into()),
    ])
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "── {} ──", self.workload)?;
        writeln!(f, "  exec cycles        {}", self.exec_cycles.as_u64())?;
        writeln!(f, "  memory refs        {}", self.total_refs)?;
        writeln!(
            f,
            "  L1 {}/{}  L2 {}/{} (hits/misses)",
            self.l1_hits, self.l1_misses, self.l2_hits, self.l2_misses
        )?;
        writeln!(
            f,
            "  fills: local {}  sibling {}  remote {} (+{} upgrades)",
            self.local_fills, self.sibling_fills, self.remote_misses, self.remote_upgrades
        )?;
        writeln!(
            f,
            "  faults: {} private, {} home, {} client ({} contacted home)",
            self.faults.0, self.faults.1, self.faults.2, self.faults_contacting_home
        )?;
        writeln!(
            f,
            "  page-outs {}  ({} dirty lines)  conversions {} (→LA-NUMA) / {} (→S-COMA)",
            self.page_outs,
            self.page_out_lines,
            self.conversions_to_lanuma,
            self.conversions_to_scoma
        )?;
        writeln!(
            f,
            "  frames {}  utilization {:.3}",
            self.frames_allocated, self.avg_utilization
        )?;
        writeln!(
            f,
            "  invals {}  remote wb {}  migrations {}  forwards {}",
            self.invalidations, self.remote_writebacks, self.migrations, self.forwards
        )?;
        writeln!(f, "  messages {}", self.ledger.total())?;
        if self.fault.any() {
            writeln!(f, "  {}", self.fault)?;
        }
        if self.audit_sweeps > 0 {
            writeln!(
                f,
                "  audit: {} sweeps, {} findings",
                self.audit_sweeps,
                self.audit.len()
            )?;
        }
        write!(
            f,
            "  mean latencies: local {:.0}cy, remote {:.0}cy, fault {:.0}cy",
            self.local_fill_latency.mean(),
            self.remote_fetch_latency.mean(),
            self.fault_latency.mean()
        )
    }
}
