//! Simulation results: report assembly and deterministic serialization.
//!
//! [`Machine::finalize_report`] is the one subscriber that drains the
//! observability bus ([`crate::obs`]) into a [`RunReport`]: protocol
//! counters, latency histograms, fault accounting, and audit findings
//! all come off the bus; per-node detail comes from the nodes and their
//! kernels (aggregated through [`KernelStats::absorb`]).

use std::fmt;

use prism_kernel::kernel::KernelStats;
use prism_mem::frames::PoolStats;
use prism_protocol::msg::TrafficLedger;
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
    /// References that reused a same-page run's memoized translation
    /// (trace-ingest batching hit count; 0 when the configuration
    /// disables reuse).
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
    /// Machine-wide directory-cache hits and misses as named [`Ctr`]
    /// entries. Excluded from [`RunReport::to_json`]: the per-node
    /// figures there already carry them, and the golden artifact's
    /// format predates this block.
    pub dir_counters: Vec<(String, u64)>,
}

/// The counters surfaced in the debug report's `dir_counters` block.
const DIR_CTRS: [Ctr; 2] = [Ctr::DirCacheHits, Ctr::DirCacheMisses];

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
        // Fold per-node directory-cache counters onto the bus. The adds
        // are delta-based so a second finalize of the same machine does
        // not double-count.
        let (mut dch, mut dcm) = (0u64, 0u64);
        for node in &self.nodes {
            dch += node.controller.dir_cache.hits();
            dcm += node.controller.dir_cache.misses();
        }
        for (c, total) in [(Ctr::DirCacheHits, dch), (Ctr::DirCacheMisses, dcm)] {
            let seen = self.obs.get(c);
            self.obs.add(c, total.saturating_sub(seen));
        }
        let mut per_node = Vec::with_capacity(self.nodes.len());
        let (mut frames, mut util_num) = (0u64, 0.0f64);
        let mut agg = KernelStats::default();
        for node in &mut self.nodes {
            let (instances, utilization) = node.kernel.finalize_usage();
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
            dir_counters: DIR_CTRS
                .iter()
                .map(|&c| (c.name().to_string(), self.obs.get(c)))
                .collect(),
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

    /// Serializes the full report as deterministic JSON: fixed key
    /// order, no whitespace variation, shortest-round-trip floats. Two
    /// runs that produced identical reports serialize to identical
    /// bytes, which is what the golden determinism test locks.
    pub fn to_json(&self) -> String {
        self.json_impl(false)
    }

    /// [`RunReport::to_json`] plus diagnostics the golden artifact
    /// deliberately omits: the machine-wide `dir_counters` block.
    /// Chaos repro artifacts record this form.
    pub fn to_json_debug(&self) -> String {
        self.json_impl(true)
    }

    fn json_impl(&self, debug: bool) -> String {
        let mut o = String::with_capacity(8 * 1024);
        o.push('{');
        field_str(&mut o, "workload", &self.workload);
        field_u64(&mut o, "exec_cycles", self.exec_cycles.as_u64());
        field_u64(&mut o, "total_refs", self.total_refs);
        field_u64(&mut o, "batched_lookups", self.batched_lookups);
        field_u64(&mut o, "l1_hits", self.l1_hits);
        field_u64(&mut o, "l1_misses", self.l1_misses);
        field_u64(&mut o, "l2_hits", self.l2_hits);
        field_u64(&mut o, "l2_misses", self.l2_misses);
        field_u64(&mut o, "remote_misses", self.remote_misses);
        field_u64(&mut o, "remote_upgrades", self.remote_upgrades);
        field_u64(&mut o, "local_fills", self.local_fills);
        field_u64(&mut o, "sibling_fills", self.sibling_fills);
        field_u64(&mut o, "page_outs", self.page_outs);
        field_u64(&mut o, "page_out_lines", self.page_out_lines);
        field_u64(&mut o, "home_page_outs", self.home_page_outs);
        field_u64(&mut o, "conversions_to_lanuma", self.conversions_to_lanuma);
        field_u64(&mut o, "conversions_to_scoma", self.conversions_to_scoma);
        field_raw(
            &mut o,
            "faults",
            &format!("[{},{},{}]", self.faults.0, self.faults.1, self.faults.2),
        );
        field_u64(
            &mut o,
            "faults_contacting_home",
            self.faults_contacting_home,
        );
        field_u64(&mut o, "invalidations", self.invalidations);
        field_u64(&mut o, "remote_writebacks", self.remote_writebacks);
        field_u64(&mut o, "migrations", self.migrations);
        field_u64(&mut o, "forwards", self.forwards);
        field_u64(&mut o, "firewall_rejections", self.firewall_rejections);
        field_u64(&mut o, "dead_procs", self.dead_procs);
        field_u64(&mut o, "barrier_episodes", self.barrier_episodes);
        field_raw(
            &mut o,
            "lock_acquisitions",
            &format!(
                "[{},{}]",
                self.lock_acquisitions.0, self.lock_acquisitions.1
            ),
        );
        field_u64(&mut o, "frames_allocated", self.frames_allocated);
        field_f64(&mut o, "avg_utilization", self.avg_utilization);
        field_raw(&mut o, "ledger", &ledger_json(&self.ledger));
        field_raw(
            &mut o,
            "local_fill_latency",
            &histogram_json(&self.local_fill_latency),
        );
        field_raw(
            &mut o,
            "remote_fetch_latency",
            &histogram_json(&self.remote_fetch_latency),
        );
        field_raw(
            &mut o,
            "fault_latency",
            &histogram_json(&self.fault_latency),
        );
        let nodes: Vec<String> = self.per_node.iter().map(node_json).collect();
        field_raw(&mut o, "per_node", &format!("[{}]", nodes.join(",")));
        field_u64(&mut o, "reads_checked", self.reads_checked);
        field_raw(&mut o, "fault", &fault_json(&self.fault));
        let audits: Vec<String> = self.audit.iter().map(audit_json).collect();
        field_raw(&mut o, "audit", &format!("[{}]", audits.join(",")));
        field_u64(&mut o, "audit_sweeps", self.audit_sweeps);
        if debug {
            let mut d = String::from("{");
            for (name, v) in &self.dir_counters {
                field_u64(&mut d, name, *v);
            }
            d.pop();
            d.push('}');
            field_raw(&mut o, "dir_counters", &d);
        }
        o.pop(); // trailing comma
        o.push('}');
        o
    }
}

fn field_raw(o: &mut String, key: &str, val: &str) {
    o.push('"');
    o.push_str(key);
    o.push_str("\":");
    o.push_str(val);
    o.push(',');
}

fn field_u64(o: &mut String, key: &str, val: u64) {
    field_raw(o, key, &val.to_string());
}

fn field_f64(o: &mut String, key: &str, val: f64) {
    // Rust's shortest-round-trip float formatting is deterministic and
    // yields valid JSON numbers for all finite values.
    field_raw(o, key, &format!("{val}"));
}

fn field_str(o: &mut String, key: &str, val: &str) {
    field_raw(o, key, &json_string(val));
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ledger_json(l: &TrafficLedger) -> String {
    let mut o = String::from("{");
    for kind in prism_protocol::msg::MsgKind::ALL {
        let n = l.count(kind);
        if n > 0 {
            field_u64(&mut o, &kind.to_string(), n);
        }
    }
    field_u64(&mut o, "total", l.total());
    o.pop();
    o.push('}');
    o
}

fn histogram_json(h: &Histogram) -> String {
    let mut o = String::from("{");
    field_str(&mut o, "name", h.name());
    field_u64(&mut o, "count", h.count());
    field_u64(&mut o, "sum", h.sum());
    field_raw(
        &mut o,
        "min",
        &h.min().map_or_else(|| "null".into(), |v| v.to_string()),
    );
    field_raw(
        &mut o,
        "max",
        &h.max().map_or_else(|| "null".into(), |v| v.to_string()),
    );
    // Sparse bucket encoding: [bucket-index, count] pairs.
    let pairs: Vec<String> = (0..64)
        .filter(|&i| h.bucket(i) > 0)
        .map(|i| format!("[{},{}]", i, h.bucket(i)))
        .collect();
    field_raw(&mut o, "buckets", &format!("[{}]", pairs.join(",")));
    o.pop();
    o.push('}');
    o
}

fn node_json(n: &NodeReport) -> String {
    let mut o = String::from("{");
    field_raw(
        &mut o,
        "pool",
        &format!(
            "{{\"local\":{},\"scoma_home\":{},\"scoma_client\":{},\"la_numa\":{},\"command\":{}}}",
            n.pool.local, n.pool.scoma_home, n.pool.scoma_client, n.pool.la_numa, n.pool.command
        ),
    );
    field_raw(
        &mut o,
        "kernel",
        &format!(
            "{{\"faults_private\":{},\"faults_home\":{},\"faults_client\":{},\
             \"faults_contacting_home\":{},\"page_outs\":{},\
             \"conversions_to_lanuma\":{},\"conversions_to_scoma\":{}}}",
            n.kernel.faults_private,
            n.kernel.faults_home,
            n.kernel.faults_client,
            n.kernel.faults_contacting_home,
            n.kernel.page_outs,
            n.kernel.conversions_to_lanuma,
            n.kernel.conversions_to_scoma
        ),
    );
    field_u64(&mut o, "frame_instances", n.frame_instances);
    field_f64(&mut o, "utilization", n.utilization);
    field_u64(&mut o, "pit_guess_hits", n.pit_guess_hits);
    field_u64(&mut o, "pit_hash_lookups", n.pit_hash_lookups);
    field_u64(&mut o, "dir_cache_hits", n.dir_cache_hits);
    field_u64(&mut o, "dir_cache_misses", n.dir_cache_misses);
    field_u64(&mut o, "bus_busy", n.bus_busy);
    field_u64(&mut o, "ni_busy", n.ni_busy);
    field_u64(&mut o, "bus_wait", n.bus_wait);
    field_u64(&mut o, "ni_wait", n.ni_wait);
    field_u64(&mut o, "engine_wait", n.engine_wait);
    field_u64(&mut o, "memory_wait", n.memory_wait);
    o.pop();
    o.push('}');
    o
}

fn fault_json(f: &FaultReport) -> String {
    let mut o = String::from("{");
    field_u64(&mut o, "dropped_messages", f.dropped_messages);
    field_u64(&mut o, "corrupted_messages", f.corrupted_messages);
    field_u64(&mut o, "nacks", f.nacks);
    field_u64(&mut o, "retries", f.retries);
    field_u64(&mut o, "timeouts", f.timeouts);
    field_u64(&mut o, "backoff_cycles", f.backoff_cycles);
    field_u64(&mut o, "failovers", f.failovers);
    field_u64(&mut o, "pit_corruptions", f.pit_corruptions);
    field_u64(&mut o, "node_failures", f.node_failures);
    field_u64(&mut o, "contained_faults", f.contained_faults);
    field_u64(&mut o, "fatal_faults", f.fatal_faults);
    field_u64(&mut o, "journal_records", f.journal_records);
    field_u64(&mut o, "journal_replay_cycles", f.journal_replay_cycles);
    field_u64(&mut o, "journal_lag_cycles", f.journal_lag_cycles);
    field_u64(&mut o, "lines_recovered", f.lines_recovered);
    field_u64(&mut o, "lines_lost", f.lines_lost);
    field_u64(&mut o, "failover_refusals", f.failover_refusals);
    field_u64(&mut o, "transit_wedges", f.transit_wedges);
    field_u64(&mut o, "watchdog_resends", f.watchdog_resends);
    field_u64(&mut o, "watchdog_remasters", f.watchdog_remasters);
    field_u64(&mut o, "watchdog_kills", f.watchdog_kills);
    o.pop();
    o.push('}');
    o
}

fn audit_json(a: &AuditFinding) -> String {
    let mut o = String::from("{");
    field_u64(&mut o, "at", a.at.as_u64());
    field_u64(&mut o, "node", u64::from(a.node.0));
    field_raw(
        &mut o,
        "gpage",
        &a.gpage
            .map_or_else(|| "null".into(), |g| json_string(&g.to_string())),
    );
    field_str(&mut o, "kind", &a.kind.to_string());
    field_str(&mut o, "detail", &a.detail);
    o.pop();
    o.push('}');
    o
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
