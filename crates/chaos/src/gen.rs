//! Random-but-valid case generation for chaos campaigns.
//!
//! A [`CaseSpec`] is the *complete* description of one chaos case: the
//! machine shape, every reliability knob, the workload, and the fault
//! plan — everything needed to rebuild the run bit-identically. Cases
//! are drawn from [`SimRng::for_stream`]`(campaign_seed, index)`, so
//! case `k` of a campaign can be re-derived in isolation (shrinking and
//! replay never have to re-generate cases `0..k-1`).
//!
//! Generation is *valid by construction*: every spec this module
//! produces builds a [`MachineConfig`] that passes `validate()` and a
//! [`FaultPlan`] that passes [`FaultPlan::validate`] — the harness
//! searches the space of machines that should work, not the space of
//! rejected configurations (those are covered by unit tests on the
//! validators themselves).

use prism_kernel::migration::MigrationPolicy;
use prism_kernel::policy::PagePolicy;
use prism_machine::config::MachineConfig;
use prism_machine::faults::{FaultPlan, JournalPolicy, RetryPolicy};
use prism_mem::addr::NodeId;
use prism_mem::trace::Trace;
use prism_sim::{Cycle, SimRng};
use prism_workloads::{Synthetic, Workload};

use prism_sim::json::Json;

/// The six page modes a campaign must span, in round-robin order.
pub const ALL_POLICIES: [PagePolicy; 6] = [
    PagePolicy::Scoma,
    PagePolicy::Lanuma,
    PagePolicy::DynFcfs,
    PagePolicy::DynUtil,
    PagePolicy::DynLru,
    PagePolicy::DynBoth,
];

/// Stable names for page policies in artifacts and coverage maps.
pub fn policy_name(p: PagePolicy) -> &'static str {
    match p {
        PagePolicy::Scoma => "scoma",
        PagePolicy::Lanuma => "lanuma",
        PagePolicy::DynFcfs => "dyn-fcfs",
        PagePolicy::DynUtil => "dyn-util",
        PagePolicy::DynLru => "dyn-lru",
        PagePolicy::DynBoth => "dyn-both",
    }
}

fn policy_from_name(s: &str) -> Option<PagePolicy> {
    ALL_POLICIES.iter().copied().find(|&p| policy_name(p) == s)
}

/// The synthetic access pattern a case drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniformly random shared reads/writes.
    Uniform,
    /// The whole machine takes turns owning a hot region.
    Migratory,
    /// Lane 0 produces, everyone else consumes after a barrier.
    ProducerConsumer,
    /// Node-private streaming (no coherence traffic).
    PrivateOnly,
}

impl WorkloadKind {
    fn name(self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Migratory => "migratory",
            WorkloadKind::ProducerConsumer => "producer-consumer",
            WorkloadKind::PrivateOnly => "private-only",
        }
    }

    fn from_name(s: &str) -> Option<WorkloadKind> {
        [
            WorkloadKind::Uniform,
            WorkloadKind::Migratory,
            WorkloadKind::ProducerConsumer,
            WorkloadKind::PrivateOnly,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// The workload portion of a case.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Access pattern.
    pub kind: WorkloadKind,
    /// Shared-region size in bytes.
    pub bytes: u64,
    /// References per processor.
    pub refs_per_proc: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Builds the trace for `procs` lanes.
    pub fn trace(&self, procs: usize) -> Trace {
        let w = match self.kind {
            WorkloadKind::Uniform => Synthetic::uniform(procs, self.bytes, self.refs_per_proc),
            WorkloadKind::Migratory => Synthetic::migratory(procs, self.bytes, self.refs_per_proc),
            WorkloadKind::ProducerConsumer => {
                Synthetic::producer_consumer(procs, self.bytes, self.refs_per_proc)
            }
            WorkloadKind::PrivateOnly => {
                Synthetic::private_only(procs, self.bytes, self.refs_per_proc)
            }
        };
        w.with_seed(self.seed).generate(procs)
    }
}

/// A transient link-fault window, as plain data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindowSpec {
    /// First cycle (inclusive).
    pub from: u64,
    /// Last cycle (exclusive).
    pub until: u64,
    /// Message drop probability inside the window.
    pub drop_prob: f64,
    /// Message corruption probability inside the window.
    pub corrupt_prob: f64,
}

/// A slow-node episode, as plain data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowSpec {
    /// Afflicted node.
    pub node: u16,
    /// First cycle (inclusive).
    pub from: u64,
    /// Last cycle (exclusive).
    pub until: u64,
    /// Latency multiplier.
    pub factor: u64,
}

/// The kind of a scheduled point fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Permanent node failure.
    FailNode,
    /// Scramble one client PIT entry.
    CorruptPit,
    /// Wedge one Transit-tagged line.
    WedgeTransit,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::FailNode => "fail-node",
            EventKind::CorruptPit => "corrupt-pit",
            EventKind::WedgeTransit => "wedge-transit",
        }
    }

    fn from_name(s: &str) -> Option<EventKind> {
        [
            EventKind::FailNode,
            EventKind::CorruptPit,
            EventKind::WedgeTransit,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// A scheduled point fault, as plain data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventSpec {
    /// What strikes.
    pub kind: EventKind,
    /// Target node.
    pub node: u16,
    /// Injection cycle.
    pub at: u64,
}

/// The fault-plan portion of a case, as plain data (rebuilt into a
/// [`FaultPlan`] per run).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Fault-stream determinism seed.
    pub seed: u64,
    /// Transient link-fault windows.
    pub link_windows: Vec<LinkWindowSpec>,
    /// Slow-node episodes.
    pub slow_episodes: Vec<SlowSpec>,
    /// Scheduled point faults.
    pub events: Vec<EventSpec>,
}

impl FaultSpec {
    /// Rebuilds the concrete [`FaultPlan`].
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        for w in &self.link_windows {
            plan =
                plan.link_fault_window(Cycle(w.from), Cycle(w.until), w.drop_prob, w.corrupt_prob);
        }
        for s in &self.slow_episodes {
            plan = plan.slow_node(NodeId(s.node), Cycle(s.from), Cycle(s.until), s.factor);
        }
        for e in &self.events {
            plan = match e.kind {
                EventKind::FailNode => plan.fail_node(NodeId(e.node), Cycle(e.at)),
                EventKind::CorruptPit => plan.corrupt_pit(NodeId(e.node), Cycle(e.at)),
                EventKind::WedgeTransit => plan.wedge_transit(NodeId(e.node), Cycle(e.at)),
            };
        }
        plan
    }

    /// True when the plan can alter protocol *structure* (drop/corrupt
    /// messages, kill nodes, scramble PITs, wedge lines). Slow-node
    /// episodes are excluded on purpose: they stretch latencies but can
    /// never lose state, so a slow-only case must behave like a
    /// fault-free one to every structural oracle.
    pub fn is_structural(&self) -> bool {
        !self.events.is_empty()
            || self
                .link_windows
                .iter()
                .any(|w| w.drop_prob > 0.0 || w.corrupt_prob > 0.0)
    }

    /// Distinct nodes targeted by `FailNode` events.
    pub fn failed_nodes(&self) -> usize {
        let mut nodes: Vec<u16> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::FailNode)
            .map(|e| e.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Count of scheduled events of `kind`.
    pub fn event_count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// A complete chaos case: machine shape, reliability knobs, workload,
/// and fault plan. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseSpec {
    /// The campaign seed this case was drawn from.
    pub campaign_seed: u64,
    /// The case's index within the campaign.
    pub index: u64,
    /// Node count.
    pub nodes: usize,
    /// Processors per node.
    pub procs_per_node: usize,
    /// Page-mode policy.
    pub policy: PagePolicy,
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Client page-cache capacity (None = unlimited).
    pub page_cache_capacity: Option<usize>,
    /// Lazy home migration (default policy) on/off.
    pub migration: bool,
    /// Shadow read-sees-latest-write checking on/off.
    pub check_coherence: bool,
    /// Online auditor sweep interval (None = end-of-run only).
    pub audit_interval: Option<u64>,
    /// Message retry policy.
    pub retry: RetryPolicy,
    /// Eager write-back journaling on/off.
    pub journal_eager: bool,
    /// Transit-tag watchdog deadline in cycles.
    pub watchdog_deadline: u64,
    /// Space-shared jobs (1 = whole-machine, 2 = two jobs on disjoint
    /// node halves; structural faults then only target job 0's nodes so
    /// the containment oracle can hold job 1 harmless).
    pub jobs: usize,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The fault plan.
    pub faults: FaultSpec,
}

impl CaseSpec {
    /// Total processors in the machine.
    pub fn total_procs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Nodes belonging to job 0 when `jobs == 2` (job 1 gets the rest).
    pub fn job0_nodes(&self) -> usize {
        debug_assert!(self.jobs == 2);
        (self.nodes / 2).max(1)
    }

    /// The traces to run: one for a whole-machine case, two for a
    /// space-shared case (lane blocks match the node split).
    pub fn traces(&self) -> Vec<Trace> {
        if self.jobs == 1 {
            vec![self.workload.trace(self.total_procs())]
        } else {
            let p0 = self.job0_nodes() * self.procs_per_node;
            let p1 = self.total_procs() - p0;
            let mut victim = self.workload.clone();
            victim.seed = victim.seed.wrapping_add(1);
            vec![self.workload.trace(p0), victim.trace(p1)]
        }
    }

    /// Builds the machine configuration.
    pub fn config(&self) -> MachineConfig {
        let migration = if self.migration {
            Some(MigrationPolicy::default())
        } else {
            None
        };
        MachineConfig::builder()
            .nodes(self.nodes)
            .procs_per_node(self.procs_per_node)
            .l1_bytes(self.l1_bytes)
            .l2_bytes(self.l2_bytes)
            .page_cache_capacity(self.page_cache_capacity)
            .policy(self.policy)
            .migration(migration)
            .check_coherence(self.check_coherence)
            .audit_interval(self.audit_interval)
            .retry(self.retry)
            .journal(if self.journal_eager {
                JournalPolicy::eager()
            } else {
                JournalPolicy::Off
            })
            .watchdog_deadline(self.watchdog_deadline)
            .build()
    }

    /// Generates case `index` of the campaign seeded `campaign_seed`.
    ///
    /// Pure: the same `(campaign_seed, index)` pair always yields the
    /// same spec, regardless of what else the campaign has generated.
    /// The page policy round-robins over [`ALL_POLICIES`] by index so
    /// any window of six or more consecutive cases spans all six page
    /// modes; everything else is drawn from the case's private stream.
    pub fn generate(campaign_seed: u64, index: u64) -> CaseSpec {
        let mut rng = SimRng::for_stream(campaign_seed, index);
        let nodes = 2 + rng.gen_index(3); // 2..=4
        let procs_per_node = 1 + rng.gen_index(2); // 1..=2
        let policy = ALL_POLICIES[(index % 6) as usize];
        let l1_bytes = 512 << rng.gen_index(2); // 512 | 1024
        let l2_bytes = 4 * l1_bytes;
        let page_cache_capacity = if rng.gen_bool(0.6) {
            Some(2 + rng.gen_index(6))
        } else {
            None
        };
        let migration = rng.gen_bool(0.25);
        let check_coherence = rng.gen_bool(0.35);
        let audit_interval = if rng.gen_bool(0.7) {
            Some(1_000 + rng.gen_range(0..20_000))
        } else {
            None
        };
        let retry = RetryPolicy {
            max_attempts: 1 + rng.gen_index(8) as u32,
            timeout_cycles: 1_024 << rng.gen_index(3),
            backoff: 1 + rng.gen_range(0..3),
        };
        let journal_eager = rng.gen_bool(0.4);
        let watchdog_deadline = 2_048 << rng.gen_index(4);
        let jobs = if rng.gen_bool(0.25) { 2 } else { 1 };
        let workload = WorkloadSpec {
            kind: match rng.gen_index(4) {
                0 => WorkloadKind::Migratory,
                1 => WorkloadKind::ProducerConsumer,
                2 => WorkloadKind::PrivateOnly,
                _ => WorkloadKind::Uniform,
            },
            bytes: 4_096 * (1 + rng.gen_range(0..4)),
            refs_per_proc: 48 + rng.gen_index(160),
            seed: rng.next_u64(),
        };

        // Structural faults of a two-job case only target job 0's nodes,
        // and link windows (which perturb every link in the machine) are
        // whole-machine cases only — that is what lets the containment
        // oracle demand job 1 comes through without a single casualty.
        let fault_target_nodes = if jobs == 2 { (nodes / 2).max(1) } else { nodes };
        let mut faults = FaultSpec {
            seed: rng.next_u64(),
            link_windows: Vec::new(),
            slow_episodes: Vec::new(),
            events: Vec::new(),
        };
        if rng.gen_bool(0.75) {
            if jobs == 1 {
                for _ in 0..rng.gen_index(3) {
                    let from = rng.gen_range(0..40_000);
                    let until = from + 4_000 + rng.gen_range(0..36_000);
                    faults.link_windows.push(LinkWindowSpec {
                        from,
                        until,
                        drop_prob: rng.next_f64() * 0.03,
                        corrupt_prob: rng.next_f64() * 0.01,
                    });
                }
            }
            // One episode per afflicted node, so episodes never overlap.
            let mut slow_targets: Vec<u16> = (0..nodes as u16).collect();
            rng.shuffle(&mut slow_targets);
            for &node in slow_targets.iter().take(rng.gen_index(3)) {
                let from = rng.gen_range(0..60_000);
                faults.slow_episodes.push(SlowSpec {
                    node,
                    from,
                    until: from + 5_000 + rng.gen_range(0..55_000),
                    factor: 2 + rng.gen_range(0..7),
                });
            }
            for _ in 0..rng.gen_index(4) {
                faults.events.push(EventSpec {
                    kind: match rng.gen_index(3) {
                        0 => EventKind::FailNode,
                        1 => EventKind::CorruptPit,
                        _ => EventKind::WedgeTransit,
                    },
                    node: rng.gen_index(fault_target_nodes) as u16,
                    at: 1_000 + rng.gen_range(0..120_000),
                });
            }
        }

        let spec = CaseSpec {
            campaign_seed,
            index,
            nodes,
            procs_per_node,
            policy,
            l1_bytes,
            l2_bytes,
            page_cache_capacity,
            migration,
            check_coherence,
            audit_interval,
            retry,
            journal_eager,
            watchdog_deadline,
            jobs,
            workload,
            faults,
        };
        debug_assert!(spec.faults.plan().validate(spec.nodes).is_ok());
        spec
    }

    /// Serializes the spec as a JSON object.
    pub fn to_json(&self) -> Json {
        let windows = self.faults.link_windows.iter().map(|w| {
            Json::obj([
                ("from", w.from.into()),
                ("until", w.until.into()),
                ("drop_prob", w.drop_prob.into()),
                ("corrupt_prob", w.corrupt_prob.into()),
            ])
        });
        let slows = self.faults.slow_episodes.iter().map(|s| {
            Json::obj([
                ("node", u64::from(s.node).into()),
                ("from", s.from.into()),
                ("until", s.until.into()),
                ("factor", s.factor.into()),
            ])
        });
        let events = self.faults.events.iter().map(|e| {
            Json::obj([
                ("kind", e.kind.name().into()),
                ("node", u64::from(e.node).into()),
                ("at", e.at.into()),
            ])
        });
        Json::obj([
            ("campaign_seed", self.campaign_seed.into()),
            ("index", self.index.into()),
            ("nodes", self.nodes.into()),
            ("procs_per_node", self.procs_per_node.into()),
            ("policy", policy_name(self.policy).into()),
            ("l1_bytes", self.l1_bytes.into()),
            ("l2_bytes", self.l2_bytes.into()),
            ("page_cache_capacity", self.page_cache_capacity.into()),
            ("migration", self.migration.into()),
            ("check_coherence", self.check_coherence.into()),
            ("audit_interval", self.audit_interval.into()),
            (
                "retry",
                Json::obj([
                    ("max_attempts", u64::from(self.retry.max_attempts).into()),
                    ("timeout_cycles", self.retry.timeout_cycles.into()),
                    ("backoff", self.retry.backoff.into()),
                ]),
            ),
            ("journal_eager", self.journal_eager.into()),
            ("watchdog_deadline", self.watchdog_deadline.into()),
            ("jobs", self.jobs.into()),
            (
                "workload",
                Json::obj([
                    ("kind", self.workload.kind.name().into()),
                    ("bytes", self.workload.bytes.into()),
                    ("refs_per_proc", self.workload.refs_per_proc.into()),
                    ("seed", self.workload.seed.into()),
                ]),
            ),
            (
                "faults",
                Json::obj([
                    ("seed", self.faults.seed.into()),
                    ("link_windows", Json::Arr(windows.collect())),
                    ("slow_episodes", Json::Arr(slows.collect())),
                    ("events", Json::Arr(events.collect())),
                ]),
            ),
        ])
    }

    /// Rebuilds a spec from a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<CaseSpec, String> {
        fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
            v.get(key).ok_or_else(|| format!("missing field {key:?}"))
        }
        fn num(v: &Json, key: &str) -> Result<u64, String> {
            req(v, key)?
                .as_u64()
                .ok_or_else(|| format!("field {key:?} is not a u64"))
        }
        fn boolean(v: &Json, key: &str) -> Result<bool, String> {
            req(v, key)?
                .as_bool()
                .ok_or_else(|| format!("field {key:?} is not a bool"))
        }
        fn opt_num(v: &Json, key: &str) -> Result<Option<u64>, String> {
            match req(v, key)? {
                Json::Null => Ok(None),
                j => j
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("field {key:?} is not null or u64")),
            }
        }

        let retry = req(v, "retry")?;
        let workload = req(v, "workload")?;
        let faults = req(v, "faults")?;
        let mut link_windows = Vec::new();
        for w in req(faults, "link_windows")?
            .as_arr()
            .ok_or("link_windows")?
        {
            link_windows.push(LinkWindowSpec {
                from: num(w, "from")?,
                until: num(w, "until")?,
                drop_prob: req(w, "drop_prob")?.as_f64().ok_or("drop_prob")?,
                corrupt_prob: req(w, "corrupt_prob")?.as_f64().ok_or("corrupt_prob")?,
            });
        }
        let mut slow_episodes = Vec::new();
        for s in req(faults, "slow_episodes")?
            .as_arr()
            .ok_or("slow_episodes")?
        {
            slow_episodes.push(SlowSpec {
                node: num(s, "node")? as u16,
                from: num(s, "from")?,
                until: num(s, "until")?,
                factor: num(s, "factor")?,
            });
        }
        let mut events = Vec::new();
        for e in req(faults, "events")?.as_arr().ok_or("events")? {
            events.push(EventSpec {
                kind: EventKind::from_name(req(e, "kind")?.as_str().ok_or("event kind")?)
                    .ok_or("unknown event kind")?,
                node: num(e, "node")? as u16,
                at: num(e, "at")?,
            });
        }

        Ok(CaseSpec {
            campaign_seed: num(v, "campaign_seed")?,
            index: num(v, "index")?,
            nodes: num(v, "nodes")? as usize,
            procs_per_node: num(v, "procs_per_node")? as usize,
            policy: policy_from_name(req(v, "policy")?.as_str().ok_or("policy")?)
                .ok_or("unknown policy")?,
            l1_bytes: num(v, "l1_bytes")?,
            l2_bytes: num(v, "l2_bytes")?,
            page_cache_capacity: opt_num(v, "page_cache_capacity")?.map(|n| n as usize),
            migration: boolean(v, "migration")?,
            check_coherence: boolean(v, "check_coherence")?,
            audit_interval: opt_num(v, "audit_interval")?,
            retry: RetryPolicy {
                max_attempts: num(retry, "max_attempts")? as u32,
                timeout_cycles: num(retry, "timeout_cycles")?,
                backoff: num(retry, "backoff")?,
            },
            journal_eager: boolean(v, "journal_eager")?,
            watchdog_deadline: num(v, "watchdog_deadline")?,
            jobs: num(v, "jobs")? as usize,
            workload: WorkloadSpec {
                kind: WorkloadKind::from_name(
                    req(workload, "kind")?.as_str().ok_or("workload kind")?,
                )
                .ok_or("unknown workload kind")?,
                bytes: num(workload, "bytes")?,
                refs_per_proc: num(workload, "refs_per_proc")? as usize,
                seed: num(workload, "seed")?,
            },
            faults: FaultSpec {
                seed: num(faults, "seed")?,
                link_windows,
                slow_episodes,
                events,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        for index in [0, 1, 17, 199] {
            assert_eq!(
                CaseSpec::generate(0xC4A05, index),
                CaseSpec::generate(0xC4A05, index)
            );
        }
    }

    #[test]
    fn generated_cases_are_valid_by_construction() {
        for index in 0..64 {
            let spec = CaseSpec::generate(7, index);
            assert!(
                spec.faults.plan().validate(spec.nodes).is_ok(),
                "case {index} built an invalid plan"
            );
            // Building the config must not panic.
            spec.config();
            // Two-job cases confine structural faults to job 0's nodes.
            if spec.jobs == 2 {
                assert!(spec.faults.link_windows.is_empty());
                for e in &spec.faults.events {
                    assert!((e.node as usize) < spec.job0_nodes());
                }
            }
        }
    }

    #[test]
    fn round_robin_spans_all_six_policies() {
        let seen: Vec<&str> = (0..6)
            .map(|i| policy_name(CaseSpec::generate(3, i).policy))
            .collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "six consecutive cases span all modes");
    }

    #[test]
    fn spec_json_round_trips_exactly() {
        for index in 0..48 {
            let spec = CaseSpec::generate(0xBEEF, index);
            let doc = spec.to_json().to_string();
            let back = CaseSpec::from_json(&Json::parse(&doc).unwrap()).unwrap();
            assert_eq!(spec, back, "case {index} mutated in the round trip");
        }
    }

    #[test]
    fn traces_cover_all_lanes() {
        for index in 0..16 {
            let spec = CaseSpec::generate(11, index);
            let lanes: usize = spec.traces().iter().map(|t| t.lanes.len()).sum();
            assert_eq!(lanes, spec.total_procs());
        }
    }

    #[test]
    fn slow_only_plans_are_not_structural() {
        let f = FaultSpec {
            seed: 1,
            link_windows: vec![LinkWindowSpec {
                from: 0,
                until: 100,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
            }],
            slow_episodes: vec![SlowSpec {
                node: 0,
                from: 0,
                until: 100,
                factor: 4,
            }],
            events: vec![],
        };
        assert!(!f.is_structural());
        let mut g = f.clone();
        g.link_windows[0].drop_prob = 0.01;
        assert!(g.is_structural());
        let mut h = f;
        h.events.push(EventSpec {
            kind: EventKind::FailNode,
            node: 0,
            at: 10,
        });
        assert!(h.is_structural());
        assert_eq!(h.failed_nodes(), 1);
        assert_eq!(h.event_count(EventKind::FailNode), 1);
        assert_eq!(h.event_count(EventKind::CorruptPit), 0);
    }
}
