//! Chaos tests: the machine under a deterministic [`FaultPlan`].
//!
//! The bar is the paper's containment story (§1, §3.2) extended to
//! transient faults: link-level loss and corruption are absorbed by
//! retry with backoff (no processor dies, results are bit-identical to
//! the fault-free run), and permanent failures terminate only the work
//! that used the failed node's resources.

use prism_kernel::migration::MigrationPolicy;
use prism_machine::config::MachineConfig;
use prism_machine::machine::Machine;
use prism_machine::{AuditKind, FaultPlan, JournalPolicy, ObsEvent};
use prism_mem::addr::{GlobalPage, Gsid, NodeId, VirtAddr};
use prism_mem::trace::{Op, OpLane, SegmentSpec, Trace, SHARED_BASE};
use prism_sim::Cycle;
use prism_workloads::{app, AppId, Scale};

/// Every chaos test runs the online coherence auditor: structural
/// inconsistencies between directory, tags, PIT, and journal surface as
/// findings in the report instead of silent corruption.
fn config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build()
}

/// Transient link faults (1% drop, 0.2% corruption) are fully absorbed
/// by the retry/backoff machinery on every application of the paper's
/// suite: nobody dies, every reference executes, and the shadow checker
/// verifies exactly the same reads as the fault-free run.
#[test]
fn every_splash_app_survives_transient_link_faults() {
    for id in AppId::ALL {
        let trace = app(id, Scale::Small).generate(8);
        let clean = Machine::new(config()).run(&trace);
        assert_eq!(clean.dead_procs, 0);

        let mut m = Machine::new(config());
        m.install_fault_plan(FaultPlan::new(0xC0FFEE).link_faults(0.01, 0.002))
            .expect("fault plan validates");
        let faulty = m.run(&trace);

        assert_eq!(
            faulty.dead_procs, 0,
            "{id}: a transient fault killed a processor"
        );
        assert_eq!(faulty.total_refs, clean.total_refs, "{id}: references lost");
        // The checker verified the perturbed run end to end (it panics
        // on any stale read). The exact event count is timing-sensitive
        // — a write classifies as upgrade or miss-fill depending on
        // interleaving — so equality is not expected.
        assert!(faulty.reads_checked > 0, "{id}: checker never engaged");
        assert!(
            faulty.fault.retries > 0,
            "{id}: plan never perturbed a message"
        );
        assert_eq!(
            faulty.fault.fatal_faults, 0,
            "{id}: a fault escaped containment"
        );
        assert!(faulty.fault.contained_faults > 0);
        // Recovery costs time: the perturbed run cannot be faster.
        assert!(faulty.exec_cycles >= clean.exec_cycles);
        // Link faults never damage coherence *structure*.
        assert!(faulty.audit_sweeps > 0, "{id}: auditor never ran");
        assert!(faulty.audit.is_empty(), "{id}: {:?}", faulty.audit);
    }
}

/// The fault stream is a pure function of the seed: identical seeds
/// produce bit-identical fault reports and identical machine timing;
/// a different seed perturbs different messages.
#[test]
fn identical_seeds_give_identical_fault_reports() {
    let trace = app(AppId::Ocean, Scale::Small).generate(8);
    let run = |seed: u64| {
        let mut m = Machine::new(config());
        m.install_fault_plan(FaultPlan::new(seed).link_faults(0.02, 0.005))
            .expect("fault plan validates");
        m.run(&trace)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.fault, b.fault);
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.ledger.total(), b.ledger.total());

    let c = run(8);
    assert_ne!(
        a.fault, c.fault,
        "different seeds should fault different messages"
    );
}

/// A mid-run permanent node failure is contained to the job that used
/// the failed node: the other job's processors all survive and its
/// work completes in full.
#[test]
fn mid_run_node_failure_kills_only_jobs_on_failed_resources() {
    // Job A: lanes 0..4 (nodes 0-1); job B: lanes 4..8 (nodes 2-3).
    // run_jobs places each job's pages on its own nodes, so node 0's
    // death can only ever touch job A.
    let job_a = app(AppId::Lu, Scale::Small).generate(4);
    let job_b = app(AppId::Ocean, Scale::Small).generate(4);

    let clean = Machine::new(config()).run_jobs(&[job_a.clone(), job_b.clone()]);
    assert_eq!(clean.dead_procs, 0);
    let half = Cycle(clean.exec_cycles.as_u64() / 2);

    let mut m = Machine::new(config());
    m.install_fault_plan(FaultPlan::new(1).fail_node(NodeId(0), half))
        .expect("fault plan validates");
    let report = m.run_jobs(&[job_a, job_b.clone()]);

    assert_eq!(report.fault.node_failures, 1, "the scheduled failure fired");
    // Node 0's own two processors die; node 1's die only if they touch
    // a page homed on node 0. Job B's four are untouchable.
    assert!(report.dead_procs >= 2, "the failed node's processors died");
    assert!(
        report.dead_procs <= 4,
        "a job-B processor died: containment broken"
    );
    assert_eq!(m.live_procs(), 8 - report.dead_procs as usize);
    // Job B finished every reference despite the failure next door.
    assert!(report.total_refs >= job_b.total_refs() as u64);
}

/// A slow node changes timing, never results: same references, same
/// checked reads, zero deaths — and the run takes at least as long.
#[test]
fn slow_node_episodes_perturb_timing_not_results() {
    let trace = app(AppId::Fft, Scale::Small).generate(8);
    let clean = Machine::new(config()).run(&trace);

    let mut m = Machine::new(config());
    m.install_fault_plan(FaultPlan::new(3).slow_node(NodeId(1), Cycle::ZERO, Cycle::NEVER, 4))
        .expect("fault plan validates");
    let slow = m.run(&trace);

    assert_eq!(slow.dead_procs, 0);
    assert_eq!(slow.total_refs, clean.total_refs);
    assert!(slow.reads_checked > 0);
    assert!(
        slow.exec_cycles >= clean.exec_cycles,
        "slowing a node cannot speed the run"
    );
}

/// A scrambled client PIT entry misdirects the next request, which
/// recovers through static-home forwarding — contained, nobody dies.
#[test]
fn pit_corruption_recovers_via_static_home_forwarding() {
    let trace = app(AppId::Radix, Scale::Small).generate(8);
    let clean = Machine::new(config()).run(&trace);
    let quarter = Cycle(clean.exec_cycles.as_u64() / 4);

    let mut m = Machine::new(config());
    m.install_fault_plan(
        FaultPlan::new(5)
            .corrupt_pit(NodeId(1), quarter)
            .corrupt_pit(NodeId(2), quarter + Cycle(1))
            .corrupt_pit(NodeId(3), quarter + Cycle(2)),
    )
    .expect("fault plan validates");
    let faulty = m.run(&trace);

    assert_eq!(faulty.dead_procs, 0);
    assert_eq!(faulty.total_refs, clean.total_refs);
    assert!(faulty.reads_checked > 0);
    assert_eq!(faulty.fault.fatal_faults, 0);
    // At least one node had a client entry to scramble at that point.
    assert!(
        faulty.fault.pit_corruptions > 0,
        "no corruption ever applied"
    );
}

/// Builds the canonical home-failover scenario on one shared page
/// (static home: node 0). Writers on node 2 pull the page's dynamic
/// home to node 2 through lazy migration; reads from node 1 then leave
/// the image at node 2 clean (nothing Modified in node 2's processor
/// caches). Node 2 dies inside the compute pad, and afterwards node 3
/// — a stranger to the page — reads it, forcing the static home to
/// re-master the page.
fn failover_trace() -> Trace {
    const LINES: u64 = 64; // 4 KiB page / 64 B lines
    let read_all = |lane: &mut Vec<Op>| {
        for l in 0..LINES {
            lane.push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
        }
    };
    let write_all = |lane: &mut Vec<Op>| {
        for l in 0..LINES {
            lane.push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
        }
    };
    let barrier = |lanes: &mut Vec<Vec<Op>>, id: u32| {
        for lane in lanes.iter_mut() {
            lane.push(Op::Barrier(id));
        }
    };

    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    // Phase 1: node 2 (lane 4) faults every line in — 64 remote fills.
    write_all(&mut lanes[4]);
    barrier(&mut lanes, 0);
    // Phase 2: node 1 (lane 2) reads every line, downgrading node 2's
    // dirty copies — 64 more requests at the home (128 total, split
    // evenly, below the migration policy's dominance bar).
    read_all(&mut lanes[2]);
    barrier(&mut lanes, 1);
    // Phase 3: node 2 upgrades every line again. At request 192 node 2
    // holds 2/3 of the page's traffic and the dynamic home migrates to
    // node 2 (flushing every dirty line into its memory on the way).
    write_all(&mut lanes[4]);
    barrier(&mut lanes, 2);
    // Phase 4: node 1 re-reads through the stale hint (healing it) and
    // leaves the page clean at its new home.
    read_all(&mut lanes[2]);
    barrier(&mut lanes, 3);
    // Compute pad: the node-2 failure lands in here.
    for lane in lanes.iter_mut() {
        lane.push(Op::Compute(2_000_000));
    }
    barrier(&mut lanes, 4);
    // Phase 5: node 3 (lane 6) has never touched the page; its read is
    // forwarded by the static home toward the dead dynamic home and
    // must recover through failover.
    read_all(&mut lanes[6]);

    Trace {
        name: "failover".into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

/// A page whose dynamic home migrated away from its static home can
/// survive that home's death: the static home re-masters it from the
/// clean image and later readers get current data (the shadow checker
/// would panic on anything stale).
#[test]
fn static_home_remasters_pages_of_a_dead_dynamic_home() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    let trace = failover_trace();

    let clean = Machine::new(cfg.clone()).run(&trace);
    assert_eq!(clean.dead_procs, 0);
    assert!(
        clean.migrations >= 1,
        "the scenario must move the dynamic home"
    );
    let half = Cycle(clean.exec_cycles.as_u64() / 2);

    let mut m = Machine::new(cfg);
    m.install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let report = m.run(&trace);

    assert_eq!(report.fault.node_failures, 1);
    assert!(
        report.fault.failovers >= 1,
        "the static home never re-mastered the page"
    );
    assert_eq!(
        report.fault.fatal_faults, 0,
        "the post-failure read should survive"
    );
    assert_eq!(
        report.dead_procs, 2,
        "only the failed node's processors die"
    );
    assert_eq!(m.live_procs(), 6);
    assert!(report.reads_checked > 0);
    assert!(report.audit.is_empty(), "{:?}", report.audit);
}

/// Like [`failover_trace`], but node 2 writes the whole page again
/// *after* the migration settled, so it dies holding every line of the
/// page Modified in its processor caches — the exact state PR-era
/// failover had to refuse.
fn dirty_failover_trace() -> Trace {
    const LINES: u64 = 64;
    let read_all = |lane: &mut Vec<Op>| {
        for l in 0..LINES {
            lane.push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
        }
    };
    let write_all = |lane: &mut Vec<Op>| {
        for l in 0..LINES {
            lane.push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
        }
    };
    let barrier = |lanes: &mut Vec<Vec<Op>>, id: u32| {
        for lane in lanes.iter_mut() {
            lane.push(Op::Barrier(id));
        }
    };

    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    // Phases 1-3 as in `failover_trace`: build node 2's dominance until
    // the dynamic home migrates there.
    write_all(&mut lanes[4]);
    barrier(&mut lanes, 0);
    read_all(&mut lanes[2]);
    barrier(&mut lanes, 1);
    write_all(&mut lanes[4]);
    barrier(&mut lanes, 2);
    // Phase 4: node 2, now the dynamic home, dirties the whole page
    // again. These writes hit its own home frame and stay Modified in
    // its caches — under journaling each streams a version record to
    // the static home.
    write_all(&mut lanes[4]);
    barrier(&mut lanes, 3);
    // Compute pad: node 2 dies in here, caches and all.
    for lane in lanes.iter_mut() {
        lane.push(Op::Compute(2_000_000));
    }
    barrier(&mut lanes, 4);
    // Phase 5: node 3 reads the page, forcing recovery.
    read_all(&mut lanes[6]);

    Trace {
        name: "dirty-failover".into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

/// The tentpole scenario: a dynamic home dies with the whole page dirty
/// in its processor caches. Without journaling the failover refuses and
/// the page's dirty lines are lost (the PR-era containment behavior);
/// with an eager journal the static home replays the streamed records
/// and re-masters the page with zero stranded lines, at an exactly
/// accounted replay cost.
#[test]
fn journal_remasters_dirty_pages_refused_without_it() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    let trace = dirty_failover_trace();

    let clean = Machine::new(cfg.clone()).run(&trace);
    assert_eq!(clean.dead_procs, 0);
    assert!(clean.migrations >= 1, "the dynamic home must migrate");
    let half = Cycle(clean.exec_cycles.as_u64() / 2);

    // Without the journal: the refusal path of the original failover.
    let mut m = Machine::new(cfg.clone());
    m.install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let refused = m.run(&trace);
    assert_eq!(refused.fault.node_failures, 1);
    assert!(
        refused.fault.failover_refusals >= 1,
        "a dirty page must refuse failover without a journal"
    );
    assert_eq!(refused.fault.lines_recovered, 0);
    assert_eq!(
        refused.fault.lines_lost, 64,
        "every line of the page died with node 2's caches"
    );
    assert!(
        refused.fault.fatal_faults >= 1,
        "the post-failure reader cannot be saved"
    );
    assert!(refused.dead_procs > 2, "the reader died with the page");

    // With the journal: the same crash recovers completely.
    cfg.journal = JournalPolicy::eager();
    let mut m = Machine::new(cfg);
    m.install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let recovered = m.run(&trace);
    assert_eq!(recovered.fault.node_failures, 1);
    assert!(recovered.fault.failovers >= 1, "failover must succeed");
    assert_eq!(recovered.fault.failover_refusals, 0);
    assert_eq!(
        recovered.fault.lines_lost, 0,
        "zero stranded lines under journaling"
    );
    assert_eq!(
        recovered.fault.lines_recovered, 64,
        "every dirty line re-mastered from the journal"
    );
    assert_eq!(
        recovered.fault.journal_replay_cycles,
        64 * 24,
        "replay cost is per recovered line"
    );
    assert!(
        recovered.fault.journal_records >= 64,
        "each dirty line streamed at least one record"
    );
    assert!(
        recovered.fault.journal_lag_cycles > 0,
        "records were written before the crash"
    );
    assert_eq!(recovered.fault.fatal_faults, 0, "nobody else dies");
    assert_eq!(
        recovered.dead_procs, 2,
        "only the failed node's processors die"
    );
    assert!(recovered.reads_checked > 0);
    // The shadow checker verified the replayed lines were current, and
    // the auditor saw a structurally consistent machine throughout.
    assert!(recovered.audit.is_empty(), "{:?}", recovered.audit);
    // Recovery is visible in the ledger: journal traffic flowed.
    assert!(recovered.ledger.total() > 0);
}

/// A transaction wedged in the Transit tag is detected by the watchdog
/// and recovered within the deadline by the first escalation step
/// (resend): the directory still knows the truth, the tag is repaired,
/// nobody dies, and the run completes every reference.
#[test]
fn watchdog_recovers_wedged_transit_line_by_resend() {
    let trace = app(AppId::Ocean, Scale::Small).generate(8);
    let clean = Machine::new(config()).run(&trace);
    let half = Cycle(clean.exec_cycles.as_u64() / 2);

    let mut m = Machine::new(config());
    m.install_fault_plan(FaultPlan::new(9).wedge_transit(NodeId(1), half))
        .expect("fault plan validates");
    let report = m.run(&trace);

    assert_eq!(
        report.fault.transit_wedges, 1,
        "the plan wedged exactly one line"
    );
    assert_eq!(
        report.fault.watchdog_resends, 1,
        "the first rung of the escalation ladder recovers it"
    );
    assert_eq!(report.fault.watchdog_remasters, 0);
    assert_eq!(report.fault.watchdog_kills, 0);
    assert_eq!(report.fault.fatal_faults, 0);
    assert_eq!(report.dead_procs, 0, "a wedge is not a death sentence");
    assert_eq!(report.total_refs, clean.total_refs, "references lost");
    assert!(report.reads_checked > 0);
    // The repaired tag agrees with the directory; no Transit line is
    // left without a deadline clock.
    assert!(report.audit.is_empty(), "{:?}", report.audit);
    assert_eq!(
        watchdog_recoveries(&m),
        vec![(NodeId(1), false)],
        "one ring event per watchdog resend or re-master"
    );
}

/// The `(node, remastered)` of every `WatchdogRecovery` on the ring.
fn watchdog_recoveries(m: &Machine) -> Vec<(NodeId, bool)> {
    m.recent_events()
        .into_iter()
        .filter_map(|(_, ev)| match ev {
            ObsEvent::WatchdogRecovery { node, remastered } => Some((node, remastered)),
            _ => None,
        })
        .collect()
}

/// A line wedged at a client whose dynamic home then dies is recovered
/// by the second escalation step: the watchdog re-masters the page at
/// its static home and repairs the tag from there, and publishes that
/// recovery on the event ring.
#[test]
fn watchdog_remasters_a_wedged_line_whose_home_died() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    // Split the compute pad into short ops, so the faults and the
    // watchdog fire inside it instead of at the pick that ends it.
    let mut trace = failover_trace();
    for lane in &mut trace.lanes {
        let ops: Vec<Op> = lane
            .iter()
            .flat_map(|op| match *op {
                Op::Compute(c) => vec![Op::Compute(1_000); (c / 1_000) as usize],
                op => vec![op],
            })
            .collect();
        *lane = ops.into();
    }
    let clean = Machine::new(cfg.clone()).run(&trace);
    let quarter = clean.exec_cycles.as_u64() / 4;

    // Inside the compute pad, node 1 holds the page through the
    // migrated home at node 2. Its line wedges first, and node 2 dies
    // before the deadline expires and before anyone else touches the
    // page (which would fail it over first).
    let mut m = Machine::new(cfg);
    m.install_fault_plan(
        FaultPlan::new(3)
            .wedge_transit(NodeId(1), Cycle(quarter))
            .fail_node(NodeId(2), Cycle(quarter + 100)),
    )
    .expect("fault plan validates");
    let report = m.run(&trace);

    assert_eq!(report.fault.transit_wedges, 1);
    assert_eq!(report.fault.node_failures, 1);
    assert_eq!(report.fault.watchdog_resends, 0);
    assert_eq!(
        report.fault.watchdog_remasters, 1,
        "the dead home forces the second rung"
    );
    assert_eq!(report.fault.watchdog_kills, 0);
    assert_eq!(
        watchdog_recoveries(&m),
        vec![(NodeId(1), true)],
        "one ring event per watchdog resend or re-master"
    );
}

/// The full recovery machinery — journaling, watchdog, failover, audit
/// — is bit-identically deterministic: same seed, same FaultReport,
/// same timing.
#[test]
fn recovery_machinery_is_deterministic() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    cfg.journal = JournalPolicy::eager();
    let trace = dirty_failover_trace();
    let probe = Machine::new(cfg.clone()).run(&trace);
    let half = Cycle(probe.exec_cycles.as_u64() / 2);
    let quarter = Cycle(probe.exec_cycles.as_u64() / 4);

    let run = |seed: u64| {
        let mut m = Machine::new(cfg.clone());
        m.install_fault_plan(
            FaultPlan::new(seed)
                .link_faults(0.01, 0.002)
                .wedge_transit(NodeId(1), quarter)
                .fail_node(NodeId(2), half),
        )
        .expect("fault plan validates");
        m.run(&trace)
    };
    let a = run(21);
    let b = run(21);
    assert_eq!(a.fault, b.fault, "identical seeds, identical recovery");
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.ledger.total(), b.ledger.total());
    assert_eq!(a.audit, b.audit);
    assert!(
        a.fault.lines_recovered > 0 || a.fault.failover_refusals > 0,
        "the scenario exercised the recovery path"
    );

    let c = run(22);
    assert_ne!(a.fault, c.fault, "different seeds perturb differently");
}

/// A corrupted PIT entry is *reported*, not panicked over: the online
/// auditor flags the scrambled binding on both a client and the home
/// node as structured findings.
#[test]
fn auditor_reports_corrupted_pit_bindings() {
    const LINES: u64 = 64;
    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    for l in 0..LINES {
        lanes[0].push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
    }
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(0));
    }
    for l in 0..LINES {
        lanes[2].push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
    }
    let trace = Trace {
        name: "bind".into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    // A second, access-free trace: the corruption must be found by the
    // auditor's sweep, not healed as a side effect of forwarding.
    let idle = Trace {
        name: "idle".into(),
        segments: trace.segments.clone(),
        lanes: (0..8)
            .map(|_| OpLane::from(vec![Op::Compute(200_000)]))
            .collect(),
    };

    let mut m = Machine::new(config());
    let first = m.run(&trace);
    assert!(first.audit.is_empty(), "{:?}", first.audit);

    let gp = GlobalPage::new(Gsid(0), 0);
    // Client node 1 gets a hint pointing at a node that was never a
    // home; the home node 0's own binding is scrambled too.
    m.corrupt_pit_binding(NodeId(1), gp, NodeId(3)).unwrap();
    m.corrupt_pit_binding(NodeId(0), gp, NodeId(3)).unwrap();
    let report = m.run(&idle);

    assert!(report.audit_sweeps > 0);
    assert!(
        report
            .audit
            .iter()
            .any(|f| f.node == NodeId(1) && f.kind == AuditKind::IllegalDynHomeHint),
        "client corruption not reported: {:?}",
        report.audit
    );
    assert!(
        report
            .audit
            .iter()
            .any(|f| f.node == NodeId(0) && f.kind == AuditKind::PitHomeMismatch),
        "home corruption not reported: {:?}",
        report.audit
    );
    for f in &report.audit {
        assert_eq!(f.gpage, Some(gp), "findings identify the page");
    }
}

/// Fault-free journaled runs audit clean: journaling and auditing are
/// pure observers — same results, zero findings, and the journal's
/// record stream is visible in the report.
#[test]
fn fault_free_journaled_run_audits_clean() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    cfg.journal = JournalPolicy::eager();
    let trace = dirty_failover_trace();

    let plain = {
        let mut c = config();
        c.migration = Some(MigrationPolicy::default());
        Machine::new(c).run(&trace)
    };
    let journaled = Machine::new(cfg).run(&trace);

    assert_eq!(journaled.dead_procs, 0);
    assert_eq!(journaled.total_refs, plain.total_refs);
    assert!(journaled.audit_sweeps > 0, "auditor never ran");
    assert!(journaled.audit.is_empty(), "{:?}", journaled.audit);
    assert!(
        journaled.fault.journal_records >= 64,
        "phase-4 writes at the migrated home must stream records"
    );
    assert_eq!(plain.fault.journal_records, 0, "no journal, no records");
}

/// Link faults and a permanent failure together: the retry machinery
/// keeps absorbing transient loss while the fail-stop containment story
/// holds, and both are tallied in one report.
#[test]
fn combined_transient_and_permanent_faults_stay_contained() {
    let job_a = app(AppId::WaterSpa, Scale::Small).generate(4);
    let job_b = app(AppId::Radix, Scale::Small).generate(4);
    let clean = Machine::new(config()).run_jobs(&[job_a.clone(), job_b.clone()]);
    let half = Cycle(clean.exec_cycles.as_u64() / 2);

    let mut m = Machine::new(config());
    m.install_fault_plan(
        FaultPlan::new(11)
            .link_faults(0.005, 0.001)
            .fail_node(NodeId(1), half),
    )
    .expect("fault plan validates");
    let report = m.run_jobs(&[job_a, job_b.clone()]);

    assert_eq!(report.fault.node_failures, 1);
    assert!(report.fault.retries > 0);
    assert!(report.dead_procs <= 4, "containment: job B untouched");
    assert!(report.total_refs >= job_b.total_refs() as u64);
}
