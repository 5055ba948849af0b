//! Fault-tolerance sweep: message-loss probability × retry budget, plus
//! the recovery machinery's cost sheet.
//!
//! Every lost or corrupted protocol message is retried with exponential
//! backoff up to `RetryPolicy::max_attempts`; a message that exhausts
//! its budget kills the requesting processor (fail-stop containment).
//! The sweep shows the tradeoff: a budget of 1 turns every fault fatal,
//! while a handful of attempts absorbs even percent-level loss at a
//! modest slowdown.
//!
//! A second section prices the crash-recovery machinery: a dirty dynamic
//! home dies with and without write-back journaling, and a wedged
//! Transit line is recovered by the watchdog. Everything is also written
//! to `BENCH_fault.json` so the robustness metrics (recovered, stranded
//! and abandoned lines; journal replay cycles) can be tracked run over
//! run by machines, not just eyeballs.
//!
//! ```text
//! cargo run --release -p prism-bench --bin fault_sweep
//! ```

use prism_core::kernel::migration::MigrationPolicy;
use prism_core::machine::machine::Machine;
use prism_core::machine::{FaultPlan, JournalPolicy, RetryPolicy};
use prism_core::mem::addr::{NodeId, VirtAddr};
use prism_core::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism_core::sim::json::Json;
use prism_core::sim::Cycle;
use prism_core::{MachineConfig, RunReport};
use prism_workloads::{app, AppId, Scale};

const DROP_RATES: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];
const BUDGETS: [u32; 5] = [1, 2, 3, 5, 8];
const SEED: u64 = 0xFA117;
const JSON_FILE: &str = "BENCH_fault.json";

fn config(max_attempts: u32) -> MachineConfig {
    let mut cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .audit_interval(Some(50_000))
        .build();
    cfg.retry = RetryPolicy {
        max_attempts,
        ..RetryPolicy::default()
    };
    cfg
}

/// One cell of the loss × budget grid. `slowdown_pct` compares whole-run
/// cycles against the fault-free run, which is only meaningful when every
/// processor survived — a dead processor simply stops issuing work, so a
/// lossy run can finish in *fewer* cycles than the clean one. Such rows
/// carry `slowdown_pct: None` and are flagged incomparable; the
/// per-completed-reference cost stays comparable either way.
struct SweepCell {
    drop_rate: f64,
    budget: u32,
    dead_procs: u64,
    retries: u64,
    slowdown_pct: Option<f64>,
    cycles_per_ref: f64,
}

/// The recovery counters a robustness trajectory wants to watch:
/// how many dirty lines came back, how many were stranded for good,
/// and how many transactions had to be abandoned outright.
struct RecoveryCounts {
    scenario: &'static str,
    recovered: u64,
    stranded: u64,
    abandoned: u64,
    replay_cycles: u64,
    journal_records: u64,
    dead_procs: u64,
    audit_findings: u64,
}

impl RecoveryCounts {
    fn from_report(scenario: &'static str, r: &RunReport) -> Self {
        RecoveryCounts {
            scenario,
            recovered: r.fault.lines_recovered,
            stranded: r.fault.lines_lost,
            abandoned: r.fault.failover_refusals + r.fault.watchdog_kills,
            replay_cycles: r.fault.journal_replay_cycles,
            journal_records: r.fault.journal_records,
            dead_procs: r.dead_procs,
            audit_findings: r.audit.len() as u64,
        }
    }
}

fn main() {
    let trace = app(AppId::Ocean, Scale::Small).generate(8);
    let clean = Machine::new(config(RetryPolicy::default().max_attempts)).run(&trace);
    let clean_cycles = clean.exec_cycles.as_u64() as f64;
    println!("Ocean/Small on 4 nodes x 2 procs; corruption rate = drop rate / 5; seed {SEED:#x}");
    println!("Cell: dead processors (fatal faults), or slowdown vs fault-free when all survive\n");

    let mut cells = Vec::new();
    for p in DROP_RATES {
        for b in BUDGETS {
            let mut m = Machine::new(config(b));
            m.install_fault_plan(FaultPlan::new(SEED).link_faults(p, p / 5.0))
                .expect("fault plan validates");
            let r = m.run(&trace);
            cells.push(SweepCell {
                drop_rate: p,
                budget: b,
                dead_procs: r.dead_procs,
                retries: r.fault.retries,
                slowdown_pct: (r.dead_procs == 0)
                    .then(|| (r.exec_cycles.as_u64() as f64 / clean_cycles - 1.0) * 100.0),
                cycles_per_ref: r.exec_cycles.as_u64() as f64 / r.total_refs.max(1) as f64,
            });
        }
    }

    print!("{:<12}", "drop rate");
    for b in BUDGETS {
        print!(" {:>12}", format!("attempts={b}"));
    }
    println!();
    for row in cells.chunks(BUDGETS.len()) {
        print!("{:<12}", format!("{:.1}%", row[0].drop_rate * 100.0));
        for c in row {
            let cell = match c.slowdown_pct {
                None => format!("{} dead", c.dead_procs),
                Some(s) => format!("+{s:.2}%"),
            };
            print!(" {cell:>12}");
        }
        println!();
    }

    // A second cut: how much of the absorbed loss each budget actually
    // needed. Retries tell the cost story even when nobody dies.
    println!("\nRetries issued (same cells):");
    print!("{:<12}", "drop rate");
    for b in BUDGETS {
        print!(" {:>12}", format!("attempts={b}"));
    }
    println!();
    for row in cells.chunks(BUDGETS.len()) {
        print!("{:<12}", format!("{:.1}%", row[0].drop_rate * 100.0));
        for c in row {
            print!(" {:>12}", c.retries);
        }
        println!();
    }

    // ── Recovery cost: journaling, failover, and the watchdog ───────
    let recovery = recovery_section(&trace);

    prism_bench::write_bench_json(JSON_FILE, &render_json(&cells, &recovery));

    println!(
        "\nWith one attempt every perturbed message is fatal; already the first\n\
         retry absorbs even 5% loss at these trace lengths, and the only cost\n\
         is backoff time. The retry budget buys survival, not speed — and the\n\
         journal buys back the dirty lines that fail-stop used to strand."
    );
}

/// Run the three recovery scenarios and print their cost sheet:
/// a dirty dynamic home dying without a journal (refusal), the same
/// crash with eager journaling (replay), and a wedged Transit line
/// recovered by the watchdog.
fn recovery_section(app_trace: &Trace) -> Vec<RecoveryCounts> {
    let mut cfg = config(RetryPolicy::default().max_attempts);
    cfg.migration = Some(MigrationPolicy::default());
    let dirty = dirty_failover_trace();
    let healthy = Machine::new(cfg.clone()).run(&dirty);
    let half = Cycle(healthy.exec_cycles.as_u64() / 2);

    let mut m = Machine::new(cfg.clone());
    m.install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let refused = m.run(&dirty);

    let mut journal_cfg = cfg.clone();
    journal_cfg.journal = JournalPolicy::eager();
    let mut m = Machine::new(journal_cfg);
    m.install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let replayed = m.run(&dirty);

    let app_clean = Machine::new(cfg.clone()).run(app_trace);
    let quarter = Cycle(app_clean.exec_cycles.as_u64() / 4);
    let mut m = Machine::new(cfg);
    m.install_fault_plan(FaultPlan::new(9).wedge_transit(NodeId(1), quarter))
        .expect("fault plan validates");
    let wedged = m.run(app_trace);

    let rows = vec![
        RecoveryCounts::from_report("dirty_failover_no_journal", &refused),
        RecoveryCounts::from_report("dirty_failover_eager_journal", &replayed),
        RecoveryCounts::from_report("transit_wedge_watchdog", &wedged),
    ];

    println!("\nRecovery cost (dirty home crash + wedged Transit line):");
    println!(
        "{:<30} {:>9} {:>9} {:>9} {:>13} {:>9}",
        "scenario", "recovered", "stranded", "abandoned", "replay cycles", "dead"
    );
    for r in &rows {
        println!(
            "{:<30} {:>9} {:>9} {:>9} {:>13} {:>9}",
            r.scenario, r.recovered, r.stranded, r.abandoned, r.replay_cycles, r.dead_procs
        );
    }
    rows
}

fn render_json(cells: &[SweepCell], recovery: &[RecoveryCounts]) -> Json {
    let link_sweep = cells.iter().map(|c| {
        Json::obj([
            ("drop_rate", c.drop_rate.into()),
            ("retry_budget", u64::from(c.budget).into()),
            ("dead_procs", c.dead_procs.into()),
            ("retries", c.retries.into()),
            ("comparable", (c.dead_procs == 0).into()),
            ("slowdown_pct", c.slowdown_pct.into()),
            ("cycles_per_ref", c.cycles_per_ref.into()),
        ])
    });
    let recovery = recovery.iter().map(|r| {
        Json::obj([
            ("scenario", r.scenario.into()),
            ("recovered_lines", r.recovered.into()),
            ("stranded_lines", r.stranded.into()),
            ("abandoned", r.abandoned.into()),
            ("journal_replay_cycles", r.replay_cycles.into()),
            ("journal_records", r.journal_records.into()),
            ("dead_procs", r.dead_procs.into()),
            ("audit_findings", r.audit_findings.into()),
        ])
    });
    Json::obj([
        ("bench", "fault_sweep".into()),
        ("workload", "ocean/small".into()),
        ("seed", SEED.into()),
        ("link_sweep", Json::Arr(link_sweep.collect())),
        ("recovery", Json::Arr(recovery.collect())),
    ])
}

/// One shared page (static home: node 0). Node 2's writes pull the
/// dynamic home to node 2 via lazy migration; a final write phase
/// leaves all 64 lines Modified in node 2's caches when it dies.
fn dirty_failover_trace() -> Trace {
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
    write_all(&mut lanes[4]); // node 2 faults the page in
    barrier(&mut lanes, 0);
    read_all(&mut lanes[2]); // node 1 downgrades node 2's dirty copies
    barrier(&mut lanes, 1);
    write_all(&mut lanes[4]); // node 2 re-upgrades; migration fires here
    barrier(&mut lanes, 2);
    write_all(&mut lanes[4]); // node 2, now home, dirties every line
    barrier(&mut lanes, 3);
    for lane in lanes.iter_mut() {
        lane.push(Op::Compute(2_000_000)); // the failure lands in here
    }
    barrier(&mut lanes, 4);
    read_all(&mut lanes[6]); // node 3 reads through the dead home

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
