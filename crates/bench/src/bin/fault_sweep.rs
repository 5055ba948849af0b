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

use std::time::Instant;

use prism_core::kernel::migration::MigrationPolicy;
use prism_core::machine::machine::Machine;
use prism_core::machine::{FaultPlan, JournalPolicy, ParallelFallbackReason, RetryPolicy};
use prism_core::mem::addr::{NodeId, VirtAddr};
use prism_core::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism_core::sim::Cycle;
use prism_core::{MachineConfig, RunReport, SchedulerKind};
use prism_workloads::{app, AppId, Scale};

const DROP_RATES: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];
const BUDGETS: [u32; 5] = [1, 2, 3, 5, 8];
const SEED: u64 = 0xFA117;
const JSON_FILE: &str = "BENCH_fault.json";

/// Worker-thread counts for the fault-era serial-vs-parallel A/B.
const PAR_WORKERS: [usize; 3] = [1, 2, 4];
/// Link-loss rates for the A/B; the window is bounded, so epochs resume
/// once it closes no matter how lossy it was while open.
const PAR_DROP_RATES: [f64; 3] = [0.0, 0.005, 0.02];
const PAR_TIMING_RUNS: u32 = 2;

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

    // ── Fault-era epoch parallelism: serial vs ParallelHeap ─────────
    let parallel = parallel_section();

    let json = render_json(&cells, &recovery, &parallel);
    prism_bench::write_bench_json(JSON_FILE, &json);

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

/// One drop-rate row of the fault-era serial-vs-parallel A/B: the same
/// fault plan under the serial heap and under `ParallelHeap` at each
/// worker count, with the reports asserted byte-identical in-process.
struct ParallelFaultRow {
    drop_rate: f64,
    serial_ms: f64,
    workers: Vec<ParallelWorkerCell>,
}

struct ParallelWorkerCell {
    workers: usize,
    wall_ms: f64,
    epochs: u64,
    serial_picks: u64,
    fallback: [u64; ParallelFallbackReason::ALL.len()],
}

/// Serial-vs-parallel under an active fault plan. The job mix mirrors
/// the golden `mixed_faults` fixture — one multi-node job supplies the
/// remote traffic the faults strike, two single-node jobs supply the
/// disjoint groups epochs need — and the plan exercises every fault-era
/// admission path: a bounded link window (epochs resume when it
/// closes), a slow-node episode, a wedged Transit line, and a node
/// death whose recovery set hazard-serializes overlapping groups.
fn parallel_section() -> Vec<ParallelFaultRow> {
    let cfg = |kind: SchedulerKind, workers: usize| {
        let mut cfg = MachineConfig::builder()
            .nodes(4)
            .procs_per_node(2)
            .audit_interval(Some(50_000))
            .build();
        cfg.journal = JournalPolicy::eager();
        cfg.scheduler = kind;
        cfg.worker_threads = workers;
        cfg
    };
    let jobs = vec![
        app(AppId::Ocean, Scale::Small).generate(4),
        app(AppId::Radix, Scale::Small).generate(2),
        app(AppId::Fft, Scale::Small).generate(2),
    ];
    let plan = |p: f64| {
        FaultPlan::new(SEED)
            .link_fault_window(Cycle::ZERO, Cycle(4_000), p, p / 5.0)
            .slow_node(NodeId(0), Cycle(4_000), Cycle(12_000), 3)
            .wedge_transit(NodeId(1), Cycle(8_000))
            .fail_node(NodeId(3), Cycle(20_000))
    };
    let time = |kind: SchedulerKind, workers: usize, p: f64| -> (f64, RunReport) {
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..PAR_TIMING_RUNS {
            let mut m = Machine::new(cfg(kind, workers));
            m.install_fault_plan(plan(p)).expect("fault plan validates");
            let wall = Instant::now();
            let r = m.run_jobs(&jobs);
            best = best.min(wall.elapsed().as_secs_f64() * 1e3);
            report = Some(r);
        }
        (best, report.expect("at least one timing run"))
    };

    println!("\nFault-era epoch parallelism: mixed jobs on 4 nodes x 2 procs, eager journal,");
    println!(
        "bounded link window + slow node + Transit wedge + node death (best of {PAR_TIMING_RUNS} runs):"
    );
    let mut rows = Vec::new();
    for p in PAR_DROP_RATES {
        let (serial_ms, serial) = time(SchedulerKind::Heap, 1, p);
        let serial_json = serial.to_json();
        print!("  drop {:>5.1}%: serial {serial_ms:>7.1} ms", p * 100.0);
        let workers = PAR_WORKERS
            .into_iter()
            .map(|w| {
                let (wall_ms, r) = time(SchedulerKind::ParallelHeap, w, p);
                assert_eq!(
                    r.to_json(),
                    serial_json,
                    "ParallelHeap({w} workers) diverged from the serial heap at drop rate {p}"
                );
                print!(" | {w}w {wall_ms:>7.1} ms {:>4.2}x", serial_ms / wall_ms);
                let mut fallback = [0u64; ParallelFallbackReason::ALL.len()];
                for (slot, reason) in fallback.iter_mut().zip(ParallelFallbackReason::ALL) {
                    *slot = r.parallel_fallback.count(reason);
                }
                ParallelWorkerCell {
                    workers: w,
                    wall_ms,
                    epochs: r.parallel_fallback.epochs,
                    serial_picks: r.parallel_fallback.serial_picks,
                    fallback,
                }
            })
            .collect::<Vec<_>>();
        let last = workers.last().expect("at least one worker count");
        println!(
            "  ({} epochs, {} serial picks)",
            last.epochs, last.serial_picks
        );
        rows.push(ParallelFaultRow {
            drop_rate: p,
            serial_ms,
            workers,
        });
    }
    println!("  all reports byte-identical to the serial heap (asserted in-process)");
    rows
}

/// Hand-rolled JSON (the workspace is dependency-free by design). All
/// values are integers or exact short floats, so no escaping is needed.
fn render_json(
    cells: &[SweepCell],
    recovery: &[RecoveryCounts],
    parallel: &[ParallelFaultRow],
) -> String {
    let mut out = String::from("{\n  \"bench\": \"fault_sweep\",\n");
    out.push_str(&format!(
        "  \"workload\": \"ocean/small\",\n  \"seed\": {SEED},\n  \"link_sweep\": [\n"
    ));
    for (i, c) in cells.iter().enumerate() {
        let slowdown = match c.slowdown_pct {
            Some(s) => format!("{s:.3}"),
            None => "null".into(),
        };
        out.push_str(&format!(
            "    {{\"drop_rate\": {}, \"retry_budget\": {}, \"dead_procs\": {}, \
             \"retries\": {}, \"comparable\": {}, \"slowdown_pct\": {}, \
             \"cycles_per_ref\": {:.4}}}{}\n",
            c.drop_rate,
            c.budget,
            c.dead_procs,
            c.retries,
            c.dead_procs == 0,
            slowdown,
            c.cycles_per_ref,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recovery.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"recovered_lines\": {}, \"stranded_lines\": {}, \
             \"abandoned\": {}, \"journal_replay_cycles\": {}, \"journal_records\": {}, \
             \"dead_procs\": {}, \"audit_findings\": {}}}{}\n",
            r.scenario,
            r.recovered,
            r.stranded,
            r.abandoned,
            r.replay_cycles,
            r.journal_records,
            r.dead_procs,
            r.audit_findings,
            if i + 1 < recovery.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!(
        "  \"parallel\": {{\"nodes\": 4, \"procs\": 8, \"host_parallelism\": {host_cores}, \
         \"reports_identical\": true, \"rows\": [\n"
    ));
    for (i, row) in parallel.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"drop_rate\": {}, \"serial_wall_ms\": {:.3}, \"workers\": [\n",
            row.drop_rate, row.serial_ms
        ));
        for (j, w) in row.workers.iter().enumerate() {
            let fallback = ParallelFallbackReason::ALL
                .iter()
                .zip(w.fallback)
                .map(|(r, n)| format!("\"{}\": {n}", r.name()))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "      {{\"workers\": {}, \"wall_ms\": {:.3}, \"speedup\": {:.3}, \
                 \"epochs\": {}, \"serial_picks\": {}, \"fallback\": {{{fallback}}}}}{}\n",
                w.workers,
                w.wall_ms,
                row.serial_ms / w.wall_ms,
                w.epochs,
                w.serial_picks,
                if j + 1 < row.workers.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < parallel.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]}\n}\n");
    out
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
