//! Complete crash recovery: dirty-line journaling, the transit-state
//! watchdog, and the online coherence auditor.
//!
//! Three acts:
//!
//! 1. A dynamic home dies with a whole page *dirty in its processor
//!    caches*. Plain failover must refuse (the only current copies died
//!    with the caches); with an eager [`JournalPolicy`] the static home
//!    replays the streamed version records and re-masters the page with
//!    zero stranded lines.
//! 2. A fault wedges a cache line in the Transit tag — a reply lost
//!    mid-transaction. The watchdog detects the overdue line and
//!    recovers it through the escalation ladder (resend → re-master →
//!    contained kill).
//! 3. A PIT entry is corrupted in place. The online auditor reports a
//!    structured finding instead of the machine panicking.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use prism::kernel::migration::MigrationPolicy;
use prism::machine::machine::Machine;
use prism::machine::{FaultPlan, JournalPolicy};
use prism::mem::addr::{GlobalPage, Gsid, NodeId};
use prism::mem::trace::{Op, Trace};
use prism::prelude::*;
use prism::sim::Cycle;
use prism::workloads::failover_trace;

fn main() {
    let mut cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .audit_interval(Some(50_000))
        .build();
    cfg.migration = Some(MigrationPolicy::default());

    // ── Act 1: journaling turns a refused failover into a recovery ──
    let trace = failover_trace(true);
    let healthy = Machine::new(cfg.clone()).run(&trace);
    let half = Cycle(healthy.exec_cycles.as_u64() / 2);
    println!(
        "A page's dynamic home migrates to node 2 ({} migration(s)),\n\
         which then dirties all 64 lines in its caches and dies at cycle {}.",
        healthy.migrations,
        half.as_u64()
    );

    let mut machine = Machine::new(cfg.clone());
    machine
        .install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let refused = machine.run(&trace);
    println!("\nWithout a journal, the failover refuses:");
    println!("  {}", refused.fault);
    println!("  dead processors: {}", refused.dead_procs);

    let mut journal_cfg = cfg.clone();
    journal_cfg.journal = JournalPolicy::eager();
    let mut machine = Machine::new(journal_cfg);
    machine
        .install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let recovered = machine.run(&trace);
    println!("\nWith an eager journal, the static home replays the records:");
    println!("  {}", recovered.fault);
    println!(
        "  dead processors: {} (only node 2's own)",
        recovered.dead_procs
    );

    // ── Act 2: the transit-state watchdog ───────────────────────────
    let app_trace = app(AppId::Ocean, Scale::Small).generate(cfg.total_procs());
    let clean = Machine::new(cfg.clone()).run(&app_trace);
    let quarter = Cycle(clean.exec_cycles.as_u64() / 4);
    let mut machine = Machine::new(cfg.clone());
    machine
        .install_fault_plan(FaultPlan::new(9).wedge_transit(NodeId(1), quarter))
        .expect("fault plan validates");
    let wedged = machine.run(&app_trace);
    println!(
        "\nOcean with one line wedged in Transit at cycle {}:",
        quarter.as_u64()
    );
    println!("  {}", wedged.fault);
    println!(
        "  dead processors: {} — the watchdog repaired the tag from the\n\
         directory's truth before anyone had to die",
        wedged.dead_procs
    );

    // ── Act 3: the online coherence auditor ─────────────────────────
    let mut machine = Machine::new(cfg.clone());
    machine.run(&trace);
    let gp = GlobalPage::new(Gsid(0), 0);
    machine
        .corrupt_pit_binding(NodeId(1), gp, NodeId(3))
        .expect("node 1 holds a binding for the page");
    let idle = Trace {
        name: "idle".into(),
        segments: trace.segments.clone(),
        lanes: (0..cfg.total_procs())
            .map(|_| vec![Op::Compute(200_000)].into())
            .collect(),
    };
    let audited = machine.run(&idle);
    println!("\nAfter corrupting node 1's PIT binding for {gp}:");
    println!(
        "  audit: {} sweeps, {} finding(s)",
        audited.audit_sweeps,
        audited.audit.len()
    );
    for f in &audited.audit {
        println!("    {f}");
    }
    println!(
        "\nJournaling bounds what a crash can strand, the watchdog bounds\n\
         how long a transaction can wedge, and the auditor bounds how long\n\
         corruption can hide — recovery with receipts, not luck."
    );
}
