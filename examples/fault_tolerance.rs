//! Fault tolerance beyond fail-stop: a seeded, deterministic
//! [`FaultPlan`] drops and corrupts protocol messages, slows nodes, and
//! kills one mid-run. The machine absorbs the transient faults with
//! bounded retry + exponential backoff, re-masters pages whose dynamic
//! home died back at their static home (home failover, riding the lazy
//! migration machinery of §3.5), and accounts for everything in the
//! run's `FaultReport`.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use prism::kernel::migration::MigrationPolicy;
use prism::machine::machine::Machine;
use prism::machine::{FaultPlan, RetryPolicy};
use prism::mem::addr::NodeId;
use prism::prelude::*;
use prism::sim::Cycle;
use prism::workloads::failover_trace;

fn main() {
    let cfg = MachineConfig::builder().nodes(4).procs_per_node(2).build();

    // ── Act 1: transient link faults are absorbed ───────────────────
    let trace = app(AppId::Ocean, Scale::Small).generate(cfg.total_procs());
    let clean = Machine::new(cfg.clone()).run(&trace);

    let mut machine = Machine::new(cfg.clone());
    machine
        .install_fault_plan(FaultPlan::new(0xBAD).link_faults(0.01, 0.002))
        .expect("fault plan validates");
    let faulty = machine.run(&trace);
    println!("Ocean with 1% message loss + 0.2% corruption:");
    println!("  {}", faulty.fault);
    println!(
        "  dead processors: {}   slowdown: {:.2}%",
        faulty.dead_procs,
        (faulty.exec_cycles.as_u64() as f64 / clean.exec_cycles.as_u64() as f64 - 1.0) * 100.0
    );

    // ── Act 2: the retry budget is what stands between a lost message
    // and a dead processor ──────────────────────────────────────────
    let mut no_retry_cfg = cfg.clone();
    no_retry_cfg.retry = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let mut machine = Machine::new(no_retry_cfg);
    machine
        .install_fault_plan(FaultPlan::new(0xBAD).link_faults(0.01, 0.002))
        .expect("fault plan validates");
    let fragile = machine.run(&trace);
    println!("\nSame faults with max_attempts = 1 (no retries):");
    println!("  {}", fragile.fault);
    println!("  dead processors: {}", fragile.dead_procs);

    // ── Act 3: home failover after a mid-run node failure ───────────
    // With lazy migration on, hot pages' dynamic homes follow their
    // writers away from their static homes. When such a node dies, the
    // static home re-masters its surviving pages instead of letting
    // every requester die with it. The scenario: writers on node 2 pull
    // a page's dynamic home to node 2, readers on node 1 leave the
    // image there clean, node 2 dies, and node 3 — which has never
    // touched the page — reads it through the static home (node 0).
    let mut mig_cfg = cfg.clone();
    mig_cfg.migration = Some(MigrationPolicy::default());
    let mtrace = failover_trace(false);
    let healthy = Machine::new(mig_cfg.clone()).run(&mtrace);

    let half = Cycle(healthy.exec_cycles.as_u64() / 2);
    let mut machine = Machine::new(mig_cfg);
    machine
        .install_fault_plan(FaultPlan::new(1).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    let report = machine.run(&mtrace);
    println!(
        "\nPage migrated to node 2 ({} migration(s) in the healthy run);\n\
         node 2 dies at cycle {}:",
        healthy.migrations,
        half.as_u64()
    );
    println!("  {}", report.fault);
    println!(
        "  dead processors: {} of {} (node 2's own; node 3's post-failure\n\
         read survived through the re-mastered page)",
        report.dead_procs,
        cfg.total_procs()
    );
    println!(
        "\nA failover re-masters a page at its static home — possible exactly\n\
         when the static home survives and no dirty line was stranded on the\n\
         dead node; everything else stays fail-stop contained."
    );
}
