//! Golden-report determinism: fixed workloads and fault plans must keep
//! producing byte-identical `RunReport` JSON across refactors.
//!
//! The fixtures under `tests/golden/` were captured from the
//! pre-scheduler-refactor engine (linear-scan run loop, monolithic
//! `Machine`), so any divergence here means the engine changed
//! observable behavior, not just its internal structure.
//!
//! Regenerate fixtures (only after an *intentional* behavior change)
//! with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test determinism
//! ```

use prism::kernel::migration::MigrationPolicy;
use prism::machine::machine::Machine;
use prism::machine::{FaultPlan, JournalPolicy};
use prism::mem::addr::NodeId;
use prism::prelude::*;
use prism::sim::json::Json;
use prism::sim::Cycle;

fn base_config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build()
}

fn check_golden(name: &str, json: &str) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, json).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
    assert_eq!(
        json, want,
        "RunReport for `{name}` diverged from the golden fixture — the \
         refactored engine changed observable behavior"
    );
}

/// A plain application run: scheduler order, cache hierarchy, barriers
/// and the coherence checker, with periodic audit sweeps.
#[test]
fn golden_lu_audit() {
    let trace = app(AppId::Lu, Scale::Small).generate(8);
    let a = Machine::new(base_config()).run(&trace).to_json();
    let b = Machine::new(base_config()).run(&trace).to_json();
    assert_eq!(a, b, "back-to-back runs must serialize identically");
    check_golden("lu_audit", &a);
}

/// Migration + eager journaling under an adversarial fault plan: link
/// loss/corruption, a node failure mid-run, and a wedged Transit line
/// the watchdog must recover. Locks the fault/failover/watchdog event
/// machinery, not just the happy path.
#[test]
fn golden_ocean_faults() {
    let mut cfg = base_config();
    cfg.migration = Some(MigrationPolicy {
        check_interval: 16,
        min_traffic: 32,
        dominance: 0.55,
    });
    cfg.journal = JournalPolicy::Eager {
        record_cycles: 4,
        replay_cycles_per_line: 24,
    };
    let trace = app(AppId::Ocean, Scale::Small).generate(8);
    let plan = FaultPlan::new(0xFA117)
        .link_faults(0.002, 0.0004)
        .wedge_transit(NodeId(3), Cycle(60_000))
        .fail_node(NodeId(2), Cycle(120_000));
    let mut m = Machine::new(cfg);
    m.install_fault_plan(plan).expect("fault plan validates");
    check_golden("ocean_faults", &m.run(&trace).to_json());
}

/// Space-shared composition: two jobs with scoped barriers and per-job
/// segment placement through `run_jobs`.
#[test]
fn golden_composed_jobs() {
    let jobs = vec![
        app(AppId::WaterSpa, Scale::Small).generate(4),
        app(AppId::Radix, Scale::Small).generate(4),
    ];
    let report = Machine::new(base_config()).run_jobs(&jobs).unwrap();
    check_golden("composed_jobs", &report.to_json());
}

/// Three space-shared jobs under a mixed fault plan with eager
/// journaling: a bounded link-drop/corrupt window, a slow-node episode,
/// a wedged Transit line the watchdog recovers, and a scheduled node
/// death. A two-node job supplies remote traffic for the faults to
/// strike; two single-node jobs run beside it.
#[test]
fn golden_mixed_faults() {
    let mut cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .audit_interval(Some(50_000))
        .build();
    cfg.journal = JournalPolicy::Eager {
        record_cycles: 4,
        replay_cycles_per_line: 24,
    };
    let jobs = vec![
        app(AppId::Ocean, Scale::Small).generate(4),
        app(AppId::Radix, Scale::Small).generate(2),
        app(AppId::Fft, Scale::Small).generate(2),
    ];
    let plan = FaultPlan::new(0xFA117)
        .link_fault_window(Cycle::ZERO, Cycle(4_000), 0.01, 0.002)
        .slow_node(NodeId(0), Cycle(4_000), Cycle(12_000), 3)
        .wedge_transit(NodeId(1), Cycle(8_000))
        .fail_node(NodeId(3), Cycle(20_000));
    let mut m = Machine::new(cfg);
    m.install_fault_plan(plan).expect("fault plan validates");
    let report = m.run_jobs(&jobs).unwrap();
    assert_eq!(report.fault.node_failures, 1, "the node death must land");
    assert_eq!(report.fault.transit_wedges, 1, "the wedge must land");
    check_golden("mixed_faults", &report.to_json());
}

/// Every golden fixture is a fixed point of the one JSON layer: parsing
/// it and rendering it again gives the same bytes. So the report writer
/// and `prism_sim::json` agree on key order, number tokens and escaping.
#[test]
fn goldens_reparse_and_render_byte_for_byte() {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("golden directory") {
        let path = entry.expect("golden entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let golden = std::fs::read_to_string(&path).expect("read golden");
        let parsed = Json::parse(&golden)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(
            parsed.to_string() == golden,
            "{} does not render back byte for byte",
            path.display()
        );
        seen += 1;
    }
    assert_eq!(seen, 4, "the four golden fixtures");
}
