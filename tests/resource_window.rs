//! The resource timelines keep only their live window.
//!
//! Every node's bus, memory, network interface and protocol engine keep
//! one occupancy byte per 64-cycle bucket. The run loop periodically
//! tells them the slowest processor clock, and each drops the buckets
//! below it, so what a timeline retains follows the spread of processor
//! clocks instead of the length of the run.

use prism::machine::machine::Machine;
use prism::mem::addr::{GlobalPage, Gsid};
use prism::prelude::*;
use prism::sim::Cycle;

/// The default 32-processor machine under LA-NUMA.
fn lanuma(check_coherence: bool) -> MachineConfig {
    let cfg = MachineConfig {
        check_coherence,
        ..MachineConfig::default()
    };
    Simulation::new(cfg, PolicyKind::Lanuma).effective_config()
}

/// Runs `id` at `scale` on a fresh LA-NUMA machine.
fn run(id: AppId, scale: Scale, check_coherence: bool) -> (Machine, RunReport) {
    let cfg = lanuma(check_coherence);
    let trace = app(id, scale).generate(cfg.total_procs());
    let mut m = Machine::new(cfg);
    let report = m.run(&trace);
    (m, report)
}

/// What a drain may leave beyond twice the clock spread: the 1,024-bucket
/// (65,536-cycle) drain threshold, the reach of reservations past the
/// fastest clock, and the clocks' advance between two retirements.
const SLACK: Cycle = Cycle(4 * 65_536);

/// Radix at test scale runs 1.17 M cycles, about 18,000 buckets per
/// timeline, under the coherence checker.
#[test]
fn small_lanuma_timelines_stay_within_the_clock_spread() {
    let (m, r) = run(AppId::Radix, Scale::Small, true);
    let exec = r.exec_cycles.as_u64();
    // Retirement kept up with the run: the last mark is near its end.
    let horizon = m.retired_horizon().as_u64();
    assert!(horizon >= exec / 10 * 9, "retired to {horizon} of {exec}");
    let spread = m.widest_clock_spread();
    let bound = spread + spread + SLACK;
    for res in m.resources() {
        let peak = res.peak_retained_span();
        assert!(
            peak <= bound,
            "{} held {peak:?}, over 2 × {spread:?} + {SLACK:?}",
            res.name()
        );
        assert!(
            peak.as_u64() <= exec / 4,
            "{} held {peak:?} of {exec}",
            res.name()
        );
        assert_eq!(res.retired_before().as_u64(), horizon, "{}", res.name());
    }
}

/// Paper-scale Barnes under LA-NUMA (39 M cycles). Its serial tree
/// builds keep most processors blocked at a barrier, whose arrival clocks
/// hold the mark back by up to 10 M cycles, so its timelines keep much
/// more than the spread-free programs do.
#[test]
#[ignore = "paper scale: run with `cargo test --release --test resource_window -- --ignored`"]
fn paper_barnes_timelines_retain_at_most_three_quarters_of_the_run() {
    let (m, r) = run(AppId::Barnes, Scale::Paper, false);
    let exec = r.exec_cycles.as_u64();
    for res in m.resources() {
        let peak = res.peak_retained_span().as_u64();
        assert!(peak <= exec / 4 * 3, "{} held {peak} of {exec}", res.name());
    }
}

/// A page resident at its home after a run: segment 0's first page.
fn first_page() -> GlobalPage {
    GlobalPage::new(Gsid(0), 0)
}

#[test]
fn a_home_page_out_at_the_end_of_the_run_is_accepted() {
    let (mut m, r) = run(AppId::Radix, Scale::Small, true);
    assert!(m.retired_horizon() > Cycle::ZERO);
    let done = m
        .home_page_out(first_page(), r.exec_cycles)
        .expect("the page is resident at its home");
    assert!(done > r.exec_cycles);
}

#[test]
#[should_panic(expected = "is before the retired horizon")]
fn a_home_page_out_before_the_retired_horizon_panics() {
    let (mut m, _) = run(AppId::Radix, Scale::Small, false);
    let before = Cycle(m.retired_horizon().as_u64() - 1);
    m.home_page_out(first_page(), before);
}
