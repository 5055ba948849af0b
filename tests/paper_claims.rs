//! The paper's qualitative claims at `Scale::Small` on the default
//! machine, through the same checks that make `tables` exit 1 at paper
//! scale.

use std::sync::OnceLock;

use prism_bench::suite_runner::{run_suite, RunKey, SuiteRun};
use prism_bench::tables::*;
use prism_core::{MachineConfig, PolicyKind};
use prism_workloads::{AppId, Scale};

/// Every run of the evaluation at small scale, shared by the tests.
fn small_run() -> &'static SuiteRun {
    static RUN: OnceLock<SuiteRun> = OnceLock::new();
    RUN.get_or_init(|| run_suite(Scale::Small, &MachineConfig::default()))
}

/// Every claim about Figure 7 and Tables 3–5 holds at small scale
/// except these five, which `tables` enforces at paper scale only. A
/// claim that newly breaks fails here; one that starts to hold must be
/// taken off this list.
#[test]
fn small_scale_claims_hold_except_the_known_five() {
    assert_eq!(
        check_shapes(small_run()),
        [
            "Barnes: LANUMA should not have fewer remote misses than SCOMA",
            "Ocean: LANUMA should not have fewer remote misses than SCOMA",
            "Barnes: SCOMA-70 should outperform LANUMA",
            "LU: SCOMA-70 should outperform LANUMA",
            "Ocean: SCOMA-70 should outperform LANUMA",
        ]
    );
}

/// The studies' claims at small scale, pinned the same way. Only the
/// Barnes DRAM-PIT claim also fails at paper scale (known deviation
/// #3). Small Ocean under LANUMA runs for about 0.1 M cycles, and a few
/// cycles more or less per PIT lookup move its run time by far more
/// than the cycles themselves (the two Ocean entries).
#[test]
fn small_scale_study_claims_hold_except_the_known_nine() {
    assert_eq!(
        studies(small_run()).1,
        [
            "Ocean: a DRAM PIT should not speed LANUMA up (-17.5%)",
            "Barnes: a DRAM PIT should slow Barnes the most (paper: 16%)",
            "Water-Nsq: the home-page-status flag should never slow a run",
            "Ocean: LA-NUMA is more than 3% slower than CC-NUMA (22.0%)",
            "FFT: Dyn-Both should beat both Dyn-Util and Dyn-LRU",
            "FFT: Dyn-Both should convert pages back to S-COMA",
            "Barnes: a 90% page cache should beat LANUMA",
            "LU: a 90% page cache should beat LANUMA",
            "Ocean: a 90% page cache should beat LANUMA",
        ]
    );
}

#[test]
fn rendering_produces_all_rows() {
    let run = small_run();
    let (studies, _) = studies(run);
    assert!(studies[1].contains("lazy migration"));
    assert!(studies[5].contains("\nRadix "));
    // Every other section has a row per application.
    let mut sections = vec![render_figure7(run), render_table3(run), render_table4(run)];
    sections.push(render_table5(run));
    sections.extend([0, 2, 3, 4].map(|i| studies[i].clone()));
    for render in &sections {
        for id in AppId::ALL {
            assert!(render.contains(&id.to_string()), "missing {id}:\n{render}");
        }
    }
    assert!(render_table2(Scale::Paper).contains("Radix sort"));
}

/// A report that breaks a study's claim is reported, and fails the
/// claims summary.
#[test]
fn a_fabricated_violation_is_reported() {
    let want = "LU: the home-page-status flag should never slow a run";
    assert!(!studies(small_run()).1.iter().any(|v| v == want));
    let flag_on = RunKey::app(AppId::Lu, PolicyKind::Scoma70);
    let mut flag_off = flag_on;
    flag_off.spec.home_status_flag = false;
    let mut run = SuiteRun {
        reports: small_run().reports.clone(),
    };
    let faster = prism_core::sim::Cycle(run.cycles(flag_on) - 1);
    run.reports.get_mut(&flag_off).unwrap().exec_cycles = faster;
    let violations = studies(&run).1;
    assert_eq!(violations.iter().filter(|v| *v == want).count(), 1);
    let (summary, pass) = render_claims(&violations, &KNOWN_DEVIATIONS);
    assert!(!pass, "{summary}");
    let unexpected = summary.split("Shape violations:\n").nth(1).unwrap();
    assert!(unexpected.contains(&format!("  - {want}\n")), "{summary}");
}
