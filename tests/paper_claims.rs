//! The paper's qualitative claims at `Scale::Small` on the default
//! machine, through the same `check_shapes` that makes `tables` exit 1
//! at paper scale.

use prism_bench::suite_runner::run_suite;
use prism_bench::tables::check_shapes;
use prism_core::MachineConfig;
use prism_workloads::Scale;

/// Every claim holds at small scale except these five, which `tables`
/// enforces at paper scale only. A claim that newly breaks fails here;
/// one that starts to hold must be taken off this list.
#[test]
fn small_scale_claims_hold_except_the_known_five() {
    let run = run_suite(Scale::Small, &MachineConfig::default());
    assert_eq!(
        check_shapes(&run),
        [
            "Barnes: LANUMA should not have fewer remote misses than SCOMA",
            "Ocean: LANUMA should not have fewer remote misses than SCOMA",
            "Barnes: SCOMA-70 should outperform LANUMA",
            "LU: SCOMA-70 should outperform LANUMA",
            "Ocean: SCOMA-70 should outperform LANUMA",
        ]
    );
}
