//! Regenerates every table, figure and study of the paper in one run.
//!
//! Exits with status 1 when any of the paper's qualitative claims does
//! not hold (the "Shape violations" list), other than the known
//! deviations, or when a known deviation starts to hold.

use prism_bench::tables::{self, KNOWN_DEVIATIONS};
use prism_core::MachineConfig;
use prism_workloads::Scale;

fn main() {
    println!("{}", tables::render_table2(Scale::Paper));
    let rows = prism_bench::run_table1(None);
    println!("{}", tables::render_table1(&rows));
    let run = prism_bench::run_suite(Scale::Paper, &MachineConfig::default());
    println!("{}", tables::render_figure7(&run));
    println!("{}", tables::render_table3(&run));
    println!("{}", tables::render_table4(&run));
    println!("{}", tables::render_table5(&run));
    let (sections, study_violations) = tables::studies(&run);
    for section in sections {
        println!("{section}");
    }
    let mut violations = tables::check_shapes(&run);
    violations.extend(study_violations);
    let (summary, pass) = tables::render_claims(&violations, &KNOWN_DEVIATIONS);
    print!("{summary}");
    if !pass {
        std::process::exit(1);
    }
}
