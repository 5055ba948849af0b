//! Regenerates every table and figure of the paper in one run.
//!
//! Exits with status 1 when any of the paper's qualitative claims does
//! not hold (the "Shape violations" list).

use prism_core::MachineConfig;
use prism_workloads::Scale;

fn main() {
    println!("{}", prism_bench::tables::render_table2(Scale::Paper));
    let rows = prism_bench::run_table1(None);
    println!("{}", prism_bench::tables::render_table1(&rows));
    let run = prism_bench::run_suite(Scale::Paper, &MachineConfig::default());
    println!("{}", prism_bench::tables::render_figure7(&run));
    println!("{}", prism_bench::tables::render_table3(&run));
    println!("{}", prism_bench::tables::render_table4(&run));
    println!("{}", prism_bench::tables::render_table5(&run));
    let violations = prism_bench::tables::check_shapes(&run);
    if violations.is_empty() {
        println!("All qualitative claims of the paper hold.");
    } else {
        println!("Shape violations:");
        for v in violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}
