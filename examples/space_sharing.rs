//! Space sharing: two independent applications side by side on one
//! PRISM machine, each with its own processors, its own slice of the
//! global address space, and its own (scoped) barriers — then the same
//! pair with a node failure, showing containment between jobs.
//!
//! ```text
//! cargo run --release --example space_sharing
//! ```

use prism::machine::machine::Machine;
use prism::mem::addr::NodeId;
use prism::prelude::*;

fn main() {
    let config = MachineConfig::builder().nodes(4).procs_per_node(2).build();

    let lu = app(AppId::Lu, Scale::Small);
    let ocean = app(AppId::Ocean, Scale::Small);
    println!("job A (procs 0-3): {}", lu.description());
    println!("job B (procs 4-7): {}", ocean.description());

    let jobs = [lu.generate(4), ocean.generate(4)];
    let report = Machine::new(config.clone())
        .run_jobs(&jobs)
        .expect("both jobs run to completion");
    println!("\nhealthy machine:");
    println!(
        "  {} references executed, {} barrier episodes, 0 dead processors",
        report.total_refs, report.barrier_episodes
    );

    // Same pair, but node 1 (job A's second node) fails first.
    let mut machine = Machine::new(config);
    machine.fail_node(NodeId(1));
    let report = machine.run_jobs(&jobs).expect("the jobs run to completion");
    println!("\nwith node 1 failed before the run:");
    println!(
        "  {} dead processors; {} references still executed",
        report.dead_procs, report.total_refs
    );
    println!(
        "\nJob B never notices: its pages are named by its own nodes'\n\
         physical addresses, so nothing it touches lives on node 1."
    );
}
