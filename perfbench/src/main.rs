//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ocean-scoma --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Prints the host facts, the results digest, one line per metric and,
//! as the last line, the result object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::process::ExitCode;

use prism_perfbench::workload::DEFAULT_SEED;
use prism_perfbench::{digest, host, invoke, metrics, Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("prism-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: nproc={} rustc=\"{}\" commit={} workload={} seed={} seconds={} trace={}",
        host::nproc(),
        host::rustc_version(),
        host::git_commit(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let out = invoke(&args);
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    let stored = if args.seed == DEFAULT_SEED {
        format!(
            " (stored: {})",
            digest::hex(args.workload.expected_digest())
        )
    } else {
        String::new()
    };
    println!("digest: {}{stored}", digest::hex(out.digest));
    for (label, walls, refs) in &out.units {
        let wall = metrics::median(walls.iter().copied());
        println!(
            "unit {label}: {refs} refs, median {wall:.4} s ({:.0} refs/s) over runs {walls:.4?}",
            *refs as f64 / wall
        );
    }
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !out.self_times.is_empty() {
        println!("self time by span (set-up spans once, the rest per round):");
        for (name, s) in &out.self_times {
            println!("  {name:<34} {s:>16.6} s");
        }
    }
    match &out.spans_file {
        Some(Ok(path)) => println!("spans: {}", path.display()),
        Some(Err(e)) => println!("spans not written: {e}"),
        None => {}
    }
    println!(
        "{}",
        metrics::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
