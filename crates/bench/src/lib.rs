//! # prism-bench — regenerating every table, figure and study of the paper
//!
//! Run with `cargo run --release -p prism-bench --bin <name>`:
//!
//! | binary | what it prints |
//! |--------|----------------|
//! | `tables` | every paper artifact (Tables 1–5, Figure 7, six studies) and its claims |
//! | `scaling` | 1–16 node speedup curve |
//! | `fault_sweep` | fault-injection recovery costs |
//! | `chaos` | the randomized fault-plan campaign |
//! | `runner` | CLI driver: ad-hoc runs, trace generation/replay |
//!
//! The library hosts the shared runners so the binaries stay thin, and
//! so the integration tests can assert the reproduced *shapes* (who
//! wins, by roughly what factor) without shelling out.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod microbench;
pub mod out;
pub mod suite_runner;
pub mod tables;

pub use microbench::{run_table1, Table1Row};
pub use out::{bench_out, write_bench_json};
pub use suite_runner::{run_suite, SuiteRun};
