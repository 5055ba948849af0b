//! Table-1 microbenchmark runner.

use prism_core::machine::machine::Machine;
use prism_core::MachineConfig;
use prism_workloads::microbench::{scenarios, Metric, Scenario};

/// One measured Table-1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// The paper's access-type label.
    pub name: &'static str,
    /// The paper's latency (cycles).
    pub paper: u64,
    /// Our measured latency (cycles).
    pub measured: f64,
}

impl Table1Row {
    /// Measured / paper ratio.
    pub fn ratio(&self) -> f64 {
        self.measured / self.paper as f64
    }
}

fn run_one(cfg: &MachineConfig, sc: &Scenario) -> Table1Row {
    let mut base_cfg = cfg.clone();
    base_cfg.policy = sc.policy;
    let setup = Machine::new(base_cfg.clone()).run(&sc.setup);
    let full = Machine::new(base_cfg).run(&sc.full);
    let measured = match sc.metric {
        Metric::ExecPerRef => {
            let cycles = full.exec_cycles.as_u64() - setup.exec_cycles.as_u64();
            let refs = full.total_refs - setup.total_refs;
            cycles as f64 / refs as f64
        }
        Metric::RemoteFetchDiff => {
            let sum = full.remote_fetch_latency.sum() - setup.remote_fetch_latency.sum();
            let count = full.remote_fetch_latency.count() - setup.remote_fetch_latency.count();
            sum as f64 / count.max(1) as f64
        }
        Metric::LocalFillDiff => {
            let sum = full.local_fill_latency.sum() - setup.local_fill_latency.sum();
            let count = full.local_fill_latency.count() - setup.local_fill_latency.count();
            sum as f64 / count.max(1) as f64
        }
        Metric::FaultDiff => {
            let sum = full.fault_latency.sum() - setup.fault_latency.sum();
            let count = full.fault_latency.count() - setup.fault_latency.count();
            sum as f64 / count.max(1) as f64
        }
    };
    Table1Row {
        name: sc.name,
        paper: sc.paper_cycles,
        measured,
    }
}

/// Runs the full Table-1 microbenchmark on a machine configuration
/// (uses the paper's default platform when `cfg` is `None`).
pub fn run_table1(cfg: Option<MachineConfig>) -> Vec<Table1Row> {
    let cfg = cfg.unwrap_or_default();
    scenarios(cfg.nodes, cfg.procs_per_node, cfg.tlb_entries)
        .iter()
        .map(|sc| run_one(&cfg, sc))
        .collect()
}
