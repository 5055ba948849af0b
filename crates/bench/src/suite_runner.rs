//! The one runner behind every paper artifact. Each run is named by a
//! [`RunKey`]; the evaluation is the suite's six-policy sweep plus the
//! runs the studies in [`crate::tables`] declare. A study key equal to a
//! suite key names the same run, so each distinct run is simulated once.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::thread;
use std::time::Instant;

use prism_core::experiment::par_map;
use prism_core::kernel::migration::MigrationPolicy;
use prism_core::protocol::latency::PitTechnology;
use prism_core::{derive_scoma70_capacity, MachineConfig, PolicyKind, RunReport, Simulation};
use prism_workloads::{app, AppId, Scale, Synthetic, Workload};

/// The workload a run simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Program {
    /// One of the suite's SPLASH applications.
    App(AppId),
    /// The §3.5 migratory-sharing synthetic: successive nodes take
    /// turns owning a hot region.
    Migratory,
}

/// One simulation: a workload under a configuration. Two keys are equal
/// exactly when their runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunKey {
    /// The workload.
    pub program: Program,
    /// The page-mode configuration.
    pub policy: PolicyKind,
    /// The page-cache capacity in percent of the most client frames any
    /// node allocates in the program's SCOMA run; `None` for the
    /// configurations without a page-cache limit.
    pub capacity_pct: Option<u8>,
    /// The PIT on the remote access path.
    pub pit: PitTechnology,
    /// The home-page-status flag optimization (§3.3).
    pub home_status_flag: bool,
    /// Lazy home migration (§3.5) with the default policy.
    pub migration: bool,
}

impl RunKey {
    /// `policy` on `program` as the suite runs it: SRAM PIT, status flag
    /// on, fixed homes, and the paper's 70% capacity when the policy
    /// limits the page cache.
    pub fn new(program: Program, policy: PolicyKind) -> RunKey {
        RunKey {
            program,
            policy,
            capacity_pct: policy.is_capacity_limited().then_some(70),
            pit: PitTechnology::Sram,
            home_status_flag: true,
            migration: false,
        }
    }

    /// [`RunKey::new`] for a suite application.
    pub fn app(id: AppId, policy: PolicyKind) -> RunKey {
        RunKey::new(Program::App(id), policy)
    }

    /// The program's SCOMA run, which normalizes this one and sizes its
    /// page cache.
    pub fn baseline(self) -> RunKey {
        RunKey::new(self.program, PolicyKind::Scoma)
    }

    /// `base` with this key's PIT, status flag and migration.
    fn config(&self, base: &MachineConfig) -> MachineConfig {
        let mut cfg = base.clone();
        cfg.latency = match self.pit {
            PitTechnology::Sram => cfg.latency,
            PitTechnology::Dram => cfg.latency.with_dram_pit(),
            PitTechnology::BypassedCcNuma => cfg.latency.with_cc_numa_addressing(),
        };
        cfg.home_status_flag = self.home_status_flag;
        cfg.migration = self.migration.then(MigrationPolicy::default);
        cfg
    }
}

/// Every run of the evaluation, by key.
#[derive(Debug)]
pub struct SuiteRun {
    /// One report per run.
    pub reports: BTreeMap<RunKey, RunReport>,
}

impl SuiteRun {
    /// The report of one run; panics if the run was not declared.
    pub fn report(&self, key: RunKey) -> &RunReport {
        self.reports
            .get(&key)
            .unwrap_or_else(|| panic!("run {key:?} was not declared"))
    }

    /// The run's execution time in cycles.
    pub fn cycles(&self, key: RunKey) -> u64 {
        self.report(key).exec_cycles.as_u64()
    }

    /// The run's execution time normalized to its program's SCOMA run
    /// (Figure 7's y-axis).
    pub fn normalized_time(&self, key: RunKey) -> f64 {
        self.cycles(key) as f64 / self.cycles(key.baseline()) as f64
    }
}

/// Every run of the evaluation, each once: the suite's six-policy
/// sweep, the studies' runs, and their SCOMA baselines.
pub fn declared_keys() -> BTreeSet<RunKey> {
    let suite = AppId::ALL.map(|id| PolicyKind::ALL.map(|p| RunKey::app(id, p)));
    let studies = crate::tables::study_keys();
    let keys: Vec<RunKey> = suite.into_iter().flatten().chain(studies).collect();
    keys.iter().flat_map(|k| [k.baseline(), *k]).collect()
}

/// Runs every declared run at a scale on `config`'s machine (the keys
/// set its PIT, status flag and migration), and prints the run count
/// and time to stderr. Each program's runs are one [`par_map`] item:
/// generate the trace, then run in key order, SCOMA baseline first, so
/// capacity-limited runs can size their page cache from it. Every run
/// has its own machine, so the reports are the ones serial runs give.
///
/// # Panics
///
/// Panics if a run fails (the suite's traces are valid and deadlock
/// free).
pub fn run_suite(scale: Scale, config: &MachineConfig) -> SuiteRun {
    let started = Instant::now();
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let keys: Vec<RunKey> = declared_keys().into_iter().collect();
    let programs: Vec<&[RunKey]> = keys.chunk_by(|a, b| a.program == b.program).collect();
    let procs = config.total_procs();
    let run_program = |keys: &&[RunKey]| {
        let workload: Box<dyn Workload> = match keys[0].program {
            Program::App(id) => app(id, scale),
            Program::Migratory => Box::new(Synthetic::migratory(procs, 128 * 1024, 40_000)),
        };
        let trace = workload.generate(procs);
        let mut reports: BTreeMap<RunKey, RunReport> = BTreeMap::new();
        for key in keys.iter() {
            let mut sim = Simulation::new(key.config(config), key.policy);
            if let Some(pct) = key.capacity_pct {
                let scoma = &reports[&key.baseline()];
                let frames = derive_scoma70_capacity(scoma, f64::from(pct) / 100.0);
                sim = sim.with_page_cache_capacity(frames);
            }
            let report = sim
                .run_trace(&trace)
                .unwrap_or_else(|e| panic!("{key:?} failed: {e}"));
            reports.insert(*key, report);
        }
        reports
    };
    let reports: BTreeMap<_, _> = par_map(workers, &programs, run_program)
        .into_iter()
        .flatten()
        .collect();
    eprintln!(
        "[prism-bench] {} runs of {} programs on {workers} threads, {:.1}s",
        reports.len(),
        programs.len(),
        started.elapsed().as_secs_f64()
    );
    SuiteRun { reports }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite's 48 runs and the studies' 50 more, and no two of them
    /// the same machine configuration, so no run is simulated twice.
    #[test]
    fn declared_keys_name_distinct_runs() {
        let keys = declared_keys();
        assert_eq!(keys.len(), 48 + 50);
        let runs: BTreeSet<(Program, PolicyKind, Option<u8>, String)> = keys
            .iter()
            .map(|k| {
                let cfg = k.config(&MachineConfig::default());
                (k.program, k.policy, k.capacity_pct, format!("{cfg:?}"))
            })
            .collect();
        assert_eq!(runs.len(), keys.len());
    }
}
