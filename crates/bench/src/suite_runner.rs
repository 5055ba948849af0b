//! The one runner behind every paper artifact. Each run is named by a
//! [`RunKey`]; the evaluation is the suite's six-policy sweep plus the
//! runs the studies in [`crate::tables`] declare. A study key equal to a
//! suite key names the same run, so each distinct run is simulated once.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::thread;
use std::time::Instant;

use prism_core::experiment::par_map;
use prism_core::{run_specs, MachineConfig, PolicyKind, RunReport, RunSpec};
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
    /// The machine it runs on.
    pub spec: RunSpec,
}

impl RunKey {
    /// `policy` on `program` as the suite runs it ([`RunSpec::new`]).
    pub fn new(program: Program, policy: PolicyKind) -> RunKey {
        RunKey {
            program,
            spec: RunSpec::new(policy),
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

/// Runs every declared run at a scale on `config`'s machine, and prints
/// the run count and time to stderr. Each program is one [`par_map`]
/// item: generate the trace, then [`run_specs`] its keys on one thread.
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
        let program = keys[0].program;
        let workload: Box<dyn Workload> = match program {
            Program::App(id) => app(id, scale),
            Program::Migratory => Box::new(Synthetic::migratory(procs, 128 * 1024, 40_000)),
        };
        let specs: Vec<RunSpec> = keys.iter().map(|k| k.spec).collect();
        let reports = run_specs(1, config, &workload.generate(procs), &specs)
            .unwrap_or_else(|e| panic!("{program:?} failed: {e}"));
        reports
            .into_iter()
            .map(move |(spec, r)| (RunKey { program, spec }, r))
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
                // The capacity is compared as a percentage, so the machine
                // is shaped without a baseline to size it from.
                let spec = RunSpec {
                    capacity_pct: None,
                    ..k.spec
                };
                let cfg = spec.config(&MachineConfig::default(), None);
                (
                    k.program,
                    k.spec.policy,
                    k.spec.capacity_pct,
                    format!("{cfg:?}"),
                )
            })
            .collect();
        assert_eq!(runs.len(), keys.len());
    }
}
