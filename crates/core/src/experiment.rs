//! The paper's experiment harness: run an application under all six
//! page-mode configurations, deriving the SCOMA-70 page-cache capacity
//! from the SCOMA baseline (paper §4.2).

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use prism_kernel::migration::MigrationPolicy;
use prism_machine::config::MachineConfig;
use prism_machine::machine::Machine;
use prism_machine::report::RunReport;
use prism_mem::trace::Trace;
use prism_protocol::latency::PitTechnology;
use prism_workloads::Workload;

use crate::policy::PolicyKind;
use crate::simulation::{check_trace, SimError, Simulation};

/// The paper's capacity rule: 70% of the maximum number of client
/// S-COMA frames any node allocated in the SCOMA configuration.
pub const SCOMA70_FRACTION: f64 = 0.70;

/// Derives the SCOMA-70 page-cache capacity (frames per node) from a
/// SCOMA baseline report.
pub fn derive_scoma70_capacity(scoma: &RunReport, fraction: f64) -> usize {
    let max_client = scoma
        .per_node
        .iter()
        .map(|n| n.pool.scoma_client)
        .max()
        .unwrap_or(0);
    ((max_client as f64 * fraction).ceil() as usize).max(1)
}

/// Results of one application swept across every configuration.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Application name.
    pub app: String,
    /// The derived SCOMA-70 capacity (frames per node).
    pub capacity: usize,
    /// One report per configuration.
    pub reports: BTreeMap<PolicyKind, RunReport>,
}

impl SweepResult {
    /// Execution time normalized to the SCOMA baseline (Figure 7's
    /// y-axis).
    pub fn normalized_time(&self, policy: PolicyKind) -> f64 {
        let base = self.reports[&PolicyKind::Scoma].exec_cycles.as_u64() as f64;
        self.reports[&policy].exec_cycles.as_u64() as f64 / base
    }

    /// The CSV header matching [`SweepResult::csv_rows`].
    pub fn csv_header() -> &'static str {
        "app,policy,normalized_time,exec_cycles,remote_misses,remote_upgrades,page_outs,conversions_to_lanuma,frames_allocated,avg_utilization,faults_client,messages"
    }

    /// One CSV row per configuration, for external plotting tools.
    pub fn csv_rows(&self) -> Vec<String> {
        self.reports
            .iter()
            .map(|(policy, r)| {
                format!(
                    "{},{},{:.4},{},{},{},{},{},{},{:.4},{},{}",
                    self.app,
                    policy,
                    self.normalized_time(*policy),
                    r.exec_cycles.as_u64(),
                    r.remote_misses,
                    r.remote_upgrades,
                    r.page_outs,
                    r.conversions_to_lanuma,
                    r.frames_allocated,
                    r.avg_utilization,
                    r.faults.2,
                    r.ledger.total()
                )
            })
            .collect()
    }
}

/// Runs one workload under the requested configurations (all six by
/// default), generating the trace once and reusing it.
///
/// # Errors
///
/// Propagates [`SimError`] from any run.
pub fn sweep(
    config: &MachineConfig,
    workload: &dyn Workload,
    policies: &[PolicyKind],
) -> Result<SweepResult, SimError> {
    let trace = workload.generate(config.total_procs());
    sweep_trace(config, &trace, policies)
}

/// Like [`sweep`], over a pre-generated trace: [`run_specs`] over
/// SCOMA and `policies` on as many threads as the host offers.
///
/// # Errors
///
/// As [`run_specs`].
pub fn sweep_trace(
    config: &MachineConfig,
    trace: &Trace,
    policies: &[PolicyKind],
) -> Result<SweepResult, SimError> {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut specs = vec![RunSpec::baseline()];
    specs.extend(policies.iter().map(|&p| RunSpec::new(p)));
    let reports = run_specs(workers, config, trace, &specs)?;
    let capacity = derive_scoma70_capacity(&reports[&RunSpec::baseline()], SCOMA70_FRACTION);
    let reports = reports
        .into_iter()
        .map(|(spec, r)| (spec.policy, r))
        .collect();
    Ok(SweepResult {
        app: trace.name.clone(),
        capacity,
        reports,
    })
}

/// The machine-shaping half of a run: a page-mode configuration and how
/// the machine deviates from the base it runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunSpec {
    /// The page-mode configuration.
    pub policy: PolicyKind,
    /// The page cache in percent of the baseline's most client frames.
    pub capacity_pct: Option<u8>,
    /// The PIT on the remote access path; SRAM keeps the base latency.
    pub pit: PitTechnology,
    /// The home-page-status flag (§3.3); `false` turns the base's off.
    pub home_status_flag: bool,
    /// Lazy home migration (§3.5); `true` turns the default policy on.
    pub migration: bool,
}

impl RunSpec {
    /// `policy` as the paper runs it: SRAM PIT, status flag on, fixed
    /// homes, and a 70% page cache when the policy limits it.
    pub fn new(policy: PolicyKind) -> RunSpec {
        RunSpec {
            policy,
            capacity_pct: policy.is_capacity_limited().then_some(70),
            pit: PitTechnology::Sram,
            home_status_flag: true,
            migration: false,
        }
    }

    /// The SCOMA run that sizes every capacity-limited run's page cache.
    pub fn baseline() -> RunSpec {
        RunSpec::new(PolicyKind::Scoma)
    }

    /// The machine this spec runs on `base`, its page cache sized from
    /// the `baseline` report, which a spec with a capacity panics without.
    pub fn config(&self, base: &MachineConfig, baseline: Option<&RunReport>) -> MachineConfig {
        let mut cfg = base.clone();
        cfg.latency = match self.pit {
            PitTechnology::Sram => cfg.latency,
            PitTechnology::Dram => cfg.latency.with_dram_pit(),
            PitTechnology::BypassedCcNuma => cfg.latency.with_cc_numa_addressing(),
        };
        cfg.home_status_flag &= self.home_status_flag;
        if self.migration {
            cfg.migration.get_or_insert_with(MigrationPolicy::default);
        }
        let mut sim = Simulation::new(cfg, self.policy);
        if let Some(pct) = self.capacity_pct {
            let scoma = baseline.expect("a capacity-limited run needs its baseline");
            let frames = derive_scoma70_capacity(scoma, f64::from(pct) / 100.0);
            sim = sim.with_page_cache_capacity(frames);
        }
        sim.effective_config()
    }
}

/// Runs `trace` on `base` under `specs` and their baseline on at most
/// `workers` threads, each spec once on its own machine, and returns the
/// reports by spec: first a [`par_map`] of the specs without a capacity
/// and the baseline, then one of the specs it sizes, each in `specs` order.
///
/// # Errors
///
/// As [`Simulation::run_trace`], the trace checked once; a run's panic is
/// re-raised. Of several failures, the first in phase-then-`specs` order.
pub fn run_specs(
    workers: usize,
    base: &MachineConfig,
    trace: &Trace,
    specs: &[RunSpec],
) -> Result<BTreeMap<RunSpec, RunReport>, SimError> {
    check_trace(base, trace)?;
    let mut reports = BTreeMap::new();
    for phase in phases(specs) {
        let baseline = reports.get(&RunSpec::baseline());
        let run = |spec: &RunSpec| Machine::new(spec.config(base, baseline)).try_run(trace);
        let done = par_map(workers, &phase, run);
        for (spec, report) in phase.into_iter().zip(done) {
            reports.insert(spec, report?);
        }
    }
    Ok(reports)
}

/// [`run_specs`]' two phases of `specs`, in order and each spec once.
fn phases(specs: &[RunSpec]) -> [Vec<RunSpec>; 2] {
    let mut phases = [Vec::new(), Vec::new()];
    for &spec in specs {
        let sized = spec.capacity_pct.is_some();
        let first = if sized { RunSpec::baseline() } else { spec };
        for (phase, spec) in [(0, first), (usize::from(sized), spec)] {
            if !phases[phase].contains(&spec) {
                phases[phase].push(spec);
            }
        }
    }
    phases
}

/// Maps `f` over `items` on at most `workers` threads, the calling
/// thread being one of them. Each thread takes the next unclaimed index
/// until none is left, and results are stored by index, so they come
/// back in `items`' order however the threads interleave. A panic in
/// `f` is re-raised on the calling thread with its own payload: the
/// first in `items`' order.
pub fn par_map<I: Sync, T: Send>(
    workers: usize,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return done;
            };
            done.push((index, panic::catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
    };
    let helpers = workers.min(items.len()).saturating_sub(1);
    let batches = thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
        let mut batches = vec![work()];
        batches.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("workers catch their items' panics")),
        );
        batches
    });
    let mut slots: Vec<Option<thread::Result<T>>> = items.iter().map(|_| None).collect();
    for (index, result) in batches.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| match slot.expect("every item is taken once") {
            Ok(out) => out,
            Err(payload) => panic::resume_unwind(payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use prism_mem::addr::VirtAddr;
    use prism_mem::trace::{Op, TraceError, SHARED_BASE};
    use prism_workloads::Synthetic;

    fn config() -> MachineConfig {
        MachineConfig::builder()
            .nodes(4)
            .procs_per_node(1)
            .l1_bytes(1024)
            .l2_bytes(4096)
            .build()
    }

    #[test]
    fn sweep_runs_all_policies_and_normalizes() {
        let w = Synthetic::uniform(4, 96 * 1024, 2_000);
        let result = sweep(&config(), &w, &PolicyKind::ALL).expect("sweep runs");
        assert_eq!(result.reports.len(), 6);
        assert!((result.normalized_time(PolicyKind::Scoma) - 1.0).abs() < 1e-12);
        // LA-NUMA must be slower than the infinite-page-cache baseline
        // under a capacity-stressing uniform pattern.
        assert!(result.normalized_time(PolicyKind::Lanuma) > 1.0);
        assert!(result.capacity >= 1);
    }

    #[test]
    fn capacity_derivation_uses_max_node() {
        let w = Synthetic::uniform(4, 64 * 1024, 1_000);
        let scoma = Simulation::new(config(), PolicyKind::Scoma)
            .run(&w)
            .unwrap();
        let cap = derive_scoma70_capacity(&scoma, 0.70);
        let max_client = scoma
            .per_node
            .iter()
            .map(|n| n.pool.scoma_client)
            .max()
            .unwrap();
        assert_eq!(cap, ((max_client as f64 * 0.7).ceil() as usize).max(1));
    }

    #[test]
    fn csv_rows_cover_every_policy() {
        let w = Synthetic::uniform(4, 64 * 1024, 500);
        let result = sweep(&config(), &w, &PolicyKind::ALL).unwrap();
        let rows = result.csv_rows();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert_eq!(
                row.split(',').count(),
                SweepResult::csv_header().split(',').count()
            );
        }
    }

    #[test]
    fn scoma70_pages_out_when_capacity_binds() {
        let w = Synthetic::uniform(4, 256 * 1024, 4_000);
        let result = sweep(&config(), &w, &[PolicyKind::Scoma, PolicyKind::Scoma70]).unwrap();
        assert_eq!(result.reports[&PolicyKind::Scoma].page_outs, 0);
        assert!(result.reports[&PolicyKind::Scoma70].page_outs > 0);
    }

    fn json(reports: &BTreeMap<RunSpec, RunReport>) -> Vec<(RunSpec, String)> {
        reports
            .iter()
            .map(|(spec, r)| (*spec, r.to_json()))
            .collect()
    }

    /// What a spec runs as a serial loop of [`Simulation::run_trace`]
    /// calls computes it on [`config`]: the deviations assigned, and the
    /// page cache sized from the SCOMA run of the same trace.
    fn serial(specs: &[RunSpec], trace: &Trace) -> BTreeMap<RunSpec, RunReport> {
        let scoma = Simulation::new(config(), PolicyKind::Scoma)
            .run_trace(trace)
            .unwrap();
        let mut reports = BTreeMap::new();
        for spec in specs {
            let mut cfg = config();
            cfg.latency = match spec.pit {
                PitTechnology::Sram => cfg.latency,
                PitTechnology::Dram => cfg.latency.with_dram_pit(),
                PitTechnology::BypassedCcNuma => cfg.latency.with_cc_numa_addressing(),
            };
            cfg.home_status_flag = spec.home_status_flag;
            cfg.migration = spec.migration.then(MigrationPolicy::default);
            let mut sim = Simulation::new(cfg, spec.policy);
            if let Some(pct) = spec.capacity_pct {
                let frames = derive_scoma70_capacity(&scoma, f64::from(pct) / 100.0);
                sim = sim.with_page_cache_capacity(frames);
            }
            reports.insert(*spec, sim.run_trace(trace).unwrap());
        }
        reports.insert(RunSpec::baseline(), scoma);
        reports
    }

    #[test]
    fn sweep_is_the_same_at_any_worker_count() {
        let trace = Synthetic::uniform(4, 256 * 1024, 3_000).generate(4);
        let specs = PolicyKind::ALL.map(RunSpec::new);
        let want = serial(&specs, &trace);
        let capacity = derive_scoma70_capacity(&want[&RunSpec::baseline()], SCOMA70_FRACTION);
        assert!(
            want[&RunSpec::new(PolicyKind::Scoma70)].page_outs > 0,
            "capacity binds"
        );
        for workers in [1, 2, 4] {
            let got = run_specs(workers, &config(), &trace, &specs).unwrap();
            let sized =
                RunSpec::new(PolicyKind::DynLru).config(&config(), got.get(&RunSpec::baseline()));
            assert_eq!(
                sized.page_cache_capacity,
                Some(capacity),
                "{workers} workers"
            );
            assert_eq!(json(&got), json(&want), "{workers} workers");
        }
        let sweep = sweep_trace(&config(), &trace, &PolicyKind::ALL).unwrap();
        assert_eq!(sweep.capacity, capacity);
        let by_policy: Vec<_> = want.values().map(RunReport::to_json).collect();
        assert_eq!(
            sweep
                .reports
                .values()
                .map(RunReport::to_json)
                .collect::<Vec<_>>(),
            by_policy
        );
    }

    /// Every field of a spec reaches its run, at any worker count.
    #[test]
    fn run_specs_equals_a_serial_loop_for_every_field() {
        let trace = Synthetic::uniform(4, 256 * 1024, 2_000).generate(4);
        let (lanuma, scoma70) = (
            RunSpec::new(PolicyKind::Lanuma),
            RunSpec::new(PolicyKind::Scoma70),
        );
        let mut specs = vec![
            RunSpec {
                pit: PitTechnology::Dram,
                ..lanuma
            },
            RunSpec {
                pit: PitTechnology::BypassedCcNuma,
                ..lanuma
            },
            RunSpec {
                home_status_flag: false,
                ..scoma70
            },
            RunSpec {
                migration: true,
                ..RunSpec::baseline()
            },
            RunSpec::new(PolicyKind::DynBoth),
        ];
        specs.extend([10, 50, 90].map(|pct| RunSpec {
            capacity_pct: Some(pct),
            ..scoma70
        }));
        let want = serial(&specs, &trace);
        let distinct: BTreeSet<String> = want.values().map(RunReport::to_json).collect();
        assert_eq!(
            distinct.len(),
            specs.len() + 1,
            "every field changes its run"
        );
        for workers in [1, 2, 4] {
            let got = run_specs(workers, &config(), &trace, &specs).unwrap();
            assert_eq!(json(&got), json(&want), "{workers} workers");
        }
    }

    #[test]
    fn a_spec_listed_twice_runs_once() {
        let (lanuma, scoma70) = (
            RunSpec::new(PolicyKind::Lanuma),
            RunSpec::new(PolicyKind::Scoma70),
        );
        let twice = [scoma70, lanuma, scoma70, lanuma, RunSpec::baseline()];
        assert_eq!(
            phases(&twice),
            [vec![RunSpec::baseline(), lanuma], vec![scoma70]]
        );
        let trace = Synthetic::uniform(4, 64 * 1024, 500).generate(4);
        let once = run_specs(2, &config(), &trace, &[lanuma, scoma70]).unwrap();
        assert_eq!(
            json(&run_specs(2, &config(), &trace, &twice).unwrap()),
            json(&once)
        );
    }

    #[test]
    fn a_limited_spec_alone_still_returns_its_baseline() {
        let trace = Synthetic::uniform(4, 256 * 1024, 1_000).generate(4);
        let dyn_lru = RunSpec::new(PolicyKind::DynLru);
        let got = run_specs(1, &config(), &trace, &[dyn_lru]).unwrap();
        assert_eq!(json(&got), json(&serial(&[dyn_lru], &trace)));
    }

    /// A spec's defaults keep what the base machine already sets.
    #[test]
    fn default_fields_leave_the_base_untouched() {
        let mut base = config();
        base.latency = base.latency.with_dram_pit();
        base.home_status_flag = false;
        base.migration = Some(MigrationPolicy {
            min_traffic: 7,
            ..MigrationPolicy::default()
        });
        let want = Simulation::new(base.clone(), PolicyKind::Lanuma).effective_config();
        let lanuma = RunSpec::new(PolicyKind::Lanuma);
        for spec in [
            lanuma,
            RunSpec {
                migration: true,
                ..lanuma
            },
        ] {
            let cfg = spec.config(&base, None);
            assert_eq!(format!("{cfg:?}"), format!("{want:?}"), "{spec:?}");
        }
    }

    #[test]
    fn invalid_trace_fails_the_sweep_as_it_fails_a_run() {
        let good = Synthetic::uniform(4, 64 * 1024, 100).generate(4);
        let mut stray = good.clone();
        stray.lanes[2] = vec![Op::Read(VirtAddr(SHARED_BASE - 64))].into();
        let short = Synthetic::uniform(4, 64 * 1024, 100).generate(3);
        for trace in [&stray, &short] {
            let want = Simulation::new(config(), PolicyKind::Scoma)
                .run_trace(trace)
                .unwrap_err();
            for workers in [1, 2] {
                let specs = PolicyKind::ALL.map(RunSpec::new);
                let got = run_specs(workers, &config(), trace, &specs).unwrap_err();
                assert_eq!(got, want);
            }
            assert_eq!(sweep_trace(&config(), trace, &[]).unwrap_err(), want);
        }
        assert!(matches!(
            sweep_trace(&config(), &stray, &PolicyKind::ALL),
            Err(SimError::InvalidTrace(TraceError::StrayAccess {
                lane: 2,
                ..
            }))
        ));
    }

    #[test]
    fn a_deadlocked_configuration_fails_the_sweep() {
        // Lanes 0 and 1 deadlock; lanes 2 and 3 finish.
        let mut trace = crate::simulation::abba_trace();
        trace
            .lanes
            .extend([vec![Op::Compute(5)].into(), vec![].into()]);
        let want = Simulation::new(config(), PolicyKind::Scoma)
            .run_trace(&trace)
            .unwrap_err();
        assert_eq!(
            want,
            SimError::Deadlock(prism_machine::RunError::Deadlock { procs: vec![0, 1] })
        );
        for workers in [1, 2] {
            let specs = PolicyKind::ALL.map(RunSpec::new);
            let got = run_specs(workers, &config(), &trace, &specs).unwrap_err();
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<u64> = (0..10).collect();
        for workers in [1, 2, 3, 16] {
            assert_eq!(
                par_map(workers, &items, |&i| i * i),
                items.iter().map(|i| i * i).collect::<Vec<_>>()
            );
        }
        assert!(par_map(4, &[] as &[u64], |&i| i).is_empty());
    }

    #[test]
    fn a_panicking_item_surfaces_its_own_message() {
        let items: Vec<u64> = (0..4).collect();
        for workers in [1, 2] {
            let payload = panic::catch_unwind(|| {
                par_map(workers, &items, |&i| {
                    assert!(i < 2, "item {i} failed");
                    i
                })
            })
            .unwrap_err();
            // Items 2 and 3 both panic; the first in order wins.
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 2 failed"),
                "{workers} workers"
            );
        }
    }
}
