//! The paper's experiment harness: run an application under all six
//! page-mode configurations, deriving the SCOMA-70 page-cache capacity
//! from the SCOMA baseline (paper §4.2).

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use prism_machine::config::MachineConfig;
use prism_machine::machine::Machine;
use prism_machine::report::RunReport;
use prism_mem::trace::Trace;
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

/// Like [`sweep`], over a pre-generated trace.
///
/// The configurations run in two phases, each spread over as many
/// threads as the host offers (at most one per configuration). The
/// first runs the SCOMA baseline next to the configurations that need
/// no page-cache capacity (LANUMA); the second runs the
/// capacity-limited ones with the capacity derived from the baseline.
/// Every configuration runs on its own machine from the same trace, so
/// the result is the one a serial sweep gives.
///
/// # Errors
///
/// Returns [`SimError`] when the trace does not fit the machine. Every
/// configuration has the same processor count and geometry, so the
/// trace is checked once, with the error [`Simulation::run_trace`]
/// would give. A configuration that deadlocks fails the sweep with
/// [`SimError::Deadlock`]; if several do, the first in serial order.
///
/// # Panics
///
/// Re-raises a panic from a configuration's run with its own payload;
/// if several panic, the first in serial order (SCOMA, then
/// `policies`).
pub fn sweep_trace(
    config: &MachineConfig,
    trace: &Trace,
    policies: &[PolicyKind],
) -> Result<SweepResult, SimError> {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    sweep_on(workers, config, trace, policies)
}

/// [`sweep_trace`] on at most `workers` threads.
fn sweep_on(
    workers: usize,
    config: &MachineConfig,
    trace: &Trace,
    policies: &[PolicyKind],
) -> Result<SweepResult, SimError> {
    check_trace(config, trace)?;
    // The SCOMA baseline defines both the normalization and the
    // SCOMA-70 capacity, so only the capacity-limited configurations
    // have to wait for it.
    let (mut first, mut limited) = (vec![PolicyKind::Scoma], Vec::new());
    for &policy in policies {
        let phase = if policy.is_capacity_limited() {
            &mut limited
        } else {
            &mut first
        };
        if !phase.contains(&policy) {
            phase.push(policy);
        }
    }
    let run = |policy: PolicyKind, capacity: Option<usize>| {
        let mut sim = Simulation::new(config.clone(), policy);
        if let Some(frames) = capacity {
            sim = sim.with_page_cache_capacity(frames);
        }
        Machine::new(sim.effective_config()).try_run(trace)
    };
    // One phase's reports in `phase` order, or its first deadlock.
    let run_phase = |phase: &[PolicyKind], capacity: Option<usize>| {
        par_map(workers, phase, |&policy| run(policy, capacity))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(SimError::from)
    };
    let mut reports: BTreeMap<PolicyKind, RunReport> = first
        .iter()
        .copied()
        .zip(run_phase(&first, None)?)
        .collect();
    let capacity = derive_scoma70_capacity(&reports[&PolicyKind::Scoma], SCOMA70_FRACTION);
    reports.extend(
        limited
            .iter()
            .copied()
            .zip(run_phase(&limited, Some(capacity))?),
    );
    Ok(SweepResult {
        app: trace.name.clone(),
        capacity,
        reports,
    })
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

    /// The sweep as a serial loop of [`Simulation::run_trace`] calls
    /// computes it: SCOMA first, then every other configuration with the
    /// capacity derived from it.
    fn serial_sweep(trace: &Trace) -> (usize, BTreeMap<PolicyKind, RunReport>) {
        let scoma = Simulation::new(config(), PolicyKind::Scoma)
            .run_trace(trace)
            .unwrap();
        let capacity = derive_scoma70_capacity(&scoma, SCOMA70_FRACTION);
        let mut reports = BTreeMap::from([(PolicyKind::Scoma, scoma)]);
        for policy in &PolicyKind::ALL[1..] {
            let sim = Simulation::new(config(), *policy).with_page_cache_capacity(capacity);
            reports.insert(*policy, sim.run_trace(trace).unwrap());
        }
        (capacity, reports)
    }

    #[test]
    fn sweep_is_the_same_at_any_worker_count() {
        let trace = Synthetic::uniform(4, 256 * 1024, 3_000).generate(4);
        let (capacity, serial) = serial_sweep(&trace);
        let json = |reports: &BTreeMap<PolicyKind, RunReport>| {
            reports
                .iter()
                .map(|(policy, r)| (*policy, r.to_json()))
                .collect::<Vec<_>>()
        };
        assert!(serial[&PolicyKind::Scoma70].page_outs > 0, "capacity binds");
        for workers in [1, 2, 4] {
            let result = sweep_on(workers, &config(), &trace, &PolicyKind::ALL).unwrap();
            assert_eq!(result.capacity, capacity, "{workers} workers");
            assert_eq!(json(&result.reports), json(&serial), "{workers} workers");
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
                let got = sweep_on(workers, &config(), trace, &PolicyKind::ALL).unwrap_err();
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
            let got = sweep_on(workers, &config(), &trace, &PolicyKind::ALL).unwrap_err();
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
