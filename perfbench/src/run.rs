//! Set-up, timed simulation calls and their correctness checks.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use prism_core::machine::Machine;
use prism_core::mem::trace::Trace;
use prism_core::{
    derive_scoma70_capacity, sweep_trace, PolicyKind, RunReport, Simulation, SCOMA70_FRACTION,
};
use prism_workloads::AppId;

use crate::digest::Digest;
use crate::host;
use crate::spans::Spans;
use crate::workload::{Spec, UnitKind, UnitSpec};

/// Host seconds of one set-up, by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Workload::generate`.
    pub generate_s: f64,
    /// `Trace::validate`.
    pub validate_s: f64,
    /// `Machine::new`, for every configuration the workload builds.
    pub machine_new_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.validate_s + self.machine_new_s
    }
}

/// Runs `f` inside a span and adds its wall time to `acc`.
fn timed<R>(
    spans: &mut Spans,
    name: &'static str,
    sim: usize,
    acc: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = spans.span(name, sim, |_| f());
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Generates and validates every unit's trace and builds (then drops)
/// a machine for every configuration the workload runs: everything a
/// user pays before the first reference executes.
///
/// # Errors
///
/// Returns a message naming the trace that failed validation.
pub fn setup(spec: &Spec, spans: &mut Spans) -> Result<(Vec<Trace>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut traces = Vec::with_capacity(spec.units.len());
    for unit in &spec.units {
        let sim = spans.sim(format!("{}/setup", unit.app));
        let trace = timed(
            spans,
            "workloads.generate",
            sim,
            &mut times.generate_s,
            || unit.generate(spec.scale, spec.seed),
        );
        timed(spans, "trace.validate", sim, &mut times.validate_s, || {
            trace.validate(&unit.config.geometry)
        })
        .map_err(|e| format!("{}: invalid trace: {e}", unit.app))?;
        for cfg in unit.machine_configs() {
            let machine = timed(spans, "machine.new", sim, &mut times.machine_new_s, || {
                Machine::new(cfg)
            });
            drop(machine);
        }
        traces.push(trace);
    }
    Ok((traces, times))
}

/// The outcome of one run of a unit.
#[derive(Clone, Debug)]
pub struct UnitRun {
    /// Host seconds inside the simulation call(s).
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Simulations attempted.
    pub attempted: u64,
    /// One message per failed check; empty when every simulation passed.
    pub failures: Vec<String>,
    /// Reports in run order (a sweep's in `PolicyKind` order).
    pub reports: Vec<RunReport>,
    /// Digest of every report's `to_json()`.
    pub digest: u64,
}

/// References one run of `unit` on `trace` should execute.
pub fn expected_refs(unit: &UnitSpec, trace: &Trace) -> u64 {
    unit.simulations() * trace.total_refs() as u64
}

/// Checks that hold for every simulation of every workload.
fn check_report(app: AppId, r: &RunReport, refs: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: &str| {
        if !ok {
            bad.push(format!("{app}: {what}"));
        }
    };
    require(
        r.total_refs == refs,
        "executed a different number of references than the trace holds",
    );
    require(
        r.l1_hits + r.l1_misses == r.total_refs,
        "L1 hits and misses do not add up to the references",
    );
    require(r.exec_cycles.as_u64() > 0, "took no simulated time");
    require(r.dead_procs == 0, "a processor died");
    require(
        r.fault.fatal_faults == 0 && r.fault.watchdog_kills == 0,
        "a fault was fatal",
    );
    // `MachineConfig::default()` runs no audit sweep, so this fires only
    // if a later default turns auditing on and it finds something.
    require(
        r.audit.is_empty(),
        "the coherence auditor reported a finding",
    );
    bad
}

/// Runs `f`, returning its result with the host wall and process CPU
/// seconds it took.
fn clocked<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let cpu = match (cpu0, host::cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    (out, wall, cpu)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// The simulation call of a sweep, made through the span recorder: one
/// `experiment.sim` span per configuration, each holding the validate,
/// machine-build and run calls `sweep_trace` makes. Produces the same
/// reports as `sweep_trace` (the benchmark checks that it does), and
/// adds every machine's page-accounting violations to `violations`.
fn traced_sweep(
    unit: &UnitSpec,
    trace: &Trace,
    spans: &mut Spans,
    violations: &mut Vec<String>,
) -> Result<Vec<RunReport>, String> {
    let mut one = |spans: &mut Spans, policy: PolicyKind, capacity: usize| {
        let cfg = Simulation::new(unit.config.clone(), policy)
            .with_page_cache_capacity(capacity)
            .effective_config();
        let sim = spans.sim(format!("{}/{policy}", unit.app));
        spans.span("experiment.sim", sim, |spans| {
            spans
                .span("trace.validate", sim, |_| trace.validate(&cfg.geometry))
                .map_err(|e| e.to_string())?;
            let mut machine = spans.span("machine.new", sim, |_| Machine::new(cfg));
            let report = spans.span("machine.run", sim, |_| machine.run(trace));
            violations.extend(
                machine
                    .page_accounting_violations()
                    .into_iter()
                    .map(|v| format!("{policy}: {v}")),
            );
            Ok::<_, String>(report)
        })
    };
    let scoma = one(spans, PolicyKind::Scoma, 1)?;
    let capacity = derive_scoma70_capacity(&scoma, SCOMA70_FRACTION);
    let mut reports = BTreeMap::from([(PolicyKind::Scoma, scoma)]);
    for policy in PolicyKind::ALL {
        if policy != PolicyKind::Scoma {
            reports.insert(policy, one(spans, policy, capacity)?);
        }
    }
    Ok(reports.into_values().collect())
}

/// Runs `unit` once on `trace`. With an enabled recorder the run is
/// traced, and a sweep is decomposed into per-configuration spans;
/// otherwise every call is the plain public entry point. Page
/// accounting is checked wherever the run holds the machine: every
/// single run, and a sweep's configurations only when traced
/// (`sweep_trace` keeps its machines to itself).
pub fn run_unit(unit: &UnitSpec, trace: &Trace, spans: &mut Spans) -> UnitRun {
    let attempted = unit.simulations();
    let refs_per_sim = trace.total_refs() as u64;
    let mut failures = Vec::new();
    let mut violations = Vec::new();
    let (result, wall_s, cpu_s): (Result<Vec<RunReport>, String>, f64, f64) = match unit.kind {
        UnitKind::Sweep => {
            let (result, wall, cpu) = clocked(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    if spans.enabled() {
                        traced_sweep(unit, trace, spans, &mut violations)
                    } else {
                        sweep_trace(&unit.config, trace, &PolicyKind::ALL)
                            .map(|s| s.reports.into_values().collect())
                            .map_err(|e| e.to_string())
                    }
                }))
            });
            (
                result.unwrap_or_else(|p| Err(panic_message(p.as_ref()))),
                wall,
                cpu,
            )
        }
        UnitKind::Single(policy) => {
            let sim = spans.sim(format!("{}/{policy}", unit.app));
            spans.span("experiment.sim", sim, |spans| {
                let mut machine =
                    spans.span("machine.new", sim, |_| Machine::new(unit.config.clone()));
                if let Some(plan) = &unit.fault {
                    if let Err(e) = machine.install_fault_plan(plan.clone()) {
                        return (Err(e.to_string()), 0.0, 0.0);
                    }
                }
                let (report, wall, cpu) = clocked(|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        spans.span("machine.run", sim, |_| machine.run(trace))
                    }))
                });
                let result = report.map_err(|p| panic_message(p.as_ref())).map(|r| {
                    violations = machine.page_accounting_violations();
                    vec![r]
                });
                (result, wall, cpu)
            })
        }
    };
    let reports = match result {
        Ok(reports) => reports,
        Err(e) => {
            failures.push(format!("{}: {e}", unit.app));
            Vec::new()
        }
    };
    if !reports.is_empty() && reports.len() as u64 != attempted {
        failures.push(format!(
            "{}: {} reports for {attempted} simulations",
            unit.app,
            reports.len()
        ));
    }
    for v in violations {
        failures.push(format!("{}: page accounting: {v}", unit.app));
    }
    let mut digest = Digest::default();
    let sim = spans.sim(format!("{}/digest", unit.app));
    for r in &reports {
        failures.extend(check_report(unit.app, r, refs_per_sim));
        let json = spans.span("report.to_json", sim, |_| r.to_json());
        digest.record(json.as_bytes());
    }
    if unit.kind == UnitKind::Sweep {
        if let Some(scoma) = reports.first() {
            if scoma.page_outs != 0 {
                failures.push(format!(
                    "{}: SCOMA paged out with an unbounded page cache",
                    unit.app
                ));
            }
        }
    }
    if unit.fault.is_some() && reports.iter().any(|r| r.fault.retries == 0) {
        failures.push(format!("{}: the fault plan caused no retries", unit.app));
    }
    UnitRun {
        wall_s,
        cpu_s,
        attempted,
        failures,
        reports,
        digest: digest.value(),
    }
}

/// Every run of every unit, untraced and (in trace mode) traced.
#[derive(Debug, Default)]
pub struct Runs {
    /// Untraced runs, per unit.
    pub plain: Vec<Vec<UnitRun>>,
    /// Traced runs, per unit (empty outside trace mode).
    pub traced: Vec<Vec<UnitRun>>,
}

/// Runs every unit once, then keeps running them round-robin while the
/// next run is expected to end within `seconds` of the start (the
/// expectation is that unit's previous run). In trace mode every
/// untraced run of a unit is followed by a traced one, and only whole
/// rounds run, so every unit has the same number of traced runs.
pub fn measure(spec: &Spec, traces: &[Trace], seconds: f64, spans: &mut Spans) -> Runs {
    let trace_mode = spans.enabled();
    let n = spec.units.len();
    let mut runs = Runs {
        plain: vec![Vec::new(); n],
        traced: vec![Vec::new(); n],
    };
    let start = Instant::now();
    let fits = |expected: f64| start.elapsed().as_secs_f64() + expected <= seconds;
    let mut last = vec![0.0; n];
    for round in 0.. {
        let round_start = Instant::now();
        for (i, unit) in spec.units.iter().enumerate() {
            if round > 0 && !trace_mode && !fits(last[i]) {
                return runs;
            }
            let unit_start = Instant::now();
            runs.plain[i].push(run_unit(unit, &traces[i], &mut Spans::disabled()));
            if trace_mode {
                runs.traced[i].push(run_unit(unit, &traces[i], spans));
            }
            last[i] = unit_start.elapsed().as_secs_f64();
        }
        if trace_mode && !fits(round_start.elapsed().as_secs_f64()) {
            break;
        }
    }
    runs
}
