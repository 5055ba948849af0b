//! The reported metrics: names, units and how each is computed.
//!
//! End-to-end metrics come from the untraced runs only. Per-layer
//! metrics come from the trace mode: deterministic counts from the
//! reports, host times from the spans and the structure replays.

use std::fmt::Write as _;

use prism_core::mem::trace::Trace;
use prism_core::sim::stats::Histogram;
use prism_core::{NodeReport, PolicyKind, RunReport};

use crate::host;
use crate::layers::LayerTimes;
use crate::run::{expected_refs, Runs, SetupTimes};
use crate::spans::Spans;
use crate::workload::Spec;

/// One named value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// References one pass over every unit executes.
pub fn refs_per_pass(spec: &Spec, traces: &[Trace]) -> u64 {
    spec.units
        .iter()
        .zip(traces)
        .map(|(u, t)| expected_refs(u, t))
        .sum()
}

/// Host seconds of one pass: the sum over units of each unit's median.
fn pass_seconds(runs: &[Vec<crate::run::UnitRun>]) -> f64 {
    runs.iter()
        .map(|r| median(r.iter().map(|u| u.wall_s)))
        .sum()
}

/// Simulations attempted and failed over every run.
pub fn attempts(runs: &Runs) -> (u64, u64) {
    let all = runs.plain.iter().chain(&runs.traced).flatten();
    all.fold((0, 0), |(a, f), r| {
        let failed = if r.failures.is_empty() {
            0
        } else {
            r.attempted
        };
        (a + r.attempted, f + failed)
    })
}

/// The end-to-end metrics of an untraced invocation.
pub fn end_to_end(spec: &Spec, traces: &[Trace], runs: &Runs, setups: &[f64]) -> Vec<Metric> {
    let wall = pass_seconds(&runs.plain);
    let (attempted, failed) = attempts(runs);
    vec![
        metric(
            "refs_per_s",
            "1/s",
            ratio(refs_per_pass(spec, traces) as f64, wall),
        ),
        metric("wall_s", "s", wall),
        metric("setup_s", "s", median(setups.iter().copied())),
        metric("peak_rss_mb", "MB", host::peak_rss_mb().unwrap_or(0.0)),
        metric(
            "ok_share",
            "ratio",
            ratio((attempted - failed) as f64, attempted as f64),
        ),
    ]
}

/// Deterministic per-layer counts of a set of reports (summed, or
/// pooled for ratios and percentiles). They repeat exactly from run to
/// run, so any difference between two runs of one program is a failure.
pub fn layer_counts(reports: &[&RunReport]) -> Vec<Metric> {
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let node_sum = |f: fn(&NodeReport) -> u64| {
        reports.iter().flat_map(|r| &r.per_node).map(f).sum::<u64>() as f64
    };
    let mut fetch = Histogram::new("remote_fetch");
    for r in reports {
        fetch.merge(&r.remote_fetch_latency);
    }
    let quantile = |q| fetch.approx_quantile(q).unwrap_or(0) as f64;
    let refs = sum(|r| r.total_refs);
    let dir_hits = node_sum(|n| n.dir_cache_hits);
    let dir_probes = dir_hits + node_sum(|n| n.dir_cache_misses);
    let messages = sum(|r| r.ledger.total());
    let exec = sum(|r| r.exec_cycles.as_u64());
    let utilization = ratio(
        reports.iter().map(|r| r.avg_utilization).sum(),
        reports.len() as f64,
    );
    vec![
        metric("access.l1_hits", "count", sum(|r| r.l1_hits)),
        metric("access.l1_misses", "count", sum(|r| r.l1_misses)),
        metric("access.l2_hits", "count", sum(|r| r.l2_hits)),
        metric("access.l2_misses", "count", sum(|r| r.l2_misses)),
        metric(
            "access.ingest.batched_ratio",
            "ratio",
            ratio(sum(|r| r.batched_lookups), refs),
        ),
        metric("txn.local_fills", "count", sum(|r| r.local_fills)),
        metric("txn.sibling_fills", "count", sum(|r| r.sibling_fills)),
        metric("txn.remote_misses", "count", sum(|r| r.remote_misses)),
        metric("txn.remote_upgrades", "count", sum(|r| r.remote_upgrades)),
        metric("txn.invalidations", "count", sum(|r| r.invalidations)),
        metric("txn.forwards", "count", sum(|r| r.forwards)),
        metric("txn.migrations", "count", sum(|r| r.migrations)),
        metric("txn.remote_fetch_p50_cyc", "cyc", quantile(0.5)),
        metric("txn.remote_fetch_p99_cyc", "cyc", quantile(0.99)),
        metric(
            "directory.dir_cache_hit_ratio",
            "ratio",
            ratio(dir_hits, dir_probes),
        ),
        metric(
            "directory.pit.hash_lookups",
            "count",
            node_sum(|n| n.pit_hash_lookups),
        ),
        metric("net.messages", "count", messages),
        metric("net.msgs_per_ref", "ratio", ratio(messages, refs)),
        metric("net.ni_wait_cyc", "cyc", node_sum(|n| n.ni_wait)),
        metric("net.bus_wait_cyc", "cyc", node_sum(|n| n.bus_wait)),
        metric("net.engine_wait_cyc", "cyc", node_sum(|n| n.engine_wait)),
        metric("net.memory_wait_cyc", "cyc", node_sum(|n| n.memory_wait)),
        metric("paging.client_faults", "count", sum(|r| r.faults.2)),
        metric("paging.page_outs", "count", sum(|r| r.page_outs)),
        metric("paging.home_page_outs", "count", sum(|r| r.home_page_outs)),
        metric(
            "kernel.conversions_to_lanuma",
            "count",
            sum(|r| r.conversions_to_lanuma),
        ),
        metric(
            "kernel.conversions_to_scoma",
            "count",
            sum(|r| r.conversions_to_scoma),
        ),
        metric(
            "kernel.frames_allocated",
            "count",
            sum(|r| r.frames_allocated),
        ),
        metric("kernel.avg_utilization", "ratio", utilization),
        metric("faults.retries", "count", sum(|r| r.fault.retries)),
        metric("faults.dropped", "count", sum(|r| r.fault.dropped_messages)),
        metric("faults.nacks", "count", sum(|r| r.fault.nacks)),
        metric(
            "faults.journal_records",
            "count",
            sum(|r| r.fault.journal_records),
        ),
        metric(
            "faults.backoff_cycles",
            "cyc",
            sum(|r| r.fault.backoff_cycles),
        ),
        metric("sim.exec_cycles", "cyc", exec),
        metric("sim.cycles_per_ref", "cyc", ratio(exec, refs)),
    ]
}

/// Everything the trace mode measured, for [`per_layer`].
#[derive(Debug)]
pub struct Traced<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Its traces, one per unit.
    pub traces: &'a [Trace],
    /// Untraced and traced runs (whole rounds).
    pub runs: &'a Runs,
    /// The recorder that held the traced set-up and runs.
    pub spans: &'a Spans,
    /// The traced set-up.
    pub setup: SetupTimes,
    /// The structure replays, summed.
    pub layers: LayerTimes,
}

/// The per-layer metrics of a trace-mode invocation. Times are per
/// round (one traced run of every unit).
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let rounds = t.runs.traced.first().map_or(0, Vec::len).max(1) as f64;
    let sims = t.spans.sims();
    let sim_s = |policy: PolicyKind| {
        let suffix = format!("/{policy}");
        let total: f64 = t
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == "experiment.sim" && sims[s.sim].ends_with(&suffix))
            .fold(0.0, |sum, s| sum + s.seconds());
        total / rounds
    };
    let traced = t.runs.traced.iter().flatten();
    let cpu: f64 = traced.clone().map(|r| r.cpu_s).sum();
    let wall: f64 = traced.map(|r| r.wall_s).sum();
    let run_s = t.spans.total("machine.run");
    let refs = refs_per_pass(t.spec, t.traces) as f64 * rounds;
    let overhead = ratio(pass_seconds(&t.runs.traced), pass_seconds(&t.runs.plain)) - 1.0;
    let self_times = t.spans.self_times();

    let mut out = vec![
        metric("workloads.generate_s", "s", t.setup.generate_s),
        metric("trace.validate_s", "s", t.setup.validate_s),
        metric("machine.new_s", "s", t.setup.machine_new_s),
    ];
    for policy in PolicyKind::ALL {
        out.push(metric(
            format!("experiment.sim_s.{policy}"),
            "s",
            sim_s(policy),
        ));
    }
    out.extend([
        metric(
            "experiment.sim.self_s",
            "s",
            self_times.get("experiment.sim").copied().unwrap_or(0.0) / rounds,
        ),
        metric("experiment.cpu_s", "s", cpu / rounds),
        metric("experiment.cpu_per_wall", "ratio", ratio(cpu, wall)),
        metric("machine.run_ns_per_ref", "ns", ratio(run_s * 1e9, refs)),
    ]);
    let first: Vec<&RunReport> = t
        .runs
        .plain
        .iter()
        .filter_map(|r| r.first())
        .flat_map(|r| &r.reports)
        .collect();
    out.extend(layer_counts(&first));
    let l = &t.layers;
    out.extend([
        metric("mem.cache.touch_ns", "ns", l.cache_touch.per_op()),
        metric("mem.tlb.lookup_ns", "ns", l.tlb_lookup.per_op()),
        metric(
            "mem.page_table.lookup_ns",
            "ns",
            l.page_table_lookup.per_op(),
        ),
        metric("mem.dir_cache.probe_ns", "ns", l.dir_cache_probe.per_op()),
        metric("mem.pit.translate_ns", "ns", l.pit_translate.per_op()),
        metric("protocol.transition_ns", "ns", l.transition.per_op()),
        metric(
            "report.to_json_s",
            "s",
            t.spans.total("report.to_json") / rounds,
        ),
        metric("trace.overhead_pct", "%", overhead * 100.0),
    ]);
    out
}

/// The last line of the output: the result object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}
