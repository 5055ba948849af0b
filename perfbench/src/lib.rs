//! # prism-perfbench — host throughput of the PRISM simulator
//!
//! One invocation runs one named workload ([`workload::WorkloadId`])
//! through the simulator's public API for a fixed number of seconds and
//! reports either the end-to-end metrics (untraced) or the per-layer
//! metrics (trace mode). Every simulated result is checked, and the
//! digest of all `RunReport::to_json()` output is compared with the one
//! stored for the default seed. See `README.md` for the metric → layer →
//! workload map.
//!
//! The benchmark spawns no threads and drives everything from the
//! calling thread.

pub mod digest;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;

use std::path::PathBuf;

use prism_workloads::Scale;

use crate::digest::Digest;
use crate::layers::LayerTimes;
use crate::metrics::{attempts, layer_counts, Metric, Traced};
use crate::run::{measure, setup, Runs, UnitRun};
use crate::spans::Spans;
use crate::workload::{Spec, WorkloadId, DEFAULT_SEED};

/// References per unit replayed through the memory structures in trace
/// mode.
const REPLAY_REFS: usize = 1 << 19;

/// Replays per unit in trace mode.
const REPLAYS: usize = 3;

/// Set-ups an untraced invocation times; `setup_s` is their median.
const SETUPS: usize = 5;

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: WorkloadId,
    /// Benchmark seed.
    pub seed: u64,
    /// Seconds to keep running units for.
    pub seconds: f64,
    /// Trace mode: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem scale (`Small` only in tests).
    pub scale: Scale,
    /// Where trace mode writes its spans.
    pub out_dir: PathBuf,
}

/// Usage text.
pub const USAGE: &str = "usage: prism-perfbench --workload <splash-sweep|ocean-scoma|comm-faults> \
--seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]";

impl Args {
    /// Parses command-line arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag, a missing or malformed
    /// value, or a missing `--workload`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: WorkloadId::OceanScoma,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            scale: Scale::Paper,
            out_dir: PathBuf::from(".perfbench-out"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: '{value}'");
            match flag.as_str() {
                "--workload" => workload = Some(WorkloadId::parse(&value).ok_or_else(bad)?),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out-dir" => parsed.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (trace mode).
    pub metrics: Vec<Metric>,
    /// Digest of one pass's simulated results.
    pub digest: u64,
    /// Every failed check, one line each.
    pub problems: Vec<String>,
    /// Per unit: label, wall seconds of each untraced run, references
    /// per run.
    pub units: Vec<(String, Vec<f64>, u64)>,
    /// Trace mode: self time per span name, in seconds per round.
    pub self_times: Vec<(&'static str, f64)>,
    /// Trace mode: where the spans went (or why they did not).
    pub spans_file: Option<Result<PathBuf, String>>,
}

/// Checks every run of every unit and adds a failure to each run that
/// fails a check, so [`attempts`] counts its simulations as failed:
/// every repeat (traced or not) must reproduce the first run's digest
/// and per-layer counts, and the workload digest must equal
/// `spec.expected_digest` where there is one (otherwise every run
/// fails). Returns the workload digest and the problems found, each
/// once.
pub fn verdict(spec: &Spec, runs: &mut Runs) -> (u64, Vec<String>) {
    let mut digest = Digest::default();
    let counts = |r: &UnitRun| layer_counts(&r.reports.iter().collect::<Vec<_>>());
    for (i, unit) in spec.units.iter().enumerate() {
        let mut all = runs.plain[i].iter_mut().chain(&mut runs.traced[i]);
        let Some(first) = all.next() else { continue };
        digest.record(digest::hex(first.digest).as_bytes());
        let (first_digest, first_counts) = (first.digest, counts(first));
        for (k, r) in all.enumerate() {
            let k = k + 1;
            if r.digest != first_digest {
                r.failures.push(format!(
                    "{}: run {k} produced different results than run 0",
                    unit.app
                ));
            }
            if counts(r) != first_counts {
                r.failures.push(format!(
                    "{}: run {k} produced different per-layer counts than run 0",
                    unit.app
                ));
            }
        }
    }
    let digest = digest.value();
    if let Some(expected) = spec.expected_digest.filter(|&e| e != digest) {
        let problem = format!(
            "digest {} differs from the stored {}",
            digest::hex(digest),
            digest::hex(expected)
        );
        for r in runs.plain.iter_mut().chain(&mut runs.traced).flatten() {
            r.failures.push(problem.clone());
        }
    }
    let mut problems: Vec<String> = Vec::new();
    for f in runs
        .plain
        .iter()
        .chain(&runs.traced)
        .flatten()
        .flat_map(|r| &r.failures)
    {
        if !problems.contains(f) {
            problems.push(f.clone());
        }
    }
    (digest, problems)
}

/// Runs one invocation.
pub fn invoke(args: &Args) -> Outcome {
    let spec = Spec::new(args.workload, args.scale, args.seed);
    let mut spans = if args.trace {
        Spans::default()
    } else {
        Spans::disabled()
    };
    // Set up `SETUPS` times (once in trace mode), dropping the previous
    // traces first so only one set is ever resident.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(prepared.take());
        match setup(&spec, &mut spans) {
            Ok((traces, times)) => {
                setups.push(times.total());
                prepared = Some((traces, times));
            }
            Err(e) => {
                let sims = spec.units.iter().map(|u| u.simulations()).sum();
                return Outcome {
                    correct: false,
                    attempted: sims,
                    failed: sims,
                    metrics: Vec::new(),
                    digest: 0,
                    problems: vec![e],
                    units: Vec::new(),
                    self_times: Vec::new(),
                    spans_file: None,
                };
            }
        }
    }
    let (traces, setup_times) = prepared.expect("at least one set-up ran");
    let mut runs = measure(&spec, &traces, args.seconds, &mut spans);
    let (digest, problems) = verdict(&spec, &mut runs);
    let (attempted, failed) = attempts(&runs);
    let mut outcome = Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
        digest,
        problems,
        units: spec
            .units
            .iter()
            .zip(&runs.plain)
            .zip(&traces)
            .map(|((u, r), t)| {
                let walls = r.iter().map(|r| r.wall_s).collect();
                (u.app.to_string(), walls, run::expected_refs(u, t))
            })
            .collect(),
        self_times: Vec::new(),
        spans_file: None,
    };
    if !args.trace {
        outcome.metrics = metrics::end_to_end(&spec, &traces, &runs, &setups);
        return outcome;
    }
    let mut layers = LayerTimes::default();
    for (unit, trace) in spec.units.iter().zip(&traces) {
        let stream = layers::stream(trace, &unit.config, REPLAY_REFS);
        for _ in 0..REPLAYS {
            layers.add(&layers::replay(&stream, &unit.config));
        }
    }
    outcome.metrics = metrics::per_layer(&Traced {
        spec: &spec,
        traces: &traces,
        runs: &runs,
        spans: &spans,
        setup: setup_times,
        layers,
    });
    let rounds = runs.traced.first().map_or(1, Vec::len).max(1) as f64;
    outcome.self_times = spans
        .self_times()
        .into_iter()
        .map(|(k, v)| (k, v / rounds))
        .collect();
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", spec.id.name(), spec.seed));
    outcome.spans_file = Some(
        spans
            .write_jsonl(&path)
            .map(|()| path)
            .map_err(|e| e.to_string()),
    );
    outcome
}
