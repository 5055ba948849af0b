//! The benchmark's own tests: tiny-scale workloads, seeding, digests and
//! the metric list `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use prism_core::mem::trace::Trace;
use prism_perfbench::run::{measure, setup, Runs};
use prism_perfbench::spans::Spans;
use prism_perfbench::workload::{reseeded_app, seeded_app, Spec, WorkloadId, DEFAULT_SEED};
use prism_perfbench::{invoke, metrics, verdict, Args, Outcome};
use prism_workloads::{app, AppId, Scale};

fn tiny(workload: WorkloadId, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Small,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("spans-{}-{seed}", workload.name())),
    }
}

fn assert_clean(out: &Outcome) {
    assert!(out.correct, "problems: {:?}", out.problems);
    assert!(out.attempted >= 1);
    assert_eq!(out.failed, 0);
}

/// The names listed under `key` in `BENCHMARK.json`, in order. The file
/// lists `workloads`, `end_to_end` and `per_layer` in that order, each
/// entry with a `"name"` key.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let keys = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""];
    let at = |k: &str| text.find(k).unwrap_or_else(|| panic!("{k} missing"));
    let start = at(&format!("\"{key}\""));
    let end = keys
        .iter()
        .map(|k| at(k))
        .filter(|&i| i > start)
        .min()
        .unwrap_or(text.len());
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_tiny_workload_finishes_in_seconds() {
    for w in WorkloadId::ALL {
        let start = Instant::now();
        let out = invoke(&tiny(w, DEFAULT_SEED, false));
        assert_clean(&out);
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "{} took {:?}",
            w.name(),
            start.elapsed()
        );
        assert_eq!(names(&out), declared("end_to_end"), "{}", w.name());
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{}: {:?}",
            w.name(),
            out.metrics
        );
    }
}

#[test]
fn trace_mode_reports_the_declared_layers_and_matches_the_untraced_run() {
    for w in [WorkloadId::SplashSweep, WorkloadId::CommFaults] {
        let out = invoke(&tiny(w, DEFAULT_SEED, true));
        // `correct` covers the traced runs reproducing the untraced
        // runs' digest and per-layer counts.
        assert_clean(&out);
        assert_eq!(names(&out), declared("per_layer"), "{}", w.name());
        assert_eq!(out.digest, invoke(&tiny(w, DEFAULT_SEED, false)).digest);
        let spans = out
            .spans_file
            .expect("trace mode writes spans")
            .expect("spans written");
        assert!(
            std::fs::read_to_string(spans)
                .expect("spans readable")
                .lines()
                .count()
                > 0
        );
    }
}

#[test]
fn workloads_match_the_declared_list() {
    let ours: Vec<String> = WorkloadId::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(ours, declared("workloads"));
    for name in &ours {
        assert_eq!(
            WorkloadId::parse(name).map(WorkloadId::name),
            Some(name.as_str())
        );
    }
}

#[test]
fn metric_names_are_well_formed_and_within_limits() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layer.len()),
        "{} per-layer metrics",
        layer.len()
    );
    let mut all: Vec<&String> = e2e.iter().chain(&layer).collect();
    for name in &all {
        let ok = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "bad metric name {name:?}");
    }
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "metric names repeat");
    assert!(e2e.iter().any(|n| n == "setup_s"));
}

#[test]
fn same_seed_gives_the_same_digest() {
    for w in [WorkloadId::SplashSweep, WorkloadId::CommFaults] {
        let a = invoke(&tiny(w, 7, false));
        let b = invoke(&tiny(w, 7, false));
        assert_clean(&a);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_ne!(a.digest, invoke(&tiny(w, 8, false)).digest, "{}", w.name());
    }
}

/// `ok_share` of `runs` once [`verdict`] has checked them, and the
/// problems it found.
fn checked(spec: &Spec, traces: &[Trace], runs: &mut Runs) -> (f64, Vec<String>) {
    let (_, problems) = verdict(spec, runs);
    let e2e = metrics::end_to_end(spec, traces, runs, &[1.0]);
    let share = e2e
        .iter()
        .find(|m| m.name == "ok_share")
        .expect("ok_share is reported")
        .value;
    (share, problems)
}

#[test]
fn a_results_mismatch_counts_as_failed_simulations() {
    let mut spec = Spec::new(WorkloadId::CommFaults, Scale::Small, DEFAULT_SEED);
    let (traces, _) = setup(&spec, &mut Spans::disabled()).expect("small traces validate");
    let fresh = |spec: &Spec| measure(spec, &traces, 0.0, &mut Spans::disabled());

    let (share, problems) = checked(&spec, &traces, &mut fresh(&spec));
    assert_eq!(share, 1.0, "{problems:?}");
    let (digest, _) = verdict(&spec, &mut fresh(&spec));

    // A repeat whose results differ from the first run's fails.
    let mut runs = fresh(&spec);
    let mut repeat = runs.plain[0][0].clone();
    repeat.digest ^= 1;
    runs.plain[0].push(repeat);
    let (share, _) = checked(&spec, &traces, &mut runs);
    assert_eq!(metrics::attempts(&runs), (3, 1));
    assert!(share < 1.0, "{share}");

    // A digest that differs from the stored one fails every simulation.
    spec.expected_digest = Some(digest ^ 1);
    let (share, problems) = checked(&spec, &traces, &mut fresh(&spec));
    assert_eq!(share, 0.0);
    assert!(problems
        .iter()
        .any(|p| p.contains("differs from the stored")));
}

#[test]
fn another_seed_changes_exactly_the_seeded_apps() {
    // Water-Nsq is re-seeded too, but its all-pairs trace does not
    // depend on the molecule positions its seed draws.
    let seeded = [AppId::Barnes, AppId::Mp3d, AppId::Radix, AppId::WaterSpa];
    let unseeded = [AppId::Lu, AppId::Fft, AppId::Ocean];
    for id in seeded.into_iter().chain(unseeded) {
        let base = seeded_app(id, Scale::Small, DEFAULT_SEED).generate(8);
        let other = seeded_app(id, Scale::Small, 5).generate(8);
        assert_eq!(base.lanes != other.lanes, seeded.contains(&id), "{id}");
    }
    // The fault plan is re-seeded too.
    let plan = |seed| {
        format!(
            "{:?}",
            Spec::new(WorkloadId::CommFaults, Scale::Small, seed).units[0].fault
        )
    };
    assert_ne!(plan(DEFAULT_SEED), plan(5));
}

#[test]
fn default_seed_reproduces_the_suite() {
    for id in AppId::ALL {
        let ours = reseeded_app(id, Scale::Small, |s| s).generate(8);
        assert_eq!(ours.lanes, app(id, Scale::Small).generate(8).lanes, "{id}");
        assert_eq!(
            reseeded_app(id, Scale::Paper, |s| s).description(),
            app(id, Scale::Paper).description(),
            "{id}"
        );
    }
}

#[test]
fn setup_builds_one_trace_per_unit() {
    for w in WorkloadId::ALL {
        let spec = Spec::new(w, Scale::Small, DEFAULT_SEED);
        let (traces, times) = setup(&spec, &mut Spans::disabled()).expect("small traces validate");
        assert_eq!(traces.len(), spec.units.len());
        for (unit, t) in spec.units.iter().zip(&traces) {
            assert_eq!(t.lanes.len(), unit.config.total_procs());
        }
        assert!(times.total() > 0.0);
    }
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let ok = parse("--workload comm-faults --seed 3 --seconds 2 --trace 1").expect("valid");
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (WorkloadId::CommFaults, 3, 2.0, true)
    );
    for bad in [
        "--seed 1",
        "--workload nope",
        "--workload ocean-scoma --trace 2",
        "--workload ocean-scoma --seconds -1",
        "--workload ocean-scoma --bogus 1",
        "--workload ocean-scoma --seed",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let m = [metrics::Metric {
        name: "wall_s".to_string(),
        unit: "s",
        value: 1.5,
    }];
    let line = metrics::result_line(true, 3, 0, &m);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
    );
}
