//! Chaos campaign driver: randomized fault/config search with invariant
//! oracles, shrinking, and replayable repro artifacts.
//!
//! Runs a fixed-seed campaign (see `prism-chaos`) and writes campaign
//! statistics to `BENCH_chaos.json`. Any violation is shrunk and
//! serialized under the repro directory; the process exits nonzero so
//! CI fails loudly and uploads the artifacts.
//!
//! ```text
//! cargo run --release -p prism-bench --bin chaos -- \
//!     [--cases N] [--seed S] [--deadline-ms MS] [--repro-dir DIR] \
//!     [--replay ARTIFACT.json]
//! ```
//!
//! `--replay` re-executes a repro artifact instead of running a
//! campaign, and exits nonzero unless the stored violation reproduces
//! byte-identically.

use std::process::ExitCode;
use std::time::Duration;

use prism_bench::out::{bench_out, write_bench_json};
use prism_chaos::{replay, run_campaign, CampaignConfig, Repro};

const JSON_FILE: &str = "BENCH_chaos.json";

struct Args {
    cases: u64,
    seed: u64,
    deadline_ms: u64,
    repro_dir: String,
    replay: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 200,
        seed: CampaignConfig::default().seed,
        deadline_ms: 120_000,
        repro_dir: "results/repros".into(),
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--cases" => args.cases = value("--cases")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--repro-dir" => args.repro_dir = value("--repro-dir")?,
            "--replay" => args.replay = Some(value("--replay")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.replay {
        return replay_artifact(path, Duration::from_millis(args.deadline_ms));
    }

    let cfg = CampaignConfig {
        seed: args.seed,
        cases: args.cases,
        deadline: Duration::from_millis(args.deadline_ms),
        repro_dir: Some(bench_out(&args.repro_dir)),
        ..CampaignConfig::default()
    };
    println!(
        "chaos campaign: seed {:#x}, {} cases, {}ms deadline",
        cfg.seed, cfg.cases, args.deadline_ms
    );
    let outcome = run_campaign(&cfg);

    println!(
        "\n{} cases, {} runs ({} failed), {:.1}s wall",
        outcome.cases,
        outcome.runs,
        outcome.failed_runs,
        outcome.wall.as_secs_f64()
    );
    println!("page-mode coverage:");
    for (policy, count) in &outcome.policy_coverage {
        println!("  {policy:<10} {count} cases");
    }

    write_bench_json(JSON_FILE, &outcome.to_json(cfg.seed));

    if outcome.violations.is_empty() {
        println!("\nno oracle violations");
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} ORACLE VIOLATION(S):", outcome.violations.len());
        for v in &outcome.violations {
            eprintln!(
                "  case {}: [{}] {} (shrunk in {} attempts -> {})",
                v.index,
                v.repro.oracle,
                v.repro.detail,
                v.repro.shrink_attempts,
                v.path
                    .as_ref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "<unwritten>".into())
            );
        }
        ExitCode::FAILURE
    }
}

fn replay_artifact(path: &str, deadline: Duration) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos: could not read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let repro = match Repro::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos: bad artifact {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {path}: oracle {}, case index {} of campaign {:#x}",
        repro.oracle, repro.case.index, repro.case.campaign_seed
    );
    let outcome = replay(&repro, deadline);
    if outcome.ok() {
        println!("replay reproduced the violation byte-identically");
        println!("  {}", repro.detail);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "replay DID NOT reproduce: {}",
            outcome.mismatch.as_deref().unwrap_or("unknown mismatch")
        );
        ExitCode::FAILURE
    }
}
