//! Self-contained, replayable repro artifacts.
//!
//! When a campaign case violates an oracle and the shrinker has
//! minimized it, the result is serialized as one JSON document holding
//! everything a future session needs: the full shrunk [`CaseSpec`],
//! which oracle fired and with what detail, and the shrunk case's
//! `RunReport::to_json` text (its *baseline*). [`replay`]
//! re-executes the case from the spec alone and demands *byte*
//! determinism: the same oracle fires with the identical detail string,
//! and the baseline report text matches the artifact byte for byte.

use std::time::Duration;

use crate::gen::CaseSpec;
use prism_sim::json::Json;

use crate::oracle::Oracle;
use crate::run::run_case;
use crate::shrink::ShrinkStats;

/// Artifact format version (bump on any incompatible change). Version 1
/// artifacts carry directory-backend and epoch-pacing case fields and
/// baseline counters this harness no longer produces. Version 2
/// artifacts carry the audit-scope case fields and a baseline ending in
/// the debug report's directory-cache counter block, neither of which
/// exists any more. Both are rejected rather than replayed into a
/// baseline mismatch.
pub const REPRO_VERSION: u64 = 3;

/// A serialized violation: the shrunk case plus everything needed to
/// verify a replay reproduced it exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    /// Artifact format version.
    pub version: u64,
    /// The firing oracle's name.
    pub oracle: String,
    /// The violation detail at the shrunk case.
    pub detail: String,
    /// The minimized case.
    pub case: CaseSpec,
    /// Shrink accounting (candidates tried / accepted).
    pub shrink_attempts: u64,
    /// Shrink acceptances.
    pub shrink_accepted: u64,
    /// The shrunk case's `to_json` text; empty when the run itself
    /// failed (e.g. a liveness violation).
    pub baseline: String,
}

impl Repro {
    /// Builds an artifact by re-running the shrunk case once more to
    /// capture its violation detail and baseline report.
    pub fn capture(
        case: CaseSpec,
        oracle: Oracle,
        stats: ShrinkStats,
        deadline: Duration,
    ) -> Option<Repro> {
        let outcome = run_case(&case, deadline);
        let violation = oracle.check(&case, &outcome)?;
        let baseline = outcome
            .output()
            .map(|out| out.report.to_json())
            .unwrap_or_default();
        Some(Repro {
            version: REPRO_VERSION,
            oracle: violation.oracle.to_string(),
            detail: violation.detail,
            case,
            shrink_attempts: stats.attempts as u64,
            shrink_accepted: stats.accepted as u64,
            baseline,
        })
    }

    /// Serializes the artifact.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("version", self.version.into()),
            ("oracle", self.oracle.as_str().into()),
            ("detail", self.detail.as_str().into()),
            ("shrink_attempts", self.shrink_attempts.into()),
            ("shrink_accepted", self.shrink_accepted.into()),
            ("case", self.case.to_json()),
            ("baseline", self.baseline.as_str().into()),
        ])
        .to_string()
    }

    /// Parses an artifact.
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let v = Json::parse(text)?;
        let version = v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing version")?;
        if version != REPRO_VERSION {
            return Err(format!(
                "artifact version {version} but this harness reads {REPRO_VERSION}"
            ));
        }
        Ok(Repro {
            version,
            oracle: v
                .get("oracle")
                .and_then(Json::as_str)
                .ok_or("missing oracle")?
                .to_string(),
            detail: v
                .get("detail")
                .and_then(Json::as_str)
                .ok_or("missing detail")?
                .to_string(),
            case: CaseSpec::from_json(v.get("case").ok_or("missing case")?)?,
            shrink_attempts: v.get("shrink_attempts").and_then(Json::as_u64).unwrap_or(0),
            shrink_accepted: v.get("shrink_accepted").and_then(Json::as_u64).unwrap_or(0),
            baseline: v
                .get("baseline")
                .and_then(Json::as_str)
                .ok_or("missing baseline")?
                .to_string(),
        })
    }

    /// A stable artifact file name for this repro.
    pub fn file_name(&self) -> String {
        format!("case{:05}_{}.json", self.case.index, self.oracle)
    }
}

/// A replay's verdict against the artifact it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The same oracle fired again.
    pub violation_reproduced: bool,
    /// Its detail string matched the artifact's exactly.
    pub detail_identical: bool,
    /// The baseline report text matched byte for byte.
    pub baseline_identical: bool,
    /// Specifics when something did not match.
    pub mismatch: Option<String>,
}

impl ReplayOutcome {
    /// True when the replay reproduced the artifact exactly.
    pub fn ok(&self) -> bool {
        self.violation_reproduced && self.detail_identical && self.baseline_identical
    }
}

/// Re-executes an artifact's case and checks byte determinism (see the
/// module docs).
pub fn replay(repro: &Repro, deadline: Duration) -> ReplayOutcome {
    let Some(oracle) = Oracle::from_name(&repro.oracle) else {
        return ReplayOutcome {
            violation_reproduced: false,
            detail_identical: false,
            baseline_identical: false,
            mismatch: Some(format!("unknown oracle {:?}", repro.oracle)),
        };
    };
    let outcome = run_case(&repro.case, deadline);
    let violation = oracle.check(&repro.case, &outcome);
    let baseline = outcome
        .output()
        .map(|out| out.report.to_json())
        .unwrap_or_default();
    let violation_reproduced = violation.is_some();
    let detail_identical = violation.as_ref().is_some_and(|v| v.detail == repro.detail);
    let baseline_identical = baseline == repro.baseline;
    let mismatch = if !violation_reproduced {
        Some("the oracle did not fire on replay".to_string())
    } else if !detail_identical {
        Some(format!(
            "detail drifted: artifact {:?} vs replay {:?}",
            repro.detail,
            violation.as_ref().map(|v| v.detail.as_str()).unwrap_or("")
        ))
    } else if !baseline_identical {
        Some("baseline report text is not byte-identical".to_string())
    } else {
        None
    };
    ReplayOutcome {
        violation_reproduced,
        detail_identical,
        baseline_identical,
        mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadKind;

    fn canary_case() -> CaseSpec {
        let mut case = CaseSpec::generate(0x9E9B0, 0);
        case.workload.kind = WorkloadKind::Uniform;
        case.workload.refs_per_proc = 24;
        case
    }

    #[test]
    fn artifact_round_trips() {
        let case = canary_case();
        let deadline = Duration::from_secs(60);
        let repro = Repro::capture(
            case,
            Oracle::CanaryNoRemoteMiss,
            ShrinkStats::default(),
            deadline,
        )
        .expect("canary fires");
        let text = repro.to_json();
        let back = Repro::from_json(&text).unwrap();
        assert_eq!(repro, back);
        assert!(back.file_name().ends_with("canary-no-remote-miss.json"));
    }

    #[test]
    fn replay_reproduces_byte_identically() {
        let case = canary_case();
        let deadline = Duration::from_secs(60);
        let repro = Repro::capture(
            case,
            Oracle::CanaryNoRemoteMiss,
            ShrinkStats::default(),
            deadline,
        )
        .expect("canary fires");
        // Round-trip through text first: replay must work from the
        // parsed artifact alone.
        let parsed = Repro::from_json(&repro.to_json()).unwrap();
        let outcome = replay(&parsed, deadline);
        assert!(outcome.ok(), "replay mismatch: {:?}", outcome.mismatch);
    }

    #[test]
    fn replay_detects_a_tampered_baseline() {
        let case = canary_case();
        let deadline = Duration::from_secs(60);
        let mut repro = Repro::capture(
            case,
            Oracle::CanaryNoRemoteMiss,
            ShrinkStats::default(),
            deadline,
        )
        .expect("canary fires");
        repro.baseline.push(' ');
        let outcome = replay(&repro, deadline);
        assert!(!outcome.ok());
        assert!(!outcome.baseline_identical);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let case = canary_case();
        let repro = Repro {
            version: REPRO_VERSION + 1,
            oracle: "liveness".into(),
            detail: String::new(),
            case,
            shrink_attempts: 0,
            shrink_accepted: 0,
            baseline: String::new(),
        };
        assert!(Repro::from_json(&repro.to_json()).is_err());
    }
}
