//! Case execution under a harness-level progress watchdog.
//!
//! A case runs on its own thread; the harness waits
//! [`Duration`]-bounded on a channel. Three outcomes:
//!
//! * the run finishes — report and observability events come back;
//! * the run *panics* — the join handle surfaces the payload, recorded
//!   as [`RunError::Panic`] (an assertion tripping inside the machine
//!   is a finding, not a harness crash);
//! * the run *hangs* past the deadline — recorded as
//!   [`RunError::Hang`], and the stuck thread is detached (it cannot be
//!   killed, but the campaign moves on; a run-away case shows up as one
//!   leaked thread, not a wedged campaign).

use std::sync::mpsc;
use std::time::Duration;

use prism_machine::machine::Machine;
use prism_machine::obs::ObsEvent;
use prism_machine::report::RunReport;
use prism_sim::Cycle;

use crate::gen::CaseSpec;

/// A completed run's observable state.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The run report.
    pub report: RunReport,
    /// The machine's recent observability events (ring contents).
    pub events: Vec<(Cycle, ObsEvent)>,
    /// Post-run page-frame conservation audit
    /// ([`Machine::page_accounting_violations`]); empty = every frame
    /// owned by exactly one of free list, page cache, directory home.
    pub accounting: Vec<String>,
    /// Live real frames across the machine at end of run (never zero:
    /// each node's command frame is allocated at boot).
    pub frames_active: u64,
}

/// How a run failed to produce a report.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The run thread panicked; the payload's text.
    Panic(String),
    /// The run made no progress within the harness deadline.
    Hang {
        /// The deadline that expired.
        deadline: Duration,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic(msg) => write!(f, "panicked: {msg}"),
            RunError::Hang { deadline } => {
                write!(
                    f,
                    "hung past the {}ms harness deadline",
                    deadline.as_millis()
                )
            }
        }
    }
}

/// A case's outcome.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// The run's result.
    pub result: Result<RunOutput, RunError>,
}

impl CaseOutcome {
    /// The run's output, when it completed.
    pub fn output(&self) -> Option<&RunOutput> {
        self.result.as_ref().ok()
    }
}

/// Runs `case` once, watchdogged by `deadline`.
pub fn run_case(case: &CaseSpec, deadline: Duration) -> CaseOutcome {
    CaseOutcome {
        result: run_one(case, deadline),
    }
}

fn run_one(case: &CaseSpec, deadline: Duration) -> Result<RunOutput, RunError> {
    let cfg = case.config();
    let plan = case.faults.plan();
    let traces = case.traces();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("chaos-case-{}", case.index))
        .spawn(move || {
            let mut m = Machine::new(cfg);
            if !plan.is_empty() {
                m.install_fault_plan(plan)
                    .expect("generated plans validate by construction");
            }
            let report = if traces.len() == 1 {
                m.run(&traces[0])
            } else {
                m.run_jobs(&traces)
            };
            let events = m.recent_events();
            let accounting = m.page_accounting_violations();
            let frames_active = m.frames_active();
            let _ = tx.send(RunOutput {
                report,
                events,
                accounting,
                frames_active,
            });
        })
        .expect("spawn chaos run thread");
    match rx.recv_timeout(deadline) {
        Ok(out) => {
            let _ = handle.join();
            Ok(out)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(RunError::Hang { deadline }),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let msg = match handle.join() {
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into()),
                Ok(()) => "run thread exited without sending a report".into(),
            };
            Err(RunError::Panic(msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runner itself must be deterministic: the same case twice
    /// yields byte-identical reports and identical event rings.
    #[test]
    fn run_case_is_deterministic() {
        let case = CaseSpec::generate(0x0DD5, 3);
        let deadline = Duration::from_secs(60);
        let a = run_case(&case, deadline);
        let b = run_case(&case, deadline);
        let (oa, ob) = (a.output().unwrap(), b.output().unwrap());
        assert_eq!(oa.report.to_json(), ob.report.to_json());
        assert_eq!(oa.events, ob.events);
    }

    /// A harness deadline of zero classifies even a healthy run as a
    /// hang — proving the watchdog path, not the machine, is exercised.
    #[test]
    fn watchdog_flags_runs_that_miss_the_deadline() {
        let case = CaseSpec::generate(0x0DD5, 0);
        let out = run_case(&case, Duration::from_millis(0));
        assert!(matches!(out.result, Err(RunError::Hang { .. })));
    }
}
