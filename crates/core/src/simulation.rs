//! The simulation facade: configure a machine, run a workload, get a
//! report.

use std::fmt;

use prism_machine::config::MachineConfig;
use prism_machine::machine::{Machine, RunError};
use prism_machine::report::RunReport;
use prism_mem::trace::{Trace, TraceError};
use prism_workloads::Workload;

use crate::policy::PolicyKind;

/// Errors from driving a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The trace was generated for a different processor count.
    LaneMismatch {
        /// Processors the machine has.
        machine: usize,
        /// Lanes the trace has.
        trace: usize,
    },
    /// The trace is structurally invalid.
    InvalidTrace(TraceError),
    /// The trace is well-formed but deadlocked when run: processors
    /// ended blocked on locks or barriers nobody will release.
    Deadlock(RunError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LaneMismatch { machine, trace } => write!(
                f,
                "trace has {trace} lanes but the machine has {machine} processors"
            ),
            SimError::InvalidTrace(e) => write!(f, "invalid trace: {e}"),
            SimError::Deadlock(e) => e.fmt(f),
        }
    }
}

impl From<RunError> for SimError {
    /// A lane-count mismatch the machine caught is the same error
    /// [`SimError::LaneMismatch`] reports up front; a deadlock stays one.
    fn from(e: RunError) -> SimError {
        match e {
            RunError::LaneCount { trace, machine } => SimError::LaneMismatch { machine, trace },
            RunError::Deadlock { .. } => SimError::Deadlock(e),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidTrace(e) => Some(e),
            SimError::Deadlock(e) => Some(e),
            SimError::LaneMismatch { .. } => None,
        }
    }
}

/// A configured simulation, ready to run workloads.
///
/// # Example
///
/// ```
/// use prism_core::prelude::*;
/// use prism_workloads::Synthetic;
///
/// let config = MachineConfig::builder().nodes(2).procs_per_node(2).build();
/// let report = Simulation::new(config, PolicyKind::Scoma)
///     .run(&Synthetic::uniform(4, 64 * 1024, 5_000))?;
/// assert!(report.total_refs >= 4 * 5_000);
/// # Ok::<(), prism_core::simulation::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Simulation {
    config: MachineConfig,
    policy: PolicyKind,
    capacity: Option<usize>,
}

impl Simulation {
    /// Creates a simulation of `config` under the named policy. For
    /// capacity-limited policies, set the page-cache size with
    /// [`Simulation::with_page_cache_capacity`] (usually derived from a
    /// SCOMA baseline run; see
    /// [`crate::experiment::derive_scoma70_capacity`]).
    pub fn new(config: MachineConfig, policy: PolicyKind) -> Simulation {
        Simulation {
            config,
            policy,
            capacity: None,
        }
    }

    /// Sets the per-node client page-cache capacity (frames).
    pub fn with_page_cache_capacity(mut self, frames: usize) -> Simulation {
        self.capacity = Some(frames);
        self
    }

    /// The effective machine configuration (policy and capacity applied).
    pub fn effective_config(&self) -> MachineConfig {
        let mut cfg = self.config.clone();
        cfg.policy = self.policy.page_policy();
        cfg.page_cache_capacity = if self.policy.is_capacity_limited() {
            self.capacity
        } else {
            None
        };
        cfg
    }

    /// Generates the workload's trace for this machine and runs it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the generated trace is malformed.
    pub fn run(&self, workload: &dyn Workload) -> Result<RunReport, SimError> {
        let trace = workload.generate(self.config.total_procs());
        self.run_trace(&trace)
    }

    /// Runs a pre-generated trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LaneMismatch`] when the trace's processor
    /// count differs from the machine's, [`SimError::InvalidTrace`]
    /// when validation fails, or [`SimError::Deadlock`] when the run
    /// deadlocks.
    pub fn run_trace(&self, trace: &Trace) -> Result<RunReport, SimError> {
        let cfg = self.effective_config();
        check_trace(&cfg, trace)?;
        Ok(Machine::new(cfg).try_run(trace)?)
    }
}

/// Checks that `trace` has one lane per processor of `cfg` and is
/// well-formed for its geometry: everything [`Simulation::run_trace`]
/// requires before it builds the machine.
pub(crate) fn check_trace(cfg: &MachineConfig, trace: &Trace) -> Result<(), SimError> {
    if trace.lanes.len() != cfg.total_procs() {
        return Err(SimError::LaneMismatch {
            machine: cfg.total_procs(),
            trace: trace.lanes.len(),
        });
    }
    trace
        .validate(&cfg.geometry)
        .map_err(SimError::InvalidTrace)
}

/// Two lanes that take locks 1 and 2 in opposite orders, each holding
/// its first lock long enough for the other to take its own: a well-formed
/// trace that deadlocks on any machine with two processors.
#[cfg(test)]
pub(crate) fn abba_trace() -> Trace {
    use prism_mem::trace::Op;
    Trace {
        name: "abba".into(),
        segments: vec![],
        lanes: vec![
            vec![
                Op::Lock(1),
                Op::Compute(1_000),
                Op::Lock(2),
                Op::Unlock(2),
                Op::Unlock(1),
            ]
            .into(),
            vec![
                Op::Lock(2),
                Op::Compute(1_000),
                Op::Lock(1),
                Op::Unlock(1),
                Op::Unlock(2),
            ]
            .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::trace::Op;
    use prism_mem::trace_io::{read_trace, write_trace};
    use prism_workloads::Synthetic;

    fn two_procs() -> MachineConfig {
        MachineConfig::builder().nodes(2).procs_per_node(1).build()
    }

    fn small_config() -> MachineConfig {
        MachineConfig::builder()
            .nodes(2)
            .procs_per_node(2)
            .l1_bytes(1024)
            .l2_bytes(4096)
            .build()
    }

    #[test]
    fn runs_a_synthetic_workload() {
        let sim = Simulation::new(small_config(), PolicyKind::Scoma);
        let report = sim.run(&Synthetic::uniform(4, 32 * 1024, 2_000)).unwrap();
        assert!(report.total_refs >= 8_000);
        assert!(report.exec_cycles.as_u64() > 0);
    }

    #[test]
    fn lane_mismatch_is_an_error() {
        let sim = Simulation::new(small_config(), PolicyKind::Scoma);
        let trace = Synthetic::uniform(4, 4096, 10).generate(3);
        let err = sim.run_trace(&trace).unwrap_err();
        assert_eq!(
            err,
            SimError::LaneMismatch {
                machine: 4,
                trace: 3
            }
        );
        assert!(err.to_string().contains("3 lanes"));
    }

    #[test]
    fn abba_deadlock_is_an_error() {
        let trace = abba_trace();
        assert_eq!(trace.validate(&two_procs().geometry), Ok(()));
        let want = RunError::Deadlock { procs: vec![0, 1] };
        assert_eq!(Machine::new(two_procs()).try_run(&trace).unwrap_err(), want);
        let err = Simulation::new(two_procs(), PolicyKind::Scoma)
            .run_trace(&trace)
            .unwrap_err();
        assert_eq!(err, SimError::Deadlock(want));
        assert_eq!(
            err.to_string(),
            "processors [0, 1] ended in state Blocked: trace deadlock"
        );
    }

    #[test]
    fn each_run_error_maps_to_its_own_sim_error() {
        assert_eq!(
            SimError::from(RunError::LaneCount {
                trace: 3,
                machine: 4
            }),
            SimError::LaneMismatch {
                machine: 4,
                trace: 3
            }
        );
        let deadlock = RunError::Deadlock { procs: vec![2] };
        assert_eq!(
            SimError::from(deadlock.clone()),
            SimError::Deadlock(deadlock)
        );
    }

    #[test]
    #[should_panic(expected = "processors [0, 1] ended in state Blocked: trace deadlock")]
    fn run_panics_on_a_deadlock() {
        Machine::new(two_procs()).run(&abba_trace());
    }

    #[test]
    fn a_recursive_lock_read_from_a_file_is_an_invalid_trace() {
        let trace = Trace {
            name: "recursive".into(),
            segments: vec![],
            lanes: vec![
                vec![Op::Compute(1)].into(),
                vec![
                    Op::Lock(3),
                    Op::Lock(3),
                    Op::Compute(1),
                    Op::Unlock(3),
                    Op::Unlock(3),
                ]
                .into(),
            ],
        };
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(
            Simulation::new(two_procs(), PolicyKind::Scoma)
                .run_trace(&back)
                .unwrap_err(),
            SimError::InvalidTrace(TraceError::RecursiveLock { lane: 1, lock: 3 })
        );
    }

    #[test]
    fn capacity_only_applies_to_limited_policies() {
        let sim = Simulation::new(small_config(), PolicyKind::Scoma).with_page_cache_capacity(4);
        assert_eq!(sim.effective_config().page_cache_capacity, None);
        let sim = Simulation::new(small_config(), PolicyKind::Scoma70).with_page_cache_capacity(4);
        assert_eq!(sim.effective_config().page_cache_capacity, Some(4));
        assert_eq!(
            sim.effective_config().policy,
            prism_kernel::policy::PagePolicy::Scoma
        );
    }

    #[test]
    fn policies_produce_different_behaviour() {
        let w = Synthetic::uniform(4, 128 * 1024, 3_000);
        let scoma = Simulation::new(small_config(), PolicyKind::Scoma)
            .run(&w)
            .unwrap();
        let lanuma = Simulation::new(small_config(), PolicyKind::Lanuma)
            .run(&w)
            .unwrap();
        // LA-NUMA has no page cache: strictly more remote misses.
        assert!(lanuma.remote_misses > scoma.remote_misses);
    }
}
