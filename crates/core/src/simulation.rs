//! The simulation facade: configure a machine, run a workload, get a
//! report.

use std::fmt;

use prism_machine::config::MachineConfig;
use prism_machine::machine::Machine;
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
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LaneMismatch { machine, trace } => write!(
                f,
                "trace has {trace} lanes but the machine has {machine} processors"
            ),
            SimError::InvalidTrace(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidTrace(e) => Some(e),
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
    /// count differs from the machine's, or [`SimError::InvalidTrace`]
    /// when validation fails.
    pub fn run_trace(&self, trace: &Trace) -> Result<RunReport, SimError> {
        let cfg = self.effective_config();
        check_trace(&cfg, trace)?;
        Ok(Machine::new(cfg).run(trace))
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

#[cfg(test)]
mod tests {
    use super::*;
    use prism_workloads::Synthetic;

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
