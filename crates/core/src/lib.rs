//! # prism-core — the public API of the PRISM reproduction
//!
//! This crate ties the substrates together into the system a user drives:
//!
//! * [`simulation::Simulation`] — configure a machine
//!   ([`prism_machine::config::MachineConfig`]) with one of the paper's
//!   six page-mode configurations ([`policy::PolicyKind`]) and run a
//!   workload to a [`prism_machine::report::RunReport`].
//! * [`experiment`] — the evaluation harness: sweep an application
//!   across every configuration with the SCOMA-70 page-cache capacity
//!   derived from the SCOMA baseline, exactly as §4.2 prescribes.
//!
//! Lower layers are re-exported for direct use: `prism-machine` (the
//! machine), `prism-kernel` (the multi-kernel OS model), `prism-protocol`
//! (coherence logic + Table-1 latency model), `prism-mem` (memory-system
//! structures), and `prism-sim` (the deterministic engine).
//!
//! # Example
//!
//! ```
//! use prism_core::prelude::*;
//! use prism_workloads::{app, AppId, Scale};
//!
//! let config = MachineConfig::builder().nodes(2).procs_per_node(2).build();
//! let fft = app(AppId::Fft, Scale::Small);
//! let report = Simulation::new(config, PolicyKind::DynLru)
//!     .with_page_cache_capacity(64)
//!     .run(fft.as_ref())?;
//! println!("{report}");
//! # Ok::<(), prism_core::simulation::SimError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod experiment;
pub mod policy;
pub mod simulation;

pub use analysis::{render_node_balance, Analysis};
pub use experiment::{derive_scoma70_capacity, sweep, sweep_trace, SweepResult, SCOMA70_FRACTION};
pub use policy::PolicyKind;
pub use simulation::{SimError, Simulation};

pub use prism_kernel as kernel;
pub use prism_machine as machine;
pub use prism_machine::config::MachineConfig;
pub use prism_machine::report::{NodeReport, RunReport};
pub use prism_mem as mem;
pub use prism_protocol as protocol;
pub use prism_sim as sim;

/// The common imports for driving simulations.
pub mod prelude {
    pub use crate::experiment::{derive_scoma70_capacity, sweep, SweepResult};
    pub use crate::policy::PolicyKind;
    pub use crate::simulation::{SimError, Simulation};
    pub use prism_machine::config::MachineConfig;
    pub use prism_machine::report::RunReport;
    pub use prism_workloads::{app, suite, AppId, Scale, Synthetic, Workload};
}
