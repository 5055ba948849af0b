//! # prism-kernel — the multi-kernel operating system model
//!
//! PRISM's operating system is structured as multiple independent kernels,
//! one per node, each managing only its local resources (paper §3.3).
//! This crate models that OS layer:
//!
//! * [`ipc`] — round-robin static home assignment ([`ipc::HomeMap`]).
//!   The globalized System V `shmget`/`shmat` (paper §3.4) needs no
//!   server: every kernel attaches segment `i` as `Gsid(i)` at identical
//!   virtual addresses ([`kernel::Kernel::attach_segments`]).
//! * [`kernel`] — the per-node [`kernel::Kernel`]: node-private page
//!   table, segment attachments, per-mode frame pools, fault planning
//!   and commit, client page-outs, and the home-page-status flag
//!   optimization.
//! * [`page_cache`] — client S-COMA page residency with LRU recency.
//! * [`policy`] — the six page-mode policies evaluated in the paper
//!   (SCOMA, SCOMA-70, LANUMA, Dyn-FCFS, Dyn-Util, Dyn-LRU).
//! * [`migration`] — the lazy home-migration policy driven by per-page
//!   hardware traffic counters (paper §3.5).
//!
//! Kernels never touch other nodes directly: cross-node work is planned
//! here and executed by `prism-machine`, mirroring the paper's split
//! between OS policy and controller mechanism.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ipc;
pub mod kernel;
pub mod migration;
pub mod page_cache;
pub mod policy;

pub use ipc::HomeMap;
pub use kernel::{FaultClass, FaultPlan, Kernel, KernelConfig, KernelStats};
pub use migration::{MigrationPolicy, PageTraffic};
pub use policy::{ControllerQuery, PagePolicy};
