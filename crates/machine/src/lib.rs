//! # prism-machine — the simulated PRISM machine
//!
//! Assembles the full system the paper evaluates (§4.1): SMP nodes of
//! processors with L1/L2 caches and TLBs on a split-transaction bus, a
//! per-node coherence controller (PIT, fine-grain tags, directory +
//! directory cache), a latency/occupancy network model, per-node kernels,
//! and a deterministic run loop that drives workload traces through the
//! whole stack.
//!
//! The crate is organized as three engine layers over the node model
//! (see DESIGN.md §5c):
//!
//! 1. **Scheduling** — `sched`: the tournament tree that picks the
//!    earliest-clock processor in O(log P) and folds fault, watchdog,
//!    and audit sweeps into the same event stream.
//! 2. **Transactions** — [`txn`]: protocol transactions (local fill
//!    pipelines and the per-node snoop, the remote-access transaction,
//!    migration), driven by `access` with one request value per miss.
//! 3. **Observability** — [`obs`]: the event bus every layer reports
//!    into (dense counters, latency histograms, a structural-event
//!    ring), from which [`report::RunReport`] is assembled.
//!
//! Modules by concern:
//!
//! * [`config`] — [`config::MachineConfig`] and its builder.
//! * [`machine`] — [`machine::Machine`]: setup, placement, barriers
//!   and locks, and the public `run`/`run_jobs` entry points.
//! * `sched` — the tournament-tree scheduler and the run loop.
//! * [`obs`] — counters, histograms, and the [`obs::ObsEvent`] ring.
//! * [`txn`] — protocol transactions: local fills, the remote-access
//!   transaction ([`txn::remote_txn`]: the inter-node directory
//!   protocol with timing, invalidation fan-out, firewall checks and
//!   lazy-migration forwarding), and page migration.
//! * `access` — the per-reference path: TLB → page table → L1 → L2 →
//!   mode-dispatched node-level action (paper Figure 4).
//! * `net` — message timing: NI occupancy, wire latency, and
//!   fault-aware reliable delivery.
//! * `paging` — page faults, page-ins, client page-outs (paper §3.3).
//! * [`shadow`] — optional read-sees-latest-write verification and the
//!   online coherence auditor ([`shadow::AuditFinding`]).
//! * `failure` — node-failure injection and wild-write containment.
//! * [`faults`] — deterministic fault plans ([`faults::FaultPlan`]),
//!   retry/backoff policy, write-back journaling
//!   ([`faults::JournalPolicy`]), and recovery accounting.
//! * `watchdog` — the transit-state watchdog: detects transactions
//!   wedged in the Transit tag and escalates resend → re-master →
//!   contained kill.
//! * [`report`] — [`report::RunReport`].
//!
//! # Example
//!
//! ```
//! use prism_machine::config::MachineConfig;
//! use prism_machine::machine::Machine;
//! use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
//! use prism_mem::addr::VirtAddr;
//!
//! let cfg = MachineConfig::builder()
//!     .nodes(2)
//!     .procs_per_node(1)
//!     .check_coherence(true)
//!     .build();
//! let trace = Trace {
//!     name: "ping-pong".into(),
//!     segments: vec![SegmentSpec { name: "d".into(), va_base: SHARED_BASE, bytes: 4096 }],
//!     lanes: vec![
//!         vec![Op::Write(VirtAddr(SHARED_BASE)), Op::Barrier(0)].into(),
//!         vec![Op::Barrier(0), Op::Read(VirtAddr(SHARED_BASE))].into(),
//!     ],
//! };
//! let report = Machine::new(cfg).run(&trace);
//! assert_eq!(report.remote_misses, 1); // the read fetched node 0's write
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod access;
pub mod config;
mod controller;
mod failure;
pub mod faults;
pub mod machine;
mod net;
pub mod node;
pub mod obs;
mod paging;
pub mod report;
mod sched;
pub mod shadow;
pub mod txn;
mod watchdog;

pub use config::{ConfigError, MachineConfig};
pub use failure::NoPitBinding;
pub use faults::{FaultPlan, FaultPlanError, FaultReport, JournalPolicy, RetryPolicy};
pub use machine::{Machine, RunError};
pub use obs::ObsEvent;
pub use report::{NodeReport, RunReport};
pub use shadow::{AuditFinding, AuditKind};
