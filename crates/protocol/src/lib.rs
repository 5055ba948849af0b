//! # prism-protocol — coherence protocol logic and the latency model
//!
//! Pure (state-in, plan-out) protocol logic for the PRISM reproduction:
//!
//! * [`latency`] — every component latency of the simulated machine,
//!   calibrated so the composed uncontended paths reproduce the paper's
//!   Table 1 (including the SRAM- vs DRAM-PIT study of §4.3).
//! * [`dirproto`] — the home-node directory protocol transitions
//!   (2-party/3-party reads and writes, the home's own accesses,
//!   invalidation fan-out, and lines released or demoted back to the
//!   home) and the client-side fine-grain tag actions. Every directory
//!   state the machine stores is one of these results.
//! * [`msg`] — the inter-node message taxonomy and traffic ledger.
//! * [`firewall`] — PIT capability checks that reject wild writes from
//!   remote nodes (fault containment, paper §3.2).
//!
//! Execution — applying plans to machine state with resource timing — is
//! the job of `prism-machine`; nothing here mutates caches or clocks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dirproto;
pub mod firewall;
pub mod latency;
pub mod msg;

pub use dirproto::{tag_action, transition, DataSource, DirOutcome, ReqKind, TagAction};
pub use latency::{LatencyModel, PitTechnology};
pub use msg::{MsgKind, TrafficLedger};
