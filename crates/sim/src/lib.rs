//! # prism-sim — deterministic discrete-time simulation engine
//!
//! This crate provides the timing substrate for the PRISM distributed
//! shared-memory simulator:
//!
//! * [`Cycle`] — a newtype for processor-cycle timestamps and durations.
//! * [`Resource`] — an occupancy-based contended resource (bus, memory bank,
//!   coherence controller, network interface). Acquiring a resource returns
//!   the time at which service *starts*, delaying the caller when the
//!   resource is still busy with earlier work, and records utilization.
//! * [`SimRng`] — a small, fully deterministic PRNG (xoshiro256\*\*) so that
//!   every simulation is bit-reproducible from its seed.
//! * [`FastMap`] / [`FastSet`] — hash tables over the fixed [`FastHasher`],
//!   the map type every simulator table uses.
//! * [`stats`] — counters and log₂-bucketed latency histograms.
//! * [`event`] — a bounded event ring, the storage layer for the
//!   machine's observability bus.
//! * [`json`] — the one JSON value type, writer and reader: run reports,
//!   repro artifacts and bench files all render through it.
//! * [`sync`] — barrier and queued-lock bookkeeping used to model the
//!   synchronization operations emitted by workloads.
//!
//! The engine deliberately contains **no global state, no wall-clock access,
//! and no threads**: the PRISM machine advances simulated processors in a
//! conservative, deterministic interleaving and uses these primitives for
//! all timing decisions.
//!
//! # Example
//!
//! ```
//! use prism_sim::{Cycle, Resource};
//!
//! let mut bus = Resource::new("memory-bus");
//! // Two requests arrive together; service capacity is consumed and
//! // later requests queue once the time window's capacity is gone.
//! let a = bus.acquire(Cycle(0), Cycle(8));
//! let b = bus.acquire(Cycle(0), Cycle(8));
//! assert_eq!(a, Cycle(0));
//! assert_eq!(b, Cycle(8));
//! assert_eq!(bus.busy_cycles(), 16);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cycle;
pub mod event;
mod hash;
pub mod json;
mod resource;
mod rng;
pub mod stats;
pub mod sync;

pub use cycle::Cycle;
pub use hash::{FastHasher, FastMap, FastSet};
pub use resource::Resource;
pub use rng::SimRng;
