//! # prism-workloads — SPLASH-like workload generators
//!
//! The paper evaluates PRISM on eight SPLASH-I/-II applications
//! (Table 2). This crate reimplements each kernel as a *real algorithm*
//! whose execution emits the per-processor memory-reference trace the
//! simulator consumes — data-dependent patterns (radix-sort scatters,
//! Barnes–Hut tree walks, MP3D particle motion, water cell lists) are
//! computed from actual data, not synthesized, so per-page utilization,
//! working sets, and communication match the original kernels' shape.
//!
//! * [`mod@suite`] — the eight applications ([`suite::AppId`]) at test
//!   ([`suite::Scale::Small`]) or evaluation ([`suite::Scale::Paper`])
//!   scale.
//! * [`microbench`] — the latency microbenchmark regenerating Table 1.
//! * [`synthetic`] — uniform/migratory/producer-consumer/private
//!   patterns for tests and ablations, and the one-page home-failover
//!   scenario ([`synthetic::failover_trace`]).
//! * [`common`] — the [`common::Workload`] trait and trace-building
//!   helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod barnes;
pub mod common;
pub mod fft;
pub mod lu;
pub mod microbench;
pub mod mp3d;
pub mod ocean;
pub mod radix;
pub mod suite;
pub mod synthetic;
pub mod water;

pub use barnes::Barnes;
pub use common::Workload;
pub use fft::Fft;
pub use lu::Lu;
pub use mp3d::Mp3d;
pub use ocean::Ocean;
pub use radix::Radix;
pub use suite::{app, suite, AppId, Scale};
pub use synthetic::{failover_trace, Synthetic};
pub use water::{WaterNsq, WaterSpatial};
