//! The three benchmark workloads: which applications run, on which
//! machine configuration, through which public entry point — and how a
//! benchmark seed turns into their inputs.

use prism_core::kernel::MigrationPolicy;
use prism_core::machine::{FaultPlan, JournalPolicy, RetryPolicy};
use prism_core::mem::trace::Trace;
use prism_core::{MachineConfig, PolicyKind, Simulation};
use prism_workloads::{app, AppId, Barnes, Mp3d, Radix, Scale, WaterNsq, WaterSpatial, Workload};

/// The seed whose inputs are exactly `app(id, Scale::Paper)` and whose
/// results the stored digests describe.
pub const DEFAULT_SEED: u64 = 0;

/// Fault-plan seed used at [`DEFAULT_SEED`].
const FAULT_PLAN_SEED: u64 = 42;

/// Link-fault probabilities of `comm-faults` (drop, corrupt).
const LINK_FAULTS: (f64, f64) = (0.005, 0.001);

/// Send attempts per message before `comm-faults` gives up on an access.
const RETRY_BUDGET: u32 = 8;

/// Derives a per-input seed: the base itself at [`DEFAULT_SEED`], a
/// different value for every other benchmark seed.
fn mix(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// `sweep_trace` over the paper's six configurations for LU, Barnes
    /// and Water-Spa.
    SplashSweep,
    /// Ocean as one S-COMA run.
    OceanScoma,
    /// MP3D and Water-Nsq under LA-NUMA with migration, eager
    /// journaling and seeded link faults.
    CommFaults,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::SplashSweep,
        WorkloadId::OceanScoma,
        WorkloadId::CommFaults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SplashSweep => "splash-sweep",
            WorkloadId::OceanScoma => "ocean-scoma",
            WorkloadId::CommFaults => "comm-faults",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest of every `RunReport::to_json()` of one pass at
    /// [`DEFAULT_SEED`] and paper scale (see [`crate::digest`]). A change
    /// that alters no simulated result leaves it as it is; one that does
    /// must update it here, and say why.
    pub fn expected_digest(self) -> u64 {
        match self {
            WorkloadId::SplashSweep => 0x0f27_9c49_b850_afe7,
            WorkloadId::OceanScoma => 0xb4a5_dccf_9bc6_ff91,
            WorkloadId::CommFaults => 0xf2ae_f638_76fa_d161,
        }
    }
}

/// The application `id` at `scale` with its seed re-derived from the
/// benchmark seed. At [`DEFAULT_SEED`] this is exactly `app(id, scale)`;
/// LU, FFT and Ocean take no seed and never change.
pub fn seeded_app(id: AppId, scale: Scale, seed: u64) -> Box<dyn Workload> {
    if seed == DEFAULT_SEED {
        app(id, scale)
    } else {
        reseeded_app(id, scale, |base| mix(base, seed))
    }
}

/// The application `id` at `scale` with `reseed` applied to the seed
/// `app(id, scale)` uses. Sizes and base seeds mirror
/// `prism_workloads::suite::app`; with the identity it builds the same
/// workload (a test checks that it does).
pub fn reseeded_app(id: AppId, scale: Scale, reseed: impl Fn(u64) -> u64) -> Box<dyn Workload> {
    let paper = scale == Scale::Paper;
    match id {
        AppId::Barnes if paper => Box::new(Barnes::new(4096, 2, reseed(11))),
        AppId::Barnes => Box::new(Barnes::new(192, 1, reseed(11))),
        AppId::Mp3d if paper => Box::new(Mp3d::new(16_000, 4, 16, reseed(13))),
        AppId::Mp3d => Box::new(Mp3d::new(1000, 2, 8, reseed(13))),
        AppId::Radix if paper => Box::new(Radix::new(192 * 1024, 1024, reseed(17))),
        AppId::Radix => Box::new(Radix::new(4096, 256, reseed(17))),
        AppId::WaterNsq if paper => Box::new(WaterNsq::new(320, 2, reseed(19))),
        AppId::WaterNsq => Box::new(WaterNsq::new(48, 1, reseed(19))),
        AppId::WaterSpa if paper => Box::new(WaterSpatial::new(512, 3, 5, reseed(23))),
        AppId::WaterSpa => Box::new(WaterSpatial::new(64, 1, 3, reseed(23))),
        AppId::Lu | AppId::Fft | AppId::Ocean => app(id, scale),
    }
}

/// How a unit drives the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitKind {
    /// `prism_core::sweep_trace` over `PolicyKind::ALL`: six simulations.
    Sweep,
    /// One `Machine::new` + `Machine::run` under this configuration.
    Single(PolicyKind),
}

/// One timed call into the simulator and the inputs it needs.
#[derive(Clone, Debug)]
pub struct UnitSpec {
    /// The application; also the unit's label in output.
    pub app: AppId,
    /// How the unit runs.
    pub kind: UnitKind,
    /// For `Sweep` the base configuration; otherwise the effective
    /// configuration the machine is built with.
    pub config: MachineConfig,
    /// Fault plan installed before the run (`Single` only).
    pub fault: Option<FaultPlan>,
}

impl UnitSpec {
    /// Simulations one run of the unit performs.
    pub fn simulations(&self) -> u64 {
        match self.kind {
            UnitKind::Sweep => PolicyKind::ALL.len() as u64,
            UnitKind::Single(_) => 1,
        }
    }

    /// Every configuration the unit builds a machine for: the six
    /// page-mode configurations of a sweep, otherwise its own.
    pub fn machine_configs(&self) -> Vec<MachineConfig> {
        match self.kind {
            UnitKind::Sweep => PolicyKind::ALL
                .iter()
                .map(|&p| Simulation::new(self.config.clone(), p).effective_config())
                .collect(),
            UnitKind::Single(_) => vec![self.config.clone()],
        }
    }

    /// Generates the unit's trace for every processor of the machine.
    pub fn generate(&self, scale: Scale, seed: u64) -> Trace {
        seeded_app(self.app, scale, seed).generate(self.config.total_procs())
    }
}

/// A workload at a scale and seed: its units, in run order.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub id: WorkloadId,
    /// Problem scale (`Paper` for measurement, `Small` for tests).
    pub scale: Scale,
    /// Benchmark seed.
    pub seed: u64,
    /// The digest one pass must produce: the stored one at
    /// [`DEFAULT_SEED`] and paper scale, none otherwise.
    pub expected_digest: Option<u64>,
    /// The timed units.
    pub units: Vec<UnitSpec>,
}

impl Spec {
    /// Builds the workload's units from `MachineConfig::default()` plus
    /// the per-workload settings.
    pub fn new(id: WorkloadId, scale: Scale, seed: u64) -> Spec {
        let effective =
            |cfg: MachineConfig, policy| Simulation::new(cfg, policy).effective_config();
        let units = match id {
            WorkloadId::SplashSweep => [AppId::Lu, AppId::Barnes, AppId::WaterSpa]
                .into_iter()
                .map(|app| UnitSpec {
                    app,
                    kind: UnitKind::Sweep,
                    config: MachineConfig::default(),
                    fault: None,
                })
                .collect(),
            WorkloadId::OceanScoma => vec![UnitSpec {
                app: AppId::Ocean,
                kind: UnitKind::Single(PolicyKind::Scoma),
                config: effective(MachineConfig::default(), PolicyKind::Scoma),
                fault: None,
            }],
            WorkloadId::CommFaults => {
                let cfg = MachineConfig {
                    migration: Some(MigrationPolicy::default()),
                    journal: JournalPolicy::eager(),
                    retry: RetryPolicy {
                        max_attempts: RETRY_BUDGET,
                        ..RetryPolicy::default()
                    },
                    ..MachineConfig::default()
                };
                let plan = FaultPlan::new(mix(FAULT_PLAN_SEED, seed))
                    .link_faults(LINK_FAULTS.0, LINK_FAULTS.1);
                [AppId::Mp3d, AppId::WaterNsq]
                    .into_iter()
                    .map(|app| UnitSpec {
                        app,
                        kind: UnitKind::Single(PolicyKind::Lanuma),
                        config: effective(cfg.clone(), PolicyKind::Lanuma),
                        fault: Some(plan.clone()),
                    })
                    .collect()
            }
        };
        Spec {
            id,
            scale,
            seed,
            expected_digest: (seed == DEFAULT_SEED && scale == Scale::Paper)
                .then(|| id.expected_digest()),
            units,
        }
    }
}
