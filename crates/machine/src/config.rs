//! Machine configuration.

use prism_kernel::migration::MigrationPolicy;
use prism_kernel::policy::PagePolicy;
use prism_mem::addr::Geometry;
pub use prism_mem::directory::DirectoryKind;
use prism_protocol::latency::LatencyModel;

use crate::faults::{JournalPolicy, RetryPolicy};

/// Which ready-queue implementation drives the run loop.
///
/// Both produce identical simulation results (the golden determinism
/// test locks this); they differ only in host wall-clock cost. The
/// linear scan is kept as the A/B baseline for scheduler benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Tournament-tree ready set over the processor slots: `O(log P)`
    /// pick with a deterministic `(clock, proc)` tie-break;
    /// fault/watchdog/audit sweeps run as scheduled control events
    /// instead of per-pick checks. (Named for the binary heap it
    /// replaced; repro files record the name.)
    #[default]
    Heap,
    /// The original `O(P)` scan over all processors at every pick, with
    /// fault/watchdog/audit checks re-evaluated each iteration.
    LinearScan,
    /// The [`SchedulerKind::Heap`] ready set plus an epoch-parallel executor: per epoch,
    /// a maximal set of node groups with pairwise-disjoint page-home
    /// footprints runs concurrently on scoped worker threads, and
    /// per-worker effects merge back in deterministic `(clock, proc)`
    /// order. Results stay byte-identical to [`SchedulerKind::Heap`]
    /// (the golden suite locks this, fault plans included). Admission
    /// is per-feature: fault injections, watchdog deadlines, and
    /// journal flushes bound epochs as control events, open link-fault
    /// windows and recovery hazards (failed nodes, wedged Transit
    /// lines) serialize only the picks and groups they touch, and each
    /// serial fallback is recorded with a structured
    /// [`ParallelFallbackReason`](crate::ParallelFallbackReason)
    /// in the report. Only configurations that observe the global pick
    /// interleaving (shadow checking, incremental auditing, user mode
    /// preferences) run fully serial; migration, page-cache pressure,
    /// and every page policy form epochs through the footprint
    /// ledger's policy-aware closures.
    ParallelHeap,
}

/// Scope of an online coherence audit sweep.
///
/// `Full` is the exhaustive sweep the auditor has always run. The other
/// modes trade coverage per sweep for sweep cost, while staying
/// deterministic: sampling draws from a dedicated `SimRng` stream, and
/// incremental sweeps consume the dirty-page ring fed by the
/// observability layer. Transit-tag staleness is always checked in
/// full — a wedged line is exactly the state a sampled sweep must not
/// miss.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum AuditMode {
    /// Audit every directory page and every PIT entry per sweep.
    #[default]
    Full,
    /// Audit a deterministic pseudo-random subset per sweep.
    Sampled {
        /// Probability that any given page/entry is audited this sweep.
        fraction: f64,
    },
    /// Audit only pages dirtied since the previous sweep (fed from the
    /// observability event ring; falls back to a full sweep when the
    /// ring overflowed).
    Incremental,
}

/// Static configuration of a simulated PRISM machine.
///
/// The default models the paper's evaluation platform (§4.1): 8 SMP nodes
/// of 4 processors, 8 KB L1 / 32 KB L2 (the reduced sizes used to expose
/// capacity effects), 4 KiB pages with 64-byte lines, an 8K-entry
/// directory cache, and the Table-1 latency model.
///
/// # Example
///
/// ```
/// use prism_machine::config::MachineConfig;
///
/// let cfg = MachineConfig::builder()
///     .nodes(4)
///     .procs_per_node(2)
///     .l2_bytes(16 * 1024)
///     .build();
/// assert_eq!(cfg.total_procs(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Processors per node.
    pub procs_per_node: usize,
    /// Page/line geometry.
    pub geometry: Geometry,
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// TLB entries per processor.
    pub tlb_entries: usize,
    /// Real page frames of memory per node.
    pub frames_per_node: usize,
    /// Client page-cache capacity per node (`None` = unlimited).
    pub page_cache_capacity: Option<usize>,
    /// Page-mode policy for client faults.
    pub policy: PagePolicy,
    /// Component latencies (Table 1 calibration by default).
    pub latency: LatencyModel,
    /// Directory backend home nodes use (full map or node-replicated
    /// operation log; behavior is byte-identical, the determinism suite
    /// locks it).
    pub directory: DirectoryKind,
    /// Directory-cache entries per node.
    pub dir_cache_entries: usize,
    /// Directory-cache associativity.
    pub dir_cache_assoc: usize,
    /// Enable the home-page-status flag optimization (paper §3.3).
    pub home_status_flag: bool,
    /// Enable lazy home migration with this policy (paper §3.5).
    pub migration: Option<MigrationPolicy>,
    /// Track data versions and assert that every read observes the most
    /// recent write (slow; for tests).
    pub check_coherence: bool,
    /// Cache client frame numbers in home directories to speed reverse
    /// translation of invalidations (paper §3.2 option; off in the
    /// paper's experiments).
    pub client_frame_hints_in_directory: bool,
    /// Remote refetches before the two-directional policy converts an
    /// LA-NUMA page back to S-COMA (Reactive-NUMA's reuse threshold).
    pub renuma_threshold: u64,
    /// Timeout/retry behavior for protocol messages under fault
    /// injection (unused unless a fault plan is installed).
    pub retry: RetryPolicy,
    /// Home-memory write-back journaling: dynamic homes stream dirty-
    /// line records to static homes so failover never strands data.
    pub journal: JournalPolicy,
    /// Cycles a line may sit in the Transit tag before the watchdog
    /// declares its transaction dead and recovers it.
    pub watchdog_deadline: u64,
    /// Run the online coherence auditor every this many cycles
    /// (`None` = only the end-of-run sweep when auditing is needed).
    pub audit_interval: Option<u64>,
    /// Run the online auditor in this scope per sweep (a host-cost /
    /// coverage knob; `Full` reproduces historical behavior).
    pub audit_mode: AuditMode,
    /// Ready-queue implementation for the run loop (results are
    /// identical either way; this is a host-performance knob).
    pub scheduler: SchedulerKind,
    /// Worker threads for [`SchedulerKind::ParallelHeap`] (clamped to at
    /// least one; ignored by the serial schedulers).
    pub worker_threads: usize,
    /// Minimum simulated-cycle headroom (`bound - clock`) an epoch must
    /// have to be worth running under [`SchedulerKind::ParallelHeap`].
    /// An epoch pays for shell swaps, channel round-trips, and the
    /// merge regardless of how much work it admits; thinner epochs are
    /// rejected as `insufficient_parallelism` (engaging the scan
    /// backoff). Purely a host wall-clock heuristic: results are
    /// byte-identical at any value.
    pub min_epoch_span: u64,
    /// Cap on the parallel scheduler's exponential scan backoff, in
    /// picks skipped between epoch attempts during conflict-heavy
    /// phases. Must be at least 1. A host wall-clock heuristic like
    /// [`MachineConfig::min_epoch_span`]: results are byte-identical
    /// at any value.
    pub max_epoch_backoff: u64,
    /// How far (in trace operations) a window cursor's watermark may
    /// lag behind the requested pick and still be *slid* forward —
    /// retiring the executed prefix and extending the suffix — instead
    /// of rescanned from scratch. Zero disables sliding (every drifted
    /// watermark is a full rescan, the pre-slide behavior). A host
    /// wall-clock heuristic like [`MachineConfig::min_epoch_span`]:
    /// results are byte-identical at any value, because a slid window
    /// is bitwise what the fresh scan would return.
    pub rewatermark_tolerance: u64,
    /// Capture a wall-clock stage breakdown (`scan`/`admit`/`execute`/
    /// `merge` nanoseconds) for the parallel scheduler into the debug
    /// report. Off by default: host clocks are nondeterministic, and
    /// golden/chaos replays require a byte-stable debug report.
    pub stage_timing: bool,
}

impl MachineConfig {
    /// Starts a builder with the paper-default parameters.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder::default()
    }

    /// Total processors in the machine.
    pub fn total_procs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (zero nodes/processors,
    /// caches smaller than a line, more than 64 nodes).
    pub fn validate(&self) {
        assert!(self.nodes > 0, "need at least one node");
        assert!(self.nodes <= 64, "NodeSet supports at most 64 nodes");
        assert!(
            self.procs_per_node > 0,
            "need at least one processor per node"
        );
        assert!(
            self.l1_bytes >= self.geometry.line_bytes(),
            "L1 smaller than a line"
        );
        assert!(self.l2_bytes >= self.l1_bytes, "L2 smaller than L1");
        assert!(self.frames_per_node > 0, "nodes need memory");
        assert!(self.tlb_entries > 0, "TLB needs entries");
        assert!(
            self.retry.max_attempts >= 1,
            "retry policy needs at least one attempt"
        );
        assert!(
            self.retry.backoff >= 1,
            "retry backoff multiplier must be at least 1"
        );
        assert!(
            self.watchdog_deadline >= 1,
            "watchdog deadline must be at least one cycle"
        );
        if let Some(n) = self.audit_interval {
            assert!(n >= 1, "audit interval must be at least one cycle");
        }
        if let AuditMode::Sampled { fraction } = self.audit_mode {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "audit sampling fraction must be within [0, 1]"
            );
        }
        assert!(
            self.worker_threads >= 1,
            "parallel scheduler needs at least one worker thread"
        );
        assert!(
            self.max_epoch_backoff >= 1,
            "epoch backoff cap must be at least one pick"
        );
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            nodes: 8,
            procs_per_node: 4,
            geometry: Geometry::default(),
            l1_bytes: 8 * 1024,
            l1_assoc: 2,
            l2_bytes: 32 * 1024,
            l2_assoc: 4,
            tlb_entries: 64,
            frames_per_node: 1 << 16, // 256 MiB of 4 KiB frames
            page_cache_capacity: None,
            policy: PagePolicy::Scoma,
            latency: LatencyModel::default(),
            directory: DirectoryKind::FullMap,
            dir_cache_entries: 8192,
            dir_cache_assoc: 8,
            home_status_flag: true,
            migration: None,
            check_coherence: false,
            client_frame_hints_in_directory: false,
            renuma_threshold: 64,
            retry: RetryPolicy::default(),
            journal: JournalPolicy::Off,
            watchdog_deadline: 16_384,
            audit_interval: None,
            audit_mode: AuditMode::Full,
            scheduler: SchedulerKind::Heap,
            worker_threads: 4,
            min_epoch_span: 1024,
            max_epoch_backoff: 512,
            rewatermark_tolerance: 4096,
            stage_timing: false,
        }
    }
}

/// Builder for [`MachineConfig`].
#[derive(Clone, Debug, Default)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, v: $ty) -> Self {
            self.cfg.$name = v;
            self
        }
    };
}

impl MachineConfigBuilder {
    setter!(/// Sets the node count.
        nodes: usize);
    setter!(/// Sets processors per node.
        procs_per_node: usize);
    setter!(/// Sets page/line geometry.
        geometry: Geometry);
    setter!(/// Sets L1 capacity in bytes.
        l1_bytes: u64);
    setter!(/// Sets L1 associativity.
        l1_assoc: usize);
    setter!(/// Sets L2 capacity in bytes.
        l2_bytes: u64);
    setter!(/// Sets L2 associativity.
        l2_assoc: usize);
    setter!(/// Sets TLB entries per processor.
        tlb_entries: usize);
    setter!(/// Sets real frames per node.
        frames_per_node: usize);
    setter!(/// Sets the client page-cache capacity per node.
        page_cache_capacity: Option<usize>);
    setter!(/// Sets the page-mode policy.
        policy: PagePolicy);
    setter!(/// Sets the latency model.
        latency: LatencyModel);
    setter!(/// Selects the directory backend for home nodes.
        directory: DirectoryKind);
    setter!(/// Sets directory-cache entries.
        dir_cache_entries: usize);
    setter!(/// Sets directory-cache associativity.
        dir_cache_assoc: usize);
    setter!(/// Enables/disables the home-page-status flag optimization.
        home_status_flag: bool);
    setter!(/// Enables lazy home migration.
        migration: Option<MigrationPolicy>);
    setter!(/// Enables read-sees-latest-write checking (tests).
        check_coherence: bool);
    setter!(/// Caches client frame numbers in home directories.
        client_frame_hints_in_directory: bool);
    setter!(/// Sets the Reactive-NUMA reuse threshold for DynBoth.
        renuma_threshold: u64);
    setter!(/// Sets the message timeout/retry policy for fault injection.
        retry: RetryPolicy);
    setter!(/// Sets the home-memory write-back journaling policy.
        journal: JournalPolicy);
    setter!(/// Sets the Transit-tag watchdog deadline in cycles.
        watchdog_deadline: u64);
    setter!(/// Runs the online coherence auditor every `v` cycles.
        audit_interval: Option<u64>);
    setter!(/// Selects the auditor's per-sweep scope.
        audit_mode: AuditMode);
    setter!(/// Selects the run-loop ready-queue implementation.
        scheduler: SchedulerKind);
    setter!(/// Sets worker threads for the parallel scheduler.
        worker_threads: usize);
    setter!(/// Sets the minimum simulated-cycle span an epoch must cover.
        min_epoch_span: u64);
    setter!(/// Caps the parallel scheduler's epoch-scan backoff, in picks.
        max_epoch_backoff: u64);
    setter!(/// Sets the cursor rewatermark tolerance, in trace operations.
        rewatermark_tolerance: u64);
    setter!(/// Captures wall-clock stage timings in the debug report.
        stage_timing: bool);

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`MachineConfig::validate`]).
    pub fn build(self) -> MachineConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.nodes, 8);
        assert_eq!(cfg.procs_per_node, 4);
        assert_eq!(cfg.total_procs(), 32);
        assert_eq!(cfg.l1_bytes, 8 * 1024);
        assert_eq!(cfg.l2_bytes, 32 * 1024);
        assert_eq!(cfg.dir_cache_entries, 8192);
        cfg.validate();
    }

    #[test]
    fn builder_overrides() {
        let cfg = MachineConfig::builder()
            .nodes(2)
            .procs_per_node(1)
            .check_coherence(true)
            .build();
        assert_eq!(cfg.total_procs(), 2);
        assert!(cfg.check_coherence);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_nodes_rejected() {
        MachineConfig::builder().nodes(65).build();
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        MachineConfig::builder().nodes(0).build();
    }
}
