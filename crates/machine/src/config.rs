//! Machine configuration.
//!
//! [`MachineConfig`] holds the machine's shape, its protocol options and
//! its reliability knobs. The online coherence auditor has one knob, its
//! cadence ([`MachineConfig::audit_interval`]): every sweep checks every
//! directory page and every PIT entry, so there is no per-sweep scope to
//! choose.

use prism_kernel::migration::MigrationPolicy;
use prism_kernel::policy::PagePolicy;
use prism_mem::addr::Geometry;
use prism_protocol::latency::LatencyModel;

use crate::faults::{JournalPolicy, RetryPolicy};

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
