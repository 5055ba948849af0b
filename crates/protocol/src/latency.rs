//! The latency model, calibrated against the paper's Table 1.
//!
//! All cycle counts are processor cycles for a machine representative of
//! 5–10 ns cycle times (paper §4.1): a 16-byte split-transaction memory
//! bus at half processor speed, 120-cycle one-way network latency, DRAM
//! directory fronted by an 8K-entry cache (2-cycle hit / 22-cycle miss),
//! and an SRAM PIT with a 2-cycle lookup (10 cycles in the DRAM-PIT
//! sensitivity study of §4.3).
//!
//! The composed `uncontended_*` estimates below reproduce Table 1:
//!
//! | Access type                        | Paper | Model |
//! |------------------------------------|-------|-------|
//! | L1 miss, L2 hit                    | 12    | 12    |
//! | Uncached, line in local memory     | 36    | 36    |
//! | Uncached, line in remote memory    | 573   | ≈576  |
//! | 2-party read/write, modified line  | 608   | ≈608  |
//! | 3-party read/write, modified line  | 866   | ≈860  |
//! | 2-party write to shared line       | 608   | ≈608  |
//! | (3+n)-party write to shared line   | 1142+80n | ≈1136+80n |
//! | TLB miss                           | 30    | 30    |
//! | In-core page fault, local home     | 2300  | ≈2300 |
//! | In-core page fault, remote home    | 4400  | ≈4400 |

/// Which memory technology implements the Page Information Table
/// (paper §4.3 studies SRAM vs DRAM).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PitTechnology {
    /// 2-cycle lookups (the paper's default).
    #[default]
    Sram,
    /// 10-cycle lookups (the §4.3 sensitivity study).
    Dram,
    /// No PIT at all: the paper's *true CC-NUMA* extension (§3.2), where
    /// physical addresses directly identify memory at the home node and
    /// "do not need to incur the overhead of accessing a PIT" (§4.3).
    /// Forfeits localized translations, lazy migration, and the firewall.
    BypassedCcNuma,
}

/// All component latencies and occupancies of the simulated machine.
///
/// Fields are public so experiments can perturb individual components
/// (the ablation benches do exactly that); [`LatencyModel::default`]
/// yields the calibrated configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// Total latency of an L1 miss that hits in L2.
    pub l2_hit: u64,
    /// Bus occupancy of an address phase.
    pub bus_addr: u64,
    /// Bus occupancy of a data (line transfer) phase.
    pub bus_data: u64,
    /// Local DRAM access time.
    pub mem_access: u64,
    /// Coherence-controller protocol dispatch/handling per message.
    pub dispatch: u64,
    /// PIT technology (decides [`LatencyModel::pit_access`]).
    pub pit_technology: PitTechnology,
    /// Directory-cache hit time.
    pub dir_cache_hit: u64,
    /// Directory access time on a directory-cache miss (DRAM).
    pub dir_cache_miss: u64,
    /// Network-interface latency per message per side.
    pub ni: u64,
    /// Network-interface *occupancy* per message (pipelined: the NI can
    /// accept a new message this often even though each takes
    /// [`LatencyModel::ni`] cycles to traverse).
    pub ni_occupancy: u64,
    /// Coherence-engine occupancy per handled message (pipelined; the
    /// full handling latency is [`LatencyModel::dispatch`]).
    pub dispatch_occupancy: u64,
    /// Memory-bank occupancy per access (banked/pipelined; the full
    /// access latency is [`LatencyModel::mem_access`]).
    pub mem_occupancy: u64,
    /// One-way end-to-end network latency.
    pub net: u64,
    /// Extra cost of pulling a modified line out of a processor cache
    /// instead of reading memory (bus intervention round trip).
    pub cache_intervention: u64,
    /// Cost of invalidating the home node's own copy during a write to a
    /// shared line.
    pub home_invalidate: u64,
    /// Serialized per-additional-sharer acknowledgment processing at the
    /// home during multi-sharer invalidations.
    pub inval_extra: u64,
    /// Extra latency budget of the first remote sharer invalidation
    /// round-trip beyond plain message costs (directory walk, fan-out
    /// setup).
    pub inval_first_extra: u64,
    /// Additional cost of a reverse (global→physical) PIT translation
    /// that misses the message's frame-number hint and must search the
    /// hash structure (paper §3.2).
    pub pit_hash_search: u64,
    /// Hardware TLB refill time.
    pub tlb_miss: u64,
    /// Kernel overhead of an in-core page fault (trap, allocation,
    /// controller command writes) excluding remote communication.
    pub fault_kernel: u64,
    /// Home-node kernel service time for a client page-in request.
    pub home_pagein_service: u64,
    /// Kernel overhead of a page-out (unmap, node-local TLB shootdown,
    /// pool bookkeeping) excluding per-line writeback traffic.
    pub pageout_kernel: u64,
    /// Per-dirty-line transfer cost during a page-out writeback burst
    /// (pipelined, so far below a full remote miss).
    pub pageout_per_line: u64,
    /// Cost of a lock/unlock operation on a synchronization page
    /// (uncontended; used by the Sync frame-mode extension).
    pub sync_op: u64,
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel {
            l1_hit: 1,
            l2_hit: 12,
            bus_addr: 6,
            bus_data: 8,
            mem_access: 22,
            dispatch: 40,
            pit_technology: PitTechnology::Sram,
            dir_cache_hit: 2,
            dir_cache_miss: 22,
            ni: 39,
            ni_occupancy: 10,
            dispatch_occupancy: 12,
            mem_occupancy: 10,
            net: 120,
            cache_intervention: 54,
            home_invalidate: 32,
            inval_extra: 80,
            inval_first_extra: 54,
            pit_hash_search: 12,
            tlb_miss: 30,
            fault_kernel: 2226,
            home_pagein_service: 1645,
            pageout_kernel: 1200,
            pageout_per_line: 60,
            sync_op: 60,
        }
    }
}

impl LatencyModel {
    /// A model with the PIT implemented in DRAM (paper §4.3).
    pub fn with_dram_pit(mut self) -> LatencyModel {
        self.pit_technology = PitTechnology::Dram;
        self
    }

    /// A model with no PIT on the access path (true CC-NUMA addressing,
    /// paper §3.2 extension): translation and hash-search costs vanish.
    pub fn with_cc_numa_addressing(mut self) -> LatencyModel {
        self.pit_technology = PitTechnology::BypassedCcNuma;
        self.pit_hash_search = 0;
        self
    }

    /// PIT lookup time under the configured technology.
    pub fn pit_access(&self) -> u64 {
        match self.pit_technology {
            PitTechnology::Sram => 2,
            PitTechnology::Dram => 10,
            PitTechnology::BypassedCcNuma => 0,
        }
    }

    /// One-way message cost: sender NI + wire + receiver NI.
    pub fn message(&self) -> u64 {
        self.ni + self.net + self.ni
    }

    /// Local bus transaction satisfied from local memory
    /// (Table 1 "uncached, line in local memory").
    pub fn uncontended_local_miss(&self) -> u64 {
        self.bus_addr + self.mem_access + self.bus_data
    }

    /// Requester-side cost of initiating a remote protocol action:
    /// bus address phase, controller dispatch, PIT translation.
    pub fn requester_out(&self) -> u64 {
        self.bus_addr + self.dispatch + self.pit_access()
    }

    /// Requester-side cost of completing a remote protocol action:
    /// controller dispatch plus the data phase on the local bus.
    pub fn requester_in(&self) -> u64 {
        self.dispatch + self.bus_data
    }

    /// Home-side processing for a request served from home memory.
    /// `dir_hit` selects the directory-cache hit or miss time.
    pub fn home_service_memory(&self, dir_hit: bool) -> u64 {
        self.dispatch
            + self.pit_access()
            + self.dir_access(dir_hit)
            + self.bus_addr
            + self.mem_access
            + self.bus_data
    }

    /// Home-side processing when the data must be pulled out of a
    /// processor cache at the home (modified at home).
    pub fn home_service_intervention(&self, dir_hit: bool) -> u64 {
        self.dispatch
            + self.pit_access()
            + self.dir_access(dir_hit)
            + self.bus_addr
            + self.cache_intervention
            + self.bus_data
    }

    /// Directory access time.
    pub fn dir_access(&self, hit: bool) -> u64 {
        if hit {
            self.dir_cache_hit
        } else {
            self.dir_cache_miss
        }
    }

    /// Owner-side processing when a third node supplies a modified line.
    pub fn owner_service(&self) -> u64 {
        self.dispatch + self.pit_access() + self.bus_addr + self.cache_intervention + self.bus_data
    }

    /// Uncontended estimate: read/write satisfied by the home's memory
    /// (Table 1 "uncached, line in remote memory" ≈ 573).
    pub fn uncontended_remote_clean(&self) -> u64 {
        self.requester_out()
            + self.message()
            + self.home_service_memory(true)
            + self.message()
            + self.requester_in()
    }

    /// Uncontended estimate: 2-party access to a line modified at the
    /// home (Table 1 ≈ 608).
    pub fn uncontended_two_party_modified(&self) -> u64 {
        self.requester_out()
            + self.message()
            + self.home_service_intervention(true)
            + self.message()
            + self.requester_in()
    }

    /// Uncontended estimate: 3-party access to a line modified at a third
    /// node (Table 1 ≈ 866).
    pub fn uncontended_three_party_modified(&self) -> u64 {
        self.requester_out()
            + self.message() // requester -> home
            + self.dispatch + self.pit_access() + self.dir_access(true) // home forward
            + self.message() // home -> owner
            + self.owner_service()
            + self.message() // owner -> requester
            + self.requester_in()
    }

    /// Uncontended estimate: write (upgrade) to a line shared only by the
    /// home (Table 1 "2-party write to shared line" ≈ 608).
    pub fn uncontended_two_party_write_shared(&self) -> u64 {
        self.requester_out()
            + self.message()
            + self.home_service_memory(true)
            + self.home_invalidate
            + self.message()
            + self.requester_in()
    }

    /// Uncontended estimate: write to a line shared by `1 + n` remote
    /// nodes besides the requester (Table 1 "(3+n)-party write" ≈
    /// 1142 + 80·n).
    pub fn uncontended_multi_sharer_write(&self, extra_sharers: u64) -> u64 {
        self.uncontended_two_party_write_shared()
            + self.inval_first_extra
            + self.message() // invalidate to first sharer
            + self.dispatch // sharer processes invalidation
            + self.message() // ack back to home
            + self.dispatch // home processes ack
            + self.inval_extra * extra_sharers
    }

    /// Uncontended estimate: in-core page fault with a local home
    /// (Table 1 ≈ 2300).
    pub fn uncontended_fault_local(&self) -> u64 {
        self.fault_kernel + self.tlb_miss + self.dispatch + self.pit_access()
    }

    /// Uncontended estimate: in-core page fault with a remote home
    /// (Table 1 ≈ 4400).
    pub fn uncontended_fault_remote(&self) -> u64 {
        self.uncontended_fault_local() + self.message() + self.home_pagein_service + self.message()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn within(actual: u64, target: u64, pct: f64) -> bool {
        let diff = actual.abs_diff(target) as f64;
        diff <= target as f64 * pct / 100.0
    }

    #[test]
    fn table1_calibration() {
        let m = LatencyModel::default();
        assert_eq!(m.l2_hit, 12);
        assert_eq!(m.uncontended_local_miss(), 36);
        assert!(
            within(m.uncontended_remote_clean(), 573, 3.0),
            "remote clean = {}",
            m.uncontended_remote_clean()
        );
        assert!(
            within(m.uncontended_two_party_modified(), 608, 3.0),
            "2-party modified = {}",
            m.uncontended_two_party_modified()
        );
        assert!(
            within(m.uncontended_three_party_modified(), 866, 3.0),
            "3-party modified = {}",
            m.uncontended_three_party_modified()
        );
        assert!(
            within(m.uncontended_two_party_write_shared(), 608, 3.0),
            "2-party write shared = {}",
            m.uncontended_two_party_write_shared()
        );
        assert!(
            within(m.uncontended_multi_sharer_write(0), 1142, 3.0),
            "3-party write shared = {}",
            m.uncontended_multi_sharer_write(0)
        );
        // The +80n slope is exact by construction.
        assert_eq!(
            m.uncontended_multi_sharer_write(5) - m.uncontended_multi_sharer_write(0),
            400
        );
        assert_eq!(m.tlb_miss, 30);
        assert!(
            within(m.uncontended_fault_local(), 2300, 3.0),
            "local fault = {}",
            m.uncontended_fault_local()
        );
        assert!(
            within(m.uncontended_fault_remote(), 4400, 3.0),
            "remote fault = {}",
            m.uncontended_fault_remote()
        );
    }

    #[test]
    fn cc_numa_bypass_removes_translation_costs() {
        let cc = LatencyModel::default().with_cc_numa_addressing();
        assert_eq!(cc.pit_access(), 0);
        assert_eq!(cc.pit_hash_search, 0);
        assert!(cc.uncontended_remote_clean() < LatencyModel::default().uncontended_remote_clean());
    }

    #[test]
    fn dram_pit_slows_translations() {
        let sram = LatencyModel::default();
        let dram = LatencyModel::default().with_dram_pit();
        assert_eq!(sram.pit_access(), 2);
        assert_eq!(dram.pit_access(), 10);
        // Every remote access pays the PIT at least twice (requester
        // translate + home reverse-translate).
        assert!(dram.uncontended_remote_clean() >= sram.uncontended_remote_clean() + 16);
    }

    #[test]
    fn estimates_are_ordered_by_parties() {
        let m = LatencyModel::default();
        assert!(m.uncontended_local_miss() < m.uncontended_remote_clean());
        assert!(m.uncontended_remote_clean() < m.uncontended_two_party_modified());
        assert!(m.uncontended_two_party_modified() < m.uncontended_three_party_modified());
        assert!(m.uncontended_three_party_modified() < m.uncontended_multi_sharer_write(0));
        assert!(m.uncontended_fault_local() < m.uncontended_fault_remote());
    }

    #[test]
    fn message_symmetry() {
        let m = LatencyModel::default();
        assert_eq!(m.message(), 2 * m.ni + m.net);
    }

    #[test]
    fn cycle_type_interops() {
        use prism_sim::Cycle;
        let m = LatencyModel::default();
        let c = Cycle(m.uncontended_local_miss());
        assert_eq!(c, Cycle(36));
    }
}
