//! The per-node operating-system kernel model.
//!
//! PRISM runs an independent kernel on every node (paper §3.3). Each
//! kernel owns its node's page table, segment attachments, frame pools,
//! client page cache, and page-mode policy state. Cross-node effects
//! (messages, PIT/tag/directory updates, cache invalidations) are
//! executed by the machine, which sequences the kernel's *plan* and
//! *commit* steps around them.

use prism_mem::addr::{FrameNo, Geometry, GlobalPage, Gsid, LineIdx, NodeId, VirtAddr};
use prism_mem::frames::{FrameClass, FramePool, UsageTracker};
use prism_mem::mode::FrameMode;
use prism_mem::page_table::{PageTable, Pte, SegmentTable};
use prism_mem::trace::SegmentSpec;
use prism_sim::FastMap;

use crate::page_cache::{ClientPage, PageCache};
use crate::policy::{decide_client_mode, ControllerQuery, PagePolicy};

/// Static configuration of one node's kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Real page frames of local memory.
    pub real_frames: usize,
    /// Client page-cache capacity (`None` = unlimited).
    pub page_cache_capacity: Option<usize>,
    /// The page-mode policy for client faults.
    pub policy: PagePolicy,
    /// Whether the home-page-status flag optimization is enabled
    /// (paper §3.3): when set, repeat faults on a page known to be
    /// resident at its home skip the page-in message.
    pub home_status_flag: bool,
    /// Remote refetches of an LA-NUMA page before the two-directional
    /// policy ([`crate::policy::PagePolicy::DynBoth`]) converts it back
    /// to S-COMA (Reactive-NUMA's reuse counter).
    pub renuma_threshold: u64,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            real_frames: 1 << 16,
            page_cache_capacity: None,
            policy: PagePolicy::Scoma,
            home_status_flag: true,
            renuma_threshold: 64,
        }
    }
}

/// How a fault is classified, which decides its service path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Node-private page: allocate a local-mode frame, no coherence.
    Private,
    /// Shared page whose dynamic home is this node.
    SharedHome,
    /// Shared page homed elsewhere: policy picks S-COMA or LA-NUMA.
    SharedClient,
}

/// An eviction the machine must perform before committing a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictOrder {
    /// The victim client page.
    pub gpage: GlobalPage,
    /// Its S-COMA frame.
    pub frame: FrameNo,
    /// The virtual page mapped to it (for unmap + TLB shootdown).
    pub vpage: u64,
    /// Whether the victim's future faults should use LA-NUMA frames.
    pub convert_to_lanuma: bool,
}

/// The kernel's plan for servicing one page fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faulting virtual page.
    pub vpage: u64,
    /// The global page, for shared faults.
    pub gpage: Option<GlobalPage>,
    /// Fault classification.
    pub class: FaultClass,
    /// Frame mode the new mapping will use.
    pub mode: FrameMode,
    /// Victim to page out first, if any.
    pub evict: Option<EvictOrder>,
    /// Whether a page-in message to the home is required.
    pub contact_home: bool,
}

/// What this kernel knows about a remote page's home (learned from
/// page-in replies; survives local page-outs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnownHome {
    /// Last known dynamic home.
    pub dyn_home: NodeId,
    /// Cached home frame number (reverse-translation hint).
    pub frame_hint: Option<FrameNo>,
    /// Home-page-status flag: the page is known resident at its home.
    pub resident_at_home: bool,
}

/// Per-kernel event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Faults on node-private pages.
    pub faults_private: u64,
    /// Faults at the home node of a shared page.
    pub faults_home: u64,
    /// Faults at client nodes of a shared page.
    pub faults_client: u64,
    /// Client faults that sent a page-in message to the home.
    pub faults_contacting_home: u64,
    /// Client page-outs (including policy conversions).
    pub page_outs: u64,
    /// Pages switched to LA-NUMA mode by an adaptive policy.
    pub conversions_to_lanuma: u64,
    /// LA-NUMA pages switched back to S-COMA by the two-directional
    /// policy (reuse detected).
    pub conversions_to_scoma: u64,
}

impl KernelStats {
    /// Accumulates another kernel's counters into this one — the stat
    /// hook machine-wide report aggregation subscribes per-node kernels
    /// through.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.faults_private += other.faults_private;
        self.faults_home += other.faults_home;
        self.faults_client += other.faults_client;
        self.faults_contacting_home += other.faults_contacting_home;
        self.page_outs += other.page_outs;
        self.conversions_to_lanuma += other.conversions_to_lanuma;
        self.conversions_to_scoma += other.conversions_to_scoma;
    }
}

/// One node's kernel.
///
/// The kernel is *passive with respect to time*: it never advances clocks
/// or touches other nodes. The machine charges latencies and performs the
/// cross-node parts of each plan.
#[derive(Clone, Debug)]
pub struct Kernel {
    node: NodeId,
    geom: Geometry,
    policy: PagePolicy,
    home_status_flag: bool,
    renuma_threshold: u64,
    remote_refetches: FastMap<GlobalPage, u64>,
    page_table: PageTable,
    segments: SegmentTable,
    pool: FramePool,
    command_frame: FrameNo,
    usage: UsageTracker,
    page_cache: PageCache,
    mode_pref: FastMap<GlobalPage, FrameMode>,
    resident_home: FastMap<GlobalPage, FrameNo>,
    known_home: FastMap<GlobalPage, KnownHome>,
    stats: KernelStats,
}

impl Kernel {
    /// Creates the kernel for `node`.
    pub fn new(node: NodeId, cfg: KernelConfig, geom: Geometry) -> Kernel {
        // The kernel↔controller command interface (paper §3.2, Command
        // mode) gets its memory-mapped frame at boot.
        let mut pool = FramePool::new(cfg.real_frames);
        let command_frame = pool
            .alloc(FrameClass::Command)
            .expect("a node needs at least one frame for the command interface");
        Kernel {
            node,
            geom,
            policy: cfg.policy,
            home_status_flag: cfg.home_status_flag,
            renuma_threshold: cfg.renuma_threshold.max(1),
            remote_refetches: FastMap::default(),
            page_table: PageTable::new(),
            segments: SegmentTable::new(),
            pool,
            command_frame,
            usage: UsageTracker::new(geom.lines_per_page()),
            page_cache: PageCache::new(cfg.page_cache_capacity),
            mode_pref: FastMap::default(),
            resident_home: FastMap::default(),
            known_home: FastMap::default(),
            stats: KernelStats::default(),
        }
    }

    /// This kernel's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The memory-mapped command-interface frame through which the OS
    /// talks to the coherence controller (paper §3.2, Command mode;
    /// allocated at boot).
    pub fn command_frame(&self) -> FrameNo {
        self.command_frame
    }

    /// The configured policy.
    pub fn policy(&self) -> PagePolicy {
        self.policy
    }

    /// Attaches the workload's shared segments. This is the globalized
    /// `shmget`/`shmat` (paper §3.4): every node's kernel attaches
    /// segment `i` as `Gsid(i)` at identical virtual addresses, so no
    /// global registry is needed.
    ///
    /// # Panics
    ///
    /// Panics if segment `i` was attached before with another size (the
    /// real `shmget` would return `EINVAL`), or if a base address is
    /// attached again with another size or segment.
    pub fn attach_segments(&mut self, specs: &[SegmentSpec]) {
        for (i, spec) in specs.iter().enumerate() {
            let len = spec.bytes.next_multiple_of(self.geom.page_bytes());
            // Idempotent for warm re-runs: an identical attachment is
            // kept; anything conflicting is a caller bug caught below.
            if let Some(existing) = self.segments.iter().find(|a| a.gsid == Gsid(i as u32)) {
                assert_eq!(
                    existing.bytes, len,
                    "segment {i} registered again with another size"
                );
            }
            if let Some(existing) = self.segments.iter().find(|a| a.va_base == spec.va_base) {
                assert_eq!(
                    (existing.bytes, existing.gsid),
                    (len, Gsid(i as u32)),
                    "segment at {:#x} re-attached with different shape",
                    spec.va_base
                );
                continue;
            }
            self.segments
                .attach(spec.va_base, len, Gsid(i as u32), &self.geom);
        }
    }

    /// Resolves a virtual address to the global page it is bound to
    /// (`None` = node-private).
    pub fn resolve(&self, va: VirtAddr) -> Option<GlobalPage> {
        self.segments.resolve(va, &self.geom)
    }

    /// Page-table lookup.
    pub fn lookup(&self, vpage: u64) -> Option<Pte> {
        self.page_table.lookup(vpage)
    }

    /// The mode a mapping of `frame` carries, read from the frame's class
    /// rather than from the page table: local frames map `Local`, home
    /// and client S-COMA frames `Scoma`, imaginary frames `LaNuma`. Every
    /// page-table entry of this kernel satisfies
    /// `pte.mode == mode_of(pte.frame)`, so a TLB hit, which yields only
    /// the frame, needs no page-table lookup.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is a real frame that is not allocated.
    #[inline]
    pub fn mode_of(&self, frame: FrameNo) -> FrameMode {
        if frame.is_imaginary() {
            return FrameMode::LaNuma;
        }
        match self.pool.class_of(frame) {
            Some(FrameClass::Local) => FrameMode::Local,
            Some(FrameClass::ScomaHome | FrameClass::ScomaClient) => FrameMode::Scoma,
            Some(FrameClass::Command) => FrameMode::Command,
            Some(FrameClass::LaNuma) | None => panic!("{frame} is not a live real frame"),
        }
    }

    /// Reverse of [`Kernel::resolve`]: the virtual page at which a global
    /// page is attached (identical across nodes, paper §3.3).
    pub fn shared_vpage(&self, gpage: GlobalPage, geom: &Geometry) -> Option<u64> {
        self.segments
            .iter()
            .find(|a| {
                a.gsid == gpage.gsid && (gpage.page as u64) < a.bytes.div_ceil(geom.page_bytes())
            })
            .map(|a| (a.va_base >> geom.page_log2()) + gpage.page as u64)
    }

    /// Plans the service of a page fault on `vpage`.
    ///
    /// `dyn_home` is the page's current dynamic home as resolved by the
    /// machine (equal to the static home unless migrated). `query` gives
    /// the policy access to the local controller's fine-grain tags.
    pub fn plan_fault(
        &self,
        vpage: u64,
        gpage: Option<GlobalPage>,
        dyn_home: NodeId,
        query: &dyn ControllerQuery,
    ) -> FaultPlan {
        let Some(gp) = gpage else {
            return FaultPlan {
                vpage,
                gpage: None,
                class: FaultClass::Private,
                mode: FrameMode::Local,
                evict: None,
                contact_home: false,
            };
        };
        if dyn_home == self.node {
            return FaultPlan {
                vpage,
                gpage: Some(gp),
                class: FaultClass::SharedHome,
                mode: FrameMode::Scoma,
                evict: None,
                contact_home: false,
            };
        }
        // Client fault: honor a standing mode preference (set by an
        // adaptive policy's conversion or by the user's suggestion
        // syscall), otherwise ask the policy.
        let (mode, evict) = if self.mode_pref.get(&gp) == Some(&FrameMode::LaNuma) {
            (FrameMode::LaNuma, None)
        } else {
            // A user S-COMA suggestion forces the S-COMA allocation rule
            // even under an otherwise LA-NUMA policy.
            let effective_policy = if self.mode_pref.get(&gp) == Some(&FrameMode::Scoma) {
                PagePolicy::Scoma
            } else {
                self.policy
            };
            let d = decide_client_mode(effective_policy, &self.page_cache, query);
            let evict = d.evict.map(|e| {
                let cp = self
                    .page_cache
                    .get(e.gpage)
                    .expect("policy victim is resident");
                EvictOrder {
                    gpage: e.gpage,
                    frame: cp.frame,
                    vpage: cp.vpage,
                    convert_to_lanuma: e.convert_to_lanuma,
                }
            });
            (d.mode, evict)
        };
        let contact_home = !(self.home_status_flag
            && self
                .known_home
                .get(&gp)
                .map(|k| k.resident_at_home)
                .unwrap_or(false));
        FaultPlan {
            vpage,
            gpage: Some(gp),
            class: FaultClass::SharedClient,
            mode,
            evict,
            contact_home,
        }
    }

    /// Commits a private fault: allocates a local frame and maps it.
    ///
    /// # Panics
    ///
    /// Panics if local memory is exhausted (configuration error: private
    /// data must fit).
    pub fn commit_private_fault(&mut self, vpage: u64) -> FrameNo {
        let frame = self
            .pool
            .alloc(FrameClass::Local)
            .expect("out of local memory for private pages");
        self.usage.on_alloc(frame);
        self.page_table.map(
            vpage,
            Pte {
                frame,
                mode: FrameMode::Local,
            },
        );
        self.stats.faults_private += 1;
        frame
    }

    /// Ensures a page this node is (dynamic) home for is resident:
    /// returns its home frame and whether it was just brought in (the
    /// machine must then initialize PIT, tags, and directory).
    ///
    /// # Panics
    ///
    /// Panics if local memory is exhausted.
    pub fn ensure_home_resident(&mut self, gpage: GlobalPage) -> (FrameNo, bool) {
        if let Some(&frame) = self.resident_home.get(&gpage) {
            return (frame, false);
        }
        let frame = self
            .pool
            .alloc(FrameClass::ScomaHome)
            .expect("out of local memory for home pages");
        self.usage.on_alloc(frame);
        self.resident_home.insert(gpage, frame);
        (frame, true)
    }

    /// The home frame of a page resident here as home, if any.
    pub fn home_frame_of(&self, gpage: GlobalPage) -> Option<FrameNo> {
        self.resident_home.get(&gpage).copied()
    }

    /// Maps a shared page that is homed here into this node's page table
    /// (a home-node fault, paper §3.3 "External Paging").
    pub fn commit_home_fault(&mut self, vpage: u64, gpage: GlobalPage, frame: FrameNo) {
        debug_assert_eq!(self.resident_home.get(&gpage), Some(&frame));
        self.page_table.map(
            vpage,
            Pte {
                frame,
                mode: FrameMode::Scoma,
            },
        );
        self.stats.faults_home += 1;
    }

    /// Commits a client fault: allocates the planned frame kind, maps the
    /// page, and registers S-COMA pages in the page cache.
    ///
    /// # Panics
    ///
    /// Panics if an S-COMA frame is requested but local memory is
    /// exhausted (the plan's eviction must have freed one), or `mode` is
    /// not a shared client mode.
    pub fn commit_client_fault(
        &mut self,
        vpage: u64,
        gpage: GlobalPage,
        mode: FrameMode,
        contacted_home: bool,
    ) -> FrameNo {
        let frame = match mode {
            FrameMode::Scoma => self
                .pool
                .alloc(FrameClass::ScomaClient)
                .expect("no frame for client page (eviction should have freed one)"),
            FrameMode::LaNuma => self
                .pool
                .alloc(FrameClass::LaNuma)
                .expect("imaginary frames are unlimited"),
            other => panic!("client fault cannot use {other} mode"),
        };
        self.usage.on_alloc(frame);
        self.page_table.map(vpage, Pte { frame, mode });
        if mode == FrameMode::Scoma {
            self.page_cache.insert(gpage, frame, vpage);
        }
        self.stats.faults_client += 1;
        if contacted_home {
            self.stats.faults_contacting_home += 1;
        }
        frame
    }

    /// Commits a client page-out: unmaps the victim, frees its frame,
    /// and (for policy conversions) pins its future mode to LA-NUMA.
    /// Returns the removed record. The machine performs cache/TLB/PIT/
    /// directory work around this call.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident in the page cache.
    pub fn commit_page_out(&mut self, gpage: GlobalPage, convert_to_lanuma: bool) -> ClientPage {
        let cp = self
            .page_cache
            .remove(gpage)
            .unwrap_or_else(|| panic!("page-out of non-resident {gpage}"));
        let pte = self.page_table.unmap(cp.vpage).expect("victim was mapped");
        debug_assert_eq!(pte.frame, cp.frame);
        self.usage.on_free(cp.frame);
        self.pool.free(cp.frame);
        self.stats.page_outs += 1;
        if convert_to_lanuma {
            self.mode_pref.insert(gpage, FrameMode::LaNuma);
            self.stats.conversions_to_lanuma += 1;
        }
        cp
    }

    /// Unmaps an LA-NUMA client page (used by mode changes and node
    /// shutdown). Returns its imaginary frame.
    pub fn unmap_lanuma(&mut self, vpage: u64) -> FrameNo {
        let pte = self.page_table.unmap(vpage).expect("page was mapped");
        assert_eq!(pte.mode, FrameMode::LaNuma);
        self.pool.free(pte.frame);
        pte.frame
    }

    /// Records what a page-in reply taught us about a page's home.
    pub fn learn_home(&mut self, gpage: GlobalPage, dyn_home: NodeId, frame_hint: Option<FrameNo>) {
        self.known_home.insert(
            gpage,
            KnownHome {
                dyn_home,
                frame_hint,
                resident_at_home: true,
            },
        );
    }

    /// Clears the home-page-status flag for a page (the home asked all
    /// clients to reset it before unmapping, paper §3.3).
    pub fn reset_home_status(&mut self, gpage: GlobalPage) {
        if let Some(k) = self.known_home.get_mut(&gpage) {
            k.resident_at_home = false;
        }
    }

    /// What this kernel knows about a page's home.
    pub fn known_home(&self, gpage: GlobalPage) -> Option<KnownHome> {
        self.known_home.get(&gpage).copied()
    }

    /// Per-access bookkeeping: frame-utilization tracking and page-cache
    /// recency. Called by the machine for every memory reference; both are
    /// dense per-frame arrays, and a no-op where the frame has no usage
    /// instance or client page.
    #[inline]
    pub fn on_access(&mut self, frame: FrameNo, line: LineIdx) {
        self.usage.touch(frame, line.0 as usize);
        self.page_cache.note_use(frame);
    }

    /// Counts a remote refetch of an LA-NUMA page. Returns `true` when
    /// the two-directional policy decides the page is a reuse page that
    /// should convert back to S-COMA (the caller then unmaps it so the
    /// next fault allocates a page-cache frame).
    pub fn note_lanuma_refetch(&mut self, gpage: GlobalPage) -> bool {
        if !self.policy.reconverts() {
            return false;
        }
        let count = self.remote_refetches.entry(gpage).or_insert(0);
        *count += 1;
        if *count >= self.renuma_threshold {
            self.remote_refetches.remove(&gpage);
            true
        } else {
            false
        }
    }

    /// Commits an LA-NUMA → S-COMA reconversion: future faults on the
    /// page use S-COMA frames again.
    pub fn commit_reconvert_to_scoma(&mut self, gpage: GlobalPage) {
        self.mode_pref.insert(gpage, FrameMode::Scoma);
        self.stats.conversions_to_scoma += 1;
    }

    /// The page's standing mode preference at this node, if any.
    pub fn mode_pref(&self, gpage: GlobalPage) -> Option<FrameMode> {
        self.mode_pref.get(&gpage).copied()
    }

    /// Sets a page's standing mode preference (the `vm_set_page_mode`
    /// system call of paper §3.3).
    pub fn set_mode_pref(&mut self, gpage: GlobalPage, mode: FrameMode) {
        self.mode_pref.insert(gpage, mode);
    }

    /// Releases home residency for a migrating page; returns its frame
    /// (freed back to the pool).
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident here as home.
    pub fn release_home_residency(&mut self, gpage: GlobalPage) -> FrameNo {
        let frame = self
            .resident_home
            .remove(&gpage)
            .unwrap_or_else(|| panic!("{gpage} not resident as home"));
        self.usage.on_free(frame);
        self.pool.free(frame);
        frame
    }

    /// Unmaps this node's own virtual mapping of a shared page, if any
    /// (used when the page migrates away). Returns the unmapped vpage.
    pub fn unmap_shared_vpage(&mut self, vpage: u64) -> Option<Pte> {
        self.page_table.unmap(vpage)
    }

    /// Client page-cache occupancy.
    pub fn page_cache_len(&self) -> usize {
        self.page_cache.len()
    }

    /// Client page-cache record for a page.
    pub fn client_page(&self, gpage: GlobalPage) -> Option<ClientPage> {
        self.page_cache.get(gpage)
    }

    /// Every page currently held in the client page cache.
    pub fn page_cache_pages(&self) -> impl Iterator<Item = GlobalPage> + '_ {
        self.page_cache.iter().map(|(gpage, _)| gpage)
    }

    /// Cumulative frame-pool statistics.
    pub fn pool_stats(&self) -> prism_mem::frames::PoolStats {
        self.pool.stats()
    }

    /// Read access to the frame pool (conservation audits walk its free
    /// list and live-class map).
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Every page resident here as home, with its home frame.
    pub fn resident_home_pages(&self) -> impl Iterator<Item = (GlobalPage, FrameNo)> + '_ {
        self.resident_home.iter().map(|(&gp, &f)| (gp, f))
    }

    /// Event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// `(real frame instances, average utilization)` so far, counting
    /// live frames as they stand (see [`UsageTracker::snapshot`]).
    pub fn usage_snapshot(&self) -> (u64, f64) {
        self.usage.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_mem::trace::SHARED_BASE;

    struct NoQuery;
    impl ControllerQuery for NoQuery {
        fn invalid_count(&self, _: FrameNo) -> usize {
            0
        }
        fn has_transit(&self, _: FrameNo) -> bool {
            false
        }
    }

    fn mk_kernel(policy: PagePolicy, cap: Option<usize>) -> Kernel {
        let cfg = KernelConfig {
            real_frames: 64,
            page_cache_capacity: cap,
            policy,
            home_status_flag: true,
            renuma_threshold: 8,
        };
        let mut k = Kernel::new(NodeId(1), cfg, Geometry::default());
        k.attach_segments(&[SegmentSpec {
            name: "data".into(),
            va_base: SHARED_BASE,
            bytes: 64 * 4096,
        }]);
        k
    }

    fn gp_of(k: &Kernel, page: u64) -> GlobalPage {
        k.resolve(VirtAddr(SHARED_BASE + page * 4096)).unwrap()
    }

    #[test]
    fn private_fault_allocates_local_frame() {
        let mut k = mk_kernel(PagePolicy::Scoma, None);
        let plan = k.plan_fault(42, None, NodeId(0), &NoQuery);
        assert_eq!(plan.class, FaultClass::Private);
        assert_eq!(plan.mode, FrameMode::Local);
        let f = k.commit_private_fault(42);
        assert_eq!(k.lookup(42).unwrap().frame, f);
        assert_eq!(k.stats().faults_private, 1);
    }

    #[test]
    fn home_fault_uses_resident_frame() {
        let mut k = mk_kernel(PagePolicy::Scoma, None);
        let gp = gp_of(&k, 0);
        let plan = k.plan_fault(7, Some(gp), k.node(), &NoQuery);
        assert_eq!(plan.class, FaultClass::SharedHome);
        let (frame, newly) = k.ensure_home_resident(gp);
        assert!(newly);
        let (frame2, newly2) = k.ensure_home_resident(gp);
        assert_eq!(frame, frame2);
        assert!(!newly2);
        k.commit_home_fault(7, gp, frame);
        assert_eq!(k.lookup(7).unwrap().mode, FrameMode::Scoma);
        assert_eq!(k.home_frame_of(gp), Some(frame));
    }

    #[test]
    fn client_fault_scoma_fills_page_cache() {
        let mut k = mk_kernel(PagePolicy::Scoma, Some(8));
        let gp = gp_of(&k, 1);
        let plan = k.plan_fault(11, Some(gp), NodeId(0), &NoQuery);
        assert_eq!(plan.class, FaultClass::SharedClient);
        assert_eq!(plan.mode, FrameMode::Scoma);
        assert!(plan.contact_home, "first fault must contact home");
        let f = k.commit_client_fault(11, gp, FrameMode::Scoma, true);
        assert!(!f.is_imaginary());
        assert_eq!(k.page_cache_len(), 1);
        assert_eq!(k.client_page(gp).unwrap().vpage, 11);
        assert_eq!(k.stats().faults_client, 1);
        assert_eq!(k.stats().faults_contacting_home, 1);
    }

    #[test]
    fn home_status_flag_suppresses_repeat_contact() {
        let mut k = mk_kernel(PagePolicy::Scoma, Some(8));
        let gp = gp_of(&k, 1);
        k.learn_home(gp, NodeId(0), Some(FrameNo(5)));
        let plan = k.plan_fault(11, Some(gp), NodeId(0), &NoQuery);
        assert!(!plan.contact_home);
        k.reset_home_status(gp);
        let plan = k.plan_fault(11, Some(gp), NodeId(0), &NoQuery);
        assert!(plan.contact_home);
    }

    #[test]
    fn page_out_frees_and_optionally_converts() {
        let mut k = mk_kernel(PagePolicy::DynLru, Some(1));
        let gp1 = gp_of(&k, 1);
        let gp2 = gp_of(&k, 2);
        k.commit_client_fault(11, gp1, FrameMode::Scoma, true);
        // Cache is now full; next plan must evict gp1 and convert it.
        let plan = k.plan_fault(12, Some(gp2), NodeId(0), &NoQuery);
        let evict = plan.evict.expect("victim chosen");
        assert_eq!(evict.gpage, gp1);
        assert!(evict.convert_to_lanuma);
        let cp = k.commit_page_out(evict.gpage, evict.convert_to_lanuma);
        assert_eq!(cp.vpage, 11);
        assert!(k.lookup(11).is_none(), "victim unmapped");
        assert_eq!(k.mode_pref(gp1), Some(FrameMode::LaNuma));
        assert_eq!(k.stats().page_outs, 1);
        assert_eq!(k.stats().conversions_to_lanuma, 1);
        // The freed frame is reusable for the new page.
        let f = k.commit_client_fault(12, gp2, FrameMode::Scoma, false);
        assert_eq!(f, cp.frame);
        // Future faults on gp1 now plan LA-NUMA.
        let plan = k.plan_fault(11, Some(gp1), NodeId(0), &NoQuery);
        assert_eq!(plan.mode, FrameMode::LaNuma);
    }

    #[test]
    fn lanuma_client_fault_uses_imaginary_frame() {
        let mut k = mk_kernel(PagePolicy::Lanuma, None);
        let gp = gp_of(&k, 3);
        let plan = k.plan_fault(13, Some(gp), NodeId(0), &NoQuery);
        assert_eq!(plan.mode, FrameMode::LaNuma);
        let f = k.commit_client_fault(13, gp, FrameMode::LaNuma, true);
        assert!(f.is_imaginary());
        assert_eq!(
            k.page_cache_len(),
            0,
            "imaginary frames bypass the page cache"
        );
        let f2 = k.unmap_lanuma(13);
        assert_eq!(f, f2);
        assert!(k.lookup(13).is_none());
    }

    #[test]
    fn migration_residency_handoff() {
        let mut k = mk_kernel(PagePolicy::Scoma, None);
        let gp = gp_of(&k, 0);
        let (frame, _) = k.ensure_home_resident(gp);
        let freed = k.release_home_residency(gp);
        assert_eq!(frame, freed);
        assert_eq!(k.home_frame_of(gp), None);
        // Residency can be re-established (e.g. the page migrates back).
        let (_, newly) = k.ensure_home_resident(gp);
        assert!(newly);
    }

    #[test]
    fn renuma_refetch_counter_fires_at_threshold() {
        let mut k = mk_kernel(PagePolicy::DynBoth, Some(4));
        let gp = gp_of(&k, 2);
        for _ in 0..7 {
            assert!(!k.note_lanuma_refetch(gp), "below threshold");
        }
        assert!(k.note_lanuma_refetch(gp), "threshold reached");
        // Counter resets after firing.
        assert!(!k.note_lanuma_refetch(gp));
        k.commit_reconvert_to_scoma(gp);
        assert_eq!(k.mode_pref(gp), Some(FrameMode::Scoma));
        assert_eq!(k.stats().conversions_to_scoma, 1);
    }

    #[test]
    fn one_way_policies_never_reconvert() {
        let mut k = mk_kernel(PagePolicy::DynLru, Some(4));
        let gp = gp_of(&k, 2);
        for _ in 0..100 {
            assert!(!k.note_lanuma_refetch(gp));
        }
    }

    #[test]
    fn command_frame_allocated_at_boot() {
        let k = mk_kernel(PagePolicy::Scoma, None);
        let f = k.command_frame();
        assert!(!f.is_imaginary());
        assert_eq!(k.pool_stats().command, 1);
        assert_eq!(k.pool_stats().real_total(), 1);
    }

    #[test]
    fn resolve_distinguishes_shared_and_private() {
        let k = mk_kernel(PagePolicy::Scoma, None);
        assert!(k.resolve(VirtAddr(SHARED_BASE)).is_some());
        assert!(k.resolve(VirtAddr(0xdead_0000)).is_none());
    }

    #[test]
    fn dyn_fcfs_switches_without_eviction_when_full() {
        let mut k = mk_kernel(PagePolicy::DynFcfs, Some(1));
        let gp1 = gp_of(&k, 1);
        let gp2 = gp_of(&k, 2);
        k.commit_client_fault(11, gp1, FrameMode::Scoma, true);
        let plan = k.plan_fault(12, Some(gp2), NodeId(0), &NoQuery);
        assert_eq!(plan.mode, FrameMode::LaNuma);
        assert!(plan.evict.is_none(), "Dyn-FCFS never evicts");
    }

    #[test]
    fn scoma_suggestion_beats_lanuma_policy_at_plan_time() {
        let mut k = mk_kernel(PagePolicy::Lanuma, None);
        let gp = gp_of(&k, 3);
        k.set_mode_pref(gp, FrameMode::Scoma);
        let plan = k.plan_fault(13, Some(gp), NodeId(0), &NoQuery);
        assert_eq!(plan.mode, FrameMode::Scoma);
    }

    #[test]
    fn scoma_suggestion_with_full_cache_evicts_lru() {
        let mut k = mk_kernel(PagePolicy::Lanuma, Some(1));
        let gp1 = gp_of(&k, 1);
        let gp2 = gp_of(&k, 2);
        // gp1 resident (suggested into the cache).
        k.set_mode_pref(gp1, FrameMode::Scoma);
        k.commit_client_fault(11, gp1, FrameMode::Scoma, true);
        // gp2 suggested S-COMA too: the plan must evict gp1 (LRU) without
        // converting it.
        k.set_mode_pref(gp2, FrameMode::Scoma);
        let plan = k.plan_fault(12, Some(gp2), NodeId(0), &NoQuery);
        assert_eq!(plan.mode, FrameMode::Scoma);
        let evict = plan.evict.expect("must make room");
        assert_eq!(evict.gpage, gp1);
        assert!(!evict.convert_to_lanuma);
    }

    #[test]
    fn dyn_home_parameter_decides_fault_class() {
        let k = mk_kernel(PagePolicy::Scoma, None);
        let gp = gp_of(&k, 0);
        // Same page: home class when the dynamic home is this node,
        // client class otherwise (migration moves this decision).
        let here = k.plan_fault(7, Some(gp), k.node(), &NoQuery);
        assert_eq!(here.class, FaultClass::SharedHome);
        let away = k.plan_fault(7, Some(gp), NodeId(3), &NoQuery);
        assert_eq!(away.class, FaultClass::SharedClient);
    }

    #[test]
    fn usage_snapshot_counts_allocated_frames() {
        let mut k = mk_kernel(PagePolicy::Scoma, None);
        k.commit_private_fault(1);
        let gp = gp_of(&k, 1);
        let f = k.commit_client_fault(11, gp, FrameMode::Scoma, true);
        k.on_access(f, LineIdx(0));
        k.on_access(f, LineIdx(1));
        let (instances, util) = k.usage_snapshot();
        assert_eq!(instances, 2);
        // 2 touched lines out of 2 frames x 64 lines.
        assert!((util - 2.0 / 128.0).abs() < 1e-12);
        // The snapshot leaves the instances open: a later touch counts.
        k.on_access(f, LineIdx(2));
        assert_eq!(k.usage_snapshot(), (2, 3.0 / 128.0));
    }

    #[test]
    fn mode_of_agrees_with_every_mapping() {
        let mut k = mk_kernel(PagePolicy::DynLru, Some(1));
        k.commit_private_fault(1);
        let home = gp_of(&k, 0);
        let (hf, _) = k.ensure_home_resident(home);
        k.commit_home_fault(2, home, hf);
        k.commit_client_fault(3, gp_of(&k, 1), FrameMode::Scoma, true);
        k.commit_client_fault(4, gp_of(&k, 2), FrameMode::LaNuma, true);
        for vpage in 1..=4 {
            let pte = k.lookup(vpage).unwrap();
            assert_eq!(k.mode_of(pte.frame), pte.mode, "vpage {vpage}");
        }
        assert_eq!(k.mode_of(k.command_frame()), FrameMode::Command);
    }

    #[test]
    fn on_access_refreshes_only_client_pages() {
        let mut k = mk_kernel(PagePolicy::Scoma, Some(2));
        let (a, b) = (gp_of(&k, 1), gp_of(&k, 2));
        let fa = k.commit_client_fault(11, a, FrameMode::Scoma, true);
        k.commit_client_fault(12, b, FrameMode::Scoma, true);
        let (hf, _) = k.ensure_home_resident(gp_of(&k, 3));
        // Home and imaginary frames leave the LRU order alone.
        k.on_access(hf, LineIdx(0));
        k.on_access(FrameNo::imaginary(0), LineIdx(0));
        let plan = k.plan_fault(13, Some(gp_of(&k, 4)), NodeId(0), &NoQuery);
        assert_eq!(plan.evict.unwrap().gpage, a);
        k.on_access(fa, LineIdx(0));
        let plan = k.plan_fault(13, Some(gp_of(&k, 4)), NodeId(0), &NoQuery);
        assert_eq!(plan.evict.unwrap().gpage, b);
    }
}
