//! The machine: node assembly, workload loading, and job composition.
//!
//! The `Machine` itself is deliberately thin — a container of nodes plus
//! the cross-node state (homes, barriers, locks, shadow, fault plan) —
//! with the engine split into three layers:
//!
//! * `sched` — the deterministic run loop: a tournament tree
//!   over the processor slots picks the earliest runnable processor,
//!   and fault/watchdog/audit sweeps fire as scheduled control events.
//! * [`crate::txn`] — protocol transactions (local fills, remote
//!   misses, migrations, failovers), driven by `access` with one
//!   request value per L2 miss.
//! * [`crate::obs`] — the event bus all statistics, fault accounting,
//!   and audit findings flow through; [`crate::report`] snapshots it
//!   into a [`RunReport`].

use prism_kernel::ipc::HomeMap;
use prism_kernel::kernel::{Kernel, KernelConfig};
use prism_mem::addr::{GlobalPage, NodeId, NodeSet};
use prism_mem::trace::Trace;
use prism_protocol::msg::TrafficLedger;
use prism_sim::sync::{BarrierSet, LockSet};
use prism_sim::{Cycle, FastMap, FastSet, Resource};

use prism_kernel::policy::PagePolicy;

use crate::config::MachineConfig;
use crate::faults::{FaultPlan, FaultPlanError, FaultReport, FaultState, Journal};
use crate::node::{Node, ProcState};
use crate::obs::{EventBus, ObsEvent};
use crate::report::RunReport;
use crate::sched::Sched;
use crate::shadow::Shadow;

/// Why a run could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The trace deadlocked: these processors (flat ids, ascending)
    /// ended blocked on locks or barriers nobody will release.
    Deadlock {
        /// The blocked processors.
        procs: Vec<usize>,
    },
    /// The trace was generated for another processor count.
    LaneCount {
        /// Lanes the trace has.
        trace: usize,
        /// Processors the machine has.
        machine: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { procs } => match procs.as_slice() {
                [p] => write!(f, "processor {p} ended in state Blocked: trace deadlock"),
                _ => write!(
                    f,
                    "processors {procs:?} ended in state Blocked: trace deadlock"
                ),
            },
            RunError::LaneCount { trace, machine } => write!(
                f,
                "trace was generated for {trace} processors, machine has {machine}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// A simulated PRISM machine.
///
/// Build one from a [`MachineConfig`], then [`Machine::run`] a workload
/// trace. The machine advances processors in a conservative deterministic
/// interleaving: the runnable processor with the earliest clock executes
/// next, so identical configurations produce identical results.
///
/// # Example
///
/// ```
/// use prism_machine::config::MachineConfig;
/// use prism_machine::machine::Machine;
/// use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
/// use prism_mem::addr::VirtAddr;
///
/// let cfg = MachineConfig::builder().nodes(2).procs_per_node(1).build();
/// let trace = Trace {
///     name: "demo".into(),
///     segments: vec![SegmentSpec { name: "d".into(), va_base: SHARED_BASE, bytes: 4096 }],
///     lanes: vec![
///         vec![Op::Write(VirtAddr(SHARED_BASE)), Op::Barrier(0)].into(),
///         vec![Op::Barrier(0), Op::Read(VirtAddr(SHARED_BASE))].into(),
///     ],
/// };
/// let report = Machine::new(cfg).run(&trace);
/// assert!(report.exec_cycles.as_u64() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) nodes: Vec<Node>,
    /// Barrier scopes: one `(lane range, barrier set)` per job. A single
    /// machine-wide group unless [`Machine::run_jobs`] installed several.
    pub(crate) barrier_groups: Vec<(std::ops::Range<usize>, BarrierSet)>,
    pub(crate) locks: LockSet,
    pub(crate) dyn_homes: FastMap<GlobalPage, NodeId>,
    pub(crate) homes: HomeMap,
    pub(crate) ledger: TrafficLedger,
    /// The observability bus: counters, latency histograms, fault
    /// accounting, audit findings, and the structural event ring.
    pub(crate) obs: EventBus,
    /// The scheduler: its tournament tree of Ready processors and its
    /// control-event queue.
    pub(crate) sched: Sched,
    pub(crate) shadow: Option<Shadow>,
    pub(crate) fault: Option<FaultState>,
    /// Dirty-line coverage at static homes under an eager
    /// [`crate::faults::JournalPolicy`] (`None` when journaling is off).
    pub(crate) journal: Option<Journal>,
    /// Cycle the next periodic audit sweep is due (`u64::MAX` when off).
    pub(crate) next_audit: u64,
    /// Every node that has ever mastered a page (static home included):
    /// the set of *legal* stale dynamic-home hints, letting the auditor
    /// distinguish lazy-migration staleness from corruption.
    pub(crate) former_homes: FastMap<GlobalPage, NodeSet>,
    pub(crate) workload_name: String,
    /// True once the user suggested page/region modes (translations may
    /// then change mode mid-run, which disables `fast_xlat`).
    pub(crate) mode_prefs_set: bool,
    /// True when the configuration guarantees translations are stable
    /// for the whole run; only then does `batched_lookups` count.
    pub(crate) fast_xlat: bool,
    /// The widest gap between the slowest and fastest processor clocks
    /// seen when the run loop retired the resource timelines.
    pub(crate) widest_spread: Cycle,
    /// `(node, processor)` of every flat processor id (see
    /// [`Machine::split_flat`]).
    flat_split: Box<[(u32, u32)]>,
}

impl Machine {
    /// Assembles an idle machine.
    ///
    /// # Panics
    ///
    /// Panics with the broken rule's message if `cfg` is inconsistent
    /// (see [`MachineConfig::validate`]).
    pub fn new(cfg: MachineConfig) -> Machine {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let homes = HomeMap::new(cfg.nodes as u16);
        let nodes = (0..cfg.nodes)
            .map(|n| {
                let kcfg = KernelConfig {
                    real_frames: cfg.frames_per_node,
                    page_cache_capacity: cfg.page_cache_capacity,
                    policy: cfg.policy,
                    home_status_flag: cfg.home_status_flag,
                    renuma_threshold: cfg.renuma_threshold,
                };
                let kernel = Kernel::new(NodeId(n as u16), kcfg, cfg.geometry);
                Node::new(NodeId(n as u16), &cfg, kernel)
            })
            .collect();
        let total = cfg.total_procs();
        let flat_split = (0..cfg.nodes as u32)
            .flat_map(|n| (0..cfg.procs_per_node as u32).map(move |pi| (n, pi)))
            .collect();
        let shadow = cfg.check_coherence.then(Shadow::new);
        let journal = cfg.journal.enabled().then(Journal::default);
        let next_audit = cfg.audit_interval.unwrap_or(u64::MAX);
        Machine {
            cfg,
            nodes,
            barrier_groups: vec![(0..total, BarrierSet::new(total))],
            locks: LockSet::new(),
            dyn_homes: FastMap::default(),
            homes,
            ledger: TrafficLedger::new(),
            obs: EventBus::new(),
            sched: Sched::default(),
            shadow,
            fault: None,
            journal,
            next_audit,
            former_homes: FastMap::default(),
            workload_name: String::new(),
            mode_prefs_set: false,
            fast_xlat: false,
            widest_spread: Cycle::ZERO,
            flat_split,
        }
    }

    /// Installs a fault-injection plan for subsequent runs. The plan's
    /// link faults, slow episodes, and scheduled failures apply from the
    /// current simulated time onward; the accumulated [`FaultReport`]
    /// appears in the next run's [`RunReport`].
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] — and leaves any previously installed
    /// plan in place — when the plan is structurally invalid for this
    /// machine: faults targeting out-of-range nodes, overlapping
    /// slow-node episodes, or injection clocks that can never be reached.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate(self.cfg.nodes)?;
        self.fault = Some(FaultState::new(plan));
        self.obs.fault = FaultReport::default();
        Ok(())
    }

    /// The fault accounting so far (empty when no plan is installed).
    /// Journal record counts come from the journal itself, so they are
    /// reported even when journaling runs without a fault plan.
    pub fn fault_report(&self) -> FaultReport {
        let mut r = if self.fault.is_some() {
            self.obs.fault
        } else {
            FaultReport::default()
        };
        if let Some(j) = self.journal.as_ref() {
            r.journal_records = j.total_records();
        }
        r
    }

    /// Updates the fault accounting on the event bus, if fault injection
    /// is active. The gate matters: recovery paths (e.g. `fail_node`
    /// called directly by tests) must not fabricate a fault report on
    /// machines without a plan.
    pub(crate) fn freport(&mut self, f: impl FnOnce(&mut FaultReport)) {
        if self.fault.is_some() {
            f(&mut self.obs.fault);
        }
    }

    /// Structural events retained on the observability bus (node
    /// failures, migrations, failovers, watchdog recoveries, audit
    /// sweeps), oldest first.
    pub fn recent_events(&self) -> Vec<(Cycle, ObsEvent)> {
        self.obs.recent()
    }

    /// Page-frame conservation audit: every real frame of every node is
    /// owned by exactly one of the free list and the live-class map, the
    /// two sum to the node's total, and the shared-memory owners agree —
    /// a client page-cache entry sits on a `ScomaClient` frame, a
    /// directory entry's home frame is the `ScomaHome` frame the kernel
    /// has the page resident on. Returns one line per violation (empty =
    /// conserved), in a fixed order: map-backed owners are walked by
    /// page. Cross-structure checks are skipped on failed nodes,
    /// whose kernels are dead and legitimately out of sync with the
    /// state their survivors adopted.
    pub fn page_accounting_violations(&self) -> Vec<String> {
        use prism_mem::frames::FrameClass;
        let mut violations = Vec::new();
        for node in &self.nodes {
            let n = node.id.0;
            let pool = node.kernel.pool();
            let mut free_seen = FastSet::default();
            for f in pool.free_frames() {
                if f.is_imaginary() {
                    violations.push(format!("node {n}: imaginary frame {f} on the free list"));
                }
                if !free_seen.insert(f) {
                    violations.push(format!("node {n}: frame {f} on the free list twice"));
                }
                if let Some(class) = pool.class_of(f) {
                    violations.push(format!(
                        "node {n}: frame {f} is both free and live as {class:?}"
                    ));
                }
            }
            if free_seen.len() + pool.active_real() != pool.total_real() {
                violations.push(format!(
                    "node {n}: {} free + {} live real frames != {} total",
                    free_seen.len(),
                    pool.active_real(),
                    pool.total_real()
                ));
            }
            if node.failed {
                continue;
            }
            let mut cached: Vec<_> = node.kernel.page_cache_pages().collect();
            cached.sort_unstable();
            for gp in cached {
                let cp = node
                    .kernel
                    .client_page(gp)
                    .expect("cached page has a record");
                match pool.class_of(cp.frame) {
                    Some(FrameClass::ScomaClient) => {}
                    other => violations.push(format!(
                        "node {n}: page-cache entry {gp} on frame {} of class {other:?}",
                        cp.frame
                    )),
                }
            }
            let mut homed: Vec<_> = node.controller.dir.iter().collect();
            homed.sort_unstable_by_key(|&(gp, _)| *gp);
            for (gp, pd) in homed {
                match pool.class_of(pd.home_frame) {
                    Some(FrameClass::ScomaHome) => {}
                    other => violations.push(format!(
                        "node {n}: directory home frame {} of {gp} has class {other:?}",
                        pd.home_frame
                    )),
                }
                if node.kernel.home_frame_of(*gp) != Some(pd.home_frame) {
                    violations.push(format!(
                        "node {n}: directory homes {gp} on frame {} but the kernel has {:?}",
                        pd.home_frame,
                        node.kernel.home_frame_of(*gp)
                    ));
                }
            }
            let mut resident: Vec<_> = node.kernel.resident_home_pages().collect();
            resident.sort_unstable();
            for (gp, frame) in resident {
                if node.controller.dir.page(gp).is_none() {
                    violations.push(format!(
                        "node {n}: {gp} resident as home on frame {frame} with no directory entry"
                    ));
                }
            }
        }
        violations
    }

    /// Live real (memory-consuming) frames across every node — at least
    /// one per node, since the kernel↔controller command frame is
    /// allocated at boot and never freed.
    pub fn frames_active(&self) -> u64 {
        self.nodes
            .iter()
            .map(|node| node.kernel.pool().active_real() as u64)
            .sum()
    }

    /// The latency multiplier a slow-node episode imposes on `node` at
    /// time `t` (1 when no episode is active).
    pub(crate) fn slow_factor(&self, node: usize, t: Cycle) -> u64 {
        self.fault
            .as_ref()
            .map_or(1, |f| f.plan.slow_factor(NodeId(node as u16), t))
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    pub(crate) fn ppn(&self) -> usize {
        self.cfg.procs_per_node
    }

    /// `(node, processor)` of flat processor id `flat`, read from a
    /// table, so the run loop, which splits ids several times per op,
    /// divides by no run-time `procs_per_node`.
    #[inline]
    pub(crate) fn split_flat(&self, flat: usize) -> (usize, usize) {
        let (n, pi) = self.flat_split[flat];
        (n as usize, pi as usize)
    }

    pub(crate) fn flat(&self, node: usize, proc: usize) -> usize {
        node * self.ppn() + proc
    }

    /// Processor id range of a node, for shadow freshness queries.
    pub(crate) fn node_proc_range(&self, node: usize) -> std::ops::Range<u16> {
        let base = (node * self.ppn()) as u16;
        base..base + self.ppn() as u16
    }

    /// Processors in `range` that can still execute.
    pub(crate) fn live_in_range(&self, range: std::ops::Range<usize>) -> usize {
        range
            .filter(|&flat| {
                let (n, pi) = self.split_flat(flat);
                self.nodes[n].procs[pi].state != ProcState::Dead
            })
            .count()
    }

    /// The user-level page-mode suggestion system call (paper §3.3: "The
    /// OS also provides a system call for the user to suggest the desired
    /// mode"): future faults on `gpage` at `node` allocate the suggested
    /// mode. Takes effect at the next fault; an existing mapping is not
    /// disturbed.
    ///
    /// # Panics
    ///
    /// Panics if the mode is not a shared client mode (S-COMA or
    /// LA-NUMA).
    pub fn suggest_page_mode(
        &mut self,
        node: prism_mem::addr::NodeId,
        gpage: GlobalPage,
        mode: prism_mem::mode::FrameMode,
    ) {
        assert!(
            mode.is_shared(),
            "only S-COMA or LA-NUMA can be suggested for shared pages"
        );
        self.mode_prefs_set = true;
        self.nodes[node.0 as usize]
            .kernel
            .set_mode_pref(gpage, mode);
    }

    /// Suggests a mode for every page of a virtual address range on
    /// every node (the common "this region is streaming" use).
    ///
    /// # Panics
    ///
    /// Panics as [`Machine::suggest_page_mode`] does, or if the range is
    /// not bound to a global segment.
    pub fn suggest_region_mode(
        &mut self,
        va_base: u64,
        bytes: u64,
        mode: prism_mem::mode::FrameMode,
    ) {
        let geom = self.cfg.geometry;
        let pages = geom.pages_for(bytes);
        self.mode_prefs_set = true;
        for p in 0..pages {
            let va = prism_mem::addr::VirtAddr(va_base + p * geom.page_bytes());
            let gp = self.nodes[0]
                .kernel
                .resolve(va)
                .unwrap_or_else(|| panic!("{va} is not bound to a global segment"));
            for n in 0..self.cfg.nodes {
                self.nodes[n].kernel.set_mode_pref(gp, mode);
            }
        }
    }

    /// Restricts a segment's pages to a node range (OS page placement;
    /// also applied automatically per job by [`Machine::run_jobs`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the machine.
    pub fn place_segment(&mut self, gsid: u32, first_node: u16, node_count: u16) {
        self.homes.place_segment(gsid, first_node, node_count);
    }

    /// The index of the barrier group containing processor `flat`.
    pub(crate) fn barrier_group_of(&self, flat: usize) -> usize {
        self.barrier_groups
            .iter()
            .position(|(range, _)| range.contains(&flat))
            .expect("every processor belongs to a barrier group")
    }

    /// Resolves a page's current dynamic home (defaults to the static
    /// home).
    pub(crate) fn resolve_dyn_home(&self, gpage: GlobalPage) -> NodeId {
        self.dyn_homes
            .get(&gpage)
            .copied()
            .unwrap_or_else(|| self.homes.static_home(gpage))
    }

    /// Line-addressing helper: the node-local cache key of a line.
    pub(crate) fn line_key(
        &self,
        frame: prism_mem::addr::FrameNo,
        line: prism_mem::addr::LineIdx,
    ) -> u64 {
        frame.0 as u64 * self.cfg.geometry.lines_per_page() as u64 + line.0 as u64
    }

    /// Loads a trace: attaches its segments on every kernel (segment `i`
    /// as `Gsid(i)`, identical virtual addresses on every node).
    pub(crate) fn load(&mut self, trace: &Trace) -> Result<(), RunError> {
        if trace.lanes.len() != self.cfg.total_procs() {
            return Err(RunError::LaneCount {
                trace: trace.lanes.len(),
                machine: self.cfg.total_procs(),
            });
        }
        self.workload_name = trace.name.clone();
        let live = self.live_in_range(0..self.cfg.total_procs());
        self.barrier_groups = vec![(0..self.cfg.total_procs(), BarrierSet::new(live.max(1)))];
        // Re-running on a warm machine (e.g. after a home page-out):
        // lane positions restart; caches, kernels, clocks, and statistics
        // carry over. Dead processors stay dead.
        for node in &mut self.nodes {
            for p in &mut node.procs {
                p.pc = 0;
                p.last_vpage = None;
                if p.state != ProcState::Dead {
                    p.state = ProcState::Ready;
                }
            }
        }
        // Whether translations are stable for the run: fault plans can
        // kill processors mid-access, migration and page-cache pressure
        // can remap pages, and non-S-COMA policies convert frame modes.
        self.fast_xlat = self.fault.is_none()
            && self.cfg.migration.is_none()
            && self.cfg.page_cache_capacity.is_none()
            && self.cfg.policy == PagePolicy::Scoma
            && !self.mode_prefs_set;
        for node in &mut self.nodes {
            node.kernel.attach_segments(&trace.segments);
        }
        Ok(())
    }

    /// Every node's four contended resources, node by node: bus,
    /// memory, network interface and protocol engine.
    pub fn resources(&self) -> impl Iterator<Item = &Resource> + '_ {
        self.nodes
            .iter()
            .flat_map(|n| [&n.bus, &n.memory, &n.ni, &n.engine])
    }

    /// The earliest time the resources still accept a request: the
    /// slowest processor clock at the run loop's latest retirement of
    /// the resource timelines (zero before the first).
    pub fn retired_horizon(&self) -> Cycle {
        self.resources()
            .map(Resource::retired_before)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    /// The widest gap between the slowest and the fastest processor
    /// clock seen at a retirement of the resource timelines. Each
    /// timeline holds roughly the window from the slowest clock to its
    /// latest reservation, so this gap bounds what they retain.
    pub fn widest_clock_spread(&self) -> Cycle {
        self.widest_spread
    }

    /// Runs a trace to completion and reports results.
    ///
    /// # Panics
    ///
    /// Panics if the trace's lane count mismatches the machine, or if the
    /// trace deadlocks (blocked processors that can never be released),
    /// with the message of the [`RunError`] that [`Machine::try_run`]
    /// returns.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.try_run(trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Machine::run`], but a deadlocked trace is an error.
    ///
    /// The trace is not validated here ([`Trace::validate`] does that). A
    /// lane that acquires a lock it already holds queues behind its own
    /// hold, so it ends the run as a deadlock in every build profile.
    ///
    /// # Errors
    ///
    /// - [`RunError::LaneCount`] when the trace's lane count mismatches
    ///   the machine; nothing runs.
    /// - [`RunError::Deadlock`] when processors end blocked on locks or
    ///   barriers nobody will release — for example two lanes taking the
    ///   same two locks in opposite orders, or one lane taking a lock it
    ///   already holds.
    pub fn try_run(&mut self, trace: &Trace) -> Result<RunReport, RunError> {
        self.load(trace)?;
        self.run_loop(trace)?;
        Ok(self.finalize_report())
    }

    /// Runs several independent jobs side by side on this machine
    /// (space sharing): each job's lanes occupy a contiguous block of
    /// processors, its segments are relocated to a private range of the
    /// global address space, and its barriers are scoped to its own
    /// lanes. Fault containment means a failure taking down one job's
    /// resources leaves the others running.
    ///
    /// # Errors
    ///
    /// As [`Machine::try_run`], for the jobs' combined lanes.
    ///
    /// # Panics
    ///
    /// Panics if a job is malformed ([`Trace::validate`] fails).
    pub fn run_jobs(&mut self, jobs: &[Trace]) -> Result<RunReport, RunError> {
        let (combined, groups) = prism_mem::trace::compose_jobs(jobs, &self.cfg.geometry);
        // Which combined-segment indices (= gsids) belong to each job.
        let mut segment_groups: Vec<Vec<u32>> = Vec::new();
        let mut next_gsid = 0u32;
        for job in jobs {
            let ids: Vec<u32> = (next_gsid..next_gsid + job.segments.len() as u32).collect();
            next_gsid += job.segments.len() as u32;
            segment_groups.push(ids);
        }
        self.load(&combined)?;
        // OS page placement: each job's segments are homed on the job's
        // own nodes, so jobs are independent failure units (paper §1).
        let ppn = self.ppn();
        for (gsids, lanes) in segment_groups.iter().zip(groups.iter()) {
            let first_node = (lanes.start / ppn) as u16;
            let node_count = (lanes.end.div_ceil(ppn) - lanes.start / ppn) as u16;
            for &gsid in gsids {
                self.place_segment(gsid, first_node, node_count);
            }
        }
        self.barrier_groups = groups
            .into_iter()
            .map(|range| {
                let participants = self.live_in_range(range.clone()).max(1);
                (range, BarrierSet::new(participants))
            })
            .collect();
        self.run_loop(&combined)?;
        Ok(self.finalize_report())
    }
}
