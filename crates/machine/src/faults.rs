//! Deterministic fault injection and recovery accounting.
//!
//! PRISM's containment story (paper §1, §3.2) is exercised here beyond
//! the blunt fail-stop model: a seeded [`FaultPlan`] schedules transient
//! link faults (message drop or corruption per link window), slow-node
//! episodes (inflated dispatch/memory latency), PIT-entry corruption,
//! and permanent node failures at given cycles. The machine consults the
//! plan on every network send, retries with exponential backoff under a
//! [`RetryPolicy`], re-masters pages at the static home when a dynamic
//! home dies (home failover), and tallies everything in a
//! [`FaultReport`].
//!
//! Plans are fully deterministic: the same seed on the same workload and
//! machine produces bit-identical reports, so chaos tests can assert
//! exact outcomes.

use prism_mem::addr::{GlobalPage, LineIdx, NodeId};
use prism_sim::{Cycle, FastMap, FastSet, SimRng};

/// Bounded retry with exponential backoff for unacknowledged protocol
/// messages.
///
/// A dropped message is detected by timeout after `timeout_cycles`; the
/// k-th retry waits `timeout_cycles * backoff^(k-1)` before resending. A
/// corrupted message is Nack'd by the receiver and retried immediately.
/// After `max_attempts` total attempts the access is abandoned and the
/// requesting processor is killed (fault containment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts before the access is abandoned (>= 1).
    pub max_attempts: u32,
    /// Cycles a requester waits for a reply before presuming loss.
    /// Calibrated to comfortably exceed a remote page-fault round trip
    /// under the Table-1 latency model.
    pub timeout_cycles: u64,
    /// Multiplier applied to the timeout on each successive retry.
    pub backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            timeout_cycles: 4096,
            backoff: 2,
        }
    }
}

impl RetryPolicy {
    /// Cycles spent waiting before the retry following failed attempt
    /// number `attempt` (1-based): `timeout_cycles * backoff^(attempt-1)`,
    /// saturating at `u64::MAX`.
    ///
    /// Edge semantics (intentional, covered by unit tests):
    /// * `attempt = 0` is treated as attempt 1 — the subtraction
    ///   saturates, so the first wait is always exactly
    ///   `timeout_cycles` and never `timeout_cycles / backoff`.
    /// * `backoff = 1` selects constant-timeout mode: every retry waits
    ///   exactly `timeout_cycles`, regardless of the attempt number.
    /// * Once the product overflows, every later attempt returns
    ///   `u64::MAX` (the wait saturates rather than wrapping to a short
    ///   — effectively zero — timeout).
    pub fn backoff_wait(&self, attempt: u32) -> u64 {
        self.timeout_cycles
            .saturating_mul(self.backoff.saturating_pow(attempt.saturating_sub(1)))
    }
}

/// Policy governing home-memory write-back journaling (the durable
/// redundancy that makes dynamic-home death fully survivable).
///
/// Under [`JournalPolicy::Eager`] a dynamic home that is not also the
/// page's static home streams a version record back to the static home
/// on every dirty-line update, and ships the whole page image when a
/// migration moves the dynamic home. Home failover can then always
/// re-master a dead dynamic home's pages from the journal instead of
/// refusing when a dirty line is stranded on dead hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JournalPolicy {
    /// No journaling: failover refuses pages whose only up-to-date line
    /// copies died with the failed hardware (the containment-only
    /// behavior).
    #[default]
    Off,
    /// Stream every dirty-line update to the static home as it happens.
    Eager {
        /// Cycles charged on the writer's critical path per journal
        /// record (sequence-number allocation + NI injection; the bulk
        /// transfer itself is posted, not waited on).
        record_cycles: u64,
        /// Cycles charged per line replayed from the journal while the
        /// static home re-masters a dead dynamic home's page.
        replay_cycles_per_line: u64,
    },
}

impl JournalPolicy {
    /// Eager journaling with default cost parameters.
    pub fn eager() -> JournalPolicy {
        JournalPolicy::Eager {
            record_cycles: 4,
            replay_cycles_per_line: 24,
        }
    }

    /// True when journaling is on.
    pub fn enabled(&self) -> bool {
        !matches!(self, JournalPolicy::Off)
    }

    /// Cycles charged per record on the writer's critical path.
    pub(crate) fn record_cycles(&self) -> u64 {
        match *self {
            JournalPolicy::Off => 0,
            JournalPolicy::Eager { record_cycles, .. } => record_cycles,
        }
    }

    /// Cycles charged per line replayed at failover.
    pub(crate) fn replay_cycles_per_line(&self) -> u64 {
        match *self {
            JournalPolicy::Off => 0,
            JournalPolicy::Eager {
                replay_cycles_per_line,
                ..
            } => replay_cycles_per_line,
        }
    }
}

/// The static-home-side journal: which lines of which pages have
/// durable version records, and when they were written.
///
/// The simulator does not model data contents (the shadow checker holds
/// versions); the journal tracks *coverage* — which dirty lines could be
/// replayed if their dynamic home died — and timing for the lag tally.
#[derive(Clone, Debug, Default)]
pub(crate) struct Journal {
    pages: FastMap<GlobalPage, PageJournal>,
    /// Machine-lifetime record count (survives page retirement).
    total_records: u64,
}

/// Journal state for one page.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageJournal {
    /// Latest journaled record per line, by write cycle.
    pub(crate) lines: FastMap<LineIdx, Cycle>,
    /// When the last full-page image was checkpointed (migration).
    pub(crate) image_at: Option<Cycle>,
    /// Total records appended for this page (lines + images).
    pub(crate) records: u64,
}

impl Journal {
    /// Appends a dirty-line version record.
    pub(crate) fn record_line(&mut self, gpage: GlobalPage, line: LineIdx, at: Cycle) {
        let pj = self.pages.entry(gpage).or_default();
        pj.lines.insert(line, at);
        pj.records += 1;
        self.total_records += 1;
    }

    /// Checkpoints a whole-page image (migration): the image supersedes
    /// all per-line records, which are cleared.
    pub(crate) fn checkpoint_page(&mut self, gpage: GlobalPage, at: Cycle) {
        let pj = self.pages.entry(gpage).or_default();
        pj.lines.clear();
        pj.image_at = Some(at);
        pj.records += 1;
        self.total_records += 1;
    }

    /// The journal state for a page, if any records exist.
    pub(crate) fn page(&self, gpage: GlobalPage) -> Option<&PageJournal> {
        self.pages.get(&gpage)
    }

    /// Drops a page's journal (the page was re-mastered or released).
    pub(crate) fn retire_page(&mut self, gpage: GlobalPage) {
        self.pages.remove(&gpage);
    }

    /// Total records appended across the machine's lifetime (counts
    /// records of pages whose journals were since retired).
    pub(crate) fn total_records(&self) -> u64 {
        self.total_records
    }
}

/// A window of cycles during which every inter-node message is subject
/// to loss or corruption with the given probabilities.
#[derive(Clone, Copy, Debug)]
pub struct LinkFaultWindow {
    /// First cycle of the window (inclusive).
    pub from: Cycle,
    /// Last cycle of the window (exclusive); `Cycle::NEVER` = whole run.
    pub until: Cycle,
    /// Probability a message in the window is silently dropped.
    pub drop_prob: f64,
    /// Probability a message arrives with a corrupt payload (Nack'd).
    pub corrupt_prob: f64,
}

impl LinkFaultWindow {
    fn contains(&self, t: Cycle) -> bool {
        self.from <= t && t < self.until
    }
}

/// A window during which one node's protocol dispatch and memory access
/// latencies are multiplied by `factor` (an overloaded or thermally
/// throttled node).
#[derive(Clone, Copy, Debug)]
pub struct SlowEpisode {
    /// The afflicted node.
    pub node: NodeId,
    /// First cycle (inclusive).
    pub from: Cycle,
    /// Last cycle (exclusive).
    pub until: Cycle,
    /// Latency multiplier (>= 1).
    pub factor: u64,
}

/// A fault applied once at a scheduled cycle.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledFault {
    /// Simulated cycle at/after which the fault strikes.
    pub at: Cycle,
    /// What happens.
    pub kind: ScheduledFaultKind,
}

/// The kinds of point-in-time faults a plan can schedule.
#[derive(Clone, Copy, Debug)]
pub enum ScheduledFaultKind {
    /// Permanent node failure (as [`crate::machine::Machine`]'s
    /// `fail_node`).
    FailNode(NodeId),
    /// Scramble the dynamic-home field of one client PIT entry at the
    /// node (chosen deterministically from the plan's seed). The
    /// misdirected request recovers through static-home forwarding.
    CorruptPit(NodeId),
    /// Wedge one line of a client S-COMA frame at the node in the `T`
    /// (Transit) tag, as if the protocol transaction that set it died
    /// mid-flight (requester crash or reply loss past the retry
    /// budget). The line and frame are chosen deterministically from
    /// the plan's seed; the transit watchdog must recover it.
    WedgeTransit(NodeId),
}

/// The largest [`SlowEpisode::factor`] a plan may carry. Latencies are
/// multiplied by the factor in `u64` cycle arithmetic; a factor beyond
/// 2^32 could overflow the product for long-latency operations, so
/// [`FaultPlan::validate`] rejects it as meaningless rather than letting
/// saturation silently change the episode's strength.
pub const MAX_SLOW_FACTOR: u64 = 1 << 32;

/// A structurally invalid [`FaultPlan`], rejected when the plan is
/// installed on a machine ([`crate::machine::Machine::install_fault_plan`]).
///
/// Each variant names a plan that could never mean what its author
/// intended — a fault aimed at a node the machine does not have, an
/// injection clock that can never be reached, slow-node episodes whose
/// overlap makes the effective factor ambiguous, or link/slow-node
/// parameters outside their mathematical domain (NaN or out-of-range
/// probabilities, zero or overflowing factors). Before this check
/// existed such plans were silently inert — or silently clamped — which
/// is the worst possible behavior for a chaos-testing tool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A scheduled fault or slow-node episode targets a node outside
    /// the machine (`node >= nodes`).
    NodeOutOfRange {
        /// The out-of-range target.
        node: NodeId,
        /// How many nodes the machine actually has.
        nodes: usize,
    },
    /// Two slow-node episodes for the same node overlap in time; the
    /// plan must state one factor per node per instant.
    OverlappingSlowEpisodes {
        /// The node with conflicting episodes.
        node: NodeId,
    },
    /// A scheduled fault's injection clock is at or past [`Cycle::NEVER`],
    /// so it can never strike during any run.
    UnreachableInjection {
        /// The unreachable injection clock.
        at: Cycle,
    },
    /// A link-fault window's probabilities are not well-formed: NaN,
    /// negative, above 1, or summing above 1 — a window that cannot
    /// state one coherent distribution over {drop, corrupt, deliver}.
    InvalidLinkProbability {
        /// The window's drop probability as given.
        drop_prob: f64,
        /// The window's corruption probability as given.
        corrupt_prob: f64,
    },
    /// A slow-node episode's latency factor is zero (it would speed the
    /// node up — or stop its clock entirely) or beyond
    /// [`MAX_SLOW_FACTOR`] (cycle arithmetic could overflow).
    InvalidSlowFactor {
        /// The node the episode targets.
        node: NodeId,
        /// The factor as given.
        factor: u64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultPlanError::NodeOutOfRange { node, nodes } => write!(
                f,
                "fault plan targets node {} but the machine has {} nodes",
                node.0, nodes
            ),
            FaultPlanError::OverlappingSlowEpisodes { node } => write!(
                f,
                "fault plan schedules overlapping slow episodes for node {}",
                node.0
            ),
            FaultPlanError::UnreachableInjection { at } => write!(
                f,
                "fault plan schedules an injection at cycle {} which can never be reached",
                at.as_u64()
            ),
            FaultPlanError::InvalidLinkProbability {
                drop_prob,
                corrupt_prob,
            } => write!(
                f,
                "fault plan has a link window with ill-formed probabilities \
                 (drop {drop_prob}, corrupt {corrupt_prob}): each must be in \
                 [0,1] and their sum at most 1"
            ),
            FaultPlanError::InvalidSlowFactor { node, factor } => write!(
                f,
                "fault plan schedules a slow episode on node {} with factor {} \
                 (must be in 1..={})",
                node.0, factor, MAX_SLOW_FACTOR
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A seeded, deterministic schedule of faults for one run.
///
/// # Example
///
/// ```
/// use prism_machine::faults::FaultPlan;
/// use prism_mem::addr::NodeId;
/// use prism_sim::Cycle;
///
/// let plan = FaultPlan::new(42)
///     .link_faults(0.01, 0.002)
///     .slow_node(NodeId(1), Cycle(10_000), Cycle(50_000), 4)
///     .fail_node(NodeId(3), Cycle(200_000));
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    link_windows: Vec<LinkFaultWindow>,
    slow_episodes: Vec<SlowEpisode>,
    schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given determinism seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The determinism seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Subjects every message of the whole run to the given drop and
    /// corruption probabilities.
    pub fn link_faults(self, drop_prob: f64, corrupt_prob: f64) -> FaultPlan {
        self.link_fault_window(Cycle::ZERO, Cycle::NEVER, drop_prob, corrupt_prob)
    }

    /// Adds a transient link-fault window `[from, until)`.
    ///
    /// Probabilities outside `[0, 1]`, NaN, or summing above 1 are
    /// accepted here but rejected by [`FaultPlan::validate`] when the
    /// plan is installed ([`FaultPlanError::InvalidLinkProbability`]),
    /// so randomized plan generators can build first and validate once.
    pub fn link_fault_window(
        mut self,
        from: Cycle,
        until: Cycle,
        drop_prob: f64,
        corrupt_prob: f64,
    ) -> FaultPlan {
        self.link_windows.push(LinkFaultWindow {
            from,
            until,
            drop_prob,
            corrupt_prob,
        });
        self
    }

    /// Adds a slow-node episode: `node`'s dispatch and memory latencies
    /// are multiplied by `factor` during `[from, until)`.
    ///
    /// A zero or overflowing factor is accepted here but rejected by
    /// [`FaultPlan::validate`] when the plan is installed
    /// ([`FaultPlanError::InvalidSlowFactor`]).
    pub fn slow_node(mut self, node: NodeId, from: Cycle, until: Cycle, factor: u64) -> FaultPlan {
        self.slow_episodes.push(SlowEpisode {
            node,
            from,
            until,
            factor,
        });
        self
    }

    /// Schedules a permanent failure of `node` at cycle `at`.
    pub fn fail_node(mut self, node: NodeId, at: Cycle) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            at,
            kind: ScheduledFaultKind::FailNode(node),
        });
        self.schedule.sort_by_key(|f| f.at);
        self
    }

    /// Schedules a PIT-entry corruption at `node` at cycle `at`.
    pub fn corrupt_pit(mut self, node: NodeId, at: Cycle) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            at,
            kind: ScheduledFaultKind::CorruptPit(node),
        });
        self.schedule.sort_by_key(|f| f.at);
        self
    }

    /// Schedules a wedged-Transit fault at `node` at cycle `at`: one
    /// line of a client S-COMA frame is left stuck in the `T` tag.
    pub fn wedge_transit(mut self, node: NodeId, at: Cycle) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            at,
            kind: ScheduledFaultKind::WedgeTransit(node),
        });
        self.schedule.sort_by_key(|f| f.at);
        self
    }

    /// The scheduled point faults, sorted by cycle.
    pub fn schedule(&self) -> &[ScheduledFault] {
        &self.schedule
    }

    /// The latency multiplier in effect for `node` at time `t`.
    ///
    /// Overlapping episodes take the maximum factor; note that
    /// [`FaultPlan::validate`] rejects same-node overlaps at install
    /// time, so the max only matters for plans inspected stand-alone.
    pub fn slow_factor(&self, node: NodeId, t: Cycle) -> u64 {
        self.slow_episodes
            .iter()
            .filter(|e| e.node == node && e.from <= t && t < e.until)
            .map(|e| e.factor)
            .max()
            .unwrap_or(1)
    }

    fn window_at(&self, t: Cycle) -> Option<&LinkFaultWindow> {
        self.link_windows.iter().find(|w| w.contains(t))
    }

    /// Checks the plan against a machine of `nodes` nodes, returning the
    /// first structural error (see [`FaultPlanError`]). Called by
    /// [`crate::machine::Machine::install_fault_plan`]; a plan that
    /// passes is guaranteed to mean something on that machine.
    pub fn validate(&self, nodes: usize) -> Result<(), FaultPlanError> {
        for ev in &self.schedule {
            let node = match ev.kind {
                ScheduledFaultKind::FailNode(n)
                | ScheduledFaultKind::CorruptPit(n)
                | ScheduledFaultKind::WedgeTransit(n) => n,
            };
            if node.0 as usize >= nodes {
                return Err(FaultPlanError::NodeOutOfRange { node, nodes });
            }
            if ev.at >= Cycle::NEVER {
                return Err(FaultPlanError::UnreachableInjection { at: ev.at });
            }
        }
        for w in &self.link_windows {
            // NaN fails every comparison, so the well-formed check below
            // must be written as a positive condition and negated.
            let well_formed = (0.0..=1.0).contains(&w.drop_prob)
                && (0.0..=1.0).contains(&w.corrupt_prob)
                && w.drop_prob + w.corrupt_prob <= 1.0;
            if !well_formed {
                return Err(FaultPlanError::InvalidLinkProbability {
                    drop_prob: w.drop_prob,
                    corrupt_prob: w.corrupt_prob,
                });
            }
        }
        for (i, a) in self.slow_episodes.iter().enumerate() {
            if a.node.0 as usize >= nodes {
                return Err(FaultPlanError::NodeOutOfRange {
                    node: a.node,
                    nodes,
                });
            }
            if a.factor == 0 || a.factor > MAX_SLOW_FACTOR {
                return Err(FaultPlanError::InvalidSlowFactor {
                    node: a.node,
                    factor: a.factor,
                });
            }
            for b in &self.slow_episodes[i + 1..] {
                if a.node == b.node && a.from < b.until && b.from < a.until {
                    return Err(FaultPlanError::OverlappingSlowEpisodes { node: a.node });
                }
            }
        }
        Ok(())
    }

    /// True when the plan can never perturb anything.
    pub fn is_empty(&self) -> bool {
        self.link_windows
            .iter()
            .all(|w| w.drop_prob == 0.0 && w.corrupt_prob == 0.0)
            && self.slow_episodes.is_empty()
            && self.schedule.is_empty()
    }
}

/// What the fault model decided for one message transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkVerdict {
    /// Delivered intact.
    Deliver,
    /// Silently lost in the interconnect.
    Drop,
    /// Delivered with a corrupt payload (receiver Nacks).
    Corrupt,
}

/// The access that gave up: every allowed attempt was lost or corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DeliveryFailed;

/// Live fault-injection state carried by a running machine.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: SimRng,
    /// Index of the next unapplied entry of `plan.schedule`.
    pub(crate) next_event: usize,
    /// Pages whose stranded dirty lines were already tallied as lost,
    /// so repeated failover refusals count each line once.
    pub(crate) lost_pages: FastSet<GlobalPage>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        // A fixed tweak keeps the fault stream independent of any other
        // consumer of the raw seed.
        let rng = SimRng::new(plan.seed() ^ 0x000F_A517_C0DE_5EED_u64);
        FaultState {
            plan,
            rng,
            next_event: 0,
            lost_pages: FastSet::default(),
        }
    }

    /// Rolls the fate of one message sent at time `t`.
    pub(crate) fn link_verdict(&mut self, t: Cycle) -> LinkVerdict {
        let Some(w) = self.plan.window_at(t) else {
            return LinkVerdict::Deliver;
        };
        if w.drop_prob == 0.0 && w.corrupt_prob == 0.0 {
            return LinkVerdict::Deliver;
        }
        let roll = self.rng.next_f64();
        if roll < w.drop_prob {
            LinkVerdict::Drop
        } else if roll < w.drop_prob + w.corrupt_prob {
            LinkVerdict::Corrupt
        } else {
            LinkVerdict::Deliver
        }
    }
}

/// Outcome accounting of a run under a [`FaultPlan`].
///
/// Deterministic for a given seed/workload/config, so tests compare
/// whole reports with `==`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages the interconnect silently dropped.
    pub dropped_messages: u64,
    /// Messages delivered with a corrupt payload.
    pub corrupted_messages: u64,
    /// Nack messages receivers sent for corrupt payloads.
    pub nacks: u64,
    /// Retransmissions performed (drop timeouts + corruption Nacks).
    pub retries: u64,
    /// Timeouts that expired waiting for a lost message's reply.
    pub timeouts: u64,
    /// Total cycles requesters spent in timeout + backoff waits.
    pub backoff_cycles: u64,
    /// Pages re-mastered at their static home after their dynamic home
    /// failed.
    pub failovers: u64,
    /// PIT entries scrambled by scheduled corruption faults.
    pub pit_corruptions: u64,
    /// Permanent node failures applied from the schedule.
    pub node_failures: u64,
    /// Faults survived without killing a processor.
    pub contained_faults: u64,
    /// Faults that killed the requesting processor.
    pub fatal_faults: u64,
    /// Dirty-line version records (and page images) journaled to static
    /// homes under an eager [`JournalPolicy`].
    pub journal_records: u64,
    /// Cycles spent replaying journal records while re-mastering pages
    /// of dead dynamic homes.
    pub journal_replay_cycles: u64,
    /// Summed age (record cycle to replay cycle) of every journal
    /// record replayed at failover — the journal's staleness exposure.
    pub journal_lag_cycles: u64,
    /// Dirty lines recovered during failover (journal replay or
    /// static-home cache intervention) that a journal-less machine
    /// would have stranded.
    pub lines_recovered: u64,
    /// Dirty lines permanently lost: their only up-to-date copy died
    /// with failed hardware and no journal record covered them.
    pub lines_lost: u64,
    /// Failover attempts refused because a page could not be safely
    /// re-mastered (each refusal event counts, even for the same page).
    pub failover_refusals: u64,
    /// Lines wedged in the Transit tag by scheduled faults.
    pub transit_wedges: u64,
    /// Watchdog recoveries resolved by re-reading directory state from
    /// a live home (escalation step 1: resend).
    pub watchdog_resends: u64,
    /// Watchdog recoveries that required re-mastering the page at the
    /// static home first (escalation step 2: re-master via journal).
    pub watchdog_remasters: u64,
    /// Watchdog escalations that exhausted recovery and killed the
    /// owning processor (escalation step 3).
    pub watchdog_kills: u64,
}

impl FaultReport {
    /// True when any fault was observed.
    pub fn any(&self) -> bool {
        *self != FaultReport::default()
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults: {} dropped, {} corrupted ({} nacks), {} retries \
             ({} timeouts, {} backoff cycles), {} failovers, \
             {} pit corruptions, {} node failures, {} contained / {} fatal",
            self.dropped_messages,
            self.corrupted_messages,
            self.nacks,
            self.retries,
            self.timeouts,
            self.backoff_cycles,
            self.failovers,
            self.pit_corruptions,
            self.node_failures,
            self.contained_faults,
            self.fatal_faults
        )?;
        let recovery_active = self.journal_records != 0
            || self.lines_recovered != 0
            || self.lines_lost != 0
            || self.failover_refusals != 0
            || self.transit_wedges != 0;
        if recovery_active {
            write!(
                f,
                "; recovery: {} journal records ({} replay cycles, \
                 {} lag cycles), {} lines recovered / {} lost, \
                 {} refusals, {} wedges ({} resends, {} remasters, \
                 {} kills)",
                self.journal_records,
                self.journal_replay_cycles,
                self.journal_lag_cycles,
                self.lines_recovered,
                self.lines_lost,
                self.failover_refusals,
                self.transit_wedges,
                self.watchdog_resends,
                self.watchdog_remasters,
                self.watchdog_kills
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy {
            max_attempts: 5,
            timeout_cycles: 100,
            backoff: 2,
        };
        assert_eq!(p.backoff_wait(1), 100);
        assert_eq!(p.backoff_wait(2), 200);
        assert_eq!(p.backoff_wait(3), 400);
    }

    #[test]
    fn backoff_saturates() {
        let p = RetryPolicy {
            max_attempts: 200,
            timeout_cycles: u64::MAX / 2,
            backoff: 3,
        };
        assert_eq!(p.backoff_wait(100), u64::MAX);
    }

    #[test]
    fn backoff_attempt_zero_equals_attempt_one() {
        // attempt is 1-based; 0 must not underflow the exponent and
        // shrink the first wait below timeout_cycles.
        let p = RetryPolicy {
            max_attempts: 5,
            timeout_cycles: 100,
            backoff: 2,
        };
        assert_eq!(p.backoff_wait(0), p.backoff_wait(1));
        assert_eq!(p.backoff_wait(0), 100);
    }

    #[test]
    fn backoff_one_is_constant_timeout_mode() {
        let p = RetryPolicy {
            max_attempts: 8,
            timeout_cycles: 512,
            backoff: 1,
        };
        for attempt in [0, 1, 2, 7, u32::MAX] {
            assert_eq!(p.backoff_wait(attempt), 512, "attempt {attempt}");
        }
    }

    #[test]
    fn backoff_saturates_at_extremes() {
        // Saturating timeout: even attempt 1 already pins to u64::MAX.
        let p = RetryPolicy {
            max_attempts: 3,
            timeout_cycles: u64::MAX,
            backoff: 2,
        };
        assert_eq!(p.backoff_wait(1), u64::MAX);
        assert_eq!(p.backoff_wait(u32::MAX), u64::MAX);
        // Saturating exponent: backoff^(attempt-1) alone overflows.
        let p = RetryPolicy {
            max_attempts: 3,
            timeout_cycles: 1,
            backoff: u64::MAX,
        };
        assert_eq!(p.backoff_wait(1), 1);
        assert_eq!(p.backoff_wait(2), u64::MAX);
        assert_eq!(p.backoff_wait(3), u64::MAX);
    }

    #[test]
    fn journal_policy_toggles() {
        assert!(!JournalPolicy::Off.enabled());
        assert!(JournalPolicy::eager().enabled());
        assert_eq!(JournalPolicy::Off.record_cycles(), 0);
        assert_eq!(JournalPolicy::Off.replay_cycles_per_line(), 0);
        let e = JournalPolicy::Eager {
            record_cycles: 7,
            replay_cycles_per_line: 31,
        };
        assert_eq!(e.record_cycles(), 7);
        assert_eq!(e.replay_cycles_per_line(), 31);
    }

    #[test]
    fn journal_tracks_lines_and_checkpoints() {
        let gp = GlobalPage::default();
        let mut j = Journal::default();
        assert!(j.page(gp).is_none());
        j.record_line(gp, LineIdx(3), Cycle(10));
        j.record_line(gp, LineIdx(3), Cycle(20)); // supersedes, still a record
        j.record_line(gp, LineIdx(5), Cycle(30));
        let pj = j.page(gp).unwrap();
        assert_eq!(pj.lines.len(), 2);
        assert_eq!(pj.lines[&LineIdx(3)], Cycle(20));
        assert_eq!(pj.records, 3);
        j.checkpoint_page(gp, Cycle(40));
        let pj = j.page(gp).unwrap();
        assert!(pj.lines.is_empty(), "image supersedes line records");
        assert_eq!(pj.image_at, Some(Cycle(40)));
        assert_eq!(j.total_records(), 4);
        j.retire_page(gp);
        assert!(j.page(gp).is_none());
        assert_eq!(j.total_records(), 4, "lifetime count survives retire");
    }

    #[test]
    fn wedge_transit_schedules_like_other_faults() {
        let plan = FaultPlan::new(1)
            .fail_node(NodeId(1), Cycle(500))
            .wedge_transit(NodeId(2), Cycle(50));
        let ats: Vec<u64> = plan.schedule().iter().map(|f| f.at.as_u64()).collect();
        assert_eq!(ats, vec![50, 500]);
        assert!(!plan.is_empty());
        assert!(matches!(
            plan.schedule()[0].kind,
            ScheduledFaultKind::WedgeTransit(NodeId(2))
        ));
    }

    #[test]
    fn slow_factor_defaults_to_one() {
        let plan = FaultPlan::new(1).slow_node(NodeId(2), Cycle(100), Cycle(200), 8);
        assert_eq!(plan.slow_factor(NodeId(2), Cycle(150)), 8);
        assert_eq!(plan.slow_factor(NodeId(2), Cycle(200)), 1); // exclusive end
        assert_eq!(plan.slow_factor(NodeId(1), Cycle(150)), 1);
    }

    #[test]
    fn overlapping_slow_episodes_take_the_max() {
        let plan = FaultPlan::new(1)
            .slow_node(NodeId(0), Cycle(0), Cycle(100), 2)
            .slow_node(NodeId(0), Cycle(50), Cycle(80), 6);
        assert_eq!(plan.slow_factor(NodeId(0), Cycle(60)), 6);
        assert_eq!(plan.slow_factor(NodeId(0), Cycle(90)), 2);
    }

    #[test]
    fn schedule_is_sorted() {
        let plan = FaultPlan::new(1)
            .fail_node(NodeId(1), Cycle(500))
            .corrupt_pit(NodeId(0), Cycle(100));
        let ats: Vec<u64> = plan.schedule().iter().map(|f| f.at.as_u64()).collect();
        assert_eq!(ats, vec![100, 500]);
    }

    #[test]
    fn verdicts_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new(7).link_faults(0.2, 0.1);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        let mut drops = 0;
        let mut corrupts = 0;
        for i in 0..10_000u64 {
            let va = a.link_verdict(Cycle(i));
            assert_eq!(va, b.link_verdict(Cycle(i)));
            match va {
                LinkVerdict::Drop => drops += 1,
                LinkVerdict::Corrupt => corrupts += 1,
                LinkVerdict::Deliver => {}
            }
        }
        assert!((1500..2500).contains(&drops), "{drops} drops");
        assert!((500..1500).contains(&corrupts), "{corrupts} corrupts");
    }

    #[test]
    fn windows_gate_verdicts() {
        let plan = FaultPlan::new(3).link_fault_window(Cycle(100), Cycle(200), 1.0, 0.0);
        let mut s = FaultState::new(plan);
        assert_eq!(s.link_verdict(Cycle(50)), LinkVerdict::Deliver);
        assert_eq!(s.link_verdict(Cycle(150)), LinkVerdict::Drop);
        assert_eq!(s.link_verdict(Cycle(200)), LinkVerdict::Deliver);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new(9).is_empty());
        assert!(FaultPlan::new(9).link_faults(0.0, 0.0).is_empty());
        assert!(!FaultPlan::new(9).link_faults(0.1, 0.0).is_empty());
        assert!(!FaultPlan::new(9).fail_node(NodeId(0), Cycle(1)).is_empty());
    }

    #[test]
    fn validate_accepts_sane_plans() {
        let plan = FaultPlan::new(1)
            .link_faults(0.01, 0.001)
            .slow_node(NodeId(0), Cycle(0), Cycle(100), 2)
            .slow_node(NodeId(0), Cycle(100), Cycle(200), 4) // adjacent, not overlapping
            .slow_node(NodeId(1), Cycle(50), Cycle(150), 3) // other node may overlap
            .fail_node(NodeId(3), Cycle(500));
        assert_eq!(plan.validate(4), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let plan = FaultPlan::new(1).fail_node(NodeId(4), Cycle(500));
        assert_eq!(
            plan.validate(4),
            Err(FaultPlanError::NodeOutOfRange {
                node: NodeId(4),
                nodes: 4
            })
        );
        let plan = FaultPlan::new(1).slow_node(NodeId(9), Cycle(0), Cycle(10), 2);
        assert_eq!(
            plan.validate(4),
            Err(FaultPlanError::NodeOutOfRange {
                node: NodeId(9),
                nodes: 4
            })
        );
    }

    #[test]
    fn validate_rejects_overlapping_slow_episodes() {
        let plan = FaultPlan::new(1)
            .slow_node(NodeId(2), Cycle(0), Cycle(100), 2)
            .slow_node(NodeId(2), Cycle(50), Cycle(80), 6);
        assert_eq!(
            plan.validate(4),
            Err(FaultPlanError::OverlappingSlowEpisodes { node: NodeId(2) })
        );
    }

    #[test]
    fn validate_rejects_ill_formed_probabilities() {
        // Each probability must individually be in [0, 1]...
        for (d, c) in [(-0.1, 0.0), (1.5, 0.0), (0.0, -0.2), (0.0, 1.01)] {
            let plan = FaultPlan::new(1).link_faults(d, c);
            assert_eq!(
                plan.validate(4),
                Err(FaultPlanError::InvalidLinkProbability {
                    drop_prob: d,
                    corrupt_prob: c
                }),
                "drop {d} corrupt {c}"
            );
        }
        // ...their sum must not exceed 1...
        let plan = FaultPlan::new(1).link_faults(0.7, 0.5);
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::InvalidLinkProbability { .. })
        ));
        // ...and NaN (which fails every range comparison) is rejected,
        // not silently treated as "never fires". NaN != NaN, so match
        // the variant instead of comparing the payload.
        for (d, c) in [(f64::NAN, 0.0), (0.0, f64::NAN)] {
            let plan = FaultPlan::new(1).link_fault_window(Cycle(0), Cycle(100), d, c);
            assert!(
                matches!(
                    plan.validate(4),
                    Err(FaultPlanError::InvalidLinkProbability { .. })
                ),
                "NaN probability must be rejected"
            );
        }
        // Boundary values stay legal: exactly 0, exactly 1, sum exactly 1.
        assert_eq!(FaultPlan::new(1).link_faults(1.0, 0.0).validate(4), Ok(()));
        assert_eq!(FaultPlan::new(1).link_faults(0.4, 0.6).validate(4), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_and_overflowing_slow_factors() {
        let plan = FaultPlan::new(1).slow_node(NodeId(1), Cycle(0), Cycle(100), 0);
        assert_eq!(
            plan.validate(4),
            Err(FaultPlanError::InvalidSlowFactor {
                node: NodeId(1),
                factor: 0
            })
        );
        let plan =
            FaultPlan::new(1).slow_node(NodeId(0), Cycle(0), Cycle(100), MAX_SLOW_FACTOR + 1);
        assert_eq!(
            plan.validate(4),
            Err(FaultPlanError::InvalidSlowFactor {
                node: NodeId(0),
                factor: MAX_SLOW_FACTOR + 1
            })
        );
        // The boundary factor itself is legal.
        let plan = FaultPlan::new(1).slow_node(NodeId(0), Cycle(0), Cycle(100), MAX_SLOW_FACTOR);
        assert_eq!(plan.validate(4), Ok(()));
    }

    #[test]
    fn backoff_never_panics_at_large_attempt_counts() {
        // Randomized campaigns draw retry policies freely; no combination
        // of attempt count and policy may overflow-panic — the product
        // saturates instead.
        let policies = [
            RetryPolicy::default(),
            RetryPolicy {
                max_attempts: u32::MAX,
                timeout_cycles: u64::MAX,
                backoff: u64::MAX,
            },
            RetryPolicy {
                max_attempts: 64,
                timeout_cycles: 3,
                backoff: 7,
            },
        ];
        for p in policies {
            let mut prev = 0;
            for attempt in [1, 2, 63, 64, 65, 1000, u32::MAX / 2, u32::MAX] {
                let w = p.backoff_wait(attempt);
                assert!(w >= prev, "waits are monotone in the attempt count");
                prev = w;
            }
        }
    }

    #[test]
    fn validate_rejects_unreachable_injection_clocks() {
        let plan = FaultPlan::new(1).corrupt_pit(NodeId(0), Cycle::NEVER);
        assert_eq!(
            plan.validate(4),
            Err(FaultPlanError::UnreachableInjection { at: Cycle::NEVER })
        );
    }

    #[test]
    fn report_display_mentions_key_counters() {
        let r = FaultReport {
            retries: 3,
            failovers: 1,
            ..FaultReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("3 retries"));
        assert!(s.contains("1 failovers"));
        assert!(!s.contains("recovery:"), "quiet without recovery activity");
        assert!(r.any());
        assert!(!FaultReport::default().any());
        let r = FaultReport {
            journal_records: 64,
            lines_recovered: 64,
            ..FaultReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("64 journal records"));
        assert!(s.contains("64 lines recovered"));
    }
}
