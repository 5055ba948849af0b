//! End-to-end precision tests for footprint-ledger invalidation.
//!
//! Each test drives a real machine through one of the transitions that
//! can change a page's destination set — migration re-mastering, home
//! failover, a watchdog re-master, a page-cache eviction, an LA-NUMA
//! write-back — with [`CursorInval`] recording enabled, then proves two
//! things from the drained event stream:
//!
//! 1. **Emission**: the transition emitted the expected event kind with
//!    the expected `(node, vpage)` payload, in agreement with the run
//!    report's counters (no event is missing, none is spurious).
//! 2. **Precision**: applying exactly those events to a primed
//!    [`FootprintLedger`] kills the affected memo/cursor entries and
//!    *only* those — sentinel entries for unrelated pages and nodes
//!    survive.
//!
//! The scenarios are hand-written traces (one shared 4 KiB page unless
//! noted, 64-byte lines, 4 nodes x 2 processors) so the affected page
//! and node are known exactly rather than statistically.

use prism_kernel::migration::MigrationPolicy;
use prism_kernel::policy::PagePolicy;
use prism_mem::addr::{NodeId, NodeSet, VirtAddr};
use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
use prism_sim::Cycle;

use crate::config::MachineConfig;
use crate::faults::FaultPlan;
use crate::fp_ledger::{FootprintLedger, ScanStep};
use crate::machine::Machine;
use crate::obs::CursorInval;

const NODES: usize = 4;
const LINES: u64 = 64; // 4 KiB page / 64 B lines
const PAGE: u64 = 4096;

fn config() -> MachineConfig {
    MachineConfig::builder().nodes(4).procs_per_node(2).build()
}

fn read_all(lane: &mut Vec<Op>) {
    for l in 0..LINES {
        lane.push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
    }
}

fn write_all(lane: &mut Vec<Op>) {
    for l in 0..LINES {
        lane.push(Op::Write(VirtAddr(SHARED_BASE + l * 64)));
    }
}

fn barrier(lanes: &mut [Vec<Op>], id: u32) {
    for lane in lanes.iter_mut() {
        lane.push(Op::Barrier(id));
    }
}

/// What follows the migration-inducing dominance phases.
enum Tail {
    /// Stop after the dominance phases: migration only.
    None,
    /// A long compute pad (fault injections land inside it), then a
    /// trailing compute longer than the watchdog deadline plus one more
    /// pick, so the recovery sweep fires before the run ends.
    PadOnly,
    /// The pad, then node 3 — a stranger to the page — reads it cold,
    /// forcing the static home to re-master it (failover).
    PadThenColdReader,
}

/// One shared page (static home node 0) whose traffic is dominated by
/// node 2 until the dynamic home migrates there (same phase structure
/// as the chaos-suite failover scenario): node 2 writes, node 1 reads,
/// node 2 re-writes past the dominance bar, node 1 re-reads through the
/// (healed) hint and leaves the image at node 2 clean.
fn dominance_trace(tail: Tail) -> Trace {
    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    write_all(&mut lanes[4]);
    barrier(&mut lanes, 0);
    read_all(&mut lanes[2]);
    barrier(&mut lanes, 1);
    write_all(&mut lanes[4]);
    barrier(&mut lanes, 2);
    read_all(&mut lanes[2]);
    barrier(&mut lanes, 3);
    match tail {
        Tail::None => {}
        Tail::PadOnly | Tail::PadThenColdReader => {
            for lane in lanes.iter_mut() {
                lane.push(Op::Compute(2_000_000));
            }
            barrier(&mut lanes, 4);
            if matches!(tail, Tail::PadThenColdReader) {
                read_all(&mut lanes[6]);
            } else {
                // Scheduled faults drain at the first pick at/after
                // their cycle — here the pad-end barrier — so the wedge
                // lands then, with its recovery deadline 16384 cycles
                // later. An op that *starts* past the deadline forces
                // one more pick, whose control drain runs the sweep.
                lanes[0].push(Op::Compute(40_000));
                lanes[0].push(Op::Read(VirtAddr(SHARED_BASE)));
            }
        }
    }
    Trace {
        name: "dominance".into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: PAGE,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

/// The machine-wide virtual page number of shared page `i` (the key
/// space the ledger memoizes under).
fn vp(m: &Machine, i: u64) -> u64 {
    m.cfg.geometry.vpage(VirtAddr(SHARED_BASE + i * PAGE))
}

fn home_moved(events: &[CursorInval]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match *e {
            CursorInval::HomeMoved { vpage } => Some(vpage),
            _ => None,
        })
        .collect()
}

fn node_pages(events: &[CursorInval]) -> Vec<(usize, u64)> {
    events
        .iter()
        .filter_map(|e| match *e {
            CursorInval::NodePage { node, vpage } => Some((node, vpage)),
            _ => None,
        })
        .collect()
}

fn single(n: usize) -> NodeSet {
    NodeSet::single(NodeId(n as u16))
}

/// Scans a one-reference lane for processor `flat` on `node` touching
/// `vpage` at watermark `(pc 0, clock 0)`: creates (or generation-
/// checks) the `(node, vpage)` memo entry and leaves a cursor pinned
/// on it. Re-invoking at the same watermark is how the tests probe
/// cursor survival — a live cursor serves as a hit (or a slide after a
/// closure-generation bump), a killed one rescans as a miss.
fn prime_cursor(l: &mut FootprintLedger, flat: usize, node: usize, vpage: u64) {
    l.scan(
        flat,
        node,
        0,
        0,
        1,
        8,
        8,
        || (single(node), Vec::new()),
        |pc| {
            if pc == 0 {
                ScanStep::Ref {
                    key: (node, vpage),
                    va: VirtAddr(vpage * PAGE),
                    same_run: false,
                }
            } else {
                ScanStep::End
            }
        },
        |_| single(node),
    );
}

/// Applies the stream's `HomeMoved` events to a ledger primed, on every
/// node, with a memo entry for the moved page and a sentinel page, and
/// with a cached closure whose member list contains the moved page on
/// even nodes and only the sentinel on odd nodes. Asserts the
/// invalidation is sharded exactly: every node's memo of the moved
/// page dies, sentinels survive, and only member closures drop —
/// non-member nodes keep closure, generation, and cursors.
fn assert_home_moved_precision(events: &[CursorInval], vpage: u64) {
    let moved: Vec<CursorInval> = events
        .iter()
        .copied()
        .filter(|e| matches!(e, CursorInval::HomeMoved { .. }))
        .collect();
    assert!(!moved.is_empty(), "the scenario must emit HomeMoved");
    let sentinel = vpage + 1;
    let mut l = FootprintLedger::default();
    l.reset(2 * NODES, NODES);
    for n in 0..NODES {
        prime_cursor(&mut l, n, n, vpage);
        prime_cursor(&mut l, NODES + n, n, sentinel);
        let members = if n % 2 == 0 {
            vec![vpage]
        } else {
            vec![sentinel]
        };
        l.prime_closure(n, single(n), members);
    }
    l.apply(moved);
    for n in 0..NODES {
        assert!(
            !l.has_memo(n, vpage),
            "node {n}'s memo for the re-mastered page must die"
        );
        assert!(
            l.has_memo(n, sentinel),
            "node {n}'s memo for an unrelated page must survive"
        );
        if n % 2 == 0 {
            assert!(
                !l.has_closure(n),
                "node {n}'s closure embeds the old home and must drop"
            );
        } else {
            assert!(
                l.has_closure(n),
                "node {n}'s closure provably never reached the page and must survive"
            );
        }
    }
    // Sentinel cursors prove the sharding end to end: on a non-member
    // node the exact watermark still serves whole; on a member node the
    // closure generation moved, so the same watermark serves as a
    // closure-refreshing slide — never a full rescan.
    let (h0, s0, m0) = (l.hits, l.slides, l.misses);
    prime_cursor(&mut l, NODES + 1, 1, sentinel);
    assert_eq!(
        (l.hits, l.misses),
        (h0 + 1, m0),
        "a non-member node's unrelated cursor must still hit"
    );
    prime_cursor(&mut l, NODES, 0, sentinel);
    assert_eq!(
        (l.slides, l.misses),
        (s0 + 1, m0),
        "a member node's unrelated cursor refreshes via slide, not rescan"
    );
}

/// Applies the stream's `NodePage` events to a ledger primed with the
/// affected entry, a same-node sentinel page, and a same-page sentinel
/// node (each pinned by a cursor), asserting the invalidation is exact
/// in both coordinates.
fn assert_node_page_precision(events: &[CursorInval], node: usize, vpage: u64) {
    let exact: Vec<CursorInval> = events
        .iter()
        .copied()
        .filter(|e| matches!(e, CursorInval::NodePage { .. }))
        .collect();
    assert!(!exact.is_empty(), "the scenario must emit NodePage");
    let sentinel = vpage + 1;
    let other = (node + 1) % NODES;
    let mut l = FootprintLedger::default();
    l.reset(NODES, NODES);
    prime_cursor(&mut l, 0, node, vpage);
    prime_cursor(&mut l, 2, node, sentinel);
    prime_cursor(&mut l, 1, other, vpage);
    l.apply(exact);
    assert!(!l.has_memo(node, vpage), "the affected entry must die");
    assert!(
        l.has_memo(node, sentinel),
        "the same node's other pages must survive"
    );
    assert!(
        l.has_memo(other, vpage),
        "other nodes' view of the page must survive"
    );
    let (h0, m0) = (l.hits, l.misses);
    prime_cursor(&mut l, 0, node, vpage);
    assert_eq!(
        l.misses,
        m0 + 1,
        "the cursor that consumed the affected entry must rescan"
    );
    prime_cursor(&mut l, 1, other, vpage);
    assert_eq!(l.hits, h0 + 1, "the other node's cursor must survive");
}

/// Migration re-mastering: every migration emits exactly one
/// `HomeMoved` naming the moved page, and applying those events
/// invalidates every node's memo of that page — and nothing else.
#[test]
fn migration_remaster_invalidates_exactly_the_moved_page() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    let trace = dominance_trace(Tail::None);
    let mut m = Machine::new(cfg);
    m.obs.set_inval_enabled(true);
    let r = m.run(&trace);
    assert!(r.migrations >= 1, "the scenario must move the dynamic home");
    let events = m.obs.drain_inval();
    let moved = home_moved(&events);
    assert_eq!(
        moved.len() as u64,
        r.migrations,
        "one HomeMoved per migration, no more, no fewer"
    );
    let page = vp(&m, 0);
    assert!(
        moved.iter().all(|&v| v == page),
        "every HomeMoved names the migrated page ({moved:?})"
    );
    assert_home_moved_precision(&events, page);
}

/// Home failover: when the dynamic home dies and the static home
/// re-masters the page, the recovery emits `HomeMoved` for that page —
/// accounted one-to-one with the report's migration + failover tally.
#[test]
fn home_failover_invalidates_every_nodes_view_of_the_page() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    let trace = dominance_trace(Tail::PadThenColdReader);
    let clean = Machine::new(cfg.clone()).run(&trace);
    assert!(clean.migrations >= 1, "the dynamic home must migrate");
    let half = Cycle(clean.exec_cycles.as_u64() / 2);

    let mut m = Machine::new(cfg);
    m.install_fault_plan(FaultPlan::new(2).fail_node(NodeId(2), half))
        .expect("fault plan validates");
    m.obs.set_inval_enabled(true);
    let r = m.run(&trace);
    assert_eq!(r.fault.node_failures, 1, "the scheduled death must land");
    assert!(
        r.fault.failovers >= 1,
        "the static home must re-master the orphaned page"
    );
    let events = m.obs.drain_inval();
    let moved = home_moved(&events);
    assert_eq!(
        moved.len() as u64,
        r.migrations + r.fault.failovers,
        "every migration and every failover emits exactly one HomeMoved"
    );
    let page = vp(&m, 0);
    assert!(
        moved.iter().all(|&v| v == page),
        "every HomeMoved names the failed-over page ({moved:?})"
    );
    assert_home_moved_precision(&events, page);
}

/// Watchdog re-master: a line wedged in Transit whose (migrated) home
/// dies before the deadline is recovered by escalation step 2 — the
/// re-route through the static home — which must emit the same
/// `HomeMoved` invalidation the access-triggered failover does.
#[test]
fn watchdog_remaster_invalidates_every_nodes_view_of_the_page() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    let trace = dominance_trace(Tail::PadOnly);
    let clean = Machine::new(cfg.clone()).run(&trace);
    assert!(clean.migrations >= 1, "the dynamic home must migrate");
    let half = Cycle(clean.exec_cycles.as_u64() / 2);

    // Wedge one of node 1's client lines mid-pad, then kill the page's
    // dynamic home (node 2) well inside the watchdog deadline: the
    // sweep finds the home dead and must re-master, not resend.
    let mut m = Machine::new(cfg);
    m.install_fault_plan(
        FaultPlan::new(9)
            .wedge_transit(NodeId(1), half)
            .fail_node(NodeId(2), half + Cycle(2_000)),
    )
    .expect("fault plan validates");
    m.obs.set_inval_enabled(true);
    let r = m.run(&trace);
    assert_eq!(r.fault.transit_wedges, 1, "the wedge must land");
    assert_eq!(r.fault.node_failures, 1, "the death must land");
    assert!(
        r.fault.watchdog_remasters >= 1,
        "the watchdog must recover via re-master (step 2): {:?}",
        r.fault
    );
    let events = m.obs.drain_inval();
    let moved = home_moved(&events);
    assert_eq!(
        moved.len() as u64,
        r.migrations + r.fault.failovers,
        "the watchdog re-master is a failover and emits one HomeMoved"
    );
    let page = vp(&m, 0);
    assert!(
        moved.iter().all(|&v| v == page),
        "every HomeMoved names the re-mastered page ({moved:?})"
    );
    assert_home_moved_precision(&events, page);
}

/// Page-cache eviction: filling a second remote page through a
/// one-entry page cache evicts the first, emitting `NodePage` for
/// exactly the (evicting node, victim page) pair plus a `NodeClosure`
/// for the node whose cached-page set changed.
#[test]
fn page_cache_eviction_invalidates_only_the_victims_entry() {
    let mut cfg = config();
    cfg.page_cache_capacity = Some(1);
    // Four shared pages homed round-robin: pages 0 and 2 are both
    // remote to node 1 (homes 0 and 2). Node 1 fills page 0, then page
    // 2 — the second fill must evict the first.
    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    lanes[2].push(Op::Read(VirtAddr(SHARED_BASE)));
    lanes[2].push(Op::Read(VirtAddr(SHARED_BASE + 2 * PAGE)));
    let trace = Trace {
        name: "evict".into(),
        segments: vec![SegmentSpec {
            name: "pages".into(),
            va_base: SHARED_BASE,
            bytes: 4 * PAGE,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut m = Machine::new(cfg);
    m.obs.set_inval_enabled(true);
    let r = m.run(&trace);
    assert!(r.page_outs >= 1, "the capacity-1 cache must evict");
    let events = m.obs.drain_inval();
    let victim = (1, vp(&m, 0));
    let np = node_pages(&events);
    assert!(
        np.contains(&victim),
        "the eviction must invalidate the victim's entry ({np:?})"
    );
    assert!(
        np.iter().all(|&k| k == victim),
        "no other (node, page) entry may be invalidated ({np:?})"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            CursorInval::NodeClosure {
                node: 1,
                grew: false
            }
        )),
        "the evicting node's closure shrank and must be dropped without a generation bump"
    );
    assert_node_page_precision(&events, victim.0, victim.1);
}

/// LA-NUMA write-back: a posted write-back transitions the home's
/// directory state under the writer, so it must invalidate exactly the
/// writer's memo of the written page.
#[test]
fn lanuma_writeback_invalidates_only_the_writers_entry() {
    // LA-NUMA posts a write-back when a *dirty* line leaves the
    // processor caches, so the caches must be smaller than the page.
    let mut cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(2048)
        .build();
    cfg.policy = PagePolicy::Lanuma;
    // Node 1 writes a page homed on node 0: the page maps in LA-NUMA
    // mode, and capacity evictions post the dirty lines home.
    let mut lanes: Vec<Vec<Op>> = (0..8).map(|_| Vec::new()).collect();
    write_all(&mut lanes[2]);
    let trace = Trace {
        name: "writeback".into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: PAGE,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };
    let mut m = Machine::new(cfg);
    m.obs.set_inval_enabled(true);
    let r = m.run(&trace);
    assert!(
        r.remote_writebacks >= 1,
        "LA-NUMA writes must post write-backs"
    );
    let events = m.obs.drain_inval();
    let writer = (1, vp(&m, 0));
    let np = node_pages(&events);
    assert!(
        np.contains(&writer),
        "the write-back must invalidate the writer's entry ({np:?})"
    );
    assert!(
        np.iter().all(|&k| k == writer),
        "no other (node, page) entry may be invalidated ({np:?})"
    );
    assert_node_page_precision(&events, writer.0, writer.1);
}

/// Event-vs-counter reconciliation for the sharded-invalidation and
/// slide counters: applying a real drained event stream to a primed
/// ledger must account every kill in `invalidations` — event-time
/// kills (fresh memos staled, cached member closures dropped) plus the
/// lazy cursor deaths discovered at the next scan — exactly matching
/// an independent replay of the event semantics, with repeat events on
/// already-stale entries counted zero times. Scan outcomes must also
/// conserve: every request is a hit, a slide, or a miss.
#[test]
fn invalidation_counters_reconcile_with_event_stream() {
    let mut cfg = config();
    cfg.migration = Some(MigrationPolicy::default());
    let trace = dominance_trace(Tail::None);
    let mut m = Machine::new(cfg);
    m.obs.set_inval_enabled(true);
    let r = m.run(&trace);
    assert!(r.migrations >= 1, "the scenario must emit invalidations");
    let events = m.obs.drain_inval();
    let page = vp(&m, 0);

    // Prime: one cursor per node pinned on the page's memo entry, and
    // a cached closure whose member list holds the page.
    let mut l = FootprintLedger::default();
    l.reset(NODES, NODES);
    for n in 0..NODES {
        prime_cursor(&mut l, n, n, page);
        l.prime_closure(n, single(n), vec![page]);
    }
    assert_eq!(l.misses, NODES as u64, "priming cold-scans each cursor");

    // Independent replay of the invalidation semantics over the primed
    // state: fresh memo entries stale (and count) at most once, member
    // closures drop (and count) at most once, non-member closures and
    // already-stale entries never count.
    let mut fresh: prism_sim::FastSet<(usize, u64)> = (0..NODES).map(|n| (n, page)).collect();
    let mut closures: prism_sim::FastSet<usize> = (0..NODES).collect();
    let mut staled: prism_sim::FastSet<(usize, u64)> = prism_sim::FastSet::default();
    let mut expected: u64 = 0;
    for e in &events {
        match *e {
            CursorInval::HomeMoved { vpage } => {
                for n in 0..NODES {
                    if fresh.remove(&(n, vpage)) {
                        staled.insert((n, vpage));
                        expected += 1;
                    }
                }
                if vpage == page {
                    for n in 0..NODES {
                        if closures.remove(&n) {
                            expected += 1;
                        }
                    }
                }
            }
            CursorInval::PageDest { vpage } => {
                for n in 0..NODES {
                    if fresh.remove(&(n, vpage)) {
                        staled.insert((n, vpage));
                        expected += 1;
                    }
                }
            }
            CursorInval::NodePage { node, vpage } => {
                if fresh.remove(&(node, vpage)) {
                    staled.insert((node, vpage));
                    expected += 1;
                }
            }
            CursorInval::NodeClosure { node, .. } => {
                if closures.remove(&node) {
                    expected += 1;
                }
            }
        }
    }
    assert!(expected > 0, "the stream must kill something primed");
    l.apply(events);
    assert_eq!(
        l.invalidations, expected,
        "event-time invalidations must match the independent replay"
    );

    // Lazy tail: each cursor whose dep was staled dies exactly once,
    // at its next scan; survivors serve (hit, or slide after a closure
    // generation bump) without touching the counter.
    let dead = (0..NODES).filter(|&n| staled.contains(&(n, page))).count() as u64;
    for n in 0..NODES {
        prime_cursor(&mut l, n, n, page);
    }
    assert_eq!(
        l.invalidations,
        expected + dead,
        "each staled-dep cursor must be counted dead exactly once"
    );
    assert_eq!(
        l.hits + l.slides + l.misses,
        2 * NODES as u64,
        "every scan request is exactly one of hit, slide, or miss"
    );
}
