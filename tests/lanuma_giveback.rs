//! An LA-NUMA node gives a modified line back to the page's home when
//! the line leaves the node (an eviction write-back) and when a sibling
//! read demotes it (paper §3.2–§3.3). When the page's dynamic home has
//! died, the give-back fails the page over to its static home, or drops
//! the line when the static home is gone too. The shadow checker runs
//! throughout.

use prism::kernel::migration::MigrationPolicy;
use prism::kernel::policy::PagePolicy;
use prism::machine::machine::Machine;
use prism::machine::FaultPlan;
use prism::mem::addr::{NodeId, VirtAddr};
use prism::mem::trace::{private_va, Op, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

/// The line node 1 ends up holding Modified.
const LINE: u64 = 5;

fn config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .policy(PagePolicy::Lanuma)
        .migration(Some(MigrationPolicy::default()))
        .check_coherence(true)
        .build()
}

fn line_va(l: u64) -> VirtAddr {
    VirtAddr(SHARED_BASE + l * 64)
}

/// A trace over one shared page (static home node 0) for 4 nodes × 2
/// processors; lane `2k + p` is processor `p` of node `k`.
fn one_page(name: &str, lanes: Vec<Vec<Op>>) -> Trace {
    Trace {
        name: name.into(),
        segments: vec![SegmentSpec {
            name: "page".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

/// Node 2 writes every line, node 1 reads every line, and node 2 writes
/// every line again: at the page's 192nd request the dynamic home moves
/// to node 2. Node 1 then reads every line again, which leaves no
/// Modified copy in node 2's caches, and writes `LINE`, which its
/// processor 0 alone holds Modified.
fn migrate_then_dirty() -> Trace {
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    let phases = [(4, true), (2, false), (4, true), (2, false)];
    for (id, (lane, write)) in phases.into_iter().enumerate() {
        for l in 0..64 {
            let va = line_va(l);
            lanes[lane].push(if write { Op::Write(va) } else { Op::Read(va) });
        }
        for lane in &mut lanes {
            lane.push(Op::Barrier(id as u32));
        }
    }
    lanes[2].push(Op::Write(line_va(LINE)));
    one_page("migrate-then-dirty", lanes)
}

/// What makes node 1 give `LINE` back.
#[derive(Clone, Copy, Debug)]
enum GiveBack {
    /// Processor 0 reads 16 private pages, which evicts the line from
    /// its L2: a write-back.
    Evict,
    /// Processor 1 reads the line from its sibling: a demotion.
    SiblingRead,
}

fn give_back(kind: GiveBack) -> Trace {
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    match kind {
        GiveBack::Evict => {
            for off in (0..16 * 4096).step_by(64) {
                lanes[2].push(Op::Read(private_va(2, off)));
            }
        }
        GiveBack::SiblingRead => lanes[3].push(Op::Read(line_va(LINE))),
    }
    one_page("give-back", lanes)
}

/// A machine whose node 1 holds `LINE` Modified while the page's
/// dynamic home is node 2, with the nodes in `dead` failed, and its
/// remote write-backs so far. The empty fault plan turns failover
/// accounting on.
fn dirty_line_with_failed(dead: &[u16]) -> (Machine, u64) {
    let mut m = Machine::new(config());
    m.install_fault_plan(FaultPlan::new(0))
        .expect("an empty plan validates");
    let setup = m.run(&migrate_then_dirty());
    assert_eq!(setup.migrations, 1, "the dynamic home moved to node 2");
    assert_eq!(setup.dead_procs, 0);
    for &n in dead {
        m.fail_node(NodeId(n));
    }
    (m, setup.remote_writebacks)
}

#[test]
fn a_give_back_to_a_dead_migrated_home_fails_the_page_over() {
    for kind in [GiveBack::Evict, GiveBack::SiblingRead] {
        let (mut m, writebacks) = dirty_line_with_failed(&[2]);
        let run = m.run(&give_back(kind));
        assert_eq!(run.remote_writebacks, writebacks + 1, "{kind:?}");
        let fault = m.fault_report();
        assert_eq!(
            fault.failovers, 1,
            "{kind:?}: the give-back re-mastered the page"
        );
        assert_eq!(fault.failover_refusals, 0, "{kind:?}");
        assert_eq!(run.dead_procs, 2, "{kind:?}: only node 2's processors died");

        // Node 3 reads the line from the static home; the checker
        // panics if it misses node 1's write.
        let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
        lanes[6].push(Op::Read(line_va(LINE)));
        let read = m.run(&one_page("read-back", lanes));
        assert_eq!(read.dead_procs, 2, "{kind:?}: the reader survives");
        assert!(read.reads_checked > run.reads_checked, "{kind:?}");
        assert_eq!(
            m.fault_report().failovers,
            1,
            "{kind:?}: no second failover"
        );
    }
}

#[test]
fn a_give_back_is_dropped_when_the_static_home_is_dead_too() {
    for kind in [GiveBack::Evict, GiveBack::SiblingRead] {
        let (mut m, writebacks) = dirty_line_with_failed(&[2, 0]);
        let run = m.run(&give_back(kind));
        let fault = m.fault_report();
        assert_eq!(fault.failover_refusals, 1, "{kind:?}: failover was refused");
        assert_eq!(fault.failovers, 0, "{kind:?}");
        assert_eq!(
            run.remote_writebacks, writebacks,
            "{kind:?}: the line was dropped, no home took it"
        );
        assert_eq!(run.dead_procs, 4, "{kind:?}: the give-back killed nobody");
    }
}
