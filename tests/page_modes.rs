//! User-controlled page modes (paper §3.3's suggestion system call and
//! the §6 thesis that a mix of S-COMA and LA-NUMA pages beats both pure
//! configurations).

use prism::kernel::policy::PagePolicy;
use prism::machine::machine::Machine;
use prism::mem::addr::{GlobalPage, Gsid, NodeId, VirtAddr};
use prism::mem::mode::FrameMode;
use prism::mem::trace::{Op, OpLane, SegmentSpec, Trace, SHARED_BASE};
use prism::prelude::*;

fn config(policy: PagePolicy, cap: Option<usize>) -> MachineConfig {
    let mut c = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .page_cache_capacity(cap)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build();
    c.policy = policy;
    c
}

fn one_page_trace(reader_lane: usize) -> Trace {
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); 8];
    for l in 0..8u64 {
        lanes[reader_lane].push(Op::Read(VirtAddr(SHARED_BASE + l * 64)));
    }
    Trace {
        name: "one-page".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4096,
        }],
        lanes: lanes.into_iter().map(Into::into).collect(),
    }
}

/// Suggesting LA-NUMA under an S-COMA policy makes the client fault
/// allocate an imaginary frame (no page-cache entry, no real frame).
#[test]
fn lanuma_suggestion_overrides_scoma_policy() {
    let gp = GlobalPage::new(Gsid(0), 0);
    // Page 0 homes on node 0; the reader (lane 2) is on node 1.
    let trace = one_page_trace(2);

    let mut plain = Machine::new(config(PagePolicy::Scoma, None));
    let r_plain = plain.run(&trace);
    let client_frames: u64 = r_plain.per_node.iter().map(|n| n.pool.scoma_client).sum();
    assert_eq!(client_frames, 1, "S-COMA policy allocates a client frame");

    let mut suggested = Machine::new(config(PagePolicy::Scoma, None));
    // Attach segments first so the suggestion can resolve the page.
    let attach = Trace {
        name: "attach".into(),
        segments: trace.segments.clone(),
        lanes: vec![OpLane::new(); 8],
    };
    suggested.run(&attach);
    suggested.suggest_page_mode(NodeId(1), gp, FrameMode::LaNuma);
    let r = suggested.run(&trace);
    let client_frames: u64 = r.per_node.iter().map(|n| n.pool.scoma_client).sum();
    let lanuma_frames: u64 = r.per_node.iter().map(|n| n.pool.la_numa).sum();
    assert_eq!(client_frames, 0, "suggestion avoided the page cache");
    assert_eq!(lanuma_frames, 1, "an imaginary frame was used instead");
}

/// Suggesting S-COMA under an LA-NUMA policy forces a page-cache frame.
#[test]
fn scoma_suggestion_overrides_lanuma_policy() {
    let gp = GlobalPage::new(Gsid(0), 0);
    let trace = one_page_trace(2);
    let mut m = Machine::new(config(PagePolicy::Lanuma, None));
    let attach = Trace {
        name: "attach".into(),
        segments: trace.segments.clone(),
        lanes: vec![OpLane::new(); 8],
    };
    m.run(&attach);
    m.suggest_page_mode(NodeId(1), gp, FrameMode::Scoma);
    let r = m.run(&trace);
    let client_frames: u64 = r.per_node.iter().map(|n| n.pool.scoma_client).sum();
    assert_eq!(client_frames, 1, "suggestion forced an S-COMA frame");
}

/// The §6 thesis: with a reused region plus a streamed region and a
/// bounded page cache, user-selected modes beat both pure
/// configurations.
#[test]
fn user_mix_beats_both_static_configurations() {
    const REUSED_PAGES: u64 = 8;
    const STREAM_PAGES: u64 = 96;
    const STREAM_BASE: u64 = SHARED_BASE + REUSED_PAGES * 4096;
    let mut lanes = Vec::new();
    for p in 0..8usize {
        let mut lane = Vec::new();
        for pass in 0..4u64 {
            for line in 0..REUSED_PAGES * 64 {
                if line % 8 == p as u64 {
                    lane.push(Op::Read(VirtAddr(SHARED_BASE + line * 64)));
                }
            }
            let slice = STREAM_PAGES * 64 / 4;
            for line in pass * slice..(pass + 1) * slice {
                if line % 8 == p as u64 {
                    lane.push(Op::Read(VirtAddr(STREAM_BASE + line * 64)));
                }
            }
            lane.push(Op::Barrier(pass as u32));
        }
        lanes.push(lane);
    }
    let trace = Trace {
        name: "mix".into(),
        segments: vec![
            SegmentSpec {
                name: "reused".into(),
                va_base: SHARED_BASE,
                bytes: REUSED_PAGES * 4096,
            },
            SegmentSpec {
                name: "stream".into(),
                va_base: STREAM_BASE,
                bytes: STREAM_PAGES * 4096,
            },
        ],
        lanes: lanes.into_iter().map(Into::into).collect(),
    };

    let cap = Some(10);
    let scoma = Machine::new(config(PagePolicy::Scoma, cap)).run(&trace);
    let lanuma = Machine::new(config(PagePolicy::Lanuma, cap)).run(&trace);

    let mut mixed = Machine::new(config(PagePolicy::Scoma, cap));
    let attach = Trace {
        name: "attach".into(),
        segments: trace.segments.clone(),
        lanes: vec![OpLane::new(); 8],
    };
    mixed.run(&attach);
    mixed.suggest_region_mode(STREAM_BASE, STREAM_PAGES * 4096, FrameMode::LaNuma);
    let mixed = mixed.run(&trace);

    assert!(
        mixed.exec_cycles < scoma.exec_cycles,
        "mix {} vs all-S-COMA {}",
        mixed.exec_cycles,
        scoma.exec_cycles
    );
    assert!(
        mixed.exec_cycles < lanuma.exec_cycles,
        "mix {} vs all-LA-NUMA {}",
        mixed.exec_cycles,
        lanuma.exec_cycles
    );
    assert_eq!(
        mixed.page_outs, 0,
        "the stream no longer displaces the reused region"
    );
    assert!(mixed.reads_checked > 0);
}

/// Suggestions only apply to shared pages.
#[test]
#[should_panic(expected = "S-COMA or LA-NUMA")]
fn private_mode_suggestions_rejected() {
    let mut m = Machine::new(config(PagePolicy::Scoma, None));
    m.suggest_page_mode(NodeId(0), GlobalPage::new(Gsid(0), 0), FrameMode::Local);
}
