//! Randomized tests over the pure directory-protocol transitions: a
//! model of one line's global state is driven through seeded random
//! request/writeback sequences and the protocol invariants are checked
//! after every step.

use prism_mem::addr::{NodeId, NodeSet};
use prism_mem::directory::LineDir;
use prism_mem::tags::LineTag;
use prism_protocol::dirproto::{
    demote, release, tag_action, transition, DataSource, ReqKind, TagAction,
};
use prism_sim::SimRng;

const HOME: NodeId = NodeId(0);
const CASES: u64 = 64;

/// One event in a line's life, from the home's perspective.
#[derive(Clone, Copy, Debug)]
enum Event {
    Read(u16),
    Write(u16),
    /// The owner writes its dirty line back (eviction).
    Writeback(u16),
    /// A holder's copy leaves (a page-out).
    Drop(u16),
    /// The owner writes its dirty line back but keeps a shared copy
    /// (LA-NUMA demotion).
    Demote(u16),
}

fn event(rng: &mut SimRng) -> Event {
    let node = rng.gen_range(1..5) as u16;
    match rng.gen_range(0..5) {
        0 => Event::Read(node),
        1 => Event::Write(node),
        2 => Event::Writeback(node),
        3 => Event::Demote(node),
        _ => Event::Drop(node),
    }
}

/// The invariants of DESIGN.md / prism-protocol:
/// * `Owned(o)` ⇒ home tag is Invalid.
/// * `Shared`/`Uncached` ⇒ home tag valid (S or E).
/// * the home never appears in its own sharer set.
fn check_invariants(dir: LineDir, tag: LineTag) {
    match dir {
        LineDir::Owned(o) => {
            assert_ne!(o, HOME, "home cannot own via the remote protocol");
            assert_eq!(tag, LineTag::Invalid, "{dir:?} with tag {tag:?}");
        }
        LineDir::Shared(s) => {
            assert!(!s.contains(HOME), "home in sharer set");
            assert!(!s.is_empty(), "Shared with no sharers");
            assert!(
                tag == LineTag::Shared || tag == LineTag::Exclusive,
                "{dir:?} with tag {tag:?}"
            );
        }
        LineDir::Uncached => {
            assert!(
                tag == LineTag::Shared || tag == LineTag::Exclusive,
                "{dir:?} with tag {tag:?}"
            );
        }
    }
}

/// Random event sequences keep directory and home-tag state mutually
/// consistent, and every request leaves the requester a holder.
#[test]
fn random_histories_preserve_invariants() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let mut dir = LineDir::Uncached;
        let mut tag = LineTag::Exclusive;
        let steps = rng.gen_range(1..200);
        for _ in 0..steps {
            let ev = event(&mut rng);
            match ev {
                Event::Read(node) | Event::Write(node) => {
                    let requester = NodeId(node);
                    let kind = if matches!(ev, Event::Read(_)) {
                        ReqKind::Read
                    } else {
                        ReqKind::Write
                    };
                    // Skip impossible combinations (a holder re-requesting
                    // what it has is satisfied locally in the machine).
                    if matches!(dir, LineDir::Owned(o) if o == requester) {
                        continue;
                    }
                    let has_data = matches!(dir, LineDir::Shared(s) if s.contains(requester))
                        && kind == ReqKind::Write;
                    let out = transition(dir, tag, false, requester, kind, has_data);
                    // The requester ends up a holder.
                    assert!(out.new_state.held_by(requester));
                    // Upgrades carry no data; fetches carry data.
                    if has_data {
                        assert_eq!(out.source, DataSource::None);
                    }
                    // Invalidation targets never include the requester.
                    assert!(!out.invalidate.contains(requester));
                    dir = out.new_state;
                    if let Some(t) = out.home_tag_to {
                        tag = t;
                    }
                    check_invariants(dir, tag);
                }
                Event::Writeback(node) => {
                    let from = NodeId(node);
                    if matches!(dir, LineDir::Owned(o) if o == from) {
                        dir = release(dir, from);
                        // Home memory refreshed by the writeback.
                        tag = LineTag::Shared;
                        check_invariants(dir, tag);
                    }
                }
                Event::Demote(node) => {
                    let from = NodeId(node);
                    if matches!(dir, LineDir::Owned(o) if o == from) {
                        dir = demote(dir, from);
                        assert_eq!(dir, LineDir::Shared(NodeSet::single(from)));
                        // Home memory refreshed by the writeback.
                        tag = LineTag::Shared;
                        check_invariants(dir, tag);
                    }
                }
                Event::Drop(node) => {
                    let from = NodeId(node);
                    let before_holders = match dir {
                        LineDir::Shared(s) => s,
                        LineDir::Owned(o) => NodeSet::single(o),
                        LineDir::Uncached => NodeSet::EMPTY,
                    };
                    // Only holders release; an owner's page-out flushes its
                    // copy, so home memory is valid.
                    if before_holders.contains(from) {
                        let was_owner = matches!(dir, LineDir::Owned(o) if o == from);
                        dir = release(dir, from);
                        if was_owner {
                            tag = LineTag::Shared;
                        }
                        check_invariants(dir, tag);
                    }
                }
            }
        }
    }
}

/// A write always ends exclusively owned by the requester with every
/// other holder listed for invalidation.
#[test]
fn writes_invalidate_every_other_holder() {
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let count = rng.gen_range(0..6);
        let set: NodeSet = (0..count)
            .map(|_| NodeId(rng.gen_range(1..8) as u16))
            .collect();
        let requester = NodeId(rng.gen_range(1..8) as u16);
        let dir = if set.is_empty() {
            LineDir::Uncached
        } else {
            LineDir::Shared(set)
        };
        let tag = LineTag::Shared;
        let out = transition(
            dir,
            tag,
            false,
            requester,
            ReqKind::Write,
            set.contains(requester),
        );
        assert_eq!(out.new_state, LineDir::Owned(requester));
        // Everyone except the requester is invalidated.
        let expected = set.without(requester);
        assert_eq!(out.invalidate, expected);
        assert_eq!(out.home_tag_to, Some(LineTag::Invalid));
    }
}

/// tag_action is total and consistent: E always proceeds, I always
/// fetches, S depends on the access kind.
#[test]
fn tag_actions_are_consistent() {
    for write in [false, true] {
        assert_eq!(tag_action(LineTag::Exclusive, write), TagAction::Proceed);
        let i = tag_action(LineTag::Invalid, write);
        if write {
            assert_eq!(i, TagAction::FetchExclusive);
        } else {
            assert_eq!(i, TagAction::FetchShared);
        }
        let s = tag_action(LineTag::Shared, write);
        if write {
            assert_eq!(s, TagAction::Upgrade);
        } else {
            assert_eq!(s, TagAction::Proceed);
        }
    }
}
