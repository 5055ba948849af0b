//! Pure inter-node directory-protocol transitions.
//!
//! The coherence controller at a page's (dynamic) home node serializes all
//! protocol actions for the page's lines. Given the current directory
//! state, the home's own fine-grain tag, and the request, [`transition`]
//! (a client's request) or [`home_transition`] (the home's own access)
//! computes *what must happen*: where the data comes from, who must be
//! invalidated, the new directory state, and how the home's own copy
//! changes. A line going back home is [`release`] (the node's hold ends)
//! or [`demote`] (an LA-NUMA node keeps a shared copy). The machine
//! executes the plan with timing and assigns no directory state of its
//! own; keeping the logic pure makes the protocol exhaustively testable.
//!
//! ## Invariants
//!
//! * `Owned(o)` ⇒ node `o` really holds the line: S-COMA page caches
//!   hold their lines until page-out, and an LA-NUMA node is `Owned`
//!   only while one of its processors holds the line Modified, whose
//!   eviction writes it back. No clean-exclusive copy exists to drop
//!   silently, so there is no replacement hint.
//! * `Owned(_)` ⇒ the home's fine-grain tag for the line is `I`.
//! * `Shared(_)`/`Uncached` ⇒ the home's memory copy is valid.

use prism_mem::addr::{NodeId, NodeSet};
use prism_mem::directory::LineDir;
use prism_mem::tags::LineTag;

/// The kind of access a client node requests from the home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// Fetch a shared copy.
    Read,
    /// Fetch (or upgrade to) an exclusive copy.
    Write,
}

/// Where the requested data comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataSource {
    /// The home node's memory holds a valid copy.
    HomeMemory,
    /// A processor cache *at the home node* holds the line modified; the
    /// home controller must intervene on its local bus.
    HomeIntervention,
    /// A third node owns the line; the home forwards the request.
    Owner(NodeId),
    /// No data transfer needed — the requester holds a valid shared copy
    /// and only needs ownership (upgrade).
    None,
}

/// The plan the home controller must execute for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirOutcome {
    /// Where the line's data comes from.
    pub source: DataSource,
    /// Remote sharers (excluding the requester) to invalidate.
    pub invalidate: NodeSet,
    /// Whether the home node's own copy must be invalidated (write to a
    /// line the home holds in a valid state).
    pub invalidate_home: bool,
    /// The directory state after the request completes.
    pub new_state: LineDir,
    /// The home's fine-grain tag after the request completes (`None`
    /// when unchanged).
    pub home_tag_to: Option<LineTag>,
    /// True when the data also flows through the home and refreshes the
    /// home's memory copy (3-party read).
    pub updates_home_memory: bool,
}

/// Computes the home-side plan for a request on one line.
///
/// * `cur` — current directory state of the line.
/// * `home_tag` — the home's own fine-grain tag for the line.
/// * `home_dirty_in_cache` — whether a processor cache at the home holds
///   the line modified (the machine knows; the directory does not).
/// * `requester` — the client node asking (never the home itself: the
///   home's own access is [`home_transition`]).
/// * `kind` — read or write.
/// * `requester_has_data` — true when the requester holds a valid shared
///   copy and merely needs ownership (upgrade).
pub fn transition(
    cur: LineDir,
    home_tag: LineTag,
    home_dirty_in_cache: bool,
    requester: NodeId,
    kind: ReqKind,
    requester_has_data: bool,
) -> DirOutcome {
    let home_source = if home_dirty_in_cache {
        DataSource::HomeIntervention
    } else {
        DataSource::HomeMemory
    };
    match (cur, kind) {
        (LineDir::Uncached, ReqKind::Read) => DirOutcome {
            source: home_source,
            invalidate: NodeSet::EMPTY,
            invalidate_home: false,
            new_state: LineDir::Shared(NodeSet::single(requester)),
            home_tag_to: (home_tag == LineTag::Exclusive).then_some(LineTag::Shared),
            updates_home_memory: false,
        },
        (LineDir::Shared(s), ReqKind::Read) => {
            let mut ns = s;
            ns.insert(requester);
            DirOutcome {
                source: home_source,
                invalidate: NodeSet::EMPTY,
                invalidate_home: false,
                new_state: LineDir::Shared(ns),
                home_tag_to: (home_tag == LineTag::Exclusive).then_some(LineTag::Shared),
                updates_home_memory: false,
            }
        }
        (LineDir::Owned(owner), ReqKind::Read) => {
            debug_assert_ne!(owner, requester, "owner re-requesting a read");
            let mut ns = NodeSet::single(owner);
            ns.insert(requester);
            DirOutcome {
                source: DataSource::Owner(owner),
                invalidate: NodeSet::EMPTY,
                invalidate_home: false,
                new_state: LineDir::Shared(ns),
                // Data flows back through the home, refreshing its memory.
                home_tag_to: Some(LineTag::Shared),
                updates_home_memory: true,
            }
        }
        (LineDir::Uncached, ReqKind::Write) => DirOutcome {
            source: if requester_has_data {
                DataSource::None
            } else {
                home_source
            },
            invalidate: NodeSet::EMPTY,
            invalidate_home: home_tag != LineTag::Invalid,
            new_state: LineDir::Owned(requester),
            home_tag_to: (home_tag != LineTag::Invalid).then_some(LineTag::Invalid),
            updates_home_memory: false,
        },
        (LineDir::Shared(s), ReqKind::Write) => DirOutcome {
            source: if requester_has_data {
                DataSource::None
            } else {
                home_source
            },
            invalidate: s.without(requester),
            invalidate_home: home_tag != LineTag::Invalid,
            new_state: LineDir::Owned(requester),
            home_tag_to: (home_tag != LineTag::Invalid).then_some(LineTag::Invalid),
            updates_home_memory: false,
        },
        (LineDir::Owned(owner), ReqKind::Write) => {
            debug_assert_ne!(owner, requester, "owner re-requesting a write");
            DirOutcome {
                source: DataSource::Owner(owner),
                invalidate: NodeSet::single(owner),
                invalidate_home: false,
                new_state: LineDir::Owned(requester),
                home_tag_to: None, // home tag is already Invalid
                updates_home_memory: false,
            }
        }
    }
}

/// Computes the plan for the home node's own access to a line it homes,
/// when its fine-grain tag is not sufficient: a read or write with tag
/// `I` (a client owns the line), or a write with tag `S` (clients
/// share it). The home ends with the line Exclusive after a write and
/// Shared after a read; `home_has_data` marks a write whose processor
/// holds a valid shared copy.
///
/// # Panics
///
/// Panics on a home read of a line whose memory copy is valid
/// (`Shared` or `Uncached`): the home's tag satisfies it locally.
pub fn home_transition(cur: LineDir, kind: ReqKind, home_has_data: bool) -> DirOutcome {
    let home_source = if home_has_data {
        DataSource::None
    } else {
        DataSource::HomeMemory
    };
    let (source, invalidate, new_state, home_tag_to, updates_home_memory) = match (cur, kind) {
        (LineDir::Owned(o), ReqKind::Read) => (
            DataSource::Owner(o),
            NodeSet::EMPTY,
            LineDir::Shared(NodeSet::single(o)),
            LineTag::Shared,
            true,
        ),
        (LineDir::Owned(o), ReqKind::Write) => (
            DataSource::Owner(o),
            NodeSet::single(o),
            LineDir::Uncached,
            LineTag::Exclusive,
            true,
        ),
        (LineDir::Shared(s), ReqKind::Write) => {
            (home_source, s, LineDir::Uncached, LineTag::Exclusive, false)
        }
        (LineDir::Uncached, ReqKind::Write) => (
            home_source,
            NodeSet::EMPTY,
            LineDir::Uncached,
            LineTag::Exclusive,
            false,
        ),
        (state, ReqKind::Read) => {
            unreachable!("home read with valid memory should hit locally: {state:?}")
        }
    };
    DirOutcome {
        source,
        invalidate,
        invalidate_home: false,
        new_state,
        home_tag_to: Some(home_tag_to),
        updates_home_memory,
    }
}

/// Releases node `from`'s hold on a line: a dirty write-back (LA-NUMA
/// eviction, page-out flush) or a clean copy leaving (page-out of a
/// shared page-cache line, the failover scrub of a dead or adopting
/// home). `Owned(from)` becomes `Uncached`, as the home's memory is
/// then the only valid copy; `from` leaves a sharer set, and an empty
/// set becomes `Uncached`; any other state is unchanged.
pub fn release(cur: LineDir, from: NodeId) -> LineDir {
    match cur {
        LineDir::Owned(o) if o == from => LineDir::Uncached,
        LineDir::Shared(s) => {
            let ns = s.without(from);
            if ns.is_empty() {
                LineDir::Uncached
            } else {
                LineDir::Shared(ns)
            }
        }
        other => other,
    }
}

/// Demotes node `from`'s modified LA-NUMA line: its dirty data goes
/// back to the home, whose memory is valid again, but the node keeps
/// shared copies, so `Owned(from)` becomes `Shared({from})`; any other
/// state is unchanged.
pub fn demote(cur: LineDir, from: NodeId) -> LineDir {
    match cur {
        LineDir::Owned(o) if o == from => LineDir::Shared(NodeSet::single(from)),
        other => other,
    }
}

/// What a client-side fine-grain tag requires for an access
/// (paper §3.2's tag-driven controller actions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagAction {
    /// The local copy satisfies the access (tag `E`, or `S` for reads):
    /// the local bus protocol prevails.
    Proceed,
    /// Fetch a shared copy from the home (tag `I`, read).
    FetchShared,
    /// Fetch an exclusive copy from the home (tag `I`, write).
    FetchExclusive,
    /// Upgrade a shared copy to exclusive (tag `S`, write).
    Upgrade,
    /// The line is in the `T` (Transit) tag: a protocol transaction is
    /// still outstanding. The access must wait for it to complete (or
    /// for the watchdog to recover the line if the transaction died).
    Stall,
}

/// Decides the controller action for an access to a line in an
/// S-COMA-mode frame, from its fine-grain tag.
///
/// In the atomic-transaction simulation the `T` (Transit) tag is only
/// observable when a fault wedged a transaction mid-flight (the
/// requester died, or its reply was lost past the retry budget). An
/// access that finds `T` must [`TagAction::Stall`] until the transit
/// watchdog recovers the line.
pub fn tag_action(tag: LineTag, write: bool) -> TagAction {
    match (tag, write) {
        (LineTag::Exclusive, _) => TagAction::Proceed,
        (LineTag::Shared, false) => TagAction::Proceed,
        (LineTag::Shared, true) => TagAction::Upgrade,
        (LineTag::Invalid, false) => TagAction::FetchShared,
        (LineTag::Invalid, true) => TagAction::FetchExclusive,
        (LineTag::Transit, _) => TagAction::Stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: NodeId = NodeId(1);
    const O: NodeId = NodeId(2);
    const X: NodeId = NodeId(3);

    #[test]
    fn read_uncached_shares_from_home() {
        let out = transition(
            LineDir::Uncached,
            LineTag::Exclusive,
            false,
            R,
            ReqKind::Read,
            false,
        );
        assert_eq!(out.source, DataSource::HomeMemory);
        assert_eq!(out.new_state, LineDir::Shared(NodeSet::single(R)));
        assert_eq!(out.home_tag_to, Some(LineTag::Shared));
        assert!(out.invalidate.is_empty());
        assert!(!out.invalidate_home);
    }

    #[test]
    fn read_uncached_modified_at_home_intervenes() {
        let out = transition(
            LineDir::Uncached,
            LineTag::Exclusive,
            true,
            R,
            ReqKind::Read,
            false,
        );
        assert_eq!(out.source, DataSource::HomeIntervention);
    }

    #[test]
    fn read_shared_adds_sharer() {
        let s = NodeSet::single(O);
        let out = transition(
            LineDir::Shared(s),
            LineTag::Shared,
            false,
            R,
            ReqKind::Read,
            false,
        );
        assert_eq!(out.source, DataSource::HomeMemory);
        let expect: NodeSet = [O, R].into_iter().collect();
        assert_eq!(out.new_state, LineDir::Shared(expect));
        assert_eq!(out.home_tag_to, None, "home tag already Shared");
    }

    #[test]
    fn read_owned_three_party() {
        let out = transition(
            LineDir::Owned(O),
            LineTag::Invalid,
            false,
            R,
            ReqKind::Read,
            false,
        );
        assert_eq!(out.source, DataSource::Owner(O));
        let expect: NodeSet = [O, R].into_iter().collect();
        assert_eq!(out.new_state, LineDir::Shared(expect));
        assert!(out.updates_home_memory, "data flows through home");
        assert_eq!(out.home_tag_to, Some(LineTag::Shared));
    }

    #[test]
    fn write_uncached_takes_ownership() {
        let out = transition(
            LineDir::Uncached,
            LineTag::Exclusive,
            false,
            R,
            ReqKind::Write,
            false,
        );
        assert_eq!(out.source, DataSource::HomeMemory);
        assert_eq!(out.new_state, LineDir::Owned(R));
        assert_eq!(out.home_tag_to, Some(LineTag::Invalid));
        assert!(out.invalidate_home);
    }

    #[test]
    fn write_shared_invalidates_others() {
        let s: NodeSet = [O, X, R].into_iter().collect();
        let out = transition(
            LineDir::Shared(s),
            LineTag::Shared,
            false,
            R,
            ReqKind::Write,
            true,
        );
        assert_eq!(out.source, DataSource::None, "upgrade needs no data");
        let expect: NodeSet = [O, X].into_iter().collect();
        assert_eq!(out.invalidate, expect);
        assert_eq!(out.new_state, LineDir::Owned(R));
        assert!(out.invalidate_home);
    }

    #[test]
    fn write_shared_without_data_fetches() {
        let s = NodeSet::single(O);
        let out = transition(
            LineDir::Shared(s),
            LineTag::Shared,
            false,
            R,
            ReqKind::Write,
            false,
        );
        assert_eq!(out.source, DataSource::HomeMemory);
        assert_eq!(out.invalidate, NodeSet::single(O));
    }

    #[test]
    fn write_owned_transfers_ownership() {
        let out = transition(
            LineDir::Owned(O),
            LineTag::Invalid,
            false,
            R,
            ReqKind::Write,
            false,
        );
        assert_eq!(out.source, DataSource::Owner(O));
        assert_eq!(out.invalidate, NodeSet::single(O));
        assert_eq!(out.new_state, LineDir::Owned(R));
        assert!(!out.invalidate_home, "home tag already invalid");
    }

    #[test]
    fn write_to_home_invalid_tag_skips_home_invalidate() {
        // After a prior remote write the home's tag is I; a later write by
        // another node (after a writeback made it Uncached… with tag S)
        // exercises the not-invalid path; this test covers tag I.
        let out = transition(
            LineDir::Uncached,
            LineTag::Invalid,
            false,
            R,
            ReqKind::Write,
            false,
        );
        assert!(!out.invalidate_home);
        assert_eq!(out.home_tag_to, None);
    }

    #[test]
    fn release_on_every_shape() {
        let ox: NodeSet = [O, X].into_iter().collect();
        // The releaser's ownership ends: home memory is the only copy.
        assert_eq!(release(LineDir::Owned(O), O), LineDir::Uncached);
        // Another node's ownership stands.
        assert_eq!(release(LineDir::Owned(O), X), LineDir::Owned(O));
        // The releaser leaves a sharer set; the last one leaves it empty.
        assert_eq!(
            release(LineDir::Shared(ox), O),
            LineDir::Shared(NodeSet::single(X))
        );
        assert_eq!(
            release(LineDir::Shared(NodeSet::single(O)), O),
            LineDir::Uncached
        );
        // A non-holder changes nothing.
        assert_eq!(release(LineDir::Shared(ox), R), LineDir::Shared(ox));
        assert_eq!(release(LineDir::Uncached, O), LineDir::Uncached);
    }

    #[test]
    fn demote_on_every_shape() {
        let ox: NodeSet = [O, X].into_iter().collect();
        // The owner keeps a shared copy.
        assert_eq!(
            demote(LineDir::Owned(O), O),
            LineDir::Shared(NodeSet::single(O))
        );
        // Every other shape is unchanged.
        assert_eq!(demote(LineDir::Owned(O), X), LineDir::Owned(O));
        assert_eq!(demote(LineDir::Shared(ox), O), LineDir::Shared(ox));
        assert_eq!(
            demote(LineDir::Shared(NodeSet::single(O)), O),
            LineDir::Shared(NodeSet::single(O))
        );
        assert_eq!(demote(LineDir::Uncached, O), LineDir::Uncached);
    }

    #[test]
    fn home_read_of_an_owned_line_intervenes_and_shares() {
        let out = home_transition(LineDir::Owned(O), ReqKind::Read, false);
        assert_eq!(out.source, DataSource::Owner(O));
        assert!(out.invalidate.is_empty());
        assert!(!out.invalidate_home);
        assert_eq!(out.new_state, LineDir::Shared(NodeSet::single(O)));
        assert_eq!(out.home_tag_to, Some(LineTag::Shared));
        assert!(
            out.updates_home_memory,
            "the owner's data refreshes home memory"
        );
    }

    #[test]
    fn home_write_of_an_owned_line_takes_it_back() {
        let out = home_transition(LineDir::Owned(O), ReqKind::Write, false);
        assert_eq!(out.source, DataSource::Owner(O));
        assert_eq!(out.invalidate, NodeSet::single(O));
        assert!(!out.invalidate_home);
        assert_eq!(out.new_state, LineDir::Uncached);
        assert_eq!(out.home_tag_to, Some(LineTag::Exclusive));
        assert!(out.updates_home_memory);
    }

    #[test]
    fn home_write_of_a_shared_line_invalidates_every_sharer() {
        let s: NodeSet = [O, X].into_iter().collect();
        for (has_data, source) in [(true, DataSource::None), (false, DataSource::HomeMemory)] {
            let out = home_transition(LineDir::Shared(s), ReqKind::Write, has_data);
            assert_eq!(out.source, source);
            assert_eq!(out.invalidate, s);
            assert!(!out.invalidate_home);
            assert_eq!(out.new_state, LineDir::Uncached);
            assert_eq!(out.home_tag_to, Some(LineTag::Exclusive));
            assert!(!out.updates_home_memory);
        }
    }

    #[test]
    fn home_write_of_an_uncached_line_takes_the_tag() {
        let out = home_transition(LineDir::Uncached, ReqKind::Write, false);
        assert_eq!(out.source, DataSource::HomeMemory);
        assert!(out.invalidate.is_empty());
        assert!(!out.invalidate_home);
        assert_eq!(out.new_state, LineDir::Uncached);
        assert_eq!(out.home_tag_to, Some(LineTag::Exclusive));
        assert!(!out.updates_home_memory);
    }

    #[test]
    #[should_panic(expected = "home read with valid memory should hit locally")]
    fn home_read_of_valid_memory_is_unreachable() {
        home_transition(LineDir::Shared(NodeSet::single(O)), ReqKind::Read, false);
    }

    #[test]
    fn tag_actions() {
        assert_eq!(tag_action(LineTag::Exclusive, false), TagAction::Proceed);
        assert_eq!(tag_action(LineTag::Exclusive, true), TagAction::Proceed);
        assert_eq!(tag_action(LineTag::Shared, false), TagAction::Proceed);
        assert_eq!(tag_action(LineTag::Shared, true), TagAction::Upgrade);
        assert_eq!(tag_action(LineTag::Invalid, false), TagAction::FetchShared);
        assert_eq!(
            tag_action(LineTag::Invalid, true),
            TagAction::FetchExclusive
        );
        assert_eq!(tag_action(LineTag::Transit, true), TagAction::Stall);
        assert_eq!(tag_action(LineTag::Transit, false), TagAction::Stall);
    }

    /// Exhaustive sanity sweep: the new directory state never lists the
    /// home's tag as valid while a remote node owns the line, and the
    /// requester always ends up with access.
    #[test]
    fn transition_postconditions_hold_everywhere() {
        let states = [
            LineDir::Uncached,
            LineDir::Shared(NodeSet::single(O)),
            LineDir::Shared([O, X].into_iter().collect()),
            LineDir::Owned(O),
        ];
        let tags = [LineTag::Exclusive, LineTag::Shared, LineTag::Invalid];
        for &cur in &states {
            for &tag in &tags {
                // Skip inconsistent combinations per the module invariants.
                let consistent = match cur {
                    LineDir::Owned(_) => tag == LineTag::Invalid,
                    LineDir::Uncached => tag == LineTag::Exclusive || tag == LineTag::Shared,
                    LineDir::Shared(_) => tag == LineTag::Shared,
                };
                if !consistent {
                    continue;
                }
                for kind in [ReqKind::Read, ReqKind::Write] {
                    let out = transition(cur, tag, false, R, kind, false);
                    // Requester ends with access.
                    assert!(
                        out.new_state.held_by(R),
                        "{cur:?} {tag:?} {kind:?} -> {:?}",
                        out.new_state
                    );
                    // Writes end exclusively owned.
                    if kind == ReqKind::Write {
                        assert_eq!(out.new_state, LineDir::Owned(R));
                        // Nobody else survives a write.
                        assert!(
                            out.invalidate.iter().all(|n| n != R),
                            "requester never invalidates itself"
                        );
                    }
                    // If the line ends Owned by a remote node, the home tag
                    // must end (or already be) Invalid.
                    if let LineDir::Owned(_) = out.new_state {
                        let final_tag = out.home_tag_to.unwrap_or(tag);
                        assert_eq!(final_tag, LineTag::Invalid);
                    }
                }
            }
        }
    }
}
