//! The transaction layer: the protocol exchanges the paper describes.
//!
//! The access path (`access`) classifies a reference that misses in L2
//! and builds one request value for it: node, processor, frame, mode,
//! global page, line and whether it writes. The node-level dispatch
//! hands that request to an intra-node fill or to the remote
//! transaction, which carries it to the end.
//!
//! * `local` — intra-node fill pipelines: L1/L2 fills, sibling fills,
//!   the one write grant, `snoop_node`, the one primitive that
//!   invalidates or downgrades a line in every processor of a node, and
//!   `lanuma_give_back`, the one step that returns a modified LA-NUMA
//!   line to its home (a write-back on eviction, a demotion on a
//!   sibling read; there is no replacement hint).
//! * [`remote_txn`] — the remote-access transaction
//!   (`RemoteTxn`): translate → route → home dispatch →
//!   data fetch → invalidate → commit → reply → learn → fill →
//!   migrate, a fixed chain of steps in which routing, home dispatch
//!   and data fetch can abort.
//! * `lifecycle` — the page lifecycle's shared steps: taking a frame
//!   off a node, retiring a node's client mapping, and adopting a page
//!   at a new dynamic home.
//! * `migrate` — the page-migration transaction (lazy dynamic-home
//!   migration, paper §3.5) and home failover after node death.

pub(crate) mod lifecycle;
pub(crate) mod local;
pub(crate) mod migrate;
pub mod remote_txn;
