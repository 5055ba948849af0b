//! The transaction layer: protocol transactions reified as typed state
//! machines.
//!
//! Each multi-hop protocol exchange the paper describes — a ScomA
//! remote miss, a LaNuma forward, a page migration, a journal append, a
//! home failover — is represented here as an explicit transaction with
//! named phases, so the access-path drivers (`access`, `remote`) stay
//! thin: they classify the reference, construct the transaction, and
//! step it to completion.
//!
//! * [`local`] — intra-node fill pipelines: L1/L2 fills, sibling
//!   snoops, bus upgrades, and LaNuma client-side write-back policy.
//! * [`remote_txn`] — the remote-access state machine
//!   ([`remote_txn::RemoteTxn`]) covering translate → route → home
//!   dispatch → fetch/invalidate → commit → reply → fill, with
//!   migration and failure handling as explicit phases.
//! * `lifecycle` — the page lifecycle's shared steps: taking a frame
//!   off a node, retiring a node's client mapping, and adopting a page
//!   at a new dynamic home.
//! * `migrate` — the page-migration transaction (lazy dynamic-home
//!   migration, paper §3.5) and home failover after node death.

pub(crate) mod lifecycle;
pub(crate) mod local;
pub(crate) mod migrate;
pub mod remote_txn;
