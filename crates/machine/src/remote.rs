//! Thin driver for the inter-node coherence protocol: classifies the
//! request and runs a [`crate::txn::remote_txn::RemoteTxn`] to
//! completion. All protocol mechanics — routing, home dispatch, data
//! sourcing, invalidation, commit, reply, and requester-side learning —
//! live in the transaction's phase methods.

use prism_mem::addr::{FrameNo, GlobalPage, LineIdx};
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::txn::remote_txn::RemoteTxn;

impl Machine {
    /// Executes one remote (or home-self) coherence request for
    /// processor `pi` of node `n`, performing every state update and
    /// charging every latency. Returns the completion time.
    ///
    /// `write` selects read vs write/upgrade; `has_data` marks an
    /// ownership upgrade (requester holds a valid shared copy); `scoma`
    /// selects whether fetched data also lands in the local page cache.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn remote_access(
        &mut self,
        n: usize,
        pi: usize,
        frame: FrameNo,
        gpage: GlobalPage,
        line: LineIdx,
        key: u64,
        lid: u64,
        write: bool,
        has_data: bool,
        scoma: bool,
        t: Cycle,
    ) -> Cycle {
        RemoteTxn::new(
            n, pi, frame, gpage, line, key, lid, write, has_data, scoma, t,
        )
        .run(self)
    }
}
