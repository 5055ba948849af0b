//! Lazy home-migration policy (paper §3.5, Baylor et al.).
//!
//! The coherence controller keeps hardware counters of coherence traffic
//! per page (like the SGI Origin2000). A migration policy inspects these
//! counters and proposes moving the page's *dynamic* home toward the node
//! generating most of the traffic. The migration itself requires
//! coordination only among the static home and the old and new dynamic
//! homes — clients catch up lazily through request forwarding.

use prism_mem::addr::NodeId;
use prism_sim::FastMap;

/// Per-page coherence-traffic counters (the hardware monitoring counters
/// of paper §3.5).
#[derive(Clone, Debug, Default)]
pub struct PageTraffic {
    by_node: FastMap<NodeId, u64>,
    total: u64,
}

impl PageTraffic {
    /// Creates zeroed counters.
    pub fn new() -> PageTraffic {
        PageTraffic::default()
    }

    /// Records one coherence request from `node`.
    pub fn record(&mut self, node: NodeId) {
        *self.by_node.entry(node).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Requests recorded from one node.
    pub fn from_node(&self, node: NodeId) -> u64 {
        self.by_node.get(&node).copied().unwrap_or(0)
    }

    /// The node with the most requests, with a deterministic tie-break.
    pub fn top_requester(&self) -> Option<(NodeId, u64)> {
        self.by_node
            .iter()
            .map(|(&n, &c)| (n, c))
            .max_by_key(|&(n, c)| (c, std::cmp::Reverse(n.0)))
    }

    /// Clears counters (after a migration decision).
    pub fn reset(&mut self) {
        self.by_node.clear();
        self.total = 0;
    }
}

/// When and where to migrate a page's dynamic home.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationPolicy {
    /// Evaluate a page only when its traffic count is a multiple of this.
    pub check_interval: u64,
    /// Minimum traffic before any migration is considered.
    pub min_traffic: u64,
    /// Required fraction of the page's traffic from the winning node.
    pub dominance: f64,
}

impl Default for MigrationPolicy {
    fn default() -> MigrationPolicy {
        MigrationPolicy {
            check_interval: 64,
            min_traffic: 128,
            dominance: 0.6,
        }
    }
}

impl MigrationPolicy {
    /// Returns the node the dynamic home should move to, if migration is
    /// warranted now. `current_home` never migrates to itself.
    pub fn evaluate(&self, current_home: NodeId, traffic: &PageTraffic) -> Option<NodeId> {
        if traffic.total() < self.min_traffic
            || !traffic.total().is_multiple_of(self.check_interval)
        {
            return None;
        }
        let (top, count) = traffic.top_requester()?;
        if top == current_home {
            return None;
        }
        if (count as f64) < self.dominance * traffic.total() as f64 {
            return None;
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(counts: &[(u16, u64)]) -> PageTraffic {
        let mut t = PageTraffic::new();
        for &(node, c) in counts {
            for _ in 0..c {
                t.record(NodeId(node));
            }
        }
        t
    }

    #[test]
    fn counters_accumulate() {
        let t = traffic(&[(1, 3), (2, 5)]);
        assert_eq!(t.total(), 8);
        assert_eq!(t.from_node(NodeId(2)), 5);
        assert_eq!(t.from_node(NodeId(9)), 0);
        assert_eq!(t.top_requester(), Some((NodeId(2), 5)));
    }

    #[test]
    fn migrates_to_dominant_requester() {
        let p = MigrationPolicy {
            check_interval: 1,
            min_traffic: 8,
            dominance: 0.6,
        };
        let t = traffic(&[(1, 7), (2, 1)]);
        assert_eq!(p.evaluate(NodeId(0), &t), Some(NodeId(1)));
    }

    #[test]
    fn respects_min_traffic_and_interval() {
        let p = MigrationPolicy {
            check_interval: 10,
            min_traffic: 100,
            dominance: 0.5,
        };
        let t = traffic(&[(1, 50)]);
        assert_eq!(p.evaluate(NodeId(0), &t), None, "below min traffic");
        let t = traffic(&[(1, 105)]);
        assert_eq!(p.evaluate(NodeId(0), &t), None, "off the check interval");
        let t = traffic(&[(1, 110)]);
        assert_eq!(p.evaluate(NodeId(0), &t), Some(NodeId(1)));
    }

    #[test]
    fn never_migrates_to_current_home() {
        let p = MigrationPolicy {
            check_interval: 1,
            min_traffic: 1,
            dominance: 0.0,
        };
        let t = traffic(&[(3, 10)]);
        assert_eq!(p.evaluate(NodeId(3), &t), None);
    }

    #[test]
    fn requires_dominance() {
        let p = MigrationPolicy {
            check_interval: 1,
            min_traffic: 1,
            dominance: 0.9,
        };
        let t = traffic(&[(1, 5), (2, 5)]);
        assert_eq!(p.evaluate(NodeId(0), &t), None);
    }

    #[test]
    fn reset_clears_history() {
        let mut t = traffic(&[(1, 5)]);
        t.reset();
        assert_eq!(t.total(), 0);
        assert_eq!(t.top_requester(), None);
    }
}
