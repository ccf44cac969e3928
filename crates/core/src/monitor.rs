//! Traffic monitoring and rebalancing recommendations.
//!
//! Section 3.6: "Another area, whose importance we recognize ... is the
//! development of monitoring tools. These tools will be required to ease
//! day-to-day operations of the system and also to recognize long-term
//! changes in user access patterns and help reassign users to cluster
//! servers so as to balance server loads and reduce cross-cluster
//! traffic." And Section 3.1: "we may install mechanisms in Vice to
//! monitor long-term access file patterns and recommend changes to improve
//! performance. Even then, a human operator will initiate the actual
//! reassignment."
//!
//! [`TrafficMonitor`] records which cluster each Vice call originated from,
//! per custodianship subtree; [`TrafficMonitor::recommendations`] proposes
//! moving any subtree whose traffic majority comes from a different
//! cluster than its custodian. The operator (the experiment driver)
//! applies them with [`crate::system::ItcSystem::move_volume`].

use crate::proto::ServerId;
use std::collections::HashMap;
use std::sync::Arc;

/// A recommended volume reassignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveRecommendation {
    /// The subtree (volume mount) to move.
    pub subtree: String,
    /// Its current custodian.
    pub from: ServerId,
    /// The server whose cluster generates most of its traffic.
    pub to: ServerId,
    /// Calls observed from the winning cluster.
    pub winning_calls: u64,
    /// Total calls observed for the subtree.
    pub total_calls: u64,
}

/// Per-subtree, per-origin-cluster call counts. Subtree keys are interned
/// `Arc<str>`s shared with the location database, so the per-call record
/// on the transport hot path is a refcount bump, not a `String` clone.
#[derive(Debug, Default)]
pub struct TrafficMonitor {
    counts: HashMap<(Arc<str>, u32), u64>,
}

impl TrafficMonitor {
    /// Creates an empty monitor.
    pub fn new() -> TrafficMonitor {
        TrafficMonitor::default()
    }

    /// Records one call against `subtree` from a workstation in
    /// `origin_cluster`. Allocates a key for a subtree not seen before;
    /// the transport uses [`TrafficMonitor::record_interned`] instead.
    pub fn record(&mut self, subtree: &str, origin_cluster: u32) {
        *self
            .counts
            .entry((Arc::from(subtree), origin_cluster))
            .or_insert(0) += 1;
    }

    /// Records one call using an already-interned subtree key (shared with
    /// the location database): no allocation on the hot path.
    pub fn record_interned(&mut self, subtree: &Arc<str>, origin_cluster: u32) {
        *self
            .counts
            .entry((Arc::clone(subtree), origin_cluster))
            .or_insert(0) += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Fraction of all observed calls that crossed clusters, given the
    /// custodian of each subtree (cluster id == server id in the standard
    /// topology).
    pub fn cross_cluster_fraction(&self, custodian_of: impl Fn(&str) -> Option<ServerId>) -> f64 {
        let mut cross = 0u64;
        let mut total = 0u64;
        for ((subtree, origin), &n) in &self.counts {
            total += n;
            if let Some(c) = custodian_of(subtree.as_ref()) {
                if c.0 != *origin {
                    cross += n;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            cross as f64 / total as f64
        }
    }

    /// Proposes moving every subtree whose traffic majority originates in
    /// a different cluster than its custodian. `custodian_of` supplies the
    /// current assignment; subtrees it does not know are skipped (e.g.
    /// the root volume, which must stay put).
    pub fn recommendations(
        &self,
        custodian_of: impl Fn(&str) -> Option<ServerId>,
        movable: impl Fn(&str) -> bool,
    ) -> Vec<MoveRecommendation> {
        // Group by subtree. A BTreeMap keeps the traversal (and therefore
        // every tie-break below) independent of HashMap iteration order —
        // the recommendation list must be deterministic run to run.
        let mut per_subtree: std::collections::BTreeMap<&str, Vec<(u32, u64)>> =
            std::collections::BTreeMap::new();
        for ((subtree, origin), &n) in &self.counts {
            per_subtree
                .entry(subtree.as_ref())
                .or_default()
                .push((*origin, n));
        }
        let mut recs = Vec::new();
        for (subtree, origins) in per_subtree {
            if !movable(subtree) {
                continue;
            }
            let Some(current) = custodian_of(subtree) else {
                continue;
            };
            let total: u64 = origins.iter().map(|(_, n)| n).sum();
            // Highest call count wins; equal counts go to the lowest
            // cluster id, so the winner never depends on map order.
            let Some(&(winner, winning_calls)) = origins
                .iter()
                .max_by_key(|(origin, n)| (*n, std::cmp::Reverse(*origin)))
            else {
                continue;
            };
            // Only recommend when the winning cluster truly dominates
            // (>50% of traffic) and differs from the current custodian —
            // reassignments are expensive and human-initiated.
            if winner != current.0 && winning_calls * 2 > total {
                recs.push(MoveRecommendation {
                    subtree: subtree.to_string(),
                    from: current,
                    to: ServerId(winner),
                    winning_calls,
                    total_calls: total,
                });
            }
        }
        // Busiest first; equal traffic orders by mount so the list is
        // stable across runs.
        recs.sort_by(|a, b| {
            b.winning_calls
                .cmp(&a.winning_calls)
                .then_with(|| a.subtree.cmp(&b.subtree))
        });
        recs
    }

    /// Clears all observations (start of a new measurement epoch).
    pub fn reset(&mut self) {
        self.counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn custodians(subtree: &str) -> Option<ServerId> {
        match subtree {
            "/vice/usr/alice" => Some(ServerId(0)),
            "/vice/usr/bob" => Some(ServerId(0)),
            "/vice" => Some(ServerId(0)),
            _ => None,
        }
    }

    #[test]
    fn recommends_moving_misplaced_subtrees() {
        let mut m = TrafficMonitor::new();
        // Alice works from cluster 1; her volume sits on server 0.
        for _ in 0..90 {
            m.record("/vice/usr/alice", 1);
        }
        for _ in 0..10 {
            m.record("/vice/usr/alice", 0);
        }
        // Bob is where he should be.
        for _ in 0..50 {
            m.record("/vice/usr/bob", 0);
        }
        let recs = m.recommendations(custodians, |s| s != "/vice");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].subtree, "/vice/usr/alice");
        assert_eq!(recs[0].to, ServerId(1));
        assert_eq!(recs[0].winning_calls, 90);
        assert_eq!(recs[0].total_calls, 100);
    }

    #[test]
    fn bare_majority_is_not_enough() {
        let mut m = TrafficMonitor::new();
        // 50/50 split: no recommendation (the move would not pay for
        // itself).
        for _ in 0..50 {
            m.record("/vice/usr/alice", 1);
        }
        for _ in 0..50 {
            m.record("/vice/usr/alice", 0);
        }
        assert!(m.recommendations(custodians, |_| true).is_empty());
    }

    #[test]
    fn immovable_subtrees_are_skipped() {
        let mut m = TrafficMonitor::new();
        for _ in 0..100 {
            m.record("/vice", 1);
        }
        assert!(m.recommendations(custodians, |s| s != "/vice").is_empty());
    }

    #[test]
    fn empty_monitor_recommends_nothing() {
        let m = TrafficMonitor::new();
        assert_eq!(m.total(), 0);
        assert!(m.recommendations(custodians, |_| true).is_empty());
        assert_eq!(m.cross_cluster_fraction(custodians), 0.0);
    }

    #[test]
    fn single_cluster_traffic_never_recommends_a_move() {
        // Everything originates where it lives: nothing to do, however
        // lopsided the volumes' popularity.
        let mut m = TrafficMonitor::new();
        for _ in 0..500 {
            m.record("/vice/usr/alice", 0);
        }
        for _ in 0..3 {
            m.record("/vice/usr/bob", 0);
        }
        assert!(m.recommendations(custodians, |_| true).is_empty());
        assert_eq!(m.cross_cluster_fraction(custodians), 0.0);
    }

    #[test]
    fn equal_traffic_orders_recommendations_by_mount() {
        // Alice and Bob both live on server 0 but work from cluster 1
        // with identical call counts: the tie must break the same way on
        // every run (lexicographic mount order), not by map iteration.
        let mut m = TrafficMonitor::new();
        for _ in 0..40 {
            m.record("/vice/usr/alice", 1);
            m.record("/vice/usr/bob", 1);
        }
        for _ in 0..100 {
            let recs = m.recommendations(custodians, |_| true);
            assert_eq!(recs.len(), 2);
            assert_eq!(recs[0].subtree, "/vice/usr/alice");
            assert_eq!(recs[1].subtree, "/vice/usr/bob");
            assert_eq!((recs[0].winning_calls, recs[1].winning_calls), (40, 40));
        }
    }

    #[test]
    fn winning_cluster_tie_breaks_to_the_lowest_id() {
        // Three origin clusters, two tied for the lead. No move clears
        // the >50% dominance bar, so nothing is recommended — but the
        // winner computation itself must still be deterministic.
        let mut m = TrafficMonitor::new();
        for _ in 0..40 {
            m.record("/vice/usr/alice", 2);
            m.record("/vice/usr/alice", 1);
        }
        for _ in 0..20 {
            m.record("/vice/usr/alice", 0);
        }
        assert!(m.recommendations(custodians, |_| true).is_empty());
        // A decisive winner with the same shape is reported against the
        // full total.
        for _ in 0..61 {
            m.record("/vice/usr/alice", 1);
        }
        let recs = m.recommendations(custodians, |_| true);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].to, ServerId(1));
        assert_eq!(recs[0].winning_calls, 101);
        assert_eq!(recs[0].total_calls, 161);
    }

    #[test]
    fn cross_cluster_fraction_counts_correctly() {
        let mut m = TrafficMonitor::new();
        for _ in 0..30 {
            m.record("/vice/usr/alice", 1); // cross (custodian 0)
        }
        for _ in 0..70 {
            m.record("/vice/usr/bob", 0); // local
        }
        let f = m.cross_cluster_fraction(custodians);
        assert!((f - 0.3).abs() < 1e-9);
        m.reset();
        assert_eq!(m.total(), 0);
        assert_eq!(m.cross_cluster_fraction(custodians), 0.0);
    }
}
