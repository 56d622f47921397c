//! ECMP load-imbalance analysis (Fig. 5c).
//!
//! §5 computes, for each *directed* set of parallel links, the difference
//! between the maximum and the minimum load, after discarding `0 %` loads
//! (unused links) and `1 %` loads (indistinguishable from control
//! traffic) and dropping sets left with fewer than two links.

use wm_dataset::{QueryEngine, RowView};
use wm_model::LinkKind;

use crate::maintenance::original_ends;
use crate::stats::Distribution;

/// The imbalance of one directed parallel set: loads of the arrows
/// leaving `from` (first matching end per row, in the row's listed
/// orientation), 0 %/1 % discounted, sets left with fewer than two links
/// removed.
pub(crate) fn directed_imbalance(
    engine: &QueryEngine<'_>,
    group: &[RowView<'_>],
    from: &str,
) -> Option<f64> {
    let mut kept = 0usize;
    let mut min = u8::MAX;
    let mut max = 0u8;
    for row in group {
        let (first_name, _, second_name, _) = original_ends(engine, row);
        let load = if first_name == from {
            row.first_load()
        } else if second_name == from {
            row.second_load()
        } else {
            continue;
        };
        if load <= 1 {
            continue; // Disabled or control-noise loads are discounted.
        }
        kept += 1;
        min = min.min(load);
        max = max.max(load);
    }
    (kept >= 2).then(|| f64::from(max - min))
}

/// Accumulates imbalances over many snapshots, split by link kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImbalanceCdf {
    internal: Vec<f64>,
    external: Vec<f64>,
}

impl ImbalanceCdf {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> ImbalanceCdf {
        ImbalanceCdf::default()
    }

    /// Adds one directed-set imbalance. Callers must have applied the
    /// 0 %/1 % filter and the minimum-set-size rule already.
    pub fn push(&mut self, kind: LinkKind, imbalance: f64) {
        match kind {
            LinkKind::Internal => self.internal.push(imbalance),
            LinkKind::External => self.external.push(imbalance),
        }
    }

    /// Distribution of internal-set imbalances.
    #[must_use]
    pub fn internal(&self) -> Distribution {
        Distribution::new(self.internal.clone())
    }

    /// Distribution of external-set imbalances.
    #[must_use]
    pub fn external(&self) -> Distribution {
        Distribution::new(self.external.clone())
    }

    /// The two headline Fig. 5c facts: fraction of all imbalances ≤ 1
    /// point (paper: > 60 %) and fraction of external imbalances ≤ 2
    /// points (paper: > 90 %).
    #[must_use]
    pub fn headline(&self) -> (f64, f64) {
        let mut all = self.internal.clone();
        all.extend_from_slice(&self.external);
        let all = Distribution::new(all);
        (all.cdf(1.0), self.external().cdf(2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::report_of;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, Timestamp, TopologySnapshot};

    /// One group of parallel links between r-a and X (router or peering)
    /// with prescribed per-direction loads.
    fn snapshot(loads: &[(u8, u8)], external: bool) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(0));
        let other = if external {
            Node::peering("PEER")
        } else {
            Node::router("r-b")
        };
        s.nodes.push(Node::router("r-a"));
        s.nodes.push(other.clone());
        for (la, lb) in loads {
            s.links.push(Link::new(
                LinkEnd::new(Node::router("r-a"), None, Load::new(*la).unwrap()),
                LinkEnd::new(other.clone(), None, Load::new(*lb).unwrap()),
            ));
        }
        s
    }

    /// The suite's internal and external imbalance samples, sorted.
    fn imbalances(s: TopologySnapshot) -> (Vec<f64>, Vec<f64>) {
        let cdf = report_of(&[s]).imbalance;
        (
            cdf.internal().samples().to_vec(),
            cdf.external().samples().to_vec(),
        )
    }

    #[test]
    fn imbalance_is_max_minus_min_per_direction() {
        // From r-a: 34 - 30 = 4; from r-b: 13 - 10 = 3.
        let (internal, external) = imbalances(snapshot(&[(30, 10), (34, 13)], false));
        assert_eq!(internal, [3.0, 4.0]);
        assert!(external.is_empty());
        // Listed the other way round, each direction keeps its loads.
        let mut reversed = snapshot(&[], false);
        for (la, lb) in [(30u8, 10u8), (34, 13)] {
            reversed.links.push(Link::new(
                LinkEnd::new(Node::router("r-b"), None, Load::new(lb).unwrap()),
                LinkEnd::new(Node::router("r-a"), None, Load::new(la).unwrap()),
            ));
        }
        assert_eq!(imbalances(reversed).0, [3.0, 4.0]);
        // With r-b's direction at control-noise level only r-a's set stays.
        let (internal, _) = imbalances(snapshot(&[(30, 1), (34, 1)], false));
        assert_eq!(internal, [4.0]);
    }

    #[test]
    fn zero_and_one_percent_loads_are_discounted() {
        // Third link disabled (0 %), fourth at control-noise level (1 %):
        // both directions keep exactly the first two links' spread.
        let (internal, _) = imbalances(snapshot(&[(30, 10), (34, 13), (0, 0), (1, 1)], false));
        assert_eq!(internal, [3.0, 4.0]);
    }

    #[test]
    fn singleton_sets_are_removed() {
        // Only one link carries usable traffic in each direction.
        let (internal, external) = imbalances(snapshot(&[(30, 10), (0, 1)], false));
        assert!(internal.is_empty() && external.is_empty());
    }

    #[test]
    fn kinds_are_tracked() {
        let (internal, external) = imbalances(snapshot(&[(30, 10), (31, 12)], true));
        assert!(internal.is_empty());
        assert_eq!(external, [1.0, 2.0]);
    }

    #[test]
    fn cdf_headline() {
        let mut cdf = ImbalanceCdf::new();
        // Internal group: imbalances 4 and 3 (both directions > 1).
        cdf.push(LinkKind::Internal, 4.0);
        cdf.push(LinkKind::Internal, 3.0);
        // External group: imbalances 1 and 2.
        cdf.push(LinkKind::External, 1.0);
        cdf.push(LinkKind::External, 2.0);
        let (all_le_1, external_le_2) = cdf.headline();
        assert!((all_le_1 - 0.25).abs() < 1e-12, "{all_le_1}");
        assert!((external_le_2 - 1.0).abs() < 1e-12);
        assert_eq!(cdf.internal().len(), 2);
        assert_eq!(cdf.external().len(), 2);
    }

    #[test]
    fn perfectly_balanced_group_has_zero_imbalance() {
        let (internal, _) = imbalances(snapshot(&[(25, 25), (25, 25), (25, 25)], false));
        assert_eq!(internal, [0.0, 0.0]);
    }
}
