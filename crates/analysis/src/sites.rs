//! Per-site growth analysis — the paper's stated future work.
//!
//! §5 closes its Fig. 4 discussion with: *"Future work could use router
//! names to identify the spread of these variations in the network, e.g.,
//! to find whether some parts of the network are growing faster than
//! others."* Router names encode their point of presence
//! (`rbx-g1-nc5` → site `rbx`), so this module groups the evolution
//! series by site prefix and ranks sites by growth.

use std::collections::BTreeMap;

use wm_model::Timestamp;

/// Router and attached-link counts of one site at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteCounts {
    /// Routers whose name carries this site prefix.
    pub routers: usize,
    /// Link endpoints attached to those routers (parallel links counted;
    /// a link internal to the site counts once per attached end).
    pub link_ends: usize,
}

/// One site's first/last counts over a series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteGrowth {
    /// Site prefix (`rbx`, `gra`, …).
    pub site: String,
    /// Counts at the first snapshot the site appears in.
    pub first: SiteCounts,
    /// Counts at the last snapshot the site appears in.
    pub last: SiteCounts,
    /// When the site was first seen.
    pub first_seen: Timestamp,
    /// When the site was last seen.
    pub last_seen: Timestamp,
}

impl SiteGrowth {
    /// Net link-end growth over the observation span.
    #[must_use]
    pub fn link_growth(&self) -> i64 {
        self.last.link_ends as i64 - self.first.link_ends as i64
    }

    /// Net router growth over the observation span.
    #[must_use]
    pub fn router_growth(&self) -> i64 {
        self.last.routers as i64 - self.first.routers as i64
    }
}

/// Per-site first/last counts over a snapshot series.
#[derive(Debug, Clone, Default)]
pub(crate) struct SitesPass {
    growth: BTreeMap<String, SiteGrowth>,
}

impl SitesPass {
    /// Folds one snapshot's per-site counts.
    pub(crate) fn observe_counts(
        &mut self,
        timestamp: Timestamp,
        counts: BTreeMap<String, SiteCounts>,
    ) {
        for (site, counts) in counts {
            self.growth
                .entry(site.clone())
                .and_modify(|g| {
                    if timestamp >= g.last_seen {
                        g.last = counts;
                        g.last_seen = timestamp;
                    }
                    if timestamp < g.first_seen {
                        g.first = counts;
                        g.first_seen = timestamp;
                    }
                })
                .or_insert(SiteGrowth {
                    site,
                    first: counts,
                    last: counts,
                    first_seen: timestamp,
                    last_seen: timestamp,
                });
        }
    }

    /// The growth ranking: descending link growth (the "which parts grow
    /// fastest" ranking), ties by site name.
    pub(crate) fn finish(self) -> Vec<SiteGrowth> {
        let mut out: Vec<SiteGrowth> = self.growth.into_values().collect();
        out.sort_by(|a, b| {
            b.link_growth()
                .cmp(&a.link_growth())
                .then(a.site.cmp(&b.site))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::report_of;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, TopologySnapshot};

    /// The per-site counts of one snapshot, as the suite tallies them.
    fn counts_of(s: TopologySnapshot) -> BTreeMap<String, SiteCounts> {
        report_of(&[s])
            .sites
            .into_iter()
            .map(|g| {
                assert_eq!(g.first, g.last);
                (g.site, g.last)
            })
            .collect()
    }

    fn snapshot(unix: i64, spec: &[(&str, usize)]) -> TopologySnapshot {
        // spec: (site, routers); each router links once to a shared hub.
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(unix));
        s.nodes.push(Node::peering("HUB"));
        for (site, routers) in spec {
            for i in 0..*routers {
                let name = format!("{site}-g{i}-nc{i}");
                s.nodes.push(Node::router(name.clone()));
                s.links.push(Link::new(
                    LinkEnd::new(Node::router(name), None, Load::ZERO),
                    LinkEnd::new(Node::peering("HUB"), None, Load::ZERO),
                ));
            }
        }
        s
    }

    #[test]
    fn counts_group_by_prefix() {
        let s = snapshot(0, &[("rbx", 3), ("gra", 1)]);
        let counts = counts_of(s);
        assert_eq!(
            counts["rbx"],
            SiteCounts {
                routers: 3,
                link_ends: 3
            }
        );
        assert_eq!(
            counts["gra"],
            SiteCounts {
                routers: 1,
                link_ends: 1
            }
        );
        assert!(!counts.contains_key("HUB"), "peerings have no site");
    }

    #[test]
    fn intra_site_links_count_once_per_end() {
        let mut s = snapshot(0, &[("rbx", 2)]);
        s.links.push(Link::new(
            LinkEnd::new(Node::router("rbx-g0-nc0"), None, Load::ZERO),
            LinkEnd::new(Node::router("rbx-g1-nc1"), None, Load::ZERO),
        ));
        let counts = counts_of(s);
        assert_eq!(counts["rbx"].link_ends, 4);
    }

    #[test]
    fn growth_ranks_fastest_site_first() {
        let series = vec![
            snapshot(0, &[("rbx", 2), ("gra", 2)]),
            snapshot(86_400, &[("rbx", 5), ("gra", 2)]),
        ];
        let growth = report_of(&series).sites;
        assert_eq!(growth[0].site, "rbx");
        assert_eq!(growth[0].router_growth(), 3);
        assert_eq!(growth[0].link_growth(), 3);
        assert_eq!(growth[1].site, "gra");
        assert_eq!(growth[1].link_growth(), 0);
    }

    #[test]
    fn sites_appearing_later_use_their_own_span() {
        let series = vec![
            snapshot(0, &[("rbx", 2)]),
            snapshot(86_400, &[("rbx", 2), ("waw", 1)]),
            snapshot(2 * 86_400, &[("rbx", 2), ("waw", 3)]),
        ];
        let growth = report_of(&series).sites;
        let waw = growth.iter().find(|g| g.site == "waw").unwrap();
        assert_eq!(waw.first_seen, Timestamp::from_unix(86_400));
        assert_eq!(waw.router_growth(), 2);
    }

    #[test]
    fn empty_series() {
        assert!(report_of(&[]).sites.is_empty());
    }
}
