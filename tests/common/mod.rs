//! The naive §5 reference the column-driven suite is checked against.
//!
//! [`reference_suite`] folds every snapshot straight through wm-model's
//! per-snapshot helpers (`directed_loads`, `parallel_groups`,
//! `loads_from`, `router_count`, …) in plain loops — no store, no query
//! engine, no columns. It shares only the finishing helpers with the
//! library (`coverage_segments`, `GapDistribution::new`,
//! `detect_changes`, `DegreeAnalysis::of`, `observe_group`,
//! `detect_upgrade`), so a rule the suite applies to columns is checked
//! against the same rule written against snapshots.

use std::collections::{BTreeMap, BTreeSet};

use ovh_weather::analysis::{
    EvolutionPoint, EvolutionReport, LinkKey, MaintenanceReport, MaintenanceWindow, SiteCounts,
    SiteGrowth, Table1, Table1Row, TimeframeReport, UpgradeOutcome,
};
use ovh_weather::prelude::*;

/// Every §5 artifact of `snapshots` (ascending timestamps) under
/// `config`, computed the slow way.
pub fn reference_suite(config: &SuiteConfig, snapshots: &[TopologySnapshot]) -> SuiteReport {
    let kept: Vec<&TopologySnapshot> = snapshots
        .iter()
        .filter(|s| config.range.is_none_or(|r| r.contains(s.timestamp)))
        .collect();

    let times: Vec<Timestamp> = kept.iter().map(|s| s.timestamp).collect();
    let series: Vec<EvolutionPoint> = kept
        .iter()
        .map(|s| EvolutionPoint {
            timestamp: s.timestamp,
            routers: s.router_count(),
            internal_links: s.internal_link_count(),
            external_links: s.external_link_count(),
        })
        .collect();

    let mut hourly = HourlyLoads::new();
    let mut load_cdf = LoadCdf::new();
    let mut imbalance = ImbalanceCdf::new();
    for s in &kept {
        for (kind, load) in s.directed_loads() {
            hourly.push(s.timestamp.hour_of_day(), load.as_f64());
            load_cdf.push(kind, load.as_f64());
        }
        for group in s.parallel_groups() {
            for from in [&group.a, &group.b] {
                let loads: Vec<f64> = s
                    .loads_from(&group, from)
                    .into_iter()
                    .filter(|l| !l.is_control_noise())
                    .map(Load::as_f64)
                    .collect();
                if loads.len() >= 2 {
                    let max = loads.iter().copied().fold(f64::MIN, f64::max);
                    let min = loads.iter().copied().fold(f64::MAX, f64::min);
                    imbalance.push(group.kind, max - min);
                }
            }
        }
    }

    let upgrade = config.upgrade.as_ref().map(|target| {
        let observations: Vec<_> = kept
            .iter()
            .filter_map(|s| observe_group(s, &target.from, &target.to))
            .collect();
        let report = detect_upgrade(&observations, &target.records);
        UpgradeOutcome {
            observations,
            report,
        }
    });

    SuiteReport {
        snapshots: kept.len(),
        timeframe: TimeframeReport {
            segments: coverage_segments(&times, config.max_gap),
            gaps: GapDistribution::new(&times),
        },
        evolution: EvolutionReport {
            router_events: detect_changes(&series, |p| p.routers, config.min_router_delta),
            internal_link_events: detect_changes(
                &series,
                |p| p.internal_links,
                config.min_link_delta,
            ),
            series,
        },
        degree: kept.last().map(|s| DegreeAnalysis::of(s)),
        hourly,
        load_cdf,
        imbalance,
        table1: table_of(&kept),
        sites: growth_of(&kept),
        maintenance: windows_of(&kept),
        upgrade,
    }
}

/// Table 1 from the last snapshot of each map, rows in the paper's map
/// order, routers de-duplicated by name across maps.
fn table_of(kept: &[&TopologySnapshot]) -> Table1 {
    let mut rows = Vec::new();
    let mut names = BTreeSet::new();
    for map in MapKind::ALL {
        let Some(s) = kept.iter().rev().find(|s| s.map == map) else {
            continue;
        };
        rows.push(Table1Row {
            map,
            routers: s.router_count(),
            internal_links: s.internal_link_count(),
            external_links: s.external_link_count(),
        });
        names.extend(s.routers().map(|r| r.name.to_string()));
    }
    Table1 {
        total_routers: names.len(),
        total_internal: rows.iter().map(|r| r.internal_links).sum(),
        total_external: rows.iter().map(|r| r.external_links).sum(),
        rows,
    }
}

/// Per-site counts at each site's first and last appearance, ranked by
/// descending link-end growth, ties by site name.
fn growth_of(kept: &[&TopologySnapshot]) -> Vec<SiteGrowth> {
    let mut growth: BTreeMap<String, SiteGrowth> = BTreeMap::new();
    for s in kept {
        let mut counts: BTreeMap<String, SiteCounts> = BTreeMap::new();
        for router in s.routers() {
            if let Some(site) = router.site() {
                counts.entry(site.to_owned()).or_default().routers += 1;
            }
        }
        for link in &s.links {
            for end in [&link.a, &link.b] {
                if let Some(entry) = end.node.site().and_then(|site| counts.get_mut(site)) {
                    entry.link_ends += 1;
                }
            }
        }
        for (site, counts) in counts {
            let g = growth.entry(site.clone()).or_insert(SiteGrowth {
                site,
                first: counts,
                last: counts,
                first_seen: s.timestamp,
                last_seen: s.timestamp,
            });
            g.last = counts;
            g.last_seen = s.timestamp;
        }
    }
    let mut out: Vec<SiteGrowth> = growth.into_values().collect();
    out.sort_by(|a, b| {
        b.link_growth()
            .cmp(&a.link_growth())
            .then(a.site.cmp(&b.site))
    });
    out
}

/// Per-link disabled windows: a link keyed by its name-ordered ends (ties
/// keep the listed order) opens a window when it reads 0 % both ways and
/// closes it at its next observation carrying traffic.
fn windows_of(kept: &[&TopologySnapshot]) -> MaintenanceReport {
    let mut open: BTreeMap<LinkKey, MaintenanceWindow> = BTreeMap::new();
    let mut windows = Vec::new();
    let (mut observations, mut disabled) = (0, 0);
    for s in kept {
        for link in &s.links {
            let (x, y) = if link.a.node.name <= link.b.node.name {
                (&link.a, &link.b)
            } else {
                (&link.b, &link.a)
            };
            let key = LinkKey {
                a: x.node.name.to_string(),
                b: y.node.name.to_string(),
                label_a: x.label.clone(),
                label_b: y.label.clone(),
            };
            observations += 1;
            if link.is_disabled() {
                disabled += 1;
                let window = open.entry(key.clone()).or_insert(MaintenanceWindow {
                    link: key,
                    start: s.timestamp,
                    end: s.timestamp,
                    snapshots: 0,
                });
                window.end = s.timestamp;
                window.snapshots += 1;
            } else if let Some(window) = open.remove(&key) {
                windows.push(window);
            }
        }
    }
    windows.extend(open.into_values());
    windows.sort_by(|x, y| x.start.cmp(&y.start).then_with(|| x.link.cmp(&y.link)));
    MaintenanceReport {
        windows,
        observations,
        disabled,
    }
}
