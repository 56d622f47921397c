//! Property tests for the vectorized query engine and the §5 suite built
//! on it: every kernel, and every suite artifact, must agree exactly —
//! field for field — with a naive reference computed from per-snapshot
//! reconstructions, on arbitrary fault-injected histories (absent links,
//! disabled samples, reversed listings, `#n` parallels, empty and
//! partial ranges, `k` larger than the link count), at more than one
//! thread count.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::reference_suite;
use ovh_weather::analysis::UpgradeTarget;
use ovh_weather::prelude::*;
use proptest::prelude::*;

const SITES: [&str; 3] = ["rbx", "gra", "fra"];

fn base() -> Timestamp {
    Timestamp::from_ymd(2022, 2, 1)
}

/// SplitMix64-style deterministic mixing: the only randomness source of
/// a generated history, so every failure reproduces from its inputs.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ 0xD1B5_4A32_D192_ED03;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Candidate {
    a: String,
    b: String,
    label: Option<String>,
}

/// The full link universe of a history: parallel internal links between
/// every router pair (distinguished by `#n` labels) plus one external
/// link per router–peering pair.
fn candidates(routers: &[String], peerings: &[String], parallels: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    for i in 0..routers.len() {
        for j in (i + 1)..routers.len() {
            for m in 0..parallels {
                out.push(Candidate {
                    a: routers[i].clone(),
                    b: routers[j].clone(),
                    label: Some(format!("#{}", m + 1)),
                });
            }
        }
        for p in peerings {
            out.push(Candidate {
                a: routers[i].clone(),
                b: p.clone(),
                label: None,
            });
        }
    }
    out
}

/// A fault-injected history: every 7th (link, snapshot) cell is a hole
/// (the link is absent from the map), every 5th directed sample reads
/// `0 %` (disabled), and every 3rd present link is listed in reversed
/// orientation.
fn history(seed: u64, snapshots: usize, routers: usize, parallels: usize) -> Vec<TopologySnapshot> {
    let routers: Vec<String> = (0..routers).map(router_name).collect();
    let peerings = vec!["ARELION".to_owned(), "GOOGLE".to_owned()];
    let cands = candidates(&routers, &peerings, parallels);
    let node = |name: &str| {
        if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            Node::peering(name)
        } else {
            Node::router(name)
        }
    };
    (0..snapshots)
        .map(|t| {
            let ts = base() + Duration::from_minutes(30 * t as i64);
            let mut s = TopologySnapshot::new(MapKind::Europe, ts);
            for r in &routers {
                s.nodes.push(Node::router(r.clone()));
            }
            for p in &peerings {
                s.nodes.push(Node::peering(p.clone()));
            }
            for (li, c) in cands.iter().enumerate() {
                let m = mix(seed, t as u64, li as u64);
                if m.is_multiple_of(7) {
                    continue;
                }
                let la = if m.is_multiple_of(5) {
                    0
                } else {
                    ((m >> 8) % 101) as u8
                };
                let lb = if (m >> 16).is_multiple_of(5) {
                    0
                } else {
                    ((m >> 24) % 101) as u8
                };
                let end_a = LinkEnd::new(node(&c.a), c.label.clone(), Load::new(la).unwrap());
                let end_b = LinkEnd::new(node(&c.b), c.label.clone(), Load::new(lb).unwrap());
                if m.is_multiple_of(3) {
                    s.links.push(Link::new(end_b, end_a));
                } else {
                    s.links.push(Link::new(end_a, end_b));
                }
            }
            s
        })
        .collect()
}

/// The name of generated router `i`, prefixed by its site.
fn router_name(i: usize) -> String {
    format!("{}-r{i}", SITES[i % SITES.len()])
}

/// Adds a self-loop `r #1 <-> r #2` on the first router of every
/// snapshot, listed in either orientation and sometimes disabled: the
/// one shape where a link's identity (its labels, in listed order when
/// both ends share a name) depends on how the map listed it.
fn with_self_loops(seed: u64, mut all: Vec<TopologySnapshot>) -> Vec<TopologySnapshot> {
    let name = router_name(0);
    for (t, s) in all.iter_mut().enumerate() {
        let m = mix(seed, t as u64, u64::MAX);
        let load = if m.is_multiple_of(3) { 0 } else { 20 };
        let end = |label: &str| {
            LinkEnd::new(
                Node::router(name.clone()),
                Some(label.to_owned()),
                Load::new(load).unwrap(),
            )
        };
        if m.is_multiple_of(2) {
            s.links.push(Link::new(end("#2"), end("#1")));
        } else {
            s.links.push(Link::new(end("#1"), end("#2")));
        }
    }
    all
}

/// The suite over a store built from `all` must equal the naive
/// reference over `all`: whole report, debug form and rendered text.
fn assert_suite_matches_reference(config: &SuiteConfig, all: &[TopologySnapshot]) {
    let store = LongitudinalStore::from_snapshots(all);
    let (report, stats) = AnalysisSuite::run_store(config.clone(), &store);
    let expected = reference_suite(config, all);
    assert_eq!(report, expected, "{config:?}");
    assert_eq!(format!("{report:?}"), format!("{expected:?}"));
    assert_eq!(report.render(), expected.render());
    assert_eq!(stats.snapshots_scanned as usize, expected.snapshots);
}

/// Mirrors the store's canonical link orientation: ends ordered by
/// `(name, kind, label)`.
fn canonical(link: &Link) -> (&LinkEnd, &LinkEnd) {
    let key = |e: &LinkEnd| {
        (
            e.node.name.to_string(),
            format!("{:?}", e.node.kind),
            e.label.clone(),
        )
    };
    if key(&link.b) < key(&link.a) {
        (&link.b, &link.a)
    } else {
        (&link.a, &link.b)
    }
}

/// The engine's `name label <-> name label` display, from the canonical
/// orientation.
fn display(link: &Link) -> String {
    let (first, second) = canonical(link);
    let end = |e: &LinkEnd| match &e.label {
        Some(l) => format!("{} {}", e.node.name, l),
        None => e.node.name.to_string(),
    };
    format!("{} <-> {}", end(first), end(second))
}

/// Link identities in the order the columnar builder interns them:
/// first appearance over the full history, snapshots then links in
/// input order.
fn def_order(all: &[TopologySnapshot]) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut order = Vec::new();
    for s in all {
        for l in &s.links {
            let d = display(l);
            if seen.insert(d.clone()) {
                order.push(d);
            }
        }
    }
    order
}

fn selected(link: &Link, filter: &LinkFilter) -> bool {
    if let Some(kind) = filter.kind {
        if link.kind() != kind {
            return false;
        }
    }
    if let Some(site) = &filter.site {
        let hit = [&link.a, &link.b]
            .iter()
            .any(|e| e.node.site() == Some(site.as_str()));
        if !hit {
            return false;
        }
    }
    true
}

/// Nearest-rank percentile over raw percentage samples.
fn percentile(sorted: &[u8], pct: u64) -> u8 {
    let total = sorted.len() as u64;
    let rank = (total * pct).div_ceil(100).max(1);
    sorted.get(rank as usize - 1).copied().unwrap_or(0)
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    sum: u64,
    peak: u8,
}

impl Agg {
    fn add(&mut self, load: u8) {
        self.count += 1;
        self.sum += u64::from(load);
        self.peak = self.peak.max(load);
    }
}

/// The naive reference: reconstruct every snapshot, filter and fold in
/// plain per-snapshot loops — no columns, no chunking, no engine.
fn reference(all: &[TopologySnapshot], query: &Query) -> QueryOutput {
    let in_range: Vec<&TopologySnapshot> = all
        .iter()
        .filter(|s| query.range.contains(s.timestamp))
        .collect();
    let snapshots = in_range.len() as u64;
    let rows: u64 = in_range.iter().map(|s| s.links.len() as u64).sum();
    fn picked<'a>(s: &'a TopologySnapshot, filter: &LinkFilter) -> Vec<&'a Link> {
        s.links.iter().filter(|l| selected(l, filter)).collect()
    }
    let selected_rows: u64 = in_range
        .iter()
        .map(|s| picked(s, &query.filter).len() as u64)
        .sum();

    let (samples, result) = match query.op {
        QueryOp::Scan => {
            let mut stats = ScanStats::default();
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    for load in [l.a.egress_load.percent(), l.b.egress_load.percent()] {
                        stats.samples += 1;
                        stats.disabled += u64::from(load == 0);
                        stats.sum += u64::from(load);
                        stats.peak = stats.peak.max(load);
                    }
                }
            }
            (stats.samples, QueryResult::Scan(stats))
        }
        QueryOp::TopK { k } => {
            let order = def_order(all);
            let mut aggs: BTreeMap<&str, (Agg, LinkKind)> = BTreeMap::new();
            let mut names: BTreeMap<String, LinkKind> = BTreeMap::new();
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    names.entry(display(l)).or_insert_with(|| l.kind());
                }
            }
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    let d = display(l);
                    let (name, kind) = names.get_key_value(&d).expect("interned");
                    let entry = aggs.entry(name.as_str()).or_insert((Agg::default(), *kind));
                    entry.0.add(l.a.egress_load.percent());
                    entry.0.add(l.b.egress_load.percent());
                }
            }
            let rank_of = |name: &str| order.iter().position(|d| d == name).unwrap_or(usize::MAX);
            let mut candidates: Vec<(&str, Agg, LinkKind)> = aggs
                .iter()
                .map(|(name, (agg, kind))| (*name, *agg, *kind))
                .collect();
            candidates.sort_by(|x, y| {
                y.1.peak
                    .cmp(&x.1.peak)
                    .then_with(|| {
                        (u128::from(y.1.sum) * u128::from(x.1.count))
                            .cmp(&(u128::from(x.1.sum) * u128::from(y.1.count)))
                    })
                    .then_with(|| rank_of(x.0).cmp(&rank_of(y.0)))
            });
            candidates.truncate(k);
            let top: Vec<HotLink> = candidates
                .into_iter()
                .map(|(name, agg, kind)| HotLink {
                    link: name.to_owned(),
                    kind,
                    samples: agg.count,
                    sum: agg.sum,
                    peak: agg.peak,
                })
                .collect();
            (selected_rows * 2, QueryResult::TopK(top))
        }
        QueryOp::Percentiles { window } => {
            let mut windows: Vec<(Timestamp, Vec<u8>)> = Vec::new();
            for s in &in_range {
                let start = s.timestamp.align_down(window);
                if windows.last().map(|w| w.0) != Some(start) {
                    windows.push((start, Vec::new()));
                }
                let bucket = &mut windows.last_mut().expect("window").1;
                for l in picked(s, &query.filter) {
                    bucket.push(l.a.egress_load.percent());
                    bucket.push(l.b.egress_load.percent());
                }
            }
            let stats: Vec<WindowStats> = windows
                .into_iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(start, mut v)| {
                    v.sort_unstable();
                    WindowStats {
                        start,
                        samples: v.len() as u64,
                        p50: percentile(&v, 50),
                        p90: percentile(&v, 90),
                        p99: percentile(&v, 99),
                        max: v.last().copied().unwrap_or(0),
                    }
                })
                .collect();
            (selected_rows * 2, QueryResult::Percentiles(stats))
        }
        QueryOp::SiteLoads => {
            let mut sites: BTreeMap<String, Agg> = BTreeMap::new();
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    for e in [&l.a, &l.b] {
                        if let Some(site) = e.node.site() {
                            sites
                                .entry(site.to_owned())
                                .or_default()
                                .add(e.egress_load.percent());
                        }
                    }
                }
            }
            let samples: u64 = sites.values().map(|a| a.count).sum();
            let loads: Vec<SiteLoad> = sites
                .into_iter()
                .map(|(site, agg)| SiteLoad {
                    site,
                    samples: agg.count,
                    sum: agg.sum,
                    peak: agg.peak,
                })
                .collect();
            (samples, QueryResult::SiteLoads(loads))
        }
        QueryOp::Heatmap { window } => {
            let mut starts: Vec<Timestamp> = Vec::new();
            for s in &in_range {
                let start = s.timestamp.align_down(window);
                if starts.last() != Some(&start) {
                    starts.push(start);
                }
            }
            let pair_of = |l: &Link| {
                let (x, y) = (l.a.node.name.to_string(), l.b.node.name.to_string());
                if y < x {
                    (y, x)
                } else {
                    (x, y)
                }
            };
            let used: BTreeSet<(String, String)> = in_range
                .iter()
                .flat_map(|s| picked(s, &query.filter).into_iter().map(pair_of))
                .collect();
            let groups: Vec<(String, String)> = used.into_iter().collect();
            let columns = groups.len();
            let mut cells = vec![HeatmapCell::default(); starts.len() * columns];
            let mut samples = 0u64;
            for s in &in_range {
                let start = s.timestamp.align_down(window);
                let widx = starts.iter().position(|&w| w == start).expect("window");
                for l in picked(s, &query.filter) {
                    let col = groups
                        .iter()
                        .position(|g| *g == pair_of(l))
                        .expect("used group");
                    samples += 2;
                    let cell = &mut cells[widx * columns + col];
                    cell.samples += 2;
                    cell.sum +=
                        u64::from(l.a.egress_load.percent()) + u64::from(l.b.egress_load.percent());
                    cell.peak = cell
                        .peak
                        .max(l.a.egress_load.percent())
                        .max(l.b.egress_load.percent());
                }
            }
            (
                samples,
                QueryResult::Heatmap(HeatmapGrid {
                    starts,
                    groups: groups
                        .into_iter()
                        .map(|(x, y)| format!("{x} -- {y}"))
                        .collect(),
                    cells,
                }),
            )
        }
    };

    QueryOutput {
        snapshots,
        rows,
        samples,
        result,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any kernel, filter and (possibly empty) range over any
    /// fault-injected history: the vectorized engine must equal the
    /// naive reconstruction reference exactly, at one thread and at
    /// several.
    #[test]
    fn kernels_match_the_naive_reference(
        seed in 0u64..1_000,
        snapshots in 0usize..10,
        routers in 2usize..6,
        parallels in 1usize..4,
        op_idx in 0usize..5,
        kind_idx in 0usize..3,
        site_idx in 0usize..4,
        from_slot in 0i64..12,
        span in 0i64..12,
        k in 1usize..40,
        window_hours in 1u64..4,
    ) {
        let all = history(seed, snapshots, routers, parallels);
        let window = Duration::from_hours(window_hours as i64);
        let op = match op_idx {
            0 => QueryOp::Scan,
            1 => QueryOp::TopK { k },
            2 => QueryOp::Percentiles { window },
            3 => QueryOp::SiteLoads,
            _ => QueryOp::Heatmap { window },
        };
        let mut query = Query::new(op);
        // Partial and empty ranges: `span == 0` selects nothing.
        let from = base() + Duration::from_minutes(30 * from_slot);
        query = query.in_range(TimeRange::new(from, from + Duration::from_minutes(30 * span)));
        match kind_idx {
            1 => query = query.of_kind(LinkKind::Internal),
            2 => query = query.of_kind(LinkKind::External),
            _ => {}
        }
        match site_idx {
            1 => query = query.at_site("rbx"),
            2 => query = query.at_site("gra"),
            3 => query = query.at_site("zzz"), // unknown site: empty selection
            _ => {}
        }

        let store = LongitudinalStore::from_snapshots(&all);
        let expected = reference(&all, &query);
        for threads in [1usize, 3] {
            let mut engine = QueryEngine::new(&store);
            let output = engine.run(&query, threads);
            prop_assert_eq!(
                &output, &expected,
                "seed {} snapshots {} threads {}: {:?}", seed, snapshots, threads, query
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any fault-injected history, range (or none), coverage gap,
    /// change-detection thresholds and Fig. 6 target: the column-driven
    /// suite must equal the naive per-snapshot reference exactly.
    #[test]
    fn suite_matches_the_naive_reference(
        seed in 0u64..1_000,
        snapshots in 0usize..10,
        routers in 2usize..6,
        parallels in 1usize..4,
        ranged in 0usize..3,
        from_slot in 0i64..12,
        span in 0i64..12,
        gap_slots in 0i64..3,
        min_delta in 1usize..4,
        target in 0usize..64,
    ) {
        let all = with_self_loops(seed, history(seed, snapshots, routers, parallels));
        // `ranged == 0` analyses everything; `span == 0` selects nothing.
        let from = base() + Duration::from_minutes(30 * from_slot);
        let range = (ranged > 0)
            .then(|| TimeRange::new(from, from + Duration::from_minutes(30 * span)));
        // A monitored group between two generated routers (parallel
        // `#n` links) or a router and a peering.
        let first = target % routers;
        let to = if target % 2 == 0 {
            router_name((first + 1) % routers)
        } else {
            "ARELION".to_owned()
        };
        let config = SuiteConfig {
            max_gap: Duration::from_minutes(20 + 30 * gap_slots),
            min_router_delta: min_delta,
            min_link_delta: min_delta,
            upgrade: Some(UpgradeTarget {
                from: router_name(first),
                to,
                records: vec![
                    CapacityRecord { at: base(), total_capacity_gbps: 400 },
                    CapacityRecord {
                        at: base() + Duration::from_hours(2),
                        total_capacity_gbps: 500,
                    },
                ],
            }),
            range,
        };
        assert_suite_matches_reference(&config, &all);
        assert_suite_matches_reference(&SuiteConfig::default(), &all);
    }
}

/// A fixed two-map series the generator does not produce: a diurnal
/// load swing, a disabled window on one of two parallel links, a router
/// added mid-series and a lone World snapshot so Table 1 has two rows.
#[test]
fn suite_matches_the_naive_reference_on_a_two_map_series() {
    let mut all = Vec::new();
    for i in 0..12i64 {
        let t = Timestamp::from_ymd_hms(2021, 6, 1, (2 * i) as u8, 0, 0);
        let mut s = TopologySnapshot::new(MapKind::Europe, t);
        s.nodes.push(Node::router("rbx-g1-nc5"));
        s.nodes.push(Node::router("fra-fr5-sbb1"));
        s.nodes.push(Node::peering("ARELION"));
        if i >= 6 {
            s.nodes.push(Node::router("waw-1-n6"));
        }
        let load = |v: u8| Load::new(v).unwrap();
        let wave = (10 + 3 * (i % 4)) as u8;
        for label in ["#1", "#2"] {
            let disabled = label == "#2" && (4..7).contains(&i);
            let (la, lb) = if disabled { (0, 0) } else { (wave, wave / 2) };
            s.links.push(Link::new(
                LinkEnd::new(Node::router("rbx-g1-nc5"), Some(label.into()), load(la)),
                LinkEnd::new(Node::router("fra-fr5-sbb1"), Some(label.into()), load(lb)),
            ));
        }
        s.links.push(Link::new(
            LinkEnd::new(Node::router("rbx-g1-nc5"), None, load(wave / 3)),
            LinkEnd::new(Node::peering("ARELION"), None, load(2)),
        ));
        all.push(s);
    }
    let mut world = TopologySnapshot::new(
        MapKind::World,
        Timestamp::from_ymd_hms(2021, 6, 1, 23, 0, 0),
    );
    world.nodes.push(Node::router("sin-1-a9"));
    all.push(world);

    let config = SuiteConfig::default();
    let report = reference_suite(&config, &all);
    assert_eq!(report.table1.rows.len(), 2);
    assert_eq!(report.maintenance.windows.len(), 1);
    assert_eq!(report.evolution.router_events.len(), 2);
    assert_suite_matches_reference(&config, &all);
}
