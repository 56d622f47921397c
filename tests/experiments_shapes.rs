//! Shape checks for the paper's evaluation artifacts (Tables 1–2,
//! Figures 2–6), run end-to-end through the extraction pipeline at
//! reduced scale. The bench crate's experiment binaries print the full
//! rows; these tests pin the *inequalities the paper claims* so
//! regressions fail loudly.

use ovh_weather::analysis::timeframe::GapDistribution;
use ovh_weather::dataset::TempDir;
use ovh_weather::prelude::*;
use ovh_weather::simulator::collector::gaps;

fn pipeline(scale: f64) -> Pipeline {
    Pipeline::new(SimulationConfig::scaled(42, scale))
}

// --- Table 1 -----------------------------------------------------------

#[test]
fn table1_matches_paper_counts_at_full_scale() {
    // State-level check (no rendering): the evolved end states hit the
    // paper's Table 1 numbers exactly.
    let p = pipeline(1.0);
    let reference = Timestamp::from_ymd_hms(2022, 9, 12, 12, 0, 0);
    let snapshots: Vec<TopologySnapshot> = MapKind::ALL
        .iter()
        .map(|map| p.simulation().snapshot(*map, reference).truth)
        .collect();
    let table = table1(&snapshots);

    let expected = [
        (MapKind::Europe, 113, 744, 265),
        (MapKind::World, 16, 76, 0),
        (MapKind::NorthAmerica, 60, 407, 214),
        (MapKind::AsiaPacific, 23, 96, 39),
    ];
    for (map, routers, internal, external) in expected {
        let row = table
            .rows
            .iter()
            .find(|r| r.map == map)
            .expect("row exists");
        assert_eq!(row.routers, routers, "{map} routers");
        assert_eq!(row.internal_links, internal, "{map} internal");
        assert_eq!(row.external_links, external, "{map} external");
    }
    // Plain sums: 744+76+407+96 and 265+0+214+39. The paper's total row
    // prints 1 186 internal links — it deduplicates intercontinental
    // links drawn on both the World and a continental map, an overlap
    // this reproduction does not model (documented in EXPERIMENTS.md).
    // The external total (518) is a plain sum in the paper too.
    assert_eq!(table.total_internal, 1_323);
    assert_eq!(table.total_external, 518);
    // Router total dedups by name: World's 16 gateways are all borrowed
    // from the continental maps (the paper's 181 also dedups ~15 routers
    // shared between continental maps, which we do not model).
    assert_eq!(table.total_routers, 113 + 60 + 23);
}

// --- Table 2 -----------------------------------------------------------

#[test]
fn table2_corpus_bookkeeping() {
    let p = pipeline(0.1);
    let dir = TempDir::new("experiments-table2").unwrap();
    let store = DatasetStore::open(dir.path()).unwrap();
    let from = Timestamp::from_ymd(2022, 2, 15);
    let to = Timestamp::from_ymd(2022, 2, 16);
    let mut refused_total = 0;
    for map in MapKind::ALL {
        let result = p.materialize_window(&store, map, from, to).unwrap();
        refused_total += result.stats.failed;
        // YAML files exist exactly for the processed snapshots.
        let yaml = store.entries_of(map, FileKind::Yaml).unwrap();
        assert_eq!(yaml.len(), result.stats.processed, "{map}");
    }
    let stats = CorpusStats::from_entries(&store.entries().unwrap());
    // SVG is substantially larger than YAML (paper: 227.9 vs 28.5 GiB).
    let svg = stats.total(FileKind::Svg);
    let yaml = stats.total(FileKind::Yaml);
    assert!(
        svg.bytes > yaml.bytes * 3,
        "SVG {} vs YAML {}",
        svg.bytes,
        yaml.bytes
    );
    // Unprocessed files exist but are a tiny fraction (paper: <100 out of
    // 100k+ per map; here one day × 4 maps ≈ 1 100 files).
    assert!(
        refused_total * 100 <= svg.files,
        "too many refused: {refused_total}"
    );
}

// --- Fig. 2 / Fig. 3 -----------------------------------------------------

#[test]
fn fig2_coverage_segments_shape() {
    let p = pipeline(0.1);
    // Europe: one long run; the others have the year-long hole.
    for map in MapKind::ALL {
        let plan = p.simulation().collection_plan(map);
        assert_eq!(
            plan.segments().len(),
            if map == MapKind::Europe { 1 } else { 2 },
            "{map}"
        );
    }
    // Coverage segmentation over a quiet month reproduces availability.
    let times: Vec<Timestamp> = p
        .simulation()
        .collection_plan(MapKind::Europe)
        .collected_times_between(
            Timestamp::from_ymd(2022, 7, 1),
            Timestamp::from_ymd(2022, 8, 1),
        )
        .collect();
    let segments = coverage_segments(&times, Duration::from_hours(12));
    assert_eq!(
        segments.len(),
        1,
        "post-fix July 2022 should be one segment"
    );
}

#[test]
fn fig3_gap_distribution_shape() {
    let p = pipeline(0.1);
    let window = (
        Timestamp::from_ymd(2022, 1, 1),
        Timestamp::from_ymd(2022, 3, 1),
    );
    // Europe ≥ 99.8 % at the 5-minute resolution.
    let europe_times: Vec<Timestamp> = p
        .simulation()
        .collection_plan(MapKind::Europe)
        .collected_times_between(window.0, window.1)
        .collect();
    let europe = GapDistribution::new(&europe_times);
    assert!(
        europe.fraction_at_resolution() > 0.995,
        "{}",
        europe.fraction_at_resolution()
    );

    // Non-Europe maps: coarser less than 10 % of the time, mostly ≤ 10 min.
    for map in [MapKind::World, MapKind::NorthAmerica, MapKind::AsiaPacific] {
        let times: Vec<Timestamp> = p
            .simulation()
            .collection_plan(map)
            .collected_times_between(window.0, window.1)
            .collect();
        let dist = GapDistribution::new(&times);
        let at_5min = dist.fraction_at_resolution();
        assert!(at_5min > 0.90 && at_5min < 0.999, "{map}: {at_5min}");
        assert!(
            dist.fraction_within(Duration::from_minutes(10)) > 0.95,
            "{map}"
        );
    }

    // The raw gap helper agrees with the distribution's sample count.
    let durations = gaps(&europe_times);
    assert_eq!(durations.len(), europe.distances.len());
}

// --- Fig. 4 -----------------------------------------------------------

#[test]
fn fig4_evolution_signatures() {
    // State-level series at full scale: the scripted storyline shows.
    let p = pipeline(1.0);
    let tl = p.simulation().timeline(MapKind::Europe);
    let series: Vec<(Timestamp, usize, usize, usize)> = (0..113)
        .map(|week| {
            let t = Timestamp::from_ymd(2020, 7, 15) + Duration::from_days(week * 7);
            let state = tl.state_at(t);
            let (i, e) = state.link_counts();
            (t, state.routers().count(), i, e)
        })
        .collect();

    // Fig. 4a: +10 then -4 routers across Aug-Oct 2020.
    let at = |y: i32, m: u8, d: u8| {
        series
            .iter()
            .rev()
            .find(|(t, ..)| *t <= Timestamp::from_ymd(y, m, d))
            .expect("in range")
    };
    let genesis_routers = series[0].1;
    assert_eq!(at(2020, 9, 20).1, genesis_routers + 10, "MBB peak");
    assert_eq!(
        at(2020, 11, 15).1,
        genesis_routers + 6,
        "after MBB removals"
    );
    // June 2021 removals.
    assert_eq!(at(2021, 7, 1).1, at(2021, 5, 25).1 - 4);
    // Fig. 4b: November 2021 internal step of +40.
    assert_eq!(at(2021, 12, 1).2, at(2021, 11, 1).2 + 40);
    // External links grow monotonically overall.
    assert!(series.last().unwrap().3 > series[0].3 + 30);
}

#[test]
fn fig4c_degree_ccdf_through_extraction() {
    let p = pipeline(1.0);
    let t = Timestamp::from_ymd_hms(2022, 9, 12, 12, 0, 0);
    let rendered = p.simulation().snapshot(MapKind::Europe, t);
    let snapshot = extract_svg(&rendered.svg, MapKind::Europe, t, p.extract_config())
        .expect("full-scale extraction");
    let degrees = DegreeAnalysis::of(&snapshot);
    assert!(
        degrees.fraction_single_link() > 0.20,
        "{}",
        degrees.fraction_single_link()
    );
    assert!(
        degrees.fraction_above(20) > 0.20,
        "{}",
        degrees.fraction_above(20)
    );
}

// --- Fig. 5 -----------------------------------------------------------

#[test]
fn fig5_load_shapes_through_extraction() {
    let p = pipeline(0.2);
    // A week sampled every 4 hours.
    let result = p.run_window_sampled(
        MapKind::Europe,
        Timestamp::from_ymd(2022, 2, 1),
        Timestamp::from_ymd(2022, 2, 8),
        48,
    );
    assert!(result.snapshots.len() > 30);

    let mut hourly = HourlyLoads::new();
    let mut cdf = LoadCdf::new();
    let mut imbalance = ImbalanceCdf::new();
    for s in &result.snapshots {
        hourly.add_snapshot(s);
        cdf.add_snapshot(s);
        imbalance.add_snapshot(s);
    }

    // Fig. 5a: trough 02-04h, peak 19-21h.
    let (trough, peak) = hourly.extreme_hours().expect("data");
    assert!((2..=5).contains(&trough), "trough at {trough}");
    assert!((19..=21).contains(&peak), "peak at {peak}");
    // Variance grows with load: IQR at peak > IQR at trough.
    let iqr_peak = hourly.summary(peak).unwrap().iqr();
    let iqr_trough = hourly.summary(trough).unwrap().iqr();
    assert!(
        iqr_peak > iqr_trough,
        "IQR peak {iqr_peak} vs trough {iqr_trough}"
    );

    // Fig. 5b: 75 % below ~33 %, few above 60 %, externals cooler.
    let (p75, above60, delta) = cdf.headline().expect("data");
    assert!((22.0..42.0).contains(&p75), "p75 {p75}");
    assert!(above60 < 0.06, "above-60 fraction {above60}");
    assert!(delta < 0.0, "external mean must be lower, delta {delta}");

    // Fig. 5c: > 60 % of imbalances ≤ 1 point; externals > 90 % ≤ 2.
    let (all_le_1, external_le_2) = imbalance.headline();
    assert!(all_le_1 > 0.60, "all ≤1: {all_le_1}");
    assert!(external_le_2 > 0.90, "external ≤2: {external_le_2}");
}

// --- Fig. 6 -----------------------------------------------------------

#[test]
fn fig6_upgrade_detection_through_extraction() {
    let p = pipeline(0.5);
    let scenario = p
        .simulation()
        .scenario()
        .expect("scenario scheduled")
        .clone();
    // Daily samples over March 2022.
    let result = p.run_window_sampled(
        MapKind::Europe,
        Timestamp::from_ymd(2022, 3, 1),
        Timestamp::from_ymd(2022, 4, 1),
        288,
    );
    let observations: Vec<_> = result
        .snapshots
        .iter()
        .filter_map(|s| observe_group(s, &scenario.router, &scenario.peering))
        .collect();
    assert!(observations.len() > 25);

    let records: Vec<CapacityRecord> = scenario
        .peeringdb_records
        .iter()
        .map(|r| CapacityRecord {
            at: r.at,
            total_capacity_gbps: r.total_capacity_gbps,
        })
        .collect();
    let report = detect_upgrade(&observations, &records);

    let added = report.link_added.expect("arrow A");
    let activated = report.link_activated.expect("arrow C");
    assert!(added >= scenario.link_added);
    assert!(added - scenario.link_added <= Duration::from_days(2));
    assert!(activated >= scenario.link_activated);
    assert!(activated - scenario.link_activated <= Duration::from_days(2));
    assert_eq!(report.inferred_link_capacity_gbps, Some(100.0));
    // Per-link load drops roughly by the capacity ratio 4/5 (diurnal and
    // demand noise blur the instantaneous ratio).
    let ratio = report.load_drop_ratio().expect("loads measured");
    assert!((0.55..0.95).contains(&ratio), "drop ratio {ratio}");
}
