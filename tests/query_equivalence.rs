//! Query/segment equivalence: a windowed query served from the compacted
//! segment store must return exactly what the same query returns over a
//! fresh full YAML build restricted to the range — for every kernel, at
//! 1, 2 and 8 threads — and a six-hour window may only decode the
//! segments it intersects (counter-asserted), over a fault-injected
//! corpus.

use ovh_weather::dataset::{reindex_segments_with, TempDir};
use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};

const THREADS: [usize; 3] = [1, 2, 8];
const POLICY: SegmentPolicy = SegmentPolicy { capacity: 5 };

/// Materialises a nine-hour fault-injected YAML corpus for one map:
/// every third SVG corrupted before extraction, one unparsable YAML
/// file at `to` — the same recipe as the segment-equivalence suite,
/// stretched so a six-hour window is a strict interior slice.
/// The directory comes first in the tuple: it must outlive the store.
fn corpus() -> (TempDir, DatasetStore, MapKind, Timestamp, Timestamp) {
    let dir = TempDir::new("query-equivalence").expect("temp dir");
    let sim = Simulation::new(SimulationConfig::scaled(7, 0.1));
    let store = DatasetStore::open(dir.path()).expect("temp corpus");
    let map = MapKind::Europe;
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(9);
    let mut inputs: Vec<BatchInput> = sim
        .corpus_between(map, from, to)
        .map(|f| BatchInput {
            timestamp: f.timestamp,
            svg: f.svg,
        })
        .collect();
    for (i, input) in inputs.iter_mut().enumerate() {
        if i % 3 == 0 {
            let fault = FaultKind::ALL[(i / 3) % FaultKind::ALL.len()];
            input.svg = corrupt(&input.svg, fault, i as u64);
        }
    }
    let (snapshots, stats, _) = extract_batch_with(
        &inputs,
        map,
        &ExtractConfig::default(),
        4,
        Scheduling::WorkStealing,
    );
    assert!(stats.processed > 0, "empty corpus");
    for s in &snapshots {
        store
            .write(
                map,
                FileKind::Yaml,
                s.timestamp,
                to_yaml_string(s).as_bytes(),
            )
            .expect("write yaml");
    }
    store
        .write(map, FileKind::Yaml, to, b"not: [valid yaml")
        .expect("write broken yaml");
    (dir, store, map, from, to)
}

/// One query per kernel, with a spread of filters.
fn queries(site: &str) -> Vec<(&'static str, Query)> {
    vec![
        ("scan", Query::new(QueryOp::Scan)),
        (
            "topk",
            Query::new(QueryOp::TopK { k: 5 }).of_kind(LinkKind::Internal),
        ),
        (
            "percentiles",
            Query::new(QueryOp::Percentiles {
                window: Duration::from_hours(1),
            })
            .at_site(site),
        ),
        ("sites", Query::new(QueryOp::SiteLoads)),
        (
            "heatmap",
            Query::new(QueryOp::Heatmap {
                window: Duration::from_hours(2),
            })
            .of_kind(LinkKind::External),
        ),
    ]
}

#[test]
fn windowed_query_equals_fresh_restricted_build() {
    let (_dir, store, map, from, to) = corpus();

    // The reconstruction-free reference substrate: one fresh full build.
    let (full, _) = build_longitudinal(&store, map, 4).expect("fresh build");
    assert!(!full.is_empty(), "corpus yielded no snapshots");

    // Pick a real site for the filtered queries.
    let mut probe = QueryEngine::new(&full);
    let sites_out = probe.run(&Query::new(QueryOp::SiteLoads), 4);
    let QueryResult::SiteLoads(site_loads) = &sites_out.result else {
        panic!("sites query returned a foreign result");
    };
    let site = site_loads.first().expect("at least one site").site.clone();

    // Compact the corpus into deliberately small segments so a six-hour
    // window crosses several of them without covering the history.
    let (manifest, _) =
        reindex_segments_with(&store, map, 4, CacheMode::Auto, POLICY).expect("reindex");
    assert!(
        manifest.segments.len() >= 4,
        "want several segments, got {}",
        manifest.segments.len()
    );

    let six_hours = TimeRange::new(
        from + Duration::from_minutes(90),
        from + Duration::from_minutes(90) + Duration::from_hours(6),
    );
    let windows = vec![
        ("all", TimeRange::ALL),
        ("six hours", six_hours),
        (
            "prefix",
            TimeRange::new(from, from + Duration::from_hours(2)),
        ),
        (
            "past history",
            TimeRange::new(to + Duration::from_days(1), to + Duration::from_days(2)),
        ),
    ];

    for (what, range) in windows {
        let intersecting = manifest
            .segments
            .iter()
            .filter(|m| range.intersects_closed(m.t_min, m.t_max))
            .count() as u64;
        if what == "six hours" {
            assert!(
                intersecting >= 2,
                "a six-hour window should span several segments"
            );
            assert!(
                intersecting < manifest.segments.len() as u64,
                "a six-hour window must not cover the whole history"
            );
        }

        for (name, query) in queries(&site) {
            let query = query.in_range(range);

            // Reference one: the engine's own range mask over the full
            // fresh build — no segment store involved.
            let mut engine = QueryEngine::new(&full);
            let expected = engine.run(&query, 4);
            let expected_counters = engine.counters();

            // Reference two: a cache-less fresh build restricted to the
            // window before parsing, then the same kernel.
            let (restricted, _) =
                build_longitudinal_windowed_with(&store, map, range, 4, CacheMode::Off, POLICY)
                    .expect("restricted build");
            let mut engine = QueryEngine::new(&restricted);
            let via_restricted = engine.run(&query, 4);
            assert_eq!(
                via_restricted, expected,
                "{what}/{name}: restricted fresh build disagrees with the range mask"
            );

            // The windowed path over the compacted segment store must
            // agree with both, at every thread count, and may decode
            // only the segments the window intersects.
            for threads in THREADS {
                let (columnar, load) = build_longitudinal_windowed_with(
                    &store,
                    map,
                    range,
                    threads,
                    CacheMode::Auto,
                    POLICY,
                )
                .expect("windowed load");
                let mut engine = QueryEngine::new(&columnar);
                let output = engine.run(&query, threads);
                assert_eq!(output, expected, "{what}/{name}/{threads}t: output");
                assert_eq!(
                    engine.counters(),
                    expected_counters,
                    "{what}/{name}/{threads}t: kernel counters"
                );
                assert_eq!(
                    load.cache.segments_touched, intersecting,
                    "{what}/{name}/{threads}t: touched ≠ intersecting"
                );
                assert_eq!(
                    load.cache.segments_rebuilt, 0,
                    "{what}/{name}/{threads}t: segments were damaged"
                );
            }
        }
    }
}
