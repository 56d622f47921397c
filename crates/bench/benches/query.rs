//! Vectorized query kernels vs the snapshot-reconstruction baseline.
//!
//! The query engine exists so §5-style questions (hottest links, load
//! percentiles, per-site aggregates, heatmap grids) run straight over
//! the columnar load rows instead of reconstructing every
//! `TopologySnapshot` and walking its link vectors. This bench pins
//! both sides — each vectorized kernel, and the reconstruction loop it
//! replaced for the two headline kernels — so a regression in the
//! column masks, chunk merging, or the reconstruction fast paths shows
//! up as a wall-clock change.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, Criterion};
use ovh_weather::dataset::TempDir;
use ovh_weather::prelude::*;

const MAP: MapKind = MapKind::Europe;
const THREADS: usize = 4;

/// Two hours of the Europe map, loaded once into the columnar store (the
/// YAML corpus is removed once loaded).
fn corpus_store() -> LongitudinalStore {
    let dir = TempDir::new("bench-query").expect("bench corpus dir");
    let store = DatasetStore::open(dir.path()).expect("bench corpus dir");
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.15));
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(2);
    pipeline
        .materialize_window(&store, MAP, from, to)
        .expect("materialise bench corpus");
    let (columnar, _) = build_longitudinal(&store, MAP, THREADS).expect("columnar build");
    columnar
}

/// The display form the engine uses for a link's canonical orientation.
fn display(link: &Link) -> String {
    let key = |e: &LinkEnd| {
        (
            e.node.name.to_string(),
            format!("{:?}", e.node.kind),
            e.label.clone(),
        )
    };
    let (first, second) = if key(&link.b) < key(&link.a) {
        (&link.b, &link.a)
    } else {
        (&link.a, &link.b)
    };
    let end = |e: &LinkEnd| match &e.label {
        Some(l) => format!("{} {}", e.node.name, l),
        None => e.node.name.to_string(),
    };
    format!("{} <-> {}", end(first), end(second))
}

/// Reconstruction baseline for top-k: rebuild every snapshot, aggregate
/// per link in a map, sort. Returns the hottest link's peak load.
fn reconstruct_topk_peak(store: &LongitudinalStore, k: usize) -> u8 {
    let mut aggs: BTreeMap<String, (u64, u64, u8)> = BTreeMap::new();
    for s in store.snapshots() {
        for l in &s.links {
            let entry = aggs.entry(display(l)).or_default();
            for load in [l.a.egress_load.percent(), l.b.egress_load.percent()] {
                entry.0 += 1;
                entry.1 += u64::from(load);
                entry.2 = entry.2.max(load);
            }
        }
    }
    let mut ranked: Vec<(u64, u64, u8)> = aggs.into_values().collect();
    ranked.sort_by(|x, y| {
        y.2.cmp(&x.2).then_with(|| {
            (u128::from(y.1) * u128::from(x.0)).cmp(&(u128::from(x.1) * u128::from(y.0)))
        })
    });
    ranked.truncate(k);
    ranked.first().map_or(0, |r| r.2)
}

/// Reconstruction baseline for percentiles: rebuild every snapshot,
/// bucket samples per aligned window, sort each bucket. Returns the
/// number of non-empty windows.
fn reconstruct_percentile_windows(store: &LongitudinalStore, window: Duration) -> usize {
    let mut windows: Vec<(Timestamp, Vec<u8>)> = Vec::new();
    for s in store.snapshots() {
        let start = s.timestamp.align_down(window);
        if windows.last().map(|w| w.0) != Some(start) {
            windows.push((start, Vec::new()));
        }
        let bucket = &mut windows.last_mut().expect("window").1;
        for l in &s.links {
            bucket.push(l.a.egress_load.percent());
            bucket.push(l.b.egress_load.percent());
        }
    }
    windows.retain(|(_, v)| !v.is_empty());
    for (_, v) in &mut windows {
        v.sort_unstable();
    }
    windows.len()
}

fn bench_query(c: &mut Criterion) {
    let columnar = corpus_store();
    let mut group = c.benchmark_group("query/europe-2h");
    group.sample_size(10);

    let ops: Vec<(&str, Query)> = vec![
        ("scan", Query::new(QueryOp::Scan)),
        ("topk10", Query::new(QueryOp::TopK { k: 10 })),
        (
            "percentiles-1h",
            Query::new(QueryOp::Percentiles {
                window: Duration::from_hours(1),
            }),
        ),
        ("sites", Query::new(QueryOp::SiteLoads)),
        (
            "heatmap-1h",
            Query::new(QueryOp::Heatmap {
                window: Duration::from_hours(1),
            }),
        ),
    ];
    for (name, query) in &ops {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut engine = QueryEngine::new(&columnar);
                engine.run(query, THREADS).samples
            });
        });
    }

    // The loops the engine replaced, paying snapshot reconstruction.
    let top = {
        let mut engine = QueryEngine::new(&columnar);
        match engine
            .run(&Query::new(QueryOp::TopK { k: 10 }), THREADS)
            .result
        {
            QueryResult::TopK(top) => top,
            other => panic!("top-k query returned {other:?}"),
        }
    };
    let expected_peak = top.first().map_or(0, |h| h.peak);
    group.bench_function("topk10-reconstruct", |b| {
        b.iter(|| {
            let peak = reconstruct_topk_peak(&columnar, 10);
            assert_eq!(peak, expected_peak, "baseline disagrees with the engine");
            peak
        });
    });
    group.bench_function("percentiles-1h-reconstruct", |b| {
        b.iter(|| reconstruct_percentile_windows(&columnar, Duration::from_hours(1)));
    });

    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
