//! Multi-pass vs single-pass §5 analysis over a materialised corpus.
//!
//! The legacy shape paid one corpus load per analysis — nine walks over
//! the YAML tree to produce the timeframe, evolution, degree, load,
//! imbalance, table, site and maintenance artifacts. The suite folds all
//! nine into one streaming scan of the columnar longitudinal store. This
//! bench measures both shapes end-to-end (disk to report) at several
//! loader thread counts.

use criterion::{criterion_group, criterion_main, Criterion};
use ovh_weather::analysis::{
    coverage_segments, detect_changes, evolution_series, maintenance_windows, site_growth, table1,
    GapDistribution,
};
use ovh_weather::dataset::TempDir;
use ovh_weather::prelude::*;

/// Materialises three hours of the Europe map into a temp store shared
/// by every bench iteration.
fn corpus_store() -> (TempDir, DatasetStore) {
    let dir = TempDir::new("bench-analyze").expect("bench corpus dir");
    let store = DatasetStore::open(dir.path()).expect("bench corpus dir");
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.15));
    let from = Timestamp::from_ymd(2022, 2, 1);
    pipeline
        .materialize_window(
            &store,
            MapKind::Europe,
            from,
            from + Duration::from_hours(3),
        )
        .expect("materialise bench corpus");
    (dir, store)
}

/// The pre-suite analysis path: every §5 module re-loads the corpus.
fn multi_pass(store: &DatasetStore, threads: usize) -> usize {
    let config = SuiteConfig::default();
    let map = MapKind::Europe;
    let mut touched = 0usize;

    let times: Vec<Timestamp> = load_snapshots(store, map, threads)
        .expect("load")
        .0
        .iter()
        .map(|s| s.timestamp)
        .collect();
    touched += coverage_segments(&times, config.max_gap).len();
    touched += GapDistribution::new(&times).distances.len();

    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let series = evolution_series(&snapshots);
    touched += detect_changes(&series, |p| p.routers, config.min_router_delta).len();
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let series = evolution_series(&snapshots);
    touched += detect_changes(&series, |p| p.internal_links, config.min_link_delta).len();

    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    if let Some(last) = snapshots.last() {
        touched += DegreeAnalysis::of(last).distribution().len();
    }

    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let mut hourly = HourlyLoads::new();
    for s in &snapshots {
        hourly.add_snapshot(s);
    }
    touched += usize::from(hourly.extreme_hours().is_some());
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let mut cdf = LoadCdf::new();
    for s in &snapshots {
        cdf.add_snapshot(s);
    }
    touched += cdf.all().len();
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let mut imbalance = ImbalanceCdf::new();
    for s in &snapshots {
        imbalance.add_snapshot(s);
    }
    touched += imbalance.internal().len();

    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    touched += table1(&snapshots).rows.len();

    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    touched += site_growth(&snapshots).len();

    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    touched += maintenance_windows(&snapshots).len();

    touched
}

/// The suite path: one streaming load, one scan, all nine modules.
fn single_pass(store: &DatasetStore, threads: usize) -> usize {
    let (columnar, _) = build_longitudinal(store, MapKind::Europe, threads).expect("build");
    let report = AnalysisSuite::run(SuiteConfig::default(), columnar.snapshots());
    report.snapshots + report.sites.len() + report.table1.rows.len()
}

fn bench_analyze(c: &mut Criterion) {
    let (_dir, store) = corpus_store();
    let mut group = c.benchmark_group("analyze/europe-3h");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_function(format!("multi-pass-t{threads}"), |b| {
            b.iter(|| multi_pass(&store, threads));
        });
        group.bench_function(format!("single-pass-t{threads}"), |b| {
            b.iter(|| single_pass(&store, threads));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
