//! The §5 suite end to end over a materialised corpus: one streaming
//! load into the columnar longitudinal store, then one
//! `AnalysisSuite::run_store` scan producing every artifact, at several
//! loader thread counts.

use criterion::{criterion_group, criterion_main, Criterion};
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

/// One streaming load, one scan, all nine modules.
fn single_pass(store: &DatasetStore, threads: usize) -> usize {
    let (columnar, _) = build_longitudinal(store, MapKind::Europe, threads).expect("build");
    let (report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &columnar);
    report.snapshots + report.sites.len() + report.table1.rows.len()
}

fn bench_analyze(c: &mut Criterion) {
    let (_dir, store) = corpus_store();
    let mut group = c.benchmark_group("analyze/europe-3h");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_function(format!("single-pass-t{threads}"), |b| {
            b.iter(|| single_pass(&store, threads));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
