//! Suite equivalence: the column-driven §5 suite over the longitudinal
//! store must equal, field for field and byte for byte, the naive
//! per-snapshot reference (`tests/common`) over the same snapshots — per
//! map, over a merged two-map stream, and over a mid-series range — and
//! must not depend on the loader's thread count.

mod common;

use common::reference_suite;
use ovh_weather::dataset::TempDir;
use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};

/// Materialises a two-map YAML corpus with injected faults: every third
/// SVG is corrupted before extraction (so the YAML tree has real holes —
/// coverage gaps, not synthetic ones), and one unparsable YAML file per
/// map exercises the loader's skip-and-count path.
///
/// Each call gets its own directory (tests run on parallel threads of
/// one process); it comes first in the tuple and must outlive the store.
fn corpus() -> (TempDir, DatasetStore, Vec<MapKind>) {
    let dir = TempDir::new("analysis-equivalence").expect("temp dir");
    let sim = Simulation::new(SimulationConfig::scaled(7, 0.1));
    let store = DatasetStore::open(dir.path()).expect("temp corpus");
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(3);
    let maps = vec![MapKind::Europe, MapKind::World];
    for &map in &maps {
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
        assert!(stats.processed > 0, "{map}: empty corpus");
        assert!(
            stats.failed > 0,
            "{map}: expected injected faults to leave gaps"
        );
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
    }
    (dir, store, maps)
}

/// Whole-report equality: derived `PartialEq`, the debug form and the
/// rendered text.
fn assert_same_report(report: &SuiteReport, expected: &SuiteReport, what: &str) {
    assert_eq!(report, expected, "{what}: report");
    assert_eq!(
        format!("{report:?}"),
        format!("{expected:?}"),
        "{what}: debug form"
    );
    assert_eq!(report.render(), expected.render(), "{what}: rendered text");
}

#[test]
fn single_pass_suite_equals_legacy_multi_pass() {
    let (_dir, store, maps) = corpus();
    let config = SuiteConfig::default();

    for &map in &maps {
        // One streaming load into the columnar store, one suite scan.
        let (columnar, _) = build_longitudinal(&store, map, 4).expect("columnar build");
        let (report, _) = AnalysisSuite::run_store(config.clone(), &columnar);

        // The reference folds the loaded snapshots one by one.
        let snapshots = load_snapshots(&store, map, 4).expect("load").0;
        assert_eq!(report.snapshots, snapshots.len());
        assert_same_report(
            &report,
            &reference_suite(&config, &snapshots),
            &map.to_string(),
        );
        assert_eq!(report.table1.rows.len(), 1);
        assert_eq!(report.upgrade, None);
    }

    // A merged multi-map stream assembles Table 1 from the last snapshot
    // seen per map.
    let mut merged = Vec::new();
    for &map in &maps {
        merged.extend(load_snapshots(&store, map, 4).expect("load").0);
    }
    merged.sort_by_key(|s| (s.timestamp, s.map));
    let (merged_report, _) =
        AnalysisSuite::run_store(config.clone(), &LongitudinalStore::from_snapshots(&merged));
    assert_same_report(&merged_report, &reference_suite(&config, &merged), "merged");
    assert_eq!(merged_report.table1.rows.len(), maps.len());
}

#[test]
fn store_driven_suite_is_byte_identical_to_legacy() {
    let (_dir, store, maps) = corpus();
    let config = SuiteConfig::default();

    for &map in &maps {
        let snapshots = load_snapshots(&store, map, 1).expect("serial load").0;
        let expected = reference_suite(&config, &snapshots);

        // A mid-series cut exercises the range-aware scan against the
        // reference's own range filter.
        let mid = snapshots[snapshots.len() / 2].timestamp;
        let ranged_config = SuiteConfig {
            range: Some(TimeRange::new(mid, TimeRange::ALL.end)),
            ..SuiteConfig::default()
        };
        let expected_ranged = reference_suite(&ranged_config, &snapshots);

        for threads in [1usize, 2, 8] {
            let (columnar, _) = build_longitudinal(&store, map, threads).expect("build");
            let what = format!("{map}, {threads} threads");

            let (report, stats) = AnalysisSuite::run_store(config.clone(), &columnar);
            assert_same_report(&report, &expected, &what);
            assert_eq!(stats.snapshots_scanned, columnar.len() as u64);
            assert_eq!(stats.rows_scanned, columnar.observations() as u64);

            let (ranged, ranged_stats) = AnalysisSuite::run_store(ranged_config.clone(), &columnar);
            assert_same_report(&ranged, &expected_ranged, &format!("{what}, ranged"));
            assert!(
                ranged_stats.snapshots_scanned < stats.snapshots_scanned,
                "{map}: the range restriction must shrink the scan"
            );
        }
    }
}

#[test]
fn suite_is_thread_invariant() {
    let (_dir, store, maps) = corpus();

    for &map in &maps {
        let (baseline_store, baseline_stats) =
            build_longitudinal(&store, map, 1).expect("serial build");
        let (baseline_report, _) =
            AnalysisSuite::run_store(SuiteConfig::default(), &baseline_store);

        for threads in [2usize, 8] {
            let (columnar, stats) = build_longitudinal(&store, map, threads).expect("build");
            assert_eq!(columnar, baseline_store, "{map}, {threads} threads: store");
            assert_eq!(stats, baseline_stats, "{map}, {threads} threads: stats");
            // Byte-identical, not merely structurally equal: the rendered
            // text and the full debug form must match the serial run.
            let (report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &columnar);
            assert_same_report(
                &report,
                &baseline_report,
                &format!("{map}, {threads} threads"),
            );
        }
    }
}
