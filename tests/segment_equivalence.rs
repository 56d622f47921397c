//! Segment-store equivalence: a windowed load must be indistinguishable
//! from a fresh YAML build restricted to the same window — same store,
//! field by field, same load counters, same `SuiteReport` — at 1, 2 and
//! 8 threads, over a fault-injected two-map corpus. The full-history
//! cached load (`build_longitudinal_cached`) must equal a fresh build
//! cold, warm, after growth and in every `CacheMode`. Sealed segment
//! bytes must not depend on who wrote them: identical across thread
//! counts and identical between append-then-compact and fresh-build
//! histories. And appending must rewrite only the active tail.

use std::collections::BTreeMap;

use ovh_weather::dataset::{decode_manifest, TempDir};
use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};

const THREADS: [usize; 3] = [1, 2, 8];
const POLICY: SegmentPolicy = SegmentPolicy { capacity: 5 };

/// Materialises a fault-injected YAML window over `[from, to)`: every
/// third SVG is corrupted before extraction (real coverage holes) and
/// one unparsable YAML file per map at `to` exercises the
/// skip-and-count path. Reused with a later window to grow the corpus.
fn write_window(store: &DatasetStore, maps: &[MapKind], from: Timestamp, to: Timestamp) {
    let sim = Simulation::new(SimulationConfig::scaled(7, 0.1));
    for &map in maps {
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
        assert!(stats.failed > 0, "{map}: expected injected faults");
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
}

/// A corpus and the directory holding it, removed when `_dir` drops —
/// so every destructuring must bind `_dir` to keep the corpus alive.
struct Corpus {
    _dir: TempDir,
    store: DatasetStore,
    maps: Vec<MapKind>,
    from: Timestamp,
    to: Timestamp,
}

fn corpus(tag: &str) -> Corpus {
    let dir = TempDir::new(&format!("segment-equivalence-{tag}")).expect("temp dir");
    let store = DatasetStore::open(dir.path()).expect("temp corpus");
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(2);
    let maps = vec![MapKind::Europe, MapKind::World];
    write_window(&store, &maps, from, to);
    Corpus {
        _dir: dir,
        store,
        maps,
        from,
        to,
    }
}

/// Every segment-store file of one map, by name, `manifest` included.
fn segment_files(store: &DatasetStore, map: MapKind) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for name in store.list_segment_files(map).expect("list segments") {
        let bytes = store
            .read_segment_file(map, &name)
            .expect("read segment")
            .expect("segment listed but unreadable");
        files.insert(name, bytes);
    }
    if let Some(bytes) = store.read_manifest_bytes(map).expect("read manifest") {
        files.insert("manifest".to_owned(), bytes);
    }
    files
}

fn windowed(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
) -> (LongitudinalStore, CorpusLoadStats) {
    build_longitudinal_windowed_with(store, map, range, threads, mode, POLICY)
        .expect("windowed load")
}

#[test]
fn windowed_load_equals_restricted_fresh_build() {
    let Corpus {
        _dir,
        store,
        maps,
        from,
        to,
    } = corpus("windows");

    for &map in &maps {
        // Populate the segment store once.
        let (_, stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(stats.cache.misses, 1, "{map}: first build is a miss");

        // Full-range windowed load ≡ the uncached fresh build.
        let (full, full_stats) = build_longitudinal(&store, map, 4).expect("fresh build");
        let (via_segments, seg_stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(via_segments, full, "{map}: full-range windowed store");
        assert_eq!(seg_stats.base(), full_stats, "{map}: full-range stats");
        assert_eq!(seg_stats.cache.hits, 1);
        assert_eq!(
            seg_stats.cache.snapshots_from_cache,
            full.len() as u64,
            "{map}: everything served from segments"
        );

        let manifest_bytes = store
            .read_manifest_bytes(map)
            .expect("read manifest")
            .expect("manifest exists");
        let manifest = decode_manifest(&manifest_bytes).expect("valid manifest");
        assert!(manifest.segments.len() >= 3, "{map}: want several segments");

        // A spread of windows: full span, prefix, suffix, interior,
        // exactly one segment's closed span, and a window past history.
        let one_seg = &manifest.segments[1];
        let windows = vec![
            ("all", TimeRange::ALL),
            (
                "prefix hour",
                TimeRange::new(from, from + Duration::from_hours(1)),
            ),
            (
                "suffix",
                TimeRange::new(
                    from + Duration::from_minutes(70),
                    to + Duration::from_hours(1),
                ),
            ),
            (
                "interior",
                TimeRange::new(
                    from + Duration::from_minutes(25),
                    from + Duration::from_minutes(95),
                ),
            ),
            (
                "single segment",
                TimeRange::new(
                    one_seg.t_min,
                    Timestamp::from_unix(one_seg.t_max.unix() + 1),
                ),
            ),
            (
                "past history",
                TimeRange::new(to + Duration::from_days(1), to + Duration::from_days(2)),
            ),
        ];

        for (what, range) in windows {
            // The cache-less reference: a fresh YAML build restricted to
            // the window before parsing.
            let (reference, reference_stats) = windowed(&store, map, range, 4, CacheMode::Off);

            for threads in THREADS {
                let (loaded, stats) = windowed(&store, map, range, threads, CacheMode::Auto);
                assert_eq!(loaded, reference, "{map}/{what}/{threads}t: store");
                assert_eq!(
                    stats.base(),
                    reference_stats.base(),
                    "{map}/{what}/{threads}t: load counters"
                );
                // Only intersecting segments may be touched.
                let intersecting = manifest
                    .segments
                    .iter()
                    .filter(|m| range.intersects_closed(m.t_min, m.t_max))
                    .count() as u64;
                assert_eq!(
                    stats.cache.segments_touched, intersecting,
                    "{map}/{what}/{threads}t: touched ≠ intersecting"
                );
                assert_eq!(stats.cache.segments_rebuilt, 0, "{map}/{what}: no damage");

                // The reports agree, and the suite's own range filter
                // over the *full* store agrees with both.
                let report = AnalysisSuite::run(SuiteConfig::default(), loaded.snapshots());
                let reference_report =
                    AnalysisSuite::run(SuiteConfig::default(), reference.snapshots());
                assert_eq!(report, reference_report, "{map}/{what}: report");
                let config = SuiteConfig {
                    range: Some(range),
                    ..SuiteConfig::default()
                };
                let filtered_report = AnalysisSuite::run(config, full.snapshots());
                assert_eq!(report, filtered_report, "{map}/{what}: suite range filter");
            }
        }

        // An empty window returns an empty store without consulting
        // anything (counters all zero, not even a manifest read).
        let (empty, empty_stats) = windowed(
            &store,
            map,
            TimeRange::new(from + Duration::from_hours(1), from),
            4,
            CacheMode::Auto,
        );
        assert_eq!(empty.len(), 0, "{map}: inverted window is empty");
        assert_eq!(empty_stats, CorpusLoadStats::default());
    }
}

#[test]
fn sealed_bytes_are_invariant_across_threads_and_histories() {
    let Corpus {
        _dir,
        store,
        maps,
        from,
        to,
    } = corpus("bytes");

    // Thread invariance: rebuild everything at each thread count and
    // compare every segment file byte for byte.
    for &map in &maps {
        let mut images = Vec::new();
        for threads in THREADS {
            windowed(&store, map, TimeRange::ALL, threads, CacheMode::Rebuild);
            images.push(segment_files(&store, map));
        }
        assert!(
            images.windows(2).all(|w| w[0] == w[1]),
            "{map}: segment bytes differ across thread counts"
        );
    }

    // History invariance: a store grown by append-then-compact must end
    // up byte-identical to one built fresh over the same final corpus.
    let tail_from = to + Duration::from_minutes(5);
    let tail_to = tail_from + Duration::from_hours(1);

    let fresh_dir = TempDir::new("segment-equivalence-bytes-fresh").expect("temp dir");
    let fresh_store = DatasetStore::open(fresh_dir.path()).expect("fresh corpus");
    write_window(&fresh_store, &maps, from, to);
    write_window(&fresh_store, &maps, tail_from, tail_to);

    write_window(&store, &maps, tail_from, tail_to);
    for &map in &maps {
        // Grown store: segments already exist for the old prefix; this
        // load appends (never a full miss).
        let (grown, grown_stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(grown_stats.cache.appends, 1, "{map}: growth is an append");
        assert_eq!(grown_stats.cache.misses, 0, "{map}: growth is not a miss");

        // Fresh store: everything built in one go.
        let (fresh, _) = windowed(&fresh_store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(grown, fresh, "{map}: stores agree");
        assert_eq!(
            segment_files(&store, map),
            segment_files(&fresh_store, map),
            "{map}: append-then-compact and fresh-build bytes differ"
        );
    }
}

#[test]
fn appending_one_snapshot_rewrites_only_the_active_tail() {
    let Corpus {
        _dir,
        store,
        maps,
        to,
        ..
    } = corpus("tail");
    let map = maps[0];

    let (base, _) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
    let before = segment_files(&store, map);
    let manifest = decode_manifest(before.get("manifest").expect("manifest")).expect("manifest");
    let old_tail = manifest.segments.last().expect("segments").name.clone();

    // Append exactly one parsable snapshot strictly past the history.
    let mut snapshot = base.snapshots().last().expect("non-empty store");
    snapshot.timestamp = to + Duration::from_minutes(5);
    store
        .write(
            map,
            FileKind::Yaml,
            snapshot.timestamp,
            to_yaml_string(&snapshot).as_bytes(),
        )
        .expect("append yaml");

    let (grown, stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
    assert_eq!(grown.len(), base.len() + 1, "{map}: one snapshot appended");
    assert_eq!(stats.cache.appends, 1, "append, not a rebuild");
    assert_eq!(stats.cache.misses, 0);
    assert_eq!(
        stats.cache.snapshots_appended, 1,
        "append cost must be the new file alone, not the history"
    );

    // Every file except the old tail and the manifest is byte-identical;
    // at most one brand-new segment name may appear.
    let after = segment_files(&store, map);
    for (name, bytes) in &before {
        if name == &old_tail || name == "manifest" {
            continue;
        }
        assert_eq!(
            after.get(name),
            Some(bytes),
            "sealed segment {name} was rewritten by an append"
        );
    }
    let new_names: Vec<&String> = after.keys().filter(|k| !before.contains_key(*k)).collect();
    assert!(
        new_names.len() <= 1,
        "an append may add at most one segment, added {new_names:?}"
    );
}

#[test]
fn warm_cached_load_equals_fresh_build_at_any_thread_count() {
    let Corpus {
        _dir, store, maps, ..
    } = corpus("warm");

    for &map in &maps {
        let (fresh, fresh_stats) = build_longitudinal(&store, map, 4).expect("fresh build");
        let fresh_report = AnalysisSuite::run(SuiteConfig::default(), fresh.snapshots());

        for threads in THREADS {
            store.remove_segments(map).expect("reset segments");

            // Cold: no segments yet, so the load pays the YAML parse and
            // persists.
            let (cold, cold_stats) =
                build_longitudinal_cached(&store, map, threads, CacheMode::Auto)
                    .expect("cold build");
            assert_eq!(cold, fresh, "{map}, {threads} threads: cold store");
            assert_eq!(cold_stats.base(), fresh_stats, "{map}: cold stats");
            assert_eq!(cold_stats.cache.misses, 1, "{map}: cold is a miss");
            assert_eq!(cold_stats.cache.hits, 0);

            // Warm: merged from the segments without parsing any YAML.
            let (warm, warm_stats) =
                build_longitudinal_cached(&store, map, threads, CacheMode::Auto)
                    .expect("warm build");
            assert_eq!(warm, fresh, "{map}, {threads} threads: warm store");
            assert_eq!(warm_stats.base(), fresh_stats, "{map}: warm stats");
            assert_eq!(warm_stats.cache.hits, 1, "{map}: warm is a hit");
            assert_eq!(warm_stats.cache.misses, 0);
            assert_eq!(warm_stats.cache.snapshots_appended, 0, "{map}: no parse");
            assert_eq!(
                warm_stats.cache.snapshots_from_cache,
                fresh.len() as u64,
                "{map}: every snapshot must come from the segments"
            );

            // The report matches field by field (derived PartialEq) and
            // byte for byte (debug form).
            let report = AnalysisSuite::run(SuiteConfig::default(), warm.snapshots());
            assert_eq!(report, fresh_report, "{map}, {threads} threads: report");
            assert_eq!(format!("{report:?}"), format!("{fresh_report:?}"));
        }

        // The persisted segments must not depend on who built them:
        // rebuild at every thread count and compare raw bytes.
        let mut images = Vec::new();
        for threads in THREADS {
            build_longitudinal_cached(&store, map, threads, CacheMode::Rebuild)
                .expect("forced rebuild");
            images.push(segment_files(&store, map));
        }
        assert!(
            images.windows(2).all(|w| w[0] == w[1]),
            "{map}: segment bytes differ across thread counts"
        );
    }
}

#[test]
fn cached_load_after_growth_equals_full_rebuild() {
    let Corpus {
        _dir,
        store,
        maps,
        to,
        ..
    } = corpus("append");

    for &map in &maps {
        let (_, stats) =
            build_longitudinal_cached(&store, map, 4, CacheMode::Auto).expect("initial build");
        assert_eq!(stats.cache.misses, 1);
    }

    // Grow the corpus strictly past the indexed history (the broken file
    // written at `to` keeps its path, so start one grid step later).
    let tail_from = to + Duration::from_minutes(5);
    let tail_to = tail_from + Duration::from_hours(1);
    write_window(&store, &maps, tail_from, tail_to);

    for &map in &maps {
        for threads in THREADS {
            // The first pass extends the tail; later thread counts see
            // the extended store and verify the hit path over it.
            let (grown, grown_stats) =
                build_longitudinal_cached(&store, map, threads, CacheMode::Auto)
                    .expect("cached build after growth");
            let (full, full_stats) = build_longitudinal(&store, map, threads).expect("full");
            assert_eq!(grown, full, "{map}, {threads} threads: grown store");
            assert_eq!(grown_stats.base(), full_stats, "{map}: grown stats");
            if threads == THREADS[0] {
                assert_eq!(grown_stats.cache.appends, 1, "{map}: first pass appends");
                assert!(grown_stats.cache.snapshots_appended > 0);
                assert!(grown_stats.cache.snapshots_from_cache > 0);
            } else {
                assert_eq!(grown_stats.cache.hits, 1, "{map}: later pass hits");
            }

            let report = AnalysisSuite::run(SuiteConfig::default(), grown.snapshots());
            let full_report = AnalysisSuite::run(SuiteConfig::default(), full.snapshots());
            assert_eq!(report, full_report, "{map}, {threads} threads: report");
        }
    }
}

#[test]
fn cache_off_and_rebuild_modes_behave() {
    let Corpus {
        _dir, store, maps, ..
    } = corpus("modes");
    let map = maps[0];

    // Off never creates a segment store.
    let (off_store, off_stats) =
        build_longitudinal_cached(&store, map, 4, CacheMode::Off).expect("off build");
    assert!(segment_files(&store, map).is_empty(), "Off wrote segments");
    assert_eq!(off_stats.cache, CacheStats::default());

    // Rebuild always re-parses, even over fresh segments, and re-persists.
    build_longitudinal_cached(&store, map, 4, CacheMode::Auto).expect("populate");
    let (rebuilt, rebuilt_stats) =
        build_longitudinal_cached(&store, map, 4, CacheMode::Rebuild).expect("rebuild");
    assert_eq!(rebuilt, off_store);
    assert_eq!(rebuilt_stats.cache.misses, 1);
    assert_eq!(rebuilt_stats.cache.hits, 0);
    assert!(
        store.read_manifest_bytes(map).expect("probe").is_some(),
        "Rebuild must persist the segment store"
    );
}
