//! Segment-store robustness: a fault-injection matrix over the sharded
//! longitudinal store. Whatever is damaged — one segment file
//! (truncated, bit-flipped, garbage, wrong magic, wrong version,
//! deleted), the manifest (garbled, stale, overlapping spans) or the
//! corpus under it (edited in place, with or without a size change, or
//! shrunk) — a load must return exactly what a fresh YAML build
//! returns, rebuild *only* the affected segments, and leave every
//! healthy segment file byte-for-byte untouched. Damage is never
//! repaired by rebuilding the whole history.

use std::collections::BTreeMap;

use ovh_weather::dataset::segment::SEGMENT_HEADER_LEN;
use ovh_weather::dataset::segments::reindex_segments_with;
use ovh_weather::dataset::{
    decode_manifest, encode_manifest, DatasetEntry, SegmentManifest, SegmentMeta, TempDir,
};
use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};

const MAP: MapKind = MapKind::Europe;
const POLICY: SegmentPolicy = SegmentPolicy { capacity: 4 };

/// A small fault-injected single-map corpus plus its cache-less
/// baseline: 12 five-minute snapshots (some extraction-corrupted) and
/// one unparsable YAML file — 13 entries, so `capacity: 4` yields three
/// sealed segments plus a one-entry active tail.
/// The directory comes first in the tuple: it must outlive the store.
fn corpus(tag: &str) -> (TempDir, DatasetStore, LongitudinalStore, CorpusLoadStats) {
    let dir = TempDir::new(&format!("segment-robustness-{tag}")).expect("temp dir");
    let sim = Simulation::new(SimulationConfig::scaled(11, 0.1));
    let store = DatasetStore::open(dir.path()).expect("temp corpus");
    let from = Timestamp::from_ymd(2022, 3, 1);
    let to = from + Duration::from_hours(1);
    let mut inputs: Vec<BatchInput> = sim
        .corpus_between(MAP, from, to)
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
        MAP,
        &ExtractConfig::default(),
        4,
        Scheduling::WorkStealing,
    );
    assert!(stats.processed > 0, "empty corpus");
    for s in &snapshots {
        store
            .write(
                MAP,
                FileKind::Yaml,
                s.timestamp,
                to_yaml_string(s).as_bytes(),
            )
            .expect("write yaml");
    }
    store
        .write(MAP, FileKind::Yaml, to, b"not: [valid yaml")
        .expect("write broken yaml");

    let (baseline, baseline_stats) = build_longitudinal(&store, MAP, 4).expect("baseline build");
    (dir, store, baseline, baseline_stats)
}

/// Every segment-store file of the map, by name (`manifest` included),
/// for byte-level before/after comparison.
fn segment_files(store: &DatasetStore) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for name in store.list_segment_files(MAP).expect("list segments") {
        let bytes = store
            .read_segment_file(MAP, &name)
            .expect("read segment")
            .expect("segment listed but unreadable");
        files.insert(name, bytes);
    }
    if let Some(bytes) = store.read_manifest_bytes(MAP).expect("read manifest") {
        files.insert("manifest".to_owned(), bytes);
    }
    files
}

/// Runs a full-range windowed load and checks it reproduces the
/// baseline, field by field.
fn assert_recovers(
    store: &DatasetStore,
    baseline: &LongitudinalStore,
    baseline_stats: &CorpusLoadStats,
    what: &str,
) -> CacheStats {
    let (built, stats) =
        build_longitudinal_windowed_with(store, MAP, TimeRange::ALL, 4, CacheMode::Auto, POLICY)
            .unwrap_or_else(|e| panic!("{what}: load must not error: {e}"));
    assert_eq!(&built, baseline, "{what}: store differs from baseline");
    assert_eq!(
        stats.base(),
        *baseline_stats,
        "{what}: stats differ from baseline"
    );
    stats.cache
}

/// Plants one mutation, loads, and asserts the damage was (a) healed,
/// (b) healed by rebuilding exactly `expect_rebuilt` segments, and
/// (c) invisible to every other file: afterwards the segment directory
/// is byte-identical to its pristine state.
#[allow(clippy::too_many_arguments)]
fn assert_surgical_recovery(
    store: &DatasetStore,
    baseline: &LongitudinalStore,
    baseline_stats: &CorpusLoadStats,
    pristine: &BTreeMap<String, Vec<u8>>,
    what: &str,
    expect_corrupt: u64,
    expect_stale: u64,
    expect_rebuilt: u64,
) {
    let cache = assert_recovers(store, baseline, baseline_stats, what);
    assert_eq!(cache.corrupt, expect_corrupt, "{what}: corrupt counter");
    assert_eq!(cache.stale, expect_stale, "{what}: stale counter");
    assert_eq!(
        cache.segments_rebuilt, expect_rebuilt,
        "{what}: only damaged segments may be rebuilt"
    );
    assert_eq!(
        cache.segments_touched,
        pristine.len() as u64 - 1,
        "{what}: a full-range load touches every segment"
    );
    assert_eq!(cache.hits, 1, "{what}: the partition itself still matches");
    // Repair must never re-parse more than the damaged segments' YAML.
    assert!(
        cache.snapshots_appended <= expect_rebuilt * POLICY.capacity as u64,
        "{what}: repair re-parsed beyond the damaged segments \
         ({} snapshots for {} rebuilt segments)",
        cache.snapshots_appended,
        expect_rebuilt
    );
    // Deterministic re-encode: healing restores the exact bytes.
    assert_eq!(
        &segment_files(store),
        pristine,
        "{what}: recovery must restore the pristine segment directory"
    );

    // And the next load is perfectly clean.
    let cache = assert_recovers(store, baseline, baseline_stats, what);
    assert_eq!(cache.corrupt + cache.stale, 0, "{what}: damage lingered");
    assert_eq!(cache.segments_rebuilt, 0, "{what}: rebuilds lingered");
}

#[test]
fn every_segment_corruption_is_repaired_surgically() {
    let (_dir, store, baseline, baseline_stats) = corpus("files");

    // Populate and snapshot the pristine state.
    let cache = assert_recovers(&store, &baseline, &baseline_stats, "populate");
    assert_eq!(cache.misses, 1, "first build is a miss");
    assert_eq!(cache.corrupt + cache.stale, 0, "absence is not damage");
    let pristine = segment_files(&store);
    let manifest =
        decode_manifest(pristine.get("manifest").expect("manifest")).expect("valid manifest");
    let entry_count = store
        .entries_of(MAP, FileKind::Yaml)
        .expect("entries")
        .len();
    assert_eq!(
        manifest.segments.len(),
        entry_count.div_ceil(POLICY.capacity),
        "canonical partition: ceil(entries / capacity) segments"
    );
    assert!(
        manifest.segments.len() >= 3,
        "want several segments to damage, got {}",
        manifest.segments.len()
    );
    let cache = assert_recovers(&store, &baseline, &baseline_stats, "pristine");
    assert_eq!(cache.hits, 1, "pristine reload is a hit");
    assert_eq!(cache.segments_rebuilt, 0);

    // The per-segment corruption matrix, applied to *every* segment in
    // turn — sealed ones and the active tail alike.
    type Mutation = (&'static str, fn(&[u8]) -> Option<Vec<u8>>, u64, u64);
    let mutations: [Mutation; 11] = [
        ("empty file", |_| Some(Vec::new()), 1, 0),
        (
            "garbage",
            |_| Some(b"definitely not a segment file".to_vec()),
            1,
            0,
        ),
        ("truncated to 4 bytes", |b| Some(b[..4].to_vec()), 1, 0),
        ("truncated header", |b| Some(b[..16].to_vec()), 1, 0),
        ("one byte short", |b| Some(b[..b.len() - 1].to_vec()), 1, 0),
        (
            "flipped section-table bit",
            |b| {
                // The payload image's section table starts 16 bytes in.
                let mut b = b.to_vec();
                b[SEGMENT_HEADER_LEN + 20] ^= 0x40;
                Some(b)
            },
            1,
            0,
        ),
        (
            "truncated mid-payload",
            |b| Some(b[..b.len() / 2].to_vec()),
            1,
            0,
        ),
        (
            "flipped payload bit",
            |b| {
                let mut b = b.to_vec();
                let last = b.len() - 1;
                b[last] ^= 0x01;
                Some(b)
            },
            1,
            0,
        ),
        (
            "bad magic",
            |b| {
                let mut b = b.to_vec();
                b[0] ^= 0xFF;
                Some(b)
            },
            1,
            0,
        ),
        (
            "unsupported version",
            |b| {
                let mut b = b.to_vec();
                b[8] = 99;
                Some(b)
            },
            0,
            1,
        ),
        ("missing file", |_| None, 1, 0),
    ];

    for meta in &manifest.segments {
        let original = pristine.get(&meta.name).expect("segment bytes");
        for (what, mutate, expect_corrupt, expect_stale) in mutations {
            let what = format!("{} on {}", what, meta.name);
            match mutate(original) {
                Some(bytes) => store
                    .write_segment_file(MAP, &meta.name, &bytes)
                    .expect("plant corruption"),
                None => store
                    .remove_segment_file(MAP, &meta.name)
                    .expect("plant removal"),
            }
            assert_surgical_recovery(
                &store,
                &baseline,
                &baseline_stats,
                &pristine,
                &what,
                expect_corrupt,
                expect_stale,
                1,
            );
        }
    }
}

#[test]
fn manifest_damage_recovers_from_headers_without_rebuilds() {
    let (_dir, store, baseline, baseline_stats) = corpus("manifest");

    assert_recovers(&store, &baseline, &baseline_stats, "populate");
    let pristine = segment_files(&store);
    let manifest_bytes = pristine.get("manifest").expect("manifest").clone();
    let manifest = decode_manifest(&manifest_bytes).expect("valid manifest");

    // Garbled, truncated, wrong-magic and plain-missing manifests are
    // *corruption*; an old format version is *staleness*. None of them
    // may trigger a single segment rebuild: the segment files are fine
    // and the manifest is recovered from their headers.
    let garbled = {
        let mut b = manifest_bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        b
    };
    let bad_magic = {
        let mut b = manifest_bytes.clone();
        b[0] ^= 0xFF;
        b
    };
    let stale = {
        let mut b = manifest_bytes.clone();
        b[8] = 99;
        b
    };
    let cases: [(&str, Option<Vec<u8>>, u64, u64); 5] = [
        ("garbled manifest", Some(garbled), 1, 0),
        (
            "truncated manifest",
            Some(manifest_bytes[..9].to_vec()),
            1,
            0,
        ),
        ("bad manifest magic", Some(bad_magic), 1, 0),
        ("stale manifest version", Some(stale), 0, 1),
        ("empty manifest file", Some(Vec::new()), 1, 0),
    ];
    for (what, bytes, expect_corrupt, expect_stale) in cases {
        if let Some(bytes) = bytes {
            store
                .write_manifest_bytes(MAP, &bytes)
                .expect("plant manifest damage");
        }
        assert_surgical_recovery(
            &store,
            &baseline,
            &baseline_stats,
            &pristine,
            what,
            expect_corrupt,
            expect_stale,
            0,
        );
    }

    // A manifest whose spans overlap is structurally well-formed (CRC
    // passes) but semantically invalid — the decoder must reject it and
    // the loader must fall back to header recovery, again rebuilding
    // nothing.
    let overlapping = SegmentManifest {
        segments: manifest
            .segments
            .iter()
            .map(|m| SegmentMeta {
                t_min: manifest.segments[0].t_min,
                ..m.clone()
            })
            .collect(),
    };
    assert!(
        decode_manifest(&encode_manifest(&overlapping)).is_err(),
        "overlapping spans must not decode"
    );
    store
        .write_manifest_bytes(MAP, &encode_manifest(&overlapping))
        .expect("plant overlapping manifest");
    assert_surgical_recovery(
        &store,
        &baseline,
        &baseline_stats,
        &pristine,
        "overlapping manifest spans",
        1,
        0,
        0,
    );
}

#[test]
fn compound_damage_heals_in_one_pass() {
    let (_dir, store, baseline, baseline_stats) = corpus("compound");

    assert_recovers(&store, &baseline, &baseline_stats, "populate");
    let pristine = segment_files(&store);
    let manifest =
        decode_manifest(pristine.get("manifest").expect("manifest")).expect("valid manifest");

    // Damage two segments at once, in different ways.
    let first = &manifest.segments[0];
    let third = &manifest.segments[2];
    store
        .remove_segment_file(MAP, &first.name)
        .expect("remove first");
    let mut stale = pristine.get(&third.name).expect("third bytes").clone();
    stale[8] = 77;
    store
        .write_segment_file(MAP, &third.name, &stale)
        .expect("plant stale");

    let cache = assert_recovers(&store, &baseline, &baseline_stats, "compound");
    assert_eq!(cache.corrupt, 1, "one missing segment");
    assert_eq!(cache.stale, 1, "one stale segment");
    assert_eq!(cache.segments_rebuilt, 2, "exactly the two damaged ones");
    assert_eq!(segment_files(&store), pristine, "bytes fully restored");

    // `index`'s entry point performs the same healing.
    store
        .remove_segment_file(MAP, &first.name)
        .expect("remove again");
    let (reindexed, stats) =
        reindex_segments_with(&store, MAP, 4, CacheMode::Auto, POLICY).expect("reindex");
    assert_eq!(reindexed, manifest, "reindex reports the same manifest");
    assert_eq!(stats.cache.segments_rebuilt, 1);
    assert_eq!(
        stats.cache.segments_touched,
        manifest.segments.len() as u64,
        "reindex validates every segment"
    );
    assert_eq!(segment_files(&store), pristine, "reindex restored bytes");
}

/// Rewrites one YAML file in place, changing a load value but not the
/// byte length — invisible to the `(path, size)` identity digest.
fn edit_same_size(store: &DatasetStore, entry: &DatasetEntry) {
    let path = store.path_of(entry.map, entry.kind, entry.timestamp);
    let mut text = std::fs::read_to_string(&path).expect("read snapshot");
    let key = "a_load: ";
    let at = text.find(key).expect("snapshot draws a link") + key.len();
    let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    assert!((1..=2).contains(&digits), "want a load below 100");
    let last = at + digits - 1;
    let digit = text.as_bytes()[last] - b'0';
    text.replace_range(last..=last, &((digit + 1) % 10).to_string());
    std::fs::write(&path, text).expect("rewrite snapshot");
}

/// The manifest row whose closed span holds `t`.
fn holder(manifest: &SegmentManifest, t: Timestamp) -> &SegmentMeta {
    manifest
        .segments
        .iter()
        .find(|m| m.t_min <= t && t <= m.t_max)
        .expect("some segment holds every entry")
}

/// Asserts that exactly the `changed` segment file differs between two
/// directory states (the manifest included among the unchanged).
fn assert_only_changed(
    before: &BTreeMap<String, Vec<u8>>,
    after: &BTreeMap<String, Vec<u8>>,
    changed: &str,
    what: &str,
) {
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        after.keys().collect::<Vec<_>>(),
        "{what}: same files"
    );
    for (name, bytes) in before {
        if name == changed {
            assert_ne!(
                after.get(name),
                Some(bytes),
                "{what}: {name} must be rebuilt"
            );
        } else {
            assert_eq!(after.get(name), Some(bytes), "{what}: {name} was rewritten");
        }
    }
}

#[test]
fn same_size_edit_is_caught_by_index() {
    let (_dir, store, baseline, _) = corpus("same-size-index");
    let (manifest, _) =
        reindex_segments_with(&store, MAP, 4, CacheMode::Auto, POLICY).expect("populate");
    let pristine = segment_files(&store);

    let entries = store.entries_of(MAP, FileKind::Yaml).expect("entries");
    let target = &entries[5];
    let edited = holder(&manifest, target.timestamp).name.clone();
    edit_same_size(&store, target);
    let after_edit = store.entries_of(MAP, FileKind::Yaml).expect("entries");
    assert_eq!(after_edit, entries, "the edit keeps every (path, size)");
    let (fresh, fresh_stats) = build_longitudinal(&store, MAP, 4).expect("fresh build");
    assert_ne!(fresh, baseline, "the edit changes the data");

    let (reindexed, stats) =
        reindex_segments_with(&store, MAP, 4, CacheMode::Auto, POLICY).expect("reindex");
    assert_eq!(reindexed, manifest, "the partition is unchanged");
    assert_eq!(stats.cache.stale, 1, "the edited segment is stale");
    assert_eq!(stats.cache.corrupt, 0);
    assert_eq!(
        stats.cache.segments_rebuilt, 1,
        "only its segment is rebuilt"
    );
    assert_eq!(stats.cache.hits, 1, "the partition itself still matches");
    assert_eq!(
        stats.base(),
        fresh_stats,
        "index reports fresh-build counters"
    );
    assert_only_changed(&pristine, &segment_files(&store), &edited, "same-size edit");

    // The repaired store serves the edit, and stays clean.
    let cache = assert_recovers(&store, &fresh, &fresh_stats, "after index");
    assert_eq!(cache.stale + cache.corrupt + cache.segments_rebuilt, 0);
    let (_, stats) =
        reindex_segments_with(&store, MAP, 4, CacheMode::Auto, POLICY).expect("reindex again");
    assert_eq!(stats.cache.stale + stats.cache.segments_rebuilt, 0);
}

#[test]
fn same_size_edit_is_caught_by_full_history_cached_load() {
    let (_dir, store, baseline, baseline_stats) = corpus("same-size-cached");
    let (_, stats) = build_longitudinal_cached(&store, MAP, 4, CacheMode::Auto).expect("populate");
    assert_eq!(stats.cache.misses, 1);

    let entries = store.entries_of(MAP, FileKind::Yaml).expect("entries");
    edit_same_size(&store, &entries[5]);
    let (fresh, fresh_stats) = build_longitudinal(&store, MAP, 4).expect("fresh build");
    assert_ne!(fresh, baseline, "the edit changes the data");

    // Windowed loads keep the path+size identity check: they still
    // serve the indexed data (DESIGN.md decision 14).
    let (windowed, windowed_stats) =
        build_longitudinal_windowed(&store, MAP, TimeRange::ALL, 4, CacheMode::Auto)
            .expect("windowed load");
    assert_eq!(windowed, baseline, "windowed loads check identity only");
    assert_eq!(windowed_stats.base(), baseline_stats);
    assert_eq!(windowed_stats.cache.stale, 0);

    // The full-history load checks content and rebuilds the segment.
    let (loaded, stats) =
        build_longitudinal_cached(&store, MAP, 4, CacheMode::Auto).expect("cached load");
    assert_eq!(loaded, fresh, "cached load serves the edit");
    assert_eq!(stats.base(), fresh_stats);
    assert_eq!(stats.cache.stale, 1, "the edited segment is stale");
    assert_eq!(stats.cache.corrupt, 0);
    assert_eq!(
        stats.cache.segments_rebuilt, 1,
        "only its segment is rebuilt"
    );

    let (again, stats) =
        build_longitudinal_cached(&store, MAP, 4, CacheMode::Auto).expect("next load");
    assert_eq!(again, fresh);
    assert_eq!(stats.cache.hits, 1, "the next load is a clean hit");
    assert_eq!(stats.cache.stale + stats.cache.segments_rebuilt, 0);
}

#[test]
fn edited_or_shrunk_corpus_rebuilds_only_what_changed() {
    let (_dir, store, baseline, baseline_stats) = corpus("edits");
    assert_recovers(&store, &baseline, &baseline_stats, "populate");
    let pristine = segment_files(&store);
    let manifest =
        decode_manifest(pristine.get("manifest").expect("manifest")).expect("valid manifest");

    // Touch one snapshot: append a YAML comment. The parsed value is
    // unchanged but the size is not, so its segment no longer matches
    // the corpus — an edit is not an append.
    let entries = store.entries_of(MAP, FileKind::Yaml).expect("entries");
    let target = &entries[5];
    let edited = holder(&manifest, target.timestamp).name.clone();
    let path = store.path_of(target.map, target.kind, target.timestamp);
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    bytes.extend_from_slice(b"\n# touched\n");
    std::fs::write(&path, &bytes).expect("rewrite snapshot");

    // The comment changes byte counts but not the parsed snapshots: the
    // loaded store still equals the original baseline, while the load
    // stats now reflect the touched file.
    let (edited_base, edited_base_stats) =
        build_longitudinal(&store, MAP, 4).expect("edited baseline");
    assert_eq!(edited_base, baseline, "comment must not change the data");
    let cache = assert_recovers(&store, &baseline, &edited_base_stats, "edited file");
    assert_eq!(
        cache.segments_rebuilt, 1,
        "only the edited segment is rebuilt"
    );
    assert_eq!(
        cache.snapshots_appended, 1,
        "only the edited file is re-parsed"
    );
    assert_eq!(
        cache.corrupt + cache.stale,
        0,
        "the segment files were fine"
    );
    assert_eq!(cache.hits, 0, "an edit is not a hit");
    let touched = segment_files(&store);
    let mut rest = touched.clone();
    rest.remove("manifest");
    let mut rest_before = pristine.clone();
    rest_before.remove("manifest");
    assert_only_changed(&rest_before, &rest, &edited, "size-changing edit");
    let cache = assert_recovers(&store, &baseline, &edited_base_stats, "after edit");
    assert_eq!(cache.hits, 1, "the next load is a clean hit");
    assert_eq!(cache.segments_rebuilt, 0);

    // Shrinking the corpus (deleting the newest file, alone in the tail)
    // drops the tail segment and leaves every other file alone.
    let last = entries.last().expect("non-empty");
    let tail = holder(&manifest, last.timestamp).name.clone();
    assert_eq!(
        manifest.segments.last().map(|m| m.entries),
        Some(1),
        "the newest file sits alone in the tail"
    );
    std::fs::remove_file(store.path_of(last.map, last.kind, last.timestamp)).expect("delete");
    let (shrunk_base, shrunk_base_stats) =
        build_longitudinal(&store, MAP, 4).expect("shrunk baseline");
    let cache = assert_recovers(&store, &shrunk_base, &shrunk_base_stats, "shrunk corpus");
    assert_eq!(cache.hits, 0, "shrunk corpus is not a hit");
    assert_eq!(cache.segments_rebuilt, 0, "no remaining segment is rebuilt");
    let after = segment_files(&store);
    assert!(!after.contains_key(&tail), "the old tail is dropped");
    for (name, bytes) in &touched {
        if name != &tail && name != "manifest" {
            assert_eq!(after.get(name), Some(bytes), "{name} was rewritten");
        }
    }
    let cache = assert_recovers(&store, &shrunk_base, &shrunk_base_stats, "after shrink");
    assert_eq!(cache.hits, 1, "the next load is a clean hit");
}
