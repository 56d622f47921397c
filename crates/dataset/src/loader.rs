//! The shared corpus loader: YAML files on disk to snapshots or a
//! [`LongitudinalStore`], read and parsed in parallel.
//!
//! Before this module every consumer of a corpus — the CLI's analyses,
//! each example — walked the tree and parsed YAML with its own loop.
//! This is the one canonical path. Workers claim files from a shared
//! cursor (same work-stealing shape as the extraction batch runner) and
//! fold parsed snapshots into per-worker [`SnapshotSink`]s; the merge is
//! keyed on file order, so results are byte-identical for any thread
//! count. Files that fail to parse are counted and skipped, like the
//! paper's scripts leaving a handful of unprocessed files per map; I/O
//! errors abort the load.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

use wm_extract::{from_yaml_str, CacheStats, SnapshotSink};
use wm_model::{MapKind, Timestamp, TopologySnapshot};

use crate::codec::{self, CorpusFingerprint, FingerprintEntry};
use crate::longitudinal::{ColumnarBuilder, LongitudinalStore};
use crate::paths::{relative_path, FileKind};
use crate::store::{DatasetEntry, DatasetStore};

/// Counters of one corpus load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusLoadStats {
    /// YAML files read.
    pub files: usize,
    /// Files successfully parsed into snapshots.
    pub parsed: usize,
    /// Files rejected by the YAML schema parser (counted, skipped).
    pub failed: usize,
    /// Total bytes read.
    pub bytes: u64,
    /// Cache activity of this load (all zero on the plain, uncached
    /// paths). Deterministic like every other field.
    pub cache: CacheStats,
}

impl CorpusLoadStats {
    pub(crate) fn merge(&mut self, other: CorpusLoadStats) {
        self.files += other.files;
        self.parsed += other.parsed;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.cache.merge(&other.cache);
    }

    /// The counters of the parse work only, cache activity zeroed —
    /// what a fresh uncached build over the same corpus would report.
    #[must_use]
    pub fn base(&self) -> CorpusLoadStats {
        CorpusLoadStats {
            cache: CacheStats::default(),
            ..*self
        }
    }
}

/// How a cache-aware load treats the on-disk segment store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Use every valid segment, extend the tail when the corpus grew and
    /// rebuild only segments that are missing, damaged or stale.
    #[default]
    Auto,
    /// Ignore the segment store entirely: plain YAML build, nothing
    /// read or written.
    Off,
    /// Re-derive every segment from YAML unconditionally and rewrite the
    /// store.
    Rebuild,
}

impl CacheMode {
    /// Parses the CLI spelling (`auto` / `off` / `rebuild`).
    #[must_use]
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "auto" => Some(CacheMode::Auto),
            "off" => Some(CacheMode::Off),
            "rebuild" => Some(CacheMode::Rebuild),
            _ => None,
        }
    }
}

/// Loads every YAML snapshot of `map`, sorted by `(timestamp, file
/// order)` — the legacy materialised form, now behind the shared
/// parallel loader.
pub fn load_snapshots(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
) -> io::Result<(Vec<TopologySnapshot>, CorpusLoadStats)> {
    let entries = store.entries_of(map, FileKind::Yaml)?;
    let (snapshots, stats, _) = load_sorted(store, map, &entries, threads, false)?;
    Ok((snapshots, stats))
}

/// Loads every YAML snapshot of `map` straight into a
/// [`LongitudinalStore`] in one streaming pass — no intermediate
/// `Vec<TopologySnapshot>`.
pub fn build_longitudinal(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    let entries = store.entries_of(map, FileKind::Yaml)?;
    let (builders, stats, _) =
        load_fold_entries::<ColumnarBuilder>(store, map, &entries, threads, false)?;
    Ok((ColumnarBuilder::finish(builders), stats))
}

/// The corpus fingerprint from enumerated entries plus per-file hashes.
pub(crate) fn fingerprint_from(
    map: MapKind,
    entries: &[DatasetEntry],
    hashes: &[u64],
) -> CorpusFingerprint {
    CorpusFingerprint {
        entries: entries
            .iter()
            .zip(hashes)
            .map(|(entry, &hash)| FingerprintEntry {
                path: relative_path_string(map, entry.timestamp),
                size: entry.size,
                hash,
            })
            .collect(),
    }
}

/// The layout-relative path of one snapshot file as a `/`-joined string
/// (platform-independent, so fingerprints are portable).
pub(crate) fn relative_path_string(map: MapKind, timestamp: Timestamp) -> String {
    let path = relative_path(map, FileKind::Yaml, timestamp);
    let mut out = String::new();
    for component in path.iter() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&component.to_string_lossy());
    }
    out
}

/// Materialises `entries` as snapshots sorted by `(timestamp, entry
/// order)`, like the legacy loader, optionally hashing file contents.
pub(crate) fn load_sorted(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
    hash: bool,
) -> io::Result<(Vec<TopologySnapshot>, CorpusLoadStats, Vec<u64>)> {
    let (sinks, stats, hashes) =
        load_fold_entries::<Vec<(usize, TopologySnapshot)>>(store, map, entries, threads, hash)?;
    let mut results: Vec<(usize, TopologySnapshot)> = sinks.into_iter().flatten().collect();
    results.sort_by_key(|(index, snapshot)| (snapshot.timestamp, *index));
    Ok((
        results.into_iter().map(|(_, snapshot)| snapshot).collect(),
        stats,
        hashes,
    ))
}

/// Hashes every entry's contents in parallel without parsing anything —
/// the content check of full-history loads and `index`. Workers claim
/// files four at a time and hash them with [`codec::fnv1a_x4`]. Returned
/// in entry order.
pub(crate) fn hash_entries(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
) -> io::Result<Vec<u64>> {
    const LANES: usize = 4;
    let batches = entries.len().div_ceil(LANES);
    let threads = threads.max(1).min(batches.max(1));
    let cursor = AtomicUsize::new(0);
    let (cursor, entries) = (&cursor, entries);
    let hash_batch = move |batch: usize| -> io::Result<Vec<u64>> {
        let start = batch.saturating_mul(LANES);
        let chunk = entries
            .get(start..start.saturating_add(LANES).min(entries.len()))
            .unwrap_or(&[]);
        let files = chunk
            .iter()
            .map(|entry| store.read(map, FileKind::Yaml, entry.timestamp))
            .collect::<io::Result<Vec<Vec<u8>>>>()?;
        Ok(match files.as_slice() {
            [a, b, c, d] => codec::fnv1a_x4([a, b, c, d]).to_vec(),
            short => short.iter().map(|bytes| codec::fnv1a(bytes)).collect(),
        })
    };
    let outcomes: Vec<io::Result<Vec<(usize, u64)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut hashed = Vec::new();
                    loop {
                        let batch = cursor.fetch_add(1, Ordering::Relaxed);
                        if batch >= batches {
                            break;
                        }
                        let first = batch.saturating_mul(LANES);
                        hashed.extend((first..).zip(hash_batch(batch)?));
                    }
                    Ok(hashed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("corpus hasher worker panicked"))
            .collect()
    });
    let mut hashes = vec![0u64; entries.len()];
    for outcome in outcomes {
        for (index, hash) in outcome? {
            if let Some(slot) = hashes.get_mut(index) {
                *slot = hash;
            }
        }
    }
    Ok(hashes)
}

/// The loader core: reads and parses the given YAML entries of `map`,
/// folding snapshots into one [`SnapshotSink`] per worker (returned in
/// worker order, never finish order). With `hash` set, also returns the
/// FNV-1a content hash of every entry, in entry order — the combined
/// parse-and-fingerprint pass of segment builds and repairs, which
/// avoids reading each file twice.
pub(crate) fn load_fold_entries<S: SnapshotSink>(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
    hash: bool,
) -> io::Result<(Vec<S>, CorpusLoadStats, Vec<u64>)> {
    let threads = threads.max(1).min(entries.len().max(1));

    if threads == 1 {
        // Serial fast path, same code per file.
        let mut sink = S::default();
        let mut stats = CorpusLoadStats::default();
        let mut hashes = Vec::new();
        for (index, entry) in entries.iter().enumerate() {
            let h = read_one(
                store,
                map,
                entry.timestamp,
                index,
                &mut sink,
                &mut stats,
                hash,
            )?;
            if hash {
                hashes.push(h);
            }
        }
        return Ok((vec![sink], stats, hashes));
    }

    type WorkerOut<S> = (S, CorpusLoadStats, Vec<(usize, u64)>);
    let cursor = AtomicUsize::new(0);
    let (cursor, entries) = (&cursor, entries);
    let outcomes: Vec<io::Result<WorkerOut<S>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut sink = S::default();
                    let mut stats = CorpusLoadStats::default();
                    let mut hashes = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(entry) = entries.get(index) else {
                            break;
                        };
                        let h = read_one(
                            store,
                            map,
                            entry.timestamp,
                            index,
                            &mut sink,
                            &mut stats,
                            hash,
                        )?;
                        if hash {
                            hashes.push((index, h));
                        }
                    }
                    Ok((sink, stats, hashes))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("corpus loader worker panicked"))
            .collect()
    });

    let mut sinks = Vec::with_capacity(threads);
    let mut stats = CorpusLoadStats::default();
    let mut hashes = if hash {
        vec![0u64; entries.len()]
    } else {
        Vec::new()
    };
    for outcome in outcomes {
        let (sink, worker_stats, worker_hashes) = outcome?;
        sinks.push(sink);
        stats.merge(worker_stats);
        for (index, h) in worker_hashes {
            hashes[index] = h;
        }
    }
    Ok((sinks, stats, hashes))
}

#[allow(clippy::too_many_arguments)]
fn read_one<S: SnapshotSink>(
    store: &DatasetStore,
    map: MapKind,
    timestamp: Timestamp,
    index: usize,
    sink: &mut S,
    stats: &mut CorpusLoadStats,
    hash: bool,
) -> io::Result<u64> {
    let bytes = store.read(map, FileKind::Yaml, timestamp)?;
    stats.files += 1;
    stats.bytes += bytes.len() as u64;
    let h = if hash { codec::fnv1a(&bytes) } else { 0 };
    let text = String::from_utf8_lossy(&bytes);
    match from_yaml_str(&text) {
        Ok(snapshot) => {
            stats.parsed += 1;
            sink.accept(index, snapshot);
        }
        Err(_) => stats.failed += 1,
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use wm_extract::to_yaml_string;
    use wm_model::{Duration, Link, LinkEnd, Load, Node};

    fn temp_store(tag: &str) -> (TempDir, DatasetStore) {
        let dir = TempDir::new(&format!("loader-test-{tag}")).expect("temp dir");
        let store = DatasetStore::open(dir.path()).expect("temp store");
        (dir, store)
    }

    fn snapshot(t: Timestamp, load: u8) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, t);
        s.nodes = vec![Node::from_name("rbx-g1"), Node::from_name("fra-fr5")];
        s.links = vec![Link::new(
            LinkEnd::new(
                Node::from_name("rbx-g1"),
                Some("#1".into()),
                Load::new(load).unwrap(),
            ),
            LinkEnd::new(
                Node::from_name("fra-fr5"),
                Some("#1".into()),
                Load::new(100 - load).unwrap(),
            ),
        )];
        s
    }

    fn write_corpus(store: &DatasetStore, count: usize) -> Vec<TopologySnapshot> {
        let base = Timestamp::from_ymd(2021, 5, 1);
        (0..count)
            .map(|i| {
                let t = base + Duration::from_minutes(5 * i as i64);
                let snap = snapshot(t, (i % 100) as u8);
                store
                    .write(
                        MapKind::Europe,
                        FileKind::Yaml,
                        t,
                        to_yaml_string(&snap).as_bytes(),
                    )
                    .unwrap();
                snap
            })
            .collect()
    }

    #[test]
    fn loads_match_written_corpus_at_any_thread_count() {
        let (_dir, store) = temp_store("threads");
        let written = write_corpus(&store, 13);
        // One garbage file: counted as failed, skipped.
        let bad_t = Timestamp::from_ymd(2021, 5, 2);
        store
            .write(MapKind::Europe, FileKind::Yaml, bad_t, b"not: [yaml")
            .unwrap();

        let (serial, serial_stats) = load_snapshots(&store, MapKind::Europe, 1).unwrap();
        assert_eq!(serial, written);
        assert_eq!(serial_stats.files, 14);
        assert_eq!(serial_stats.parsed, 13);
        assert_eq!(serial_stats.failed, 1);
        for threads in [2, 8] {
            let (parallel, stats) = load_snapshots(&store, MapKind::Europe, threads).unwrap();
            assert_eq!(parallel, serial, "{threads} threads");
            assert_eq!(stats, serial_stats, "{threads} threads");
        }
    }

    #[test]
    fn longitudinal_build_is_thread_invariant() {
        let (_dir, store) = temp_store("columnar");
        let written = write_corpus(&store, 11);
        let (baseline, stats) = build_longitudinal(&store, MapKind::Europe, 1).unwrap();
        assert_eq!(baseline.len(), written.len());
        assert_eq!(stats.parsed, written.len());
        for (i, snap) in written.iter().enumerate() {
            assert_eq!(&baseline.snapshot(i), snap);
        }
        for threads in [2, 8] {
            let (store2, stats2) = build_longitudinal(&store, MapKind::Europe, threads).unwrap();
            assert_eq!(store2, baseline, "{threads} threads");
            assert_eq!(stats2, stats, "{threads} threads");
        }
    }

    #[test]
    fn empty_map_loads_empty() {
        let (_dir, store) = temp_store("empty");
        let (snaps, stats) = load_snapshots(&store, MapKind::World, 4).unwrap();
        assert!(snaps.is_empty());
        assert_eq!(stats, CorpusLoadStats::default());
    }
}
