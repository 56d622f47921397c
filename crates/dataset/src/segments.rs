//! The time-sharded segment store: manifest, loads, compaction.
//!
//! This is the one persistent form of a map's history. The corpus is
//! sharded into [`crate::segment`] files along the timestamp-sorted
//! entry list: every chunk of `SegmentPolicy::capacity` snapshot files
//! becomes one *sealed* segment, and the remainder (fewer than
//! `capacity` files) is the *active tail*. The partition is a pure
//! function of the entry list, so growing the corpus only ever rewrites
//! the tail — and when the tail fills up it simply becomes sealed under
//! the same name, which is the whole compaction story: merging is
//! implicit in the canonical partition, runs synchronously inside the
//! load that notices it, and converges on exactly the bytes a fresh
//! build of the same corpus would write (asserted by
//! `tests/segment_equivalence.rs`).
//!
//! A manifest file maps `[t_min, t_max] → segment` so a load decodes
//! only the segments its range intersects, then merges their columns
//! with [`LongitudinalStore::concat`] — no snapshot is rebuilt on the
//! read path. Three entry points share that loader and differ only in
//! how each decoded segment is checked against the corpus:
//!
//! * [`build_longitudinal_windowed`] compares the
//!   [`crate::segment::identity_digest`] over `(path, size)` pairs — no
//!   content reads, so a narrow window costs the same at any history
//!   length;
//! * [`build_longitudinal_cached`] (full history) and
//!   [`reindex_segments`] (`index`) also compare the content hash every
//!   segment stores per entry against the file on disk, so a same-size
//!   in-place edit is caught and its segment rebuilt as `stale`.
//!
//! DESIGN.md decision 14 discusses the split.
//!
//! Damage recovery is per segment: a missing, truncated, bit-flipped,
//! wrong-magic, wrong-version or content-stale segment file is rebuilt
//! from exactly its own YAML slice at load time; a damaged manifest is
//! recovered from the segment headers without re-encoding anything.

use std::collections::BTreeMap;
use std::io;

use wm_extract::CacheStats;
use wm_model::{MapKind, TimeRange, Timestamp, TopologySnapshot};

use crate::codec::{self, CacheError, CorpusFingerprint, FingerprintEntry};
use crate::loader::{self, build_longitudinal, CacheMode, CorpusLoadStats};
use crate::longitudinal::{ColumnarBuilder, LongitudinalStore};
use crate::paths::FileKind;
use crate::segment::{self, SegmentHeader};
use crate::store::{DatasetEntry, DatasetStore};

/// First bytes of every segment manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"OVHWMMF\n";

/// Bumped on any incompatible change to the manifest layout.
pub const MANIFEST_FORMAT_VERSION: u32 = 1;

/// Sizing policy of the segment store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPolicy {
    /// Snapshot files per sealed segment. The default, 288, is one day
    /// at the weathermaps' 5-minute cadence; values below 1 behave as 1.
    pub capacity: usize,
}

impl Default for SegmentPolicy {
    fn default() -> SegmentPolicy {
        SegmentPolicy { capacity: 288 }
    }
}

impl SegmentPolicy {
    fn chunk(self) -> usize {
        self.capacity.max(1)
    }
}

/// One manifest row: a segment file and the slice of history it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name under the map's `.segments/` directory.
    pub name: String,
    /// Timestamp of the oldest covered snapshot file (closed span).
    pub t_min: Timestamp,
    /// Timestamp of the newest covered snapshot file (closed span).
    pub t_max: Timestamp,
    /// Number of corpus files covered.
    pub entries: u64,
    /// Number of those files that parsed into snapshots.
    pub snapshots: u64,
    /// [`segment::identity_digest`] over the covered `(path, size)`s.
    pub meta_digest: u64,
}

/// The manifest: every segment of one map, oldest first, spans disjoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentManifest {
    /// Per-segment rows sorted by `t_min`; closed spans never overlap.
    pub segments: Vec<SegmentMeta>,
}

/// Canonical file name of the segment starting at `t_min`.
#[must_use]
pub fn segment_name(t_min: Timestamp) -> String {
    format!("seg-{:016x}.seg", t_min.unix() as u64)
}

/// Encodes a manifest (magic, version, CRC-protected body).
#[must_use]
pub fn encode_manifest(manifest: &SegmentManifest) -> Vec<u8> {
    let mut body = codec::Writer { buf: Vec::new() };
    body.u64(manifest.segments.len() as u64);
    for seg in &manifest.segments {
        body.str16(&seg.name);
        body.i64(seg.t_min.unix());
        body.i64(seg.t_max.unix());
        body.u64(seg.entries);
        body.u64(seg.snapshots);
        body.u64(seg.meta_digest);
    }
    let mut w = codec::Writer { buf: Vec::new() };
    w.bytes(&MANIFEST_MAGIC);
    w.u32(MANIFEST_FORMAT_VERSION);
    w.u32(codec::crc32(&body.buf));
    w.bytes(&body.buf);
    w.buf
}

/// Decodes and validates a manifest: spans ordered, disjoint, sane.
pub fn decode_manifest(bytes: &[u8]) -> Result<SegmentManifest, CacheError> {
    let mut r = codec::Reader::new(bytes);
    if r.take(8, "manifest magic")? != &MANIFEST_MAGIC[..] {
        return Err(CacheError::BadMagic);
    }
    let version = r.u32("manifest version")?;
    if version != MANIFEST_FORMAT_VERSION {
        return Err(CacheError::UnsupportedVersion(version));
    }
    let crc = r.u32("manifest crc")?;
    let body = r.take(bytes.len().saturating_sub(16), "manifest body")?;
    if codec::crc32(body) != crc {
        return Err(CacheError::ChecksumMismatch {
            section: "manifest".to_owned(),
        });
    }
    let mut b = codec::Reader::new(body);
    let count = b.checked_len("manifest segment count")?;
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        let name = b.str16("manifest segment name")?.to_owned();
        let t_min = Timestamp::from_unix(b.i64("manifest t_min")?);
        let t_max = Timestamp::from_unix(b.i64("manifest t_max")?);
        let entries = b.u64("manifest entry count")?;
        let snapshots = b.u64("manifest snapshot count")?;
        let meta_digest = b.u64("manifest digest")?;
        if name.is_empty() || entries == 0 {
            return Err(CacheError::Invalid("manifest row is degenerate"));
        }
        if t_max < t_min {
            return Err(CacheError::Invalid("manifest time span is inverted"));
        }
        if let Some(prev) = segments.last() {
            let prev: &SegmentMeta = prev;
            if t_min <= prev.t_max {
                return Err(CacheError::Invalid("manifest time ranges overlap"));
            }
        }
        segments.push(SegmentMeta {
            name,
            t_min,
            t_max,
            entries,
            snapshots,
            meta_digest,
        });
    }
    b.finished("manifest")?;
    Ok(SegmentManifest { segments })
}

/// Writes a manifest through the store's atomic path.
pub fn write_manifest(
    store: &DatasetStore,
    map: MapKind,
    manifest: &SegmentManifest,
) -> io::Result<()> {
    store.write_manifest_bytes(map, &encode_manifest(manifest))
}

/// How a load checks each decoded segment against the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// The header's `(path, size)` identity digest only.
    Identity,
    /// The identity digest plus every entry's stored content hash
    /// against the file on disk.
    Content,
}

/// The cache-aware full-history load, served from the segment store
/// with the default [`SegmentPolicy`].
///
/// The returned store is always identical to what [`build_longitudinal`]
/// produces over the current corpus — the segments change the work,
/// never the answer — and the non-cache counters equal a fresh build's.
/// Every segment is checked by content hash, so an edited file (even a
/// same-size one) is caught and only its segment is rebuilt, counted as
/// `stale`. `stats.cache` records what happened. `CacheMode::Off` is a
/// plain YAML build, `Rebuild` re-derives every segment first.
pub fn build_longitudinal_cached(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
    mode: CacheMode,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    if mode == CacheMode::Off {
        return build_longitudinal(store, map, threads);
    }
    load(
        store,
        map,
        TimeRange::ALL,
        threads,
        mode,
        SegmentPolicy::default(),
        Check::Content,
    )
}

/// Loads one map's history restricted to `range`, touching only the
/// segments the range intersects, with the default [`SegmentPolicy`].
///
/// The result is exactly what a fresh YAML build restricted to the
/// window produces — same store, same load counters — at any thread
/// count. Segments are checked by `(path, size)` identity only (see the
/// module docs). `CacheMode::Off` bypasses the segment store entirely,
/// `Rebuild` re-derives every segment from YAML first.
pub fn build_longitudinal_windowed(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    build_longitudinal_windowed_with(store, map, range, threads, mode, SegmentPolicy::default())
}

/// [`build_longitudinal_windowed`] with an explicit sizing policy.
pub fn build_longitudinal_windowed_with(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    // An empty window holds nothing by definition: no disk is touched.
    if range.is_empty() {
        return Ok((empty_store(), CorpusLoadStats::default()));
    }

    if mode == CacheMode::Off {
        let filtered: Vec<DatasetEntry> = store
            .entries_of(map, FileKind::Yaml)?
            .into_iter()
            .filter(|e| range.contains(e.timestamp))
            .collect();
        let (builders, stats, _) =
            loader::load_fold_entries::<ColumnarBuilder>(store, map, &filtered, threads, false)?;
        return Ok((ColumnarBuilder::finish(builders), stats));
    }

    // Gap fast path: when an intact manifest proves the window falls
    // inside indexed history yet intersects no segment, the answer is
    // empty and only the manifest was read.
    if mode == CacheMode::Auto {
        if let Some(bytes) = store.read_manifest_bytes(map)? {
            if let Ok(manifest) = decode_manifest(&bytes) {
                if let Some(last) = manifest.segments.last() {
                    let touched = manifest
                        .segments
                        .iter()
                        .any(|m| range.intersects_closed(m.t_min, m.t_max));
                    if !touched && range.end <= last.t_max {
                        let cache = CacheStats {
                            hits: 1,
                            ..CacheStats::default()
                        };
                        let stats = CorpusLoadStats {
                            cache,
                            ..CorpusLoadStats::default()
                        };
                        return Ok((empty_store(), stats));
                    }
                }
            }
        }
    }

    load(store, map, range, threads, mode, policy, Check::Identity)
}

/// Brings one map's segment store in line with the corpus and validates
/// every segment file by content hash, repairing damaged or stale ones —
/// the `index` entry point. Returns the manifest and full-corpus load
/// counters.
pub fn reindex_segments(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
    mode: CacheMode,
) -> io::Result<(SegmentManifest, CorpusLoadStats)> {
    reindex_segments_with(store, map, threads, mode, SegmentPolicy::default())
}

/// [`reindex_segments`] with an explicit sizing policy.
pub fn reindex_segments_with(
    store: &DatasetStore,
    map: MapKind,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
) -> io::Result<(SegmentManifest, CorpusLoadStats)> {
    let loaded = load_parts(
        store,
        map,
        TimeRange::ALL,
        threads,
        mode,
        policy,
        Check::Content,
    )?;
    let parsed = loaded.parts.iter().map(LongitudinalStore::len).sum();
    let stats = load_stats(&loaded.entries, TimeRange::ALL, parsed, loaded.cache);
    Ok((loaded.manifest, stats))
}

/// The one segment-backed load: decode what `range` intersects, merge
/// the columns, derive the counters.
fn load(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
    check: Check,
) -> io::Result<(LongitudinalStore, CorpusLoadStats)> {
    let loaded = load_parts(store, map, range, threads, mode, policy, check)?;
    let merged = LongitudinalStore::concat(loaded.parts, range);
    let stats = load_stats(&loaded.entries, range, merged.len(), loaded.cache);
    Ok((merged, stats))
}

/// What [`load_parts`] hands back: the manifest after compaction, the
/// decoded store of every segment the range intersects (oldest first),
/// the corpus entry list and the cache counters so far.
struct Loaded {
    manifest: SegmentManifest,
    parts: Vec<LongitudinalStore>,
    entries: Vec<DatasetEntry>,
    cache: CacheStats,
}

/// Brings the segment store in line with the corpus, then decodes (or
/// repairs) each segment `range` intersects, checked per `check`.
fn load_parts(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
    policy: SegmentPolicy,
    check: Check,
) -> io::Result<Loaded> {
    let entries = store.entries_of(map, FileKind::Yaml)?;
    let mut cache = CacheStats::default();
    let rebuild_all = mode == CacheMode::Rebuild;
    let (manifest, spans) = ensure_segments(
        store,
        map,
        &entries,
        threads,
        policy,
        rebuild_all,
        &mut cache,
    )?;

    // A rebuild just wrote every segment from contents it hashed while
    // parsing; otherwise the content check hashes the corpus once.
    let hashes = if check == Check::Content && !rebuild_all {
        Some(loader::hash_entries(store, map, &entries, threads)?)
    } else {
        None
    };

    let mut parts = Vec::new();
    for (meta, span) in manifest.segments.iter().zip(&spans) {
        if !range.intersects_closed(meta.t_min, meta.t_max) {
            continue;
        }
        cache.segments_touched += 1;
        let chunk = entries.get(span.0..span.1).unwrap_or(&[]);
        let chunk_hashes = hashes
            .as_ref()
            .map(|all| all.get(span.0..span.1).unwrap_or(&[]));
        let (part, from_cache) =
            load_segment(store, map, meta, chunk, chunk_hashes, threads, &mut cache)?;
        if from_cache {
            let served = part
                .timestamps()
                .iter()
                .filter(|&&t| range.contains(t))
                .count();
            cache.snapshots_from_cache += served as u64;
        }
        parts.push(part);
    }
    Ok(Loaded {
        manifest,
        parts,
        entries,
        cache,
    })
}

/// Load counters of a segment-backed load. They derive from the slice
/// of the entry list inside `range` — exactly what the cache-less build
/// over the same files reports.
fn load_stats(
    entries: &[DatasetEntry],
    range: TimeRange,
    parsed: usize,
    cache: CacheStats,
) -> CorpusLoadStats {
    let mut stats = CorpusLoadStats::default();
    for entry in entries.iter().filter(|e| range.contains(e.timestamp)) {
        stats.files += 1;
        stats.bytes += entry.size;
    }
    stats.parsed = parsed;
    stats.failed = stats.files.saturating_sub(parsed);
    stats.cache = cache;
    stats
}

/// An empty store through the same builder path every load uses.
fn empty_store() -> LongitudinalStore {
    ColumnarBuilder::finish(vec![ColumnarBuilder::default()])
}

/// The manifest row the current corpus dictates for one entry chunk.
///
/// `snapshots` is unknown without parsing and stays 0; matching against
/// an existing manifest ignores it.
fn meta_of_chunk(map: MapKind, chunk: &[DatasetEntry]) -> Option<SegmentMeta> {
    let first = chunk.first()?;
    let last = chunk.last()?;
    Some(SegmentMeta {
        name: segment_name(first.timestamp),
        t_min: first.timestamp,
        t_max: last.timestamp,
        entries: chunk.len() as u64,
        snapshots: 0,
        meta_digest: chunk_identity(map, chunk),
    })
}

/// [`segment::identity_digest`] of one entry chunk.
fn chunk_identity(map: MapKind, chunk: &[DatasetEntry]) -> u64 {
    let paths: Vec<(String, u64)> = chunk
        .iter()
        .map(|e| (loader::relative_path_string(map, e.timestamp), e.size))
        .collect();
    segment::identity_digest(paths.iter().map(|(p, s)| (p.as_str(), *s)))
}

/// Whether the plan keeps the old segment file named `name`.
fn kept_name(plan: &[(&[DatasetEntry], SegmentMeta, Option<SegmentMeta>)], name: &str) -> bool {
    plan.iter()
        .any(|(_, _, kept)| kept.as_ref().is_some_and(|meta| meta.name == name))
}

/// Whether a manifest row still matches the chunk the corpus dictates.
fn meta_matches(old: &SegmentMeta, expected: &SegmentMeta) -> bool {
    old.name == expected.name
        && old.t_min == expected.t_min
        && old.t_max == expected.t_max
        && old.entries == expected.entries
        && old.meta_digest == expected.meta_digest
}

/// Reconstructs a manifest from segment file headers — the recovery
/// path for a damaged manifest, which must not force any segment
/// rebuild when the segment files themselves are intact.
fn recover_manifest(store: &DatasetStore, map: MapKind) -> io::Result<SegmentManifest> {
    let mut metas: Vec<SegmentMeta> = Vec::new();
    for name in store.list_segment_files(map)? {
        let Some(bytes) = store.read_segment_file(map, &name)? else {
            continue;
        };
        let Ok(header) = segment::decode_segment_header(&bytes) else {
            continue;
        };
        if segment_name(header.t_min) != name {
            continue;
        }
        metas.push(SegmentMeta {
            name,
            t_min: header.t_min,
            t_max: header.t_max,
            entries: header.entries,
            snapshots: header.snapshots,
            meta_digest: header.meta_digest,
        });
    }
    metas.sort_by_key(|m| m.t_min);
    // Drop rows whose spans overlap a predecessor (stale leftovers).
    let mut segments: Vec<SegmentMeta> = Vec::new();
    for meta in metas {
        if segments.last().is_none_or(|prev| prev.t_max < meta.t_min) {
            segments.push(meta);
        }
    }
    Ok(SegmentManifest { segments })
}

/// What one rebuilt entry resolves to: a content hash plus the parsed
/// snapshot when the file parses (reused from an old segment or parsed
/// fresh from YAML).
type Resolved = (u64, Option<TopologySnapshot>);

/// Brings the partition in line with the corpus: keeps every segment
/// whose chunk the entry list still dictates, rebuilds the changed
/// chunks (reusing decoded old segments where `(path, size)` still
/// matches so a pure append never re-parses history), rewrites the
/// manifest and garbage-collects stray files. Returns the manifest and
/// the entry span of each segment.
#[allow(clippy::too_many_arguments)]
fn ensure_segments(
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
    threads: usize,
    policy: SegmentPolicy,
    rebuild_all: bool,
    cache: &mut CacheStats,
) -> io::Result<(SegmentManifest, Vec<(usize, usize)>)> {
    let capacity = policy.chunk();

    // The old manifest, if usable; `intact` means the file itself was
    // present and decoded (a recovered manifest must be rewritten even
    // when nothing else changed).
    let mut intact = false;
    let old = if rebuild_all {
        SegmentManifest::default()
    } else {
        match store.read_manifest_bytes(map)? {
            None => SegmentManifest::default(),
            Some(bytes) => match decode_manifest(&bytes) {
                Ok(manifest) => {
                    intact = true;
                    manifest
                }
                Err(err) => {
                    eprintln!(
                        "warning: discarding segment manifest for {}: {err}; recovering from segment headers",
                        map.slug()
                    );
                    if matches!(err, CacheError::UnsupportedVersion(_)) {
                        cache.stale += 1;
                    } else {
                        cache.corrupt += 1;
                    }
                    recover_manifest(store, map)?
                }
            },
        }
    };

    // Chunks the old manifest still matches, wherever they sit: an edit
    // in one chunk leaves every other chunk's file alone.
    let old_by_name: BTreeMap<&str, &SegmentMeta> = old
        .segments
        .iter()
        .map(|meta| (meta.name.as_str(), meta))
        .collect();
    let plan: Vec<(&[DatasetEntry], SegmentMeta, Option<SegmentMeta>)> = entries
        .chunks(capacity)
        .filter_map(|chunk| {
            let expected = meta_of_chunk(map, chunk)?;
            let kept = old_by_name
                .get(expected.name.as_str())
                .filter(|old_meta| meta_matches(old_meta, &expected))
                .map(|old_meta| (*old_meta).clone());
            Some((chunk, expected, kept))
        })
        .collect();
    let kept = plan.iter().filter(|(_, _, kept)| kept.is_some()).count();
    let structurally_clean = kept == plan.len() && old.segments.len() == plan.len();

    let mut manifest = SegmentManifest::default();
    let mut reused_any = false;
    if structurally_clean {
        manifest.segments = old.segments.clone();
    } else {
        // Decode-reuse pool: old segments not kept whose span overlaps
        // a chunk to rebuild. For a pure append that is exactly the old
        // undersized tail.
        let rebuilt: Vec<&SegmentMeta> = plan
            .iter()
            .filter(|(_, _, kept)| kept.is_none())
            .map(|(_, expected, _)| expected)
            .collect();
        let mut pool: BTreeMap<String, (u64, Resolved)> = BTreeMap::new();
        if !rebuild_all {
            for meta in &old.segments {
                let overlaps = rebuilt
                    .iter()
                    .any(|r| r.t_min <= meta.t_max && meta.t_min <= r.t_max);
                if !overlaps || kept_name(&plan, &meta.name) {
                    continue;
                }
                let Some(bytes) = store.read_segment_file(map, &meta.name)? else {
                    continue;
                };
                let Ok((_, seg_store, fingerprint, _)) = segment::decode_segment(&bytes) else {
                    continue;
                };
                let mut by_path: BTreeMap<String, TopologySnapshot> = seg_store
                    .snapshots()
                    .map(|s| (loader::relative_path_string(map, s.timestamp), s))
                    .collect();
                for entry in &fingerprint.entries {
                    let snapshot = by_path.remove(&entry.path);
                    pool.insert(entry.path.clone(), (entry.size, (entry.hash, snapshot)));
                }
            }
        }

        // Parse from YAML only what the pool cannot supply.
        let fresh: Vec<DatasetEntry> = plan
            .iter()
            .filter(|(_, _, kept)| kept.is_none())
            .flat_map(|(chunk, _, _)| chunk.iter())
            .filter(|e| {
                let path = loader::relative_path_string(map, e.timestamp);
                pool.get(&path).is_none_or(|(size, _)| *size != e.size)
            })
            .cloned()
            .collect();
        let (snapshots, fresh_stats, hashes) =
            loader::load_sorted(store, map, &fresh, threads, true)?;
        cache.snapshots_appended += fresh_stats.parsed as u64;
        let mut fresh_snaps: BTreeMap<i64, TopologySnapshot> = snapshots
            .into_iter()
            .map(|s| (s.timestamp.unix(), s))
            .collect();
        let fresh_hashes: BTreeMap<i64, u64> = fresh
            .iter()
            .zip(&hashes)
            .map(|(e, &h)| (e.timestamp.unix(), h))
            .collect();

        let old_coverage = old.segments.last().map(|m| m.t_max);
        for (chunk, expected, kept) in plan {
            if let Some(kept) = kept {
                manifest.segments.push(kept);
                continue;
            }
            let mut meta = expected;
            let mut chunk_snapshots: Vec<TopologySnapshot> = Vec::new();
            let mut fp = CorpusFingerprint::default();
            for entry in chunk {
                let path = loader::relative_path_string(map, entry.timestamp);
                let (hash, snapshot) = match pool.get(&path) {
                    Some((size, (hash, snapshot))) if *size == entry.size => {
                        reused_any = true;
                        (*hash, snapshot.clone())
                    }
                    _ => (
                        fresh_hashes
                            .get(&entry.timestamp.unix())
                            .copied()
                            .unwrap_or(0),
                        fresh_snaps.remove(&entry.timestamp.unix()),
                    ),
                };
                fp.entries.push(FingerprintEntry {
                    path,
                    size: entry.size,
                    hash,
                });
                if let Some(snapshot) = snapshot {
                    chunk_snapshots.push(snapshot);
                }
            }
            meta.snapshots = chunk_snapshots.len() as u64;
            let (_, bytes) = encode_chunk(&meta, chunk, &chunk_snapshots, &fp);
            store.write_segment_file(map, &meta.name, &bytes)?;
            if old_coverage.is_some_and(|end| meta.t_min <= end) {
                cache.segments_rebuilt += 1;
            }
            manifest.segments.push(meta);
        }
    }

    if structurally_clean && !rebuild_all {
        cache.hits += 1;
    } else if !rebuild_all && (kept > 0 || reused_any) {
        cache.appends += 1;
    } else {
        cache.misses += 1;
    }

    if !(structurally_clean && intact) {
        write_manifest(store, map, &manifest)?;
        // Stray files (an old tail under a superseded name, leftovers
        // of a shrunk corpus) would confuse manifest recovery: drop
        // everything the manifest no longer references.
        for name in store.list_segment_files(map)? {
            if !manifest.segments.iter().any(|m| m.name == name) {
                store.remove_segment_file(map, &name)?;
            }
        }
    }

    let mut spans = Vec::with_capacity(manifest.segments.len());
    let mut start = 0usize;
    for meta in &manifest.segments {
        let end = start + meta.entries as usize;
        spans.push((start, end));
        start = end;
    }
    Ok((manifest, spans))
}

/// Decodes one segment when the file is intact, still the segment the
/// manifest promised and — when `hashes` is given — still holds the
/// current content of every entry; otherwise rebuilds exactly this
/// chunk from YAML (counting the damage) and repairs the file in place.
/// Returns the segment's store and whether it came from the file.
fn load_segment(
    store: &DatasetStore,
    map: MapKind,
    meta: &SegmentMeta,
    chunk: &[DatasetEntry],
    hashes: Option<&[u64]>,
    threads: usize,
    cache: &mut CacheStats,
) -> io::Result<(LongitudinalStore, bool)> {
    let decoded = match store.read_segment_file(map, &meta.name)? {
        None => {
            eprintln!(
                "warning: segment {} of {} is missing; rebuilding it from YAML",
                meta.name,
                map.slug()
            );
            cache.corrupt += 1;
            None
        }
        Some(bytes) => match segment::decode_segment(&bytes) {
            Ok((header, seg_store, fingerprint, _)) if header_matches(&header, meta) => {
                if hashes.is_some_and(|hashes| !content_matches(&fingerprint, hashes)) {
                    eprintln!(
                        "warning: segment {} of {} is stale against edited YAML; rebuilding it",
                        meta.name,
                        map.slug()
                    );
                    cache.stale += 1;
                    None
                } else {
                    Some(seg_store)
                }
            }
            Ok(_) => {
                eprintln!(
                    "warning: segment {} of {} does not match its manifest row; rebuilding it from YAML",
                    meta.name,
                    map.slug()
                );
                cache.corrupt += 1;
                None
            }
            Err(err) => {
                eprintln!(
                    "warning: discarding segment {} of {}: {err}; rebuilding it from YAML",
                    meta.name,
                    map.slug()
                );
                if matches!(err, CacheError::UnsupportedVersion(_)) {
                    cache.stale += 1;
                } else {
                    cache.corrupt += 1;
                }
                None
            }
        },
    };
    if let Some(seg_store) = decoded {
        return Ok((seg_store, true));
    }

    // Repair: parse exactly this chunk, re-encode, write back. The
    // encoding is deterministic, so the repaired file is byte-identical
    // to the one a fresh build writes and the manifest needs no update.
    let (snapshots, chunk_stats, hashes) = loader::load_sorted(store, map, chunk, threads, true)?;
    cache.segments_rebuilt += 1;
    cache.snapshots_appended += chunk_stats.parsed as u64;
    let meta = SegmentMeta {
        snapshots: snapshots.len() as u64,
        ..meta.clone()
    };
    let fp = loader::fingerprint_from(map, chunk, &hashes);
    let (seg_store, bytes) = encode_chunk(&meta, chunk, &snapshots, &fp);
    store.write_segment_file(map, &meta.name, &bytes)?;
    Ok((seg_store, false))
}

/// Whether a segment's stored content hashes are those of the files on
/// disk, entry for entry.
fn content_matches(fingerprint: &CorpusFingerprint, hashes: &[u64]) -> bool {
    fingerprint.entries.len() == hashes.len()
        && fingerprint
            .entries
            .iter()
            .zip(hashes)
            .all(|(entry, &hash)| entry.hash == hash)
}

/// Whether a decoded header is the segment the manifest row promises.
fn header_matches(header: &SegmentHeader, meta: &SegmentMeta) -> bool {
    header.t_min == meta.t_min
        && header.t_max == meta.t_max
        && header.entries == meta.entries
        && header.meta_digest == meta.meta_digest
}

/// Encodes one chunk as a segment file, returning the chunk's store
/// with the bytes. Load counters are derived from the entry list (not
/// from what this call happened to read), so both the build and the
/// repair path emit byte-identical files.
fn encode_chunk(
    meta: &SegmentMeta,
    chunk: &[DatasetEntry],
    snapshots: &[TopologySnapshot],
    fingerprint: &CorpusFingerprint,
) -> (LongitudinalStore, Vec<u8>) {
    let mut builder = ColumnarBuilder::default();
    for (i, snapshot) in snapshots.iter().enumerate() {
        builder.add_snapshot(i, snapshot);
    }
    let seg_store = ColumnarBuilder::finish(vec![builder]);
    let mut stats = CorpusLoadStats {
        parsed: snapshots.len(),
        failed: chunk.len() - snapshots.len(),
        ..CorpusLoadStats::default()
    };
    for entry in chunk {
        stats.files += 1;
        stats.bytes += entry.size;
    }
    let header = SegmentHeader {
        t_min: meta.t_min,
        t_max: meta.t_max,
        entries: meta.entries,
        snapshots: meta.snapshots,
        meta_digest: meta.meta_digest,
    };
    let bytes = segment::encode_segment(&header, &seg_store, fingerprint, &stats);
    (seg_store, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::Duration;

    #[test]
    fn manifest_round_trip_and_validation() {
        let t0 = Timestamp::from_ymd(2022, 2, 1);
        let meta = |offset: i64, len: i64| SegmentMeta {
            name: segment_name(t0 + Duration::from_minutes(offset)),
            t_min: t0 + Duration::from_minutes(offset),
            t_max: t0 + Duration::from_minutes(offset + len),
            entries: 4,
            snapshots: 3,
            meta_digest: 0xFEED + offset as u64,
        };
        let manifest = SegmentManifest {
            segments: vec![meta(0, 15), meta(20, 15), meta(40, 5)],
        };
        let bytes = encode_manifest(&manifest);
        assert_eq!(decode_manifest(&bytes).unwrap(), manifest);
        // Deterministic re-encode.
        assert_eq!(encode_manifest(&decode_manifest(&bytes).unwrap()), bytes);

        let empty = SegmentManifest::default();
        assert_eq!(decode_manifest(&encode_manifest(&empty)).unwrap(), empty);

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_manifest(&bad_magic),
            Err(CacheError::BadMagic)
        ));

        let mut bad_version = bytes.clone();
        bad_version[8] = 9;
        assert!(matches!(
            decode_manifest(&bad_version),
            Err(CacheError::UnsupportedVersion(9))
        ));

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(decode_manifest(&flipped).is_err());
        for cut in [0, 7, 12, 16, bytes.len() - 1] {
            assert!(decode_manifest(&bytes[..cut]).is_err(), "cut {cut}");
        }

        // Overlapping spans are rejected even under a valid CRC.
        let overlapping = SegmentManifest {
            segments: vec![meta(0, 30), meta(20, 15)],
        };
        assert!(matches!(
            decode_manifest(&encode_manifest(&overlapping)),
            Err(CacheError::Invalid(_))
        ));
    }

    #[test]
    fn segment_names_sort_with_time() {
        let t0 = Timestamp::from_ymd(2022, 2, 1);
        let names: Vec<String> = (0..30)
            .map(|d| segment_name(t0 + Duration::from_days(d)))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.first().unwrap().starts_with("seg-"));
        assert!(names.first().unwrap().ends_with(".seg"));
    }
}
