//! Traced mirrors of the library's composite entry points.
//!
//! `extract_batch_with`, `reindex_segments` and
//! `build_longitudinal_windowed` are single calls, so spans around them
//! cannot say where their time goes. The traced run replays the same
//! work step by step through the layers' public functions — the
//! segment store's walk, manifest decode, identity digest, segment
//! decode/encode and columnar build; the extractor's parse and both
//! algorithms — with a span around each call. Each mirror follows its
//! library counterpart for the states this benchmark produces (fresh
//! build, clean hit, pure append); damage recovery is not mirrored and
//! surfaces as an error instead. Every traced answer and every byte the
//! mirrors write is compared against the untraced run, so a mirror that
//! drifts from the library fails the benchmark rather than skewing it.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ovh_weather::dataset::{
    decode_manifest, decode_segment, encode_manifest, encode_segment, identity_digest,
    relative_path, segment_name, ColumnarBuilder, CorpusFingerprint, CorpusLoadStats, DatasetEntry,
    FingerprintEntry, SegmentHeader,
};
use ovh_weather::extract::{
    algorithm1_into, algorithm2_with, AttributionScratch, ExtractError, RawObjects,
};
use ovh_weather::prelude::*;
use ovh_weather::svg::{Document, ParseError};

use crate::corpus::THREADS;
use crate::trace::Tracer;

fn damaged(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn capacity() -> usize {
    SegmentPolicy::default().capacity.max(1)
}

/// Per-thread extraction buffers (the library's `ExtractScratch` keeps
/// its fields private, so the mirror holds its own).
#[derive(Default)]
pub struct Scratch {
    doc: Document,
    objects: RawObjects,
    attribution: AttributionScratch,
}

/// SVG text → XML/SVG parse → Algorithm 1 → Algorithm 2, one span each.
pub fn extract_one(
    tr: &mut Tracer,
    scratch: &mut Scratch,
    svg: &str,
    map: MapKind,
    timestamp: Timestamp,
    config: &ExtractConfig,
) -> Result<TopologySnapshot, ExtractError> {
    let parsed = tr.span("svg.parse", |_| Document::parse_into(svg, &mut scratch.doc));
    parsed.map_err(|e| match &e {
        ParseError::Xml(_) => ExtractError::InvalidXml(e.to_string()),
        _ => ExtractError::InvalidSvg(e.to_string()),
    })?;
    tr.span("extract.alg1", |_| {
        algorithm1_into(&scratch.doc, &mut scratch.objects)
    })?;
    let snapshot = tr.span("extract.alg2", |_| {
        algorithm2_with(
            &scratch.objects,
            map,
            timestamp,
            config,
            &mut scratch.attribution,
        )
    });
    let broad = scratch.attribution.take_stats();
    tr.count("extract.rects_tested", broad.rects_tested as f64);
    tr.count("extract.rects_baseline", broad.rects_baseline as f64);
    snapshot
}

/// Outcome of a batch extraction, as `extract_batch_with` reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Extracted {
    pub snapshots: Vec<TopologySnapshot>,
    pub failures_by_kind: BTreeMap<String, usize>,
}

/// Mirror of `extract_batch_with(.., THREADS, WorkStealing)`: workers
/// claim files from a shared cursor; output sorted by (timestamp, index).
pub fn extract_batch(
    tr: &mut Tracer,
    inputs: &[BatchInput],
    map: MapKind,
    config: &ExtractConfig,
) -> Extracted {
    tr.span("extract.batch", |tr| {
        let cursor = AtomicUsize::new(0);
        let workers = THREADS.min(inputs.len()).max(1);
        let started = Instant::now();
        type Worker = (
            Tracer,
            Vec<(usize, TopologySnapshot)>,
            BTreeMap<String, usize>,
            u64,
        );
        let results: Vec<Worker> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let mut wt = tr.child();
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut scratch = Scratch::default();
                        let mut done = Vec::new();
                        let mut failures: BTreeMap<String, usize> = BTreeMap::new();
                        let mut busy_ns = 0u64;
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(input) = inputs.get(index) else {
                                break;
                            };
                            let t = Instant::now();
                            let out = extract_one(
                                &mut wt,
                                &mut scratch,
                                &input.svg,
                                map,
                                input.timestamp,
                                config,
                            );
                            busy_ns += t.elapsed().as_nanos() as u64;
                            match out {
                                Ok(snapshot) => done.push((index, snapshot)),
                                Err(err) => {
                                    *failures.entry(err.kind().to_owned()).or_default() += 1
                                }
                            }
                        }
                        (wt, done, failures, busy_ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("extraction worker panicked"))
                .collect()
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        let mut all = Vec::new();
        let mut failures_by_kind: BTreeMap<String, usize> = BTreeMap::new();
        for (wt, done, failures, busy_ns) in results {
            tr.absorb(wt);
            tr.count("extract.busy_ns", busy_ns as f64);
            all.extend(done);
            for (kind, n) in failures {
                *failures_by_kind.entry(kind).or_default() += n;
            }
        }
        tr.count("extract.capacity_ns", (workers as u64 * wall_ns) as f64);
        all.sort_by_key(|(index, s)| (s.timestamp, *index));
        Extracted {
            snapshots: all.into_iter().map(|(_, s)| s).collect(),
            failures_by_kind,
        }
    })
}

/// `/`-joined layout path of a YAML file, as the segment fingerprints
/// record it.
fn rel_path(map: MapKind, timestamp: Timestamp) -> String {
    let path = relative_path(map, FileKind::Yaml, timestamp);
    let parts: Vec<String> = path
        .iter()
        .map(|c| c.to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

fn chunk_meta(map: MapKind, chunk: &[DatasetEntry]) -> Option<SegmentMeta> {
    let first = chunk.first()?;
    let last = chunk.last()?;
    let paths: Vec<(String, u64)> = chunk
        .iter()
        .map(|e| (rel_path(map, e.timestamp), e.size))
        .collect();
    Some(SegmentMeta {
        name: segment_name(first.timestamp),
        t_min: first.timestamp,
        t_max: last.timestamp,
        entries: chunk.len() as u64,
        snapshots: 0,
        meta_digest: identity_digest(paths.iter().map(|(p, s)| (p.as_str(), *s))),
    })
}

fn meta_matches(old: &SegmentMeta, expected: &SegmentMeta) -> bool {
    old.name == expected.name
        && old.t_min == expected.t_min
        && old.t_max == expected.t_max
        && old.entries == expected.entries
        && old.meta_digest == expected.meta_digest
}

pub fn walk(tr: &mut Tracer, store: &DatasetStore, map: MapKind) -> io::Result<Vec<DatasetEntry>> {
    let entries = tr.span("dataset.walk", |_| store.entries_of(map, FileKind::Yaml))?;
    tr.count("dataset.walk_entries", entries.len() as f64);
    Ok(entries)
}

/// Reads, hashes and parses YAML files in entry order, with up to
/// `THREADS` workers like the library's loader.
fn parse_entries(
    tr: &mut Tracer,
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
) -> io::Result<Vec<(Option<TopologySnapshot>, u64)>> {
    fn one(
        tr: &mut Tracer,
        store: &DatasetStore,
        map: MapKind,
        entry: &DatasetEntry,
    ) -> io::Result<(Option<TopologySnapshot>, u64)> {
        let bytes = tr.span("io.read", |_| {
            store.read(map, FileKind::Yaml, entry.timestamp)
        })?;
        let hash = tr.span("dataset.hash", |_| {
            ovh_weather::dataset::codec::fnv1a(&bytes)
        });
        let snapshot = tr.span("yaml.parse", |_| {
            from_yaml_str(&String::from_utf8_lossy(&bytes)).ok()
        });
        Ok((snapshot, hash))
    }
    let workers = THREADS.min(entries.len()).max(1);
    if workers == 1 {
        return entries.iter().map(|e| one(tr, store, map, e)).collect();
    }
    let cursor = AtomicUsize::new(0);
    type Worker = (
        Tracer,
        io::Result<Vec<(usize, (Option<TopologySnapshot>, u64))>>,
    );
    let results: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let mut wt = tr.child();
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let result = loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(entry) = entries.get(index) else {
                            break Ok(done);
                        };
                        match one(&mut wt, store, map, entry) {
                            Ok(parsed) => done.push((index, parsed)),
                            Err(err) => break Err(err),
                        }
                    };
                    (wt, result)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parse worker panicked"))
            .collect()
    });
    let mut all = Vec::with_capacity(entries.len());
    for (wt, result) in results {
        tr.absorb(wt);
        all.extend(result?);
    }
    all.sort_by_key(|(index, _)| *index);
    Ok(all.into_iter().map(|(_, parsed)| parsed).collect())
}

/// Mirror of the segment store's `ensure_segments`: keep the matching
/// prefix, rebuild the changed suffix from the old tail and fresh YAML,
/// rewrite the manifest when anything changed.
pub fn ensure_segments(
    tr: &mut Tracer,
    store: &DatasetStore,
    map: MapKind,
    entries: &[DatasetEntry],
) -> io::Result<SegmentManifest> {
    let capacity = capacity();
    let bytes = tr.span("io.read", |_| store.read_manifest_bytes(map))?;
    let (old, intact) = match bytes {
        None => (SegmentManifest::default(), false),
        Some(bytes) => match tr.span("dataset.manifest_decode", |_| decode_manifest(&bytes)) {
            Ok(manifest) => (manifest, true),
            Err(err) => return Err(damaged(format!("manifest of {}: {err}", map.slug()))),
        },
    };

    let kept = tr.span("dataset.digest", |_| {
        let mut kept = 0usize;
        for (chunk, old_meta) in entries.chunks(capacity).zip(&old.segments) {
            match chunk_meta(map, chunk) {
                Some(expected) if meta_matches(old_meta, &expected) => kept += 1,
                _ => break,
            }
        }
        kept
    });
    let chunk_count = entries.len().div_ceil(capacity);
    let clean = kept == chunk_count && old.segments.len() == chunk_count;
    let mut manifest = SegmentManifest {
        segments: old.segments.iter().take(kept).cloned().collect(),
    };

    if !clean {
        let rebuild_from = kept * capacity;
        let first_rebuilt = entries.get(rebuild_from).map(|e| e.timestamp);
        let mut pool: BTreeMap<String, (u64, u64, Option<TopologySnapshot>)> = BTreeMap::new();
        for meta in old.segments.iter().skip(kept) {
            if first_rebuilt.is_none_or(|t| meta.t_max < t) {
                continue;
            }
            let Some(bytes) = tr.span("io.read", |_| store.read_segment_file(map, &meta.name))?
            else {
                continue;
            };
            let Ok((_, seg_store, fingerprint, _)) =
                tr.span("dataset.segment_decode", |_| decode_segment(&bytes))
            else {
                continue;
            };
            let mut by_path: BTreeMap<String, TopologySnapshot> =
                tr.span("dataset.reconstruct", |_| {
                    seg_store
                        .snapshots()
                        .map(|s| (rel_path(map, s.timestamp), s))
                        .collect()
                });
            tr.count("dataset.snapshots_decoded", by_path.len() as f64);
            tr.span("dataset.assemble", |_| {
                for entry in &fingerprint.entries {
                    let snapshot = by_path.remove(&entry.path);
                    pool.insert(entry.path.clone(), (entry.size, entry.hash, snapshot));
                }
            });
        }

        let rebuild = entries.get(rebuild_from..).unwrap_or(&[]);
        let fresh: Vec<DatasetEntry> = tr.span("dataset.assemble", |_| {
            rebuild
                .iter()
                .filter(|e| {
                    pool.get(&rel_path(map, e.timestamp))
                        .is_none_or(|(size, _, _)| *size != e.size)
                })
                .cloned()
                .collect()
        });
        let parsed = parse_entries(tr, store, map, &fresh)?;
        let mut fresh_by_time: BTreeMap<i64, (Option<TopologySnapshot>, u64)> = fresh
            .iter()
            .zip(parsed)
            .map(|(e, p)| (e.timestamp.unix(), p))
            .collect();

        let old_coverage = old.segments.last().map(|m| m.t_max);
        for chunk in entries.chunks(capacity).skip(kept) {
            let Some(mut meta) = tr.span("dataset.digest", |_| chunk_meta(map, chunk)) else {
                continue;
            };
            // Gather the chunk's snapshots and fingerprint from the old
            // tail's pool and the freshly parsed files.
            let (snapshots, fingerprint) = tr.span("dataset.assemble", |_| {
                let mut snapshots = Vec::new();
                let mut fingerprint = CorpusFingerprint::default();
                for entry in chunk {
                    let path = rel_path(map, entry.timestamp);
                    let (hash, snapshot) = match pool.get(&path) {
                        Some((size, hash, snapshot)) if *size == entry.size => {
                            (*hash, snapshot.clone())
                        }
                        _ => match fresh_by_time.remove(&entry.timestamp.unix()) {
                            Some((snapshot, hash)) => (hash, snapshot),
                            None => (0, None),
                        },
                    };
                    fingerprint.entries.push(FingerprintEntry {
                        path,
                        size: entry.size,
                        hash,
                    });
                    snapshots.extend(snapshot);
                }
                (snapshots, fingerprint)
            });
            meta.snapshots = snapshots.len() as u64;
            let seg_store = tr.span("dataset.columnar_build", |_| {
                let mut builder = ColumnarBuilder::default();
                for (i, snapshot) in snapshots.iter().enumerate() {
                    builder.add_snapshot(i, snapshot);
                }
                ColumnarBuilder::finish(vec![builder])
            });
            let stats = CorpusLoadStats {
                files: chunk.len(),
                parsed: snapshots.len(),
                failed: chunk.len() - snapshots.len(),
                bytes: chunk.iter().map(|e| e.size).sum(),
                ..CorpusLoadStats::default()
            };
            let header = SegmentHeader {
                t_min: meta.t_min,
                t_max: meta.t_max,
                entries: meta.entries,
                snapshots: meta.snapshots,
                meta_digest: meta.meta_digest,
            };
            let bytes = tr.span("dataset.segment_encode", |_| {
                encode_segment(&header, &seg_store, &fingerprint, &stats)
            });
            tr.span("io.write", |_| {
                store.write_segment_file(map, &meta.name, &bytes)
            })?;
            tr.count("dataset.bytes_written", bytes.len() as f64);
            if old_coverage.is_some_and(|end| meta.t_min <= end) {
                tr.count("dataset.segments_rewritten", 1.0);
            }
            manifest.segments.push(meta);
        }
    }

    if !(clean && intact) {
        let bytes = tr.span("dataset.manifest_encode", |_| encode_manifest(&manifest));
        tr.span("io.write", |_| store.write_manifest_bytes(map, &bytes))?;
        tr.count("dataset.bytes_written", bytes.len() as f64);
        tr.span("dataset.gc", |_| -> io::Result<()> {
            for name in store.list_segment_files(map)? {
                if !manifest.segments.iter().any(|m| m.name == name) {
                    store.remove_segment_file(map, &name)?;
                }
            }
            Ok(())
        })?;
    }
    if let Some(last) = manifest.segments.last() {
        if (last.entries as usize) < capacity {
            tr.count("dataset.tail_snapshots", last.snapshots as f64);
        }
    }
    Ok(manifest)
}

/// Reads and decodes one segment the manifest promises; damage (which
/// the library would repair from YAML) is counted and reported.
fn load_segment(
    tr: &mut Tracer,
    store: &DatasetStore,
    map: MapKind,
    meta: &SegmentMeta,
) -> io::Result<Vec<TopologySnapshot>> {
    let decoded = match tr.span("io.read", |_| store.read_segment_file(map, &meta.name))? {
        None => Err(format!("segment {} is missing", meta.name)),
        Some(bytes) => match tr.span("dataset.segment_decode", |_| decode_segment(&bytes)) {
            Ok((header, seg_store, _, _))
                if header.t_min == meta.t_min
                    && header.t_max == meta.t_max
                    && header.entries == meta.entries
                    && header.meta_digest == meta.meta_digest =>
            {
                Ok(seg_store)
            }
            Ok(_) => Err(format!("segment {} does not match the manifest", meta.name)),
            Err(err) => Err(format!("segment {}: {err}", meta.name)),
        },
    };
    let seg_store = decoded.map_err(|what| {
        tr.count("dataset.segments_rebuilt", 1.0);
        damaged(what)
    })?;
    let snapshots: Vec<TopologySnapshot> =
        tr.span("dataset.reconstruct", |_| seg_store.snapshots().collect());
    tr.count("dataset.snapshots_decoded", snapshots.len() as f64);
    Ok(snapshots)
}

/// Mirror of `build_longitudinal_windowed(.., CacheMode::Auto)`.
pub fn windowed_load(
    tr: &mut Tracer,
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
) -> io::Result<LongitudinalStore> {
    let empty = || ColumnarBuilder::finish(vec![ColumnarBuilder::default()]);
    if range.is_empty() {
        return Ok(empty());
    }
    // Gap fast path: answered from the manifest alone.
    if let Some(bytes) = tr.span("io.read", |_| store.read_manifest_bytes(map))? {
        if let Ok(manifest) = tr.span("dataset.manifest_decode", |_| decode_manifest(&bytes)) {
            if let Some(last) = manifest.segments.last() {
                let touched = manifest
                    .segments
                    .iter()
                    .any(|m| range.intersects_closed(m.t_min, m.t_max));
                if !touched && range.end <= last.t_max {
                    return Ok(empty());
                }
            }
        }
    }

    let entries = walk(tr, store, map)?;
    let manifest = ensure_segments(tr, store, map, &entries)?;
    let mut builder = ColumnarBuilder::default();
    let mut index = 0usize;
    for meta in &manifest.segments {
        if !range.intersects_closed(meta.t_min, meta.t_max) {
            continue;
        }
        tr.count("dataset.segments_touched", 1.0);
        let snapshots = load_segment(tr, store, map, meta)?;
        tr.span("dataset.columnar_build", |_| {
            for snapshot in &snapshots {
                if range.contains(snapshot.timestamp) {
                    builder.add_snapshot(index, snapshot);
                    index += 1;
                }
            }
        });
    }
    let merged = tr.span("dataset.columnar_build", |_| {
        ColumnarBuilder::finish(vec![builder])
    });
    tr.count("dataset.snapshots_returned", merged.len() as f64);
    Ok(merged)
}

/// Mirror of `reindex_segments(.., CacheMode::Auto)`: bring the segments
/// in line with the corpus, then decode every one to validate it.
pub fn reindex(tr: &mut Tracer, store: &DatasetStore, map: MapKind) -> io::Result<SegmentManifest> {
    let entries = walk(tr, store, map)?;
    let manifest = ensure_segments(tr, store, map, &entries)?;
    for meta in &manifest.segments {
        load_segment(tr, store, map, meta)?;
    }
    Ok(manifest)
}
