//! `ingest_full`: batch ingest of all four maps.
//!
//! One op is one pass over the rendered SVG corpus, per map: walk,
//! read, `extract_batch_with` (two threads, work-stealing), emit and
//! write the YAML, `reindex_segments`, then a full-range windowed load,
//! `AnalysisSuite::run_store` and `SuiteReport::render` — the CLI's
//! `extract` → `index --compact` → `analyze`. Between passes (untimed)
//! the YAML and segments are removed so every pass does the same work.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use ovh_weather::prelude::*;
use ovh_weather::simulator::FaultKind;

use crate::corpus::{self, canonical, expected_kinds, SvgInput, MAPS, THREADS};
use crate::harness::{self, Ctx, Report};
use crate::mirror;
use crate::trace::Tracer;

/// What one pass produced for one map.
#[derive(Debug, Clone, PartialEq)]
struct MapOutput {
    extracted: mirror::Extracted,
    report: String,
    yaml_bytes: u64,
    segments: BTreeMap<String, Vec<u8>>,
}

/// Expected results of one map, built from ground truth.
struct Expected {
    inputs: Vec<SvgInput>,
    report: String,
}

fn read_inputs(store: &DatasetStore, map: MapKind) -> io::Result<Vec<BatchInput>> {
    let entries = store.entries_of(map, FileKind::Svg)?;
    entries
        .iter()
        .map(|e| {
            let bytes = store.read(map, FileKind::Svg, e.timestamp)?;
            Ok(BatchInput {
                timestamp: e.timestamp,
                svg: String::from_utf8_lossy(&bytes).into_owned(),
            })
        })
        .collect()
}

fn write_yaml(
    store: &DatasetStore,
    map: MapKind,
    snapshots: &[TopologySnapshot],
) -> io::Result<u64> {
    let mut bytes = 0u64;
    for snapshot in snapshots {
        let text = to_yaml_string(snapshot);
        bytes += text.len() as u64;
        store.write(map, FileKind::Yaml, snapshot.timestamp, text.as_bytes())?;
    }
    Ok(bytes)
}

/// One untraced pass over one map through the library's entry points.
/// Returns the output and the segments the library reports rebuilt.
fn pass_map(store: &DatasetStore, map: MapKind) -> io::Result<(MapOutput, u64)> {
    let inputs = read_inputs(store, map)?;
    let (snapshots, stats, _) = extract_batch_with(
        &inputs,
        map,
        &ExtractConfig::default(),
        THREADS,
        Scheduling::WorkStealing,
    );
    drop(inputs);
    let yaml_bytes = write_yaml(store, map, &snapshots)?;
    let (_, indexed) = reindex_segments(store, map, THREADS, CacheMode::Auto)?;
    let (columnar, loaded) =
        build_longitudinal_windowed(store, map, TimeRange::ALL, THREADS, CacheMode::Auto)?;
    let (report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &columnar);
    let output = MapOutput {
        extracted: mirror::Extracted {
            snapshots,
            failures_by_kind: stats.failures_by_kind,
        },
        report: report.render(),
        yaml_bytes,
        segments: BTreeMap::new(),
    };
    Ok((
        output,
        indexed.cache.segments_rebuilt + loaded.cache.segments_rebuilt,
    ))
}

/// The same pass through the traced mirrors.
fn traced_pass_map(tr: &mut Tracer, store: &DatasetStore, map: MapKind) -> io::Result<MapOutput> {
    let entries = tr.span("dataset.walk", |_| store.entries_of(map, FileKind::Svg))?;
    tr.count("dataset.walk_entries", entries.len() as f64);
    let mut inputs = Vec::with_capacity(entries.len());
    for e in &entries {
        let svg = tr.span("io.read", |_| {
            store
                .read(map, FileKind::Svg, e.timestamp)
                .map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
        })?;
        inputs.push(BatchInput {
            timestamp: e.timestamp,
            svg,
        });
    }
    let extracted = mirror::extract_batch(tr, &inputs, map, &ExtractConfig::default());
    drop(inputs);
    let mut yaml_bytes = 0u64;
    for snapshot in &extracted.snapshots {
        let text = tr.span("yaml.emit", |_| to_yaml_string(snapshot));
        yaml_bytes += text.len() as u64;
        tr.span("io.write", |_| {
            store.write(map, FileKind::Yaml, snapshot.timestamp, text.as_bytes())
        })?;
    }
    mirror::reindex(tr, store, map)?;
    let columnar = mirror::windowed_load(tr, store, map, TimeRange::ALL)?;
    let report = tr.span("analysis.suite", |_| {
        AnalysisSuite::run_store(SuiteConfig::default(), &columnar).0
    });
    let report = tr.span("analysis.render", |_| report.render());
    Ok(MapOutput {
        extracted,
        report,
        yaml_bytes,
        segments: BTreeMap::new(),
    })
}

/// Removes a pass's YAML and segments so the next pass starts equal.
fn reset(store: &DatasetStore) -> io::Result<()> {
    for map in MAPS {
        store.remove_segments(map)?;
        harness::remove_dir(&store.root().join(map.slug()).join(FileKind::Yaml.as_str()))?;
    }
    Ok(())
}

/// Files whose outcome disagrees with ground truth, plus one for a
/// wrong report.
fn check(output: &MapOutput, expected: &Expected) -> u64 {
    let mut failed = 0u64;
    let extracted: BTreeMap<Timestamp, &TopologySnapshot> = output
        .extracted
        .snapshots
        .iter()
        .map(|s| (s.timestamp, s))
        .collect();
    let mut refusals = output.extracted.failures_by_kind.clone();
    for input in &expected.inputs {
        let got = extracted.get(&input.timestamp);
        let ok = match input.fault {
            None => got.is_some_and(|s| canonical((*s).clone()) == input.truth),
            // An expected refusal: absent from the output and tallied
            // under one of the kinds its fault maps to.
            Some(fault) => {
                got.is_none()
                    && expected_kinds(fault)
                        .iter()
                        .any(|kind| match refusals.get_mut(*kind) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                true
                            }
                            _ => false,
                        })
            }
        };
        failed += u64::from(!ok);
    }
    failed + u64::from(output.report != expected.report)
}

fn store_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("ingest")
}

fn truth_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("truth")
}

fn faults_path(ctx: &Ctx) -> PathBuf {
    ctx.work.join("faults.txt")
}

/// Renders the SVG corpus, plus its ground truth (as YAML) and the
/// injected faults for the measuring process.
pub fn setup(ctx: &Ctx) -> io::Result<()> {
    let sizes = ctx.sizes();
    for dir in [store_dir(ctx), truth_dir(ctx)] {
        harness::remove_dir(&dir)?;
    }
    let store = DatasetStore::open(store_dir(ctx))?;
    let sim = corpus::world(sizes.ingest_scale);
    let started = Instant::now();
    let (inputs, svg_bytes) =
        corpus::render_svg_corpus(&sim, &store, ctx.seed, sizes.ingest_hours)?;
    let render_s = started.elapsed().as_secs_f64();
    let truths: Vec<TopologySnapshot> = inputs.iter().map(|i| i.truth.clone()).collect();
    corpus::write_snapshots(&truth_dir(ctx), &truths)?;
    let faults: String = inputs
        .iter()
        .filter_map(|i| {
            let kind = FaultKind::ALL.iter().position(|k| Some(*k) == i.fault)?;
            Some(format!("{} {} {kind}\n", i.map.slug(), i.timestamp.unix()))
        })
        .collect();
    std::fs::write(faults_path(ctx), faults)?;
    harness::write_facts(
        ctx,
        &[("render_s", render_s), ("svg_bytes", svg_bytes as f64)],
    )
}

/// The inputs' ground truth as the set-up process recorded it.
fn load_inputs(ctx: &Ctx) -> io::Result<Vec<SvgInput>> {
    let text = std::fs::read_to_string(faults_path(ctx))?;
    let mut faults: BTreeMap<(&str, i64), FaultKind> = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split(' ');
        if let (Some(slug), Some(Ok(unix)), Some(Some(kind))) = (
            parts.next(),
            parts.next().map(str::parse::<i64>),
            parts
                .next()
                .map(|k| k.parse::<usize>().ok().and_then(|k| FaultKind::ALL.get(k))),
        ) {
            faults.insert((slug, unix), *kind);
        }
    }
    let mut inputs = Vec::new();
    for map in MAPS {
        for truth in corpus::read_snapshots(&truth_dir(ctx), map)? {
            inputs.push(SvgInput {
                map,
                timestamp: truth.timestamp,
                fault: faults.get(&(map.slug(), truth.timestamp.unix())).copied(),
                truth,
            });
        }
    }
    Ok(inputs)
}

pub fn run(ctx: &Ctx, setup_s: f64) -> io::Result<Report> {
    let sizes = ctx.sizes();
    let store = DatasetStore::open_existing(store_dir(ctx))?;
    let inputs = load_inputs(ctx)?;
    let svg_bytes = harness::read_fact(ctx, "svg_bytes")?;
    let files = inputs.len() as u64;
    let faults = inputs.iter().filter(|i| i.fault.is_some()).count();

    // Ground truth per map, outside every timed region.
    let expected: Vec<Expected> = MAPS
        .iter()
        .map(|&map| {
            let inputs: Vec<SvgInput> = inputs.iter().filter(|i| i.map == map).cloned().collect();
            let clean: Vec<&TopologySnapshot> = inputs
                .iter()
                .filter(|i| i.fault.is_none())
                .map(|i| &i.truth)
                .collect();
            let store = LongitudinalStore::from_snapshots(clean);
            let report = AnalysisSuite::run_store(SuiteConfig::default(), &store)
                .0
                .render();
            Expected { inputs, report }
        })
        .collect();
    drop(inputs);

    let mut report = Report::default();
    report.note(format!(
        "input: {files} SVG files over 4 maps ({:.1} MiB, {} h at scale {}), {faults} with injected faults",
        svg_bytes / 1048576.0,
        sizes.ingest_hours,
        sizes.ingest_scale
    ));

    harness::reset_peak_rss();
    // With --trace 1 each pass is replayed through the traced mirrors
    // right after its untraced run; outputs and written bytes must match.
    let mut tracer = ctx.trace.then(Tracer::new);
    let mut latencies_ms = Vec::new();
    let mut busy_s = 0.0;
    let mut first: Vec<MapOutput> = Vec::new();
    let mut yaml_bytes = 0u64;
    let mut store_bytes = 0u64;
    while busy_s < ctx.untraced_budget() {
        reset(&store)?;
        let started = Instant::now();
        let mut outputs = Vec::new();
        let mut rebuilt = 0;
        for map in MAPS {
            let (output, r) = pass_map(&store, map)?;
            outputs.push(output);
            rebuilt += r;
        }
        let elapsed = started.elapsed().as_secs_f64();
        busy_s += elapsed;
        latencies_ms.push(elapsed * 1e3);

        if ctx.mutate && first.is_empty() {
            outputs[0].extracted.snapshots.pop();
        }
        report.attempted += files;
        report.failed += rebuilt;
        yaml_bytes = 0;
        store_bytes = 0;
        for ((map, output), expected) in MAPS.iter().zip(&mut outputs).zip(&expected) {
            report.failed += check(output, expected);
            yaml_bytes += output.yaml_bytes;
            store_bytes += corpus::dir_bytes(&store.segments_dir(*map))?;
            output.segments = corpus::segment_image(&store, *map)?;
        }

        if let Some(tr) = tracer.as_mut() {
            reset(&store)?;
            let pass = latencies_ms.len() as u64 - 1;
            let traced = tr.op(pass, |tr| -> io::Result<Vec<MapOutput>> {
                MAPS.iter()
                    .map(|&map| traced_pass_map(tr, &store, map))
                    .collect()
            })?;
            report.attempted += files;
            for ((map, mut output), untraced) in MAPS.iter().zip(traced).zip(&outputs) {
                output.segments = corpus::segment_image(&store, *map)?;
                if output != *untraced {
                    report.failed += 1;
                    report.note(format!("traced pass {pass} differs on {}", map.slug()));
                }
            }
        }

        if first.is_empty() {
            first = outputs;
        } else if outputs != first {
            report.failed += 1;
            report.note("a pass differed from the first pass");
        }
    }
    let peak_mib = harness::peak_rss_mib();
    let passes = latencies_ms.len();
    report.note(format!("{passes} passes over {files} files"));
    report.shown.push(harness::metric(
        "batch_s",
        harness::quantile(&latencies_ms, 0.5) / 1e3,
        "s",
    ));

    match tracer {
        None => harness::end_to_end(
            &mut report,
            setup_s,
            files * passes as u64,
            busy_s,
            &latencies_ms,
            peak_mib,
            store_bytes as f64 / yaml_bytes.max(1) as f64,
        ),
        Some(tracer) => harness::per_layer(ctx, &mut report, &tracer, &latencies_ms)?,
    }
    Ok(report)
}
