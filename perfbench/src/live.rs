//! `live_append`: one closed-loop collector appending to the history.
//!
//! Each op takes the next fresh 5-minute SVG (rendered during set-up
//! into an incoming directory), writes it into the store, extracts it,
//! emits and writes its YAML, loads the newest 6 h with
//! `build_longitudinal_windowed(Auto)` — which appends the snapshot to
//! the tail segment and rewrites the manifest — and answers top-k. The
//! history is a little short of whole days, so the tail seals part-way
//! through a run and both long and short tails are timed.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ovh_weather::extract::{extract_svg_with, ExtractScratch};
use ovh_weather::prelude::*;
use ovh_weather::simulator::CorpusFile;

use crate::corpus::{self, canonical, expected_kinds, History, HISTORY_MAP, THREADS};
use crate::harness::{self, Ctx, Report};
use crate::mirror;
use crate::trace::Tracer;
use crate::window::{self, HistoryStore};

#[derive(Debug, Clone, PartialEq)]
struct Answer {
    /// The extracted snapshot, or the refusal kind.
    extracted: Result<TopologySnapshot, &'static str>,
    topk: QueryOutput,
}

/// The newest 6 h up to and including `t`.
fn window_ending(t: Timestamp) -> TimeRange {
    let end = Timestamp::from_unix(t.unix() + 1);
    TimeRange::new(end - Duration::from_hours(6), end)
}

fn topk(range: TimeRange) -> Query {
    Query::new(QueryOp::TopK { k: 10 }).in_range(range)
}

/// One append through the library's entry points. The second value
/// names unexpected cache activity, if any.
fn append(
    store: &DatasetStore,
    svg: &str,
    timestamp: Timestamp,
    scratch: &mut ExtractScratch,
) -> io::Result<(Answer, Option<String>)> {
    store.write(HISTORY_MAP, FileKind::Svg, timestamp, svg.as_bytes())?;
    let extracted = extract_svg_with(
        svg,
        HISTORY_MAP,
        timestamp,
        &ExtractConfig::default(),
        scratch,
    );
    if let Ok(snapshot) = &extracted {
        let text = to_yaml_string(snapshot);
        store.write(HISTORY_MAP, FileKind::Yaml, timestamp, text.as_bytes())?;
    }
    let range = window_ending(timestamp);
    let (columnar, stats) =
        build_longitudinal_windowed(store, HISTORY_MAP, range, THREADS, CacheMode::Auto)?;
    let topk = QueryEngine::new(&columnar).run(&topk(range), THREADS);
    let cache = stats.cache;
    let expected_appends = u64::from(extracted.is_ok());
    let unexpected = (cache.appends != expected_appends
        || cache.snapshots_appended != expected_appends
        || cache.hits != 1 - expected_appends
        || cache.corrupt + cache.stale + cache.misses != 0)
        .then(|| format!("{cache:?}"));
    Ok((
        Answer {
            extracted: extracted.map_err(|e| e.kind()),
            topk,
        },
        unexpected,
    ))
}

/// The same append through the traced mirrors.
fn append_traced(
    tr: &mut Tracer,
    store: &DatasetStore,
    svg: &str,
    timestamp: Timestamp,
    scratch: &mut mirror::Scratch,
) -> io::Result<Answer> {
    tr.span("io.write", |_| {
        store.write(HISTORY_MAP, FileKind::Svg, timestamp, svg.as_bytes())
    })?;
    let extracted = mirror::extract_one(
        tr,
        scratch,
        svg,
        HISTORY_MAP,
        timestamp,
        &ExtractConfig::default(),
    );
    if let Ok(snapshot) = &extracted {
        let text = tr.span("yaml.emit", |_| to_yaml_string(snapshot));
        tr.span("io.write", |_| {
            store.write(HISTORY_MAP, FileKind::Yaml, timestamp, text.as_bytes())
        })?;
    }
    let range = window_ending(timestamp);
    let columnar = mirror::windowed_load(tr, store, HISTORY_MAP, range)?;
    let mut engine = tr.span("query.catalog", |_| QueryEngine::new(&columnar));
    let topk = tr.span("query.kernel", |_| engine.run(&topk(range), THREADS));
    tr.count("query.rows_scanned", engine.counters().rows_scanned as f64);
    Ok(Answer {
        extracted: extracted.map_err(|e| e.kind()),
        topk,
    })
}

/// The simulator's snapshots collected after `history` ends.
fn fresh_files<'s>(
    sim: &'s Simulation,
    history: &History,
) -> impl Iterator<Item = CorpusFile> + 's {
    let from = history.end();
    sim.corpus_between(HISTORY_MAP, from, from + Duration::from_days(30))
}

fn history_len(ctx: &Ctx) -> usize {
    let sizes = ctx.sizes();
    sizes.history_days * 288 - sizes.live_short
}

fn incoming_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("incoming")
}

/// A fresh SVG waiting in the incoming directory, named by its
/// timestamp. Its ground truth is rendered again after timing rather
/// than held in memory, where it would count in the measured phase's
/// peak RSS.
fn incoming_path(dir: &Path, timestamp: Timestamp) -> PathBuf {
    dir.join(format!("{:012}.svg", timestamp.unix()))
}

pub fn setup(ctx: &Ctx) -> io::Result<()> {
    let sim = window::setup_history(ctx, history_len(ctx))?;
    let dir = incoming_dir(ctx);
    harness::remove_dir(&dir)?;
    std::fs::create_dir_all(&dir)?;
    let history = History::new(ctx.seed, history_len(ctx), Vec::new());
    for file in fresh_files(&sim, &history).take(ctx.sizes().incoming) {
        std::fs::write(incoming_path(&dir, file.timestamp), file.svg.as_bytes())?;
    }
    Ok(())
}

fn load_incoming(ctx: &Ctx) -> io::Result<Vec<Timestamp>> {
    let mut times = Vec::new();
    for entry in std::fs::read_dir(incoming_dir(ctx))? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(unix) = name
            .strip_suffix(".svg")
            .and_then(|u| u.parse::<i64>().ok())
        {
            times.push(Timestamp::from_unix(unix));
        }
    }
    times.sort();
    Ok(times)
}

/// What the measuring process loads from the set-up's files.
struct State {
    sim: Simulation,
    history: HistoryStore,
    incoming_dir: PathBuf,
    incoming: Vec<Timestamp>,
}

/// Ground-truth answers for ops `0..n`, computed after timing.
fn check(answers: &[Answer], s: &State) -> u64 {
    let history: &History = &s.history.history;
    let mut failed = 0;
    let mut appended: Vec<TopologySnapshot> = Vec::new();
    for (answer, file) in answers.iter().zip(fresh_files(&s.sim, history)) {
        let extracted_ok = match (&answer.extracted, file.fault) {
            (Ok(snapshot), None) => canonical(snapshot.clone()) == canonical(file.truth.clone()),
            (Err(kind), Some(fault)) => expected_kinds(fault).contains(kind),
            _ => false,
        };
        let range = window_ending(file.timestamp);
        if file.fault.is_none() {
            appended.push(file.truth);
        }
        let mut cut = history.in_range(range);
        cut.extend(
            appended
                .iter()
                .filter(|t| range.contains(t.timestamp))
                .cloned(),
        );
        let reference =
            QueryEngine::new(&LongitudinalStore::from_snapshots(&cut)).run(&topk(range), THREADS);
        failed += u64::from(!extracted_ok || answer.topk != reference);
    }
    failed
}

/// Segment files whose bytes differ from a fresh rebuild of the YAML.
fn rebuild_diff(store: &DatasetStore) -> io::Result<u64> {
    let before = corpus::segment_image(store, HISTORY_MAP)?;
    reindex_segments(store, HISTORY_MAP, THREADS, CacheMode::Rebuild)?;
    let after = corpus::segment_image(store, HISTORY_MAP)?;
    Ok(corpus::image_diff(&before, &after))
}

pub fn run(ctx: &Ctx, setup_s: f64) -> io::Result<Report> {
    let sizes = ctx.sizes();
    let s = State {
        sim: corpus::world(sizes.history_scale),
        history: window::load_history(ctx, history_len(ctx))?,
        incoming_dir: incoming_dir(ctx),
        incoming: load_incoming(ctx)?,
    };
    let store = &s.history.store;
    let mut report = Report::default();
    report.note(format!(
        "input: Europe history at scale {}, {} YAML snapshots ({:.1} MiB, {} sealed segments + a {}-snapshot tail), {} fresh SVGs ready",
        sizes.history_scale,
        s.history.history.len,
        s.history.yaml_bytes as f64 / 1048576.0,
        s.history.history.len / 288,
        s.history.history.len % 288,
        s.incoming.len()
    ));
    // With --trace 1 each append is replayed through the traced
    // mirrors on a copy of the store, right after its untraced run.
    let mut traced = match ctx.trace {
        false => None,
        true => {
            let dir = ctx.work.join("replica");
            corpus::copy_tree(store.root(), &dir)?;
            let replica = DatasetStore::open_existing(&dir)?;
            Some((Tracer::new(), replica, mirror::Scratch::default()))
        }
    };

    harness::reset_peak_rss();
    let mut scratch = ExtractScratch::new();
    let mut latencies_ms = Vec::new();
    let mut answers = Vec::new();
    let mut busy_s = 0.0;
    for (index, &timestamp) in s.incoming.iter().enumerate() {
        if busy_s >= ctx.untraced_budget() {
            break;
        }
        let path = incoming_path(&s.incoming_dir, timestamp);
        let started = Instant::now();
        let svg = std::fs::read_to_string(&path)?;
        let (answer, unexpected) = append(store, &svg, timestamp, &mut scratch)?;
        let elapsed = started.elapsed().as_secs_f64();
        busy_s += elapsed;
        latencies_ms.push(elapsed * 1e3);
        if let Some(cache) = unexpected {
            report.failed += 1;
            report.note(format!("op {index}: unexpected cache activity {cache}"));
        }
        if let Some((tr, replica, mirror_scratch)) = traced.as_mut() {
            let replayed = tr.op(index as u64, |tr| -> io::Result<Answer> {
                let svg = tr.span("io.read", |_| std::fs::read_to_string(&path))?;
                append_traced(tr, replica, &svg, timestamp, mirror_scratch)
            })?;
            report.attempted += 1;
            if replayed != answer {
                report.failed += 1;
                report.note(format!(
                    "traced op {index} differs from the untraced answer"
                ));
            }
        }
        answers.push(answer);
    }
    let peak_mib = harness::peak_rss_mib();
    if answers.len() == s.incoming.len() {
        report.note("ran out of fresh SVGs before the time budget");
    }
    let store_ratio = window::store_ratio(&s.history)?;

    if ctx.mutate {
        if let Some(answer) = answers.first_mut() {
            answer.topk.samples += 1;
        }
    }
    report.attempted += answers.len() as u64;
    report.failed += check(&answers, &s);
    let diff = rebuild_diff(store)?;
    if diff != 0 {
        report.failed += diff;
        report.note(format!("{diff} segment files differ from a fresh rebuild"));
    }

    match traced {
        None => harness::end_to_end(
            &mut report,
            setup_s,
            answers.len() as u64,
            busy_s,
            &latencies_ms,
            peak_mib,
            store_ratio,
        ),
        Some((tracer, replica, _)) => {
            let diff = corpus::image_diff(
                &corpus::segment_image(store, HISTORY_MAP)?,
                &corpus::segment_image(&replica, HISTORY_MAP)?,
            ) + rebuild_diff(&replica)?;
            if diff != 0 {
                report.failed += diff;
                report.note(format!("traced replay left {diff} segment files different"));
            }
            harness::per_layer(ctx, &mut report, &tracer, &latencies_ms)?;
        }
    }
    Ok(report)
}
