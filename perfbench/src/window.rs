//! `window_query`: one closed-loop client reading a compacted history.
//!
//! Each op is drawn from the seed: top-k, windowed percentiles, site
//! loads or heatmap through `query_windowed`, or a windowed §5 suite
//! (`build_longitudinal_windowed` + `run_store` + `render`), over a
//! 1 h, 6 h or 24 h span at a random 5-minute start. Extraction does no
//! work here: the store walk, segment decode and reconstruction do.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use ovh_weather::prelude::*;

use crate::corpus::{self, History, Rng, HISTORY_MAP, THREADS};
use crate::harness::{self, Ctx, Report};
use crate::mirror;
use crate::trace::Tracer;

#[derive(Debug, Clone)]
enum Kind {
    Query(Query),
    Suite,
}

#[derive(Debug, Clone)]
struct Op {
    kind: Kind,
    range: TimeRange,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Query(QueryOutput),
    Report(String),
}

const SPAN_HOURS: [i64; 3] = [1, 6, 24];

/// Op kinds: the four query kernels and the windowed suite.
const KINDS: usize = 5;

impl Op {
    /// Op `index` of the seed's sequence (independent of earlier ops).
    ///
    /// Ops come in blocks holding each (kind, span) pair once, in a
    /// seeded order, so every run sees the same op mix and only the
    /// order and the window starts vary with the seed.
    fn draw(seed: u64, index: u64, history: &History) -> Op {
        let pairs = (KINDS * SPAN_HOURS.len()) as u64;
        let (block, slot) = (index / pairs, index % pairs);
        let mut order: Vec<u64> = (0..pairs).collect();
        let mut rng = Rng::new(seed ^ block.wrapping_mul(0xA24B_AED4_963E_E407));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let pair = order[slot as usize];
        let hours = SPAN_HOURS[(pair / KINDS as u64) as usize];
        let slots = (hours * 12) as usize;
        let mut rng = Rng::new(seed ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let start = history.timestamp(rng.below((history.len - slots + 1) as u64) as usize);
        let range = TimeRange::new(start, start + Duration::from_hours(hours));
        let hour = Duration::from_hours(1);
        let op = match pair % KINDS as u64 {
            0 => Some(QueryOp::TopK { k: 10 }),
            1 => Some(QueryOp::Percentiles { window: hour }),
            2 => Some(QueryOp::SiteLoads),
            3 => Some(QueryOp::Heatmap { window: hour }),
            _ => None,
        };
        let kind = op.map_or(Kind::Suite, |op| {
            Kind::Query(Query::new(op).in_range(range))
        });
        Op { kind, range }
    }

    fn suite_config(&self) -> SuiteConfig {
        SuiteConfig {
            range: Some(self.range),
            ..SuiteConfig::default()
        }
    }

    /// Through the library's entry points. The second value names cache
    /// activity a warm read-only store must never show.
    fn run(&self, store: &DatasetStore) -> io::Result<(Answer, Option<String>)> {
        let (answer, cache) = match &self.kind {
            Kind::Suite => {
                let (columnar, stats) = build_longitudinal_windowed(
                    store,
                    HISTORY_MAP,
                    self.range,
                    THREADS,
                    CacheMode::Auto,
                )?;
                let (report, _) = AnalysisSuite::run_store(self.suite_config(), &columnar);
                (Answer::Report(report.render()), stats.cache)
            }
            Kind::Query(query) => {
                let (output, _, stats) =
                    query_windowed(store, HISTORY_MAP, query, THREADS, CacheMode::Auto)?;
                (Answer::Query(output), stats.cache)
            }
        };
        let unexpected = (cache.hits != 1
            || cache.misses + cache.appends + cache.corrupt + cache.stale + cache.segments_rebuilt
                != 0)
            .then(|| format!("{cache:?}"));
        Ok((answer, unexpected))
    }

    /// Through the traced mirrors.
    fn run_traced(&self, tr: &mut Tracer, store: &DatasetStore) -> io::Result<Answer> {
        let columnar = mirror::windowed_load(tr, store, HISTORY_MAP, self.range)?;
        Ok(match &self.kind {
            Kind::Suite => {
                let report = tr.span("analysis.suite", |_| {
                    AnalysisSuite::run_store(self.suite_config(), &columnar).0
                });
                Answer::Report(tr.span("analysis.render", |_| report.render()))
            }
            Kind::Query(query) => {
                let mut engine = tr.span("query.catalog", |_| QueryEngine::new(&columnar));
                let output = tr.span("query.kernel", |_| engine.run(query, THREADS));
                tr.count("query.rows_scanned", engine.counters().rows_scanned as f64);
                Answer::Query(output)
            }
        })
    }

    /// Ground truth: the same query over a store built from the
    /// history's snapshots cut to the window.
    fn reference(&self, history: &History) -> Answer {
        let cut = history.in_range(self.range);
        let store = LongitudinalStore::from_snapshots(&cut);
        match &self.kind {
            Kind::Suite => Answer::Report(
                AnalysisSuite::run_store(self.suite_config(), &store)
                    .0
                    .render(),
            ),
            Kind::Query(query) => Answer::Query(QueryEngine::new(&store).run(query, THREADS)),
        }
    }
}

fn store_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("history")
}

fn templates_dir(ctx: &Ctx) -> PathBuf {
    ctx.work.join("templates")
}

/// Writes a compacted Europe history of `len` snapshots (shared with
/// `live_append`). Returns the simulated world it came from.
pub fn setup_history(ctx: &Ctx, len: usize) -> io::Result<Simulation> {
    let sizes = ctx.sizes();
    for dir in [store_dir(ctx), templates_dir(ctx)] {
        harness::remove_dir(&dir)?;
    }
    let store = DatasetStore::open(store_dir(ctx))?;
    let sim = corpus::world(sizes.history_scale);
    let started = Instant::now();
    let templates = History::render_templates(&sim, ctx.seed);
    let render_s = started.elapsed().as_secs_f64();
    corpus::write_snapshots(&templates_dir(ctx), &templates)?;
    let yaml_bytes = History::new(ctx.seed, len, templates).write_yaml(&store)?;
    // Compacted; the segment files just written are in the page cache.
    reindex_segments(&store, HISTORY_MAP, THREADS, CacheMode::Rebuild)?;
    harness::write_facts(
        ctx,
        &[("render_s", render_s), ("yaml_bytes", yaml_bytes as f64)],
    )?;
    Ok(sim)
}

/// The history a set-up process wrote.
pub struct HistoryStore {
    pub store: DatasetStore,
    pub history: History,
    pub yaml_bytes: u64,
}

pub fn load_history(ctx: &Ctx, len: usize) -> io::Result<HistoryStore> {
    let templates = corpus::read_snapshots(&templates_dir(ctx), HISTORY_MAP)?;
    Ok(HistoryStore {
        store: DatasetStore::open_existing(store_dir(ctx))?,
        history: History::new(ctx.seed, len, templates),
        yaml_bytes: harness::read_fact(ctx, "yaml_bytes")? as u64,
    })
}

pub fn store_ratio(h: &HistoryStore) -> io::Result<f64> {
    let bytes = corpus::dir_bytes(&h.store.segments_dir(HISTORY_MAP))?;
    Ok(bytes as f64 / h.yaml_bytes.max(1) as f64)
}

fn history_len(ctx: &Ctx) -> usize {
    ctx.sizes().history_days * 288
}

pub fn setup(ctx: &Ctx) -> io::Result<()> {
    setup_history(ctx, history_len(ctx)).map(drop)
}

pub fn run(ctx: &Ctx, setup_s: f64) -> io::Result<Report> {
    let sizes = ctx.sizes();
    let len = history_len(ctx);
    let h = load_history(ctx, len)?;
    let mut report = Report::default();
    report.note(format!(
        "input: Europe history at scale {}, {} days = {len} YAML snapshots ({:.1} MiB), {} segments",
        sizes.history_scale,
        sizes.history_days,
        h.yaml_bytes as f64 / 1048576.0,
        len.div_ceil(288)
    ));

    harness::reset_peak_rss();
    // With --trace 1 each op is replayed through the traced mirrors
    // right after its untraced run, so both see the same warmth.
    let mut tracer = ctx.trace.then(Tracer::new);
    let mut latencies_ms = Vec::new();
    let mut answers = Vec::new();
    let mut busy_s = 0.0;
    let mut index = 0u64;
    while busy_s < ctx.untraced_budget() {
        let op = Op::draw(ctx.seed, index, &h.history);
        let started = Instant::now();
        let (answer, unexpected) = op.run(&h.store)?;
        let elapsed = started.elapsed().as_secs_f64();
        busy_s += elapsed;
        latencies_ms.push(elapsed * 1e3);
        if let Some(cache) = unexpected {
            report.failed += 1;
            report.note(format!("op {index}: unexpected cache activity {cache}"));
        }
        if let Some(tr) = tracer.as_mut() {
            let traced = tr.op(index, |tr| op.run_traced(tr, &h.store))?;
            report.attempted += 1;
            if traced != answer {
                report.failed += 1;
                report.note(format!(
                    "traced op {index} differs from the untraced answer"
                ));
            }
        }
        answers.push(answer);
        index += 1;
    }
    let peak_mib = harness::peak_rss_mib();

    // Oracle, outside the timed loop.
    if ctx.mutate {
        match answers.first_mut() {
            Some(Answer::Query(out)) => out.samples += 1,
            Some(Answer::Report(text)) => text.push('!'),
            None => {}
        }
    }
    for (i, answer) in answers.iter().enumerate() {
        let op = Op::draw(ctx.seed, i as u64, &h.history);
        report.attempted += 1;
        if *answer != op.reference(&h.history) {
            report.failed += 1;
        }
    }

    match tracer {
        None => harness::end_to_end(
            &mut report,
            setup_s,
            answers.len() as u64,
            busy_s,
            &latencies_ms,
            peak_mib,
            store_ratio(&h)?,
        ),
        Some(tracer) => harness::per_layer(ctx, &mut report, &tracer, &latencies_ms)?,
    }
    Ok(report)
}
