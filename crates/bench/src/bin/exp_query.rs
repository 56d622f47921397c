//! Vectorized query kernels vs the snapshot-reconstruction baseline
//! over a multi-day corpus — the measurement behind the EXPERIMENTS.md
//! "Vectorized query engine" table, emitted as machine-readable
//! `BENCH_query.json`.
//!
//! ```sh
//! cargo run --release --bin exp_query -- --threads 8
//! ```
//!
//! A fixed set of extracted template snapshots is re-stamped across a
//! multi-day history (hourly cadence), loaded once into the columnar
//! longitudinal store, and every kernel is then timed two ways: the
//! vectorized engine over the load columns, and the loop it replaced —
//! reconstruct every `TopologySnapshot`, walk its link vectors, fold
//! naively. The numbers are only printed if both sides return exactly
//! the same answer, field for field. A final windowed section compacts
//! the corpus into segments and proves a six-hour top-k query decodes
//! only the segments its range intersects.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ovh_weather::dataset::TempDir;
use ovh_weather::prelude::*;

const MAP: MapKind = MapKind::Europe;

struct Options {
    seed: u64,
    scale: f64,
    threads: usize,
    days: i64,
    out: String,
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: exp_query [--seed N] [--scale X|full] [--threads N] \
         [--days N] [--out FILE.json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        seed: 42,
        scale: 0.15,
        threads: 8,
        days: 30,
        out: "BENCH_query.json".to_owned(),
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        match args[i].as_str() {
            "--seed" => options.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--scale" => {
                options.scale = if value == "full" {
                    1.0
                } else {
                    value.parse().unwrap_or_else(|_| usage("bad --scale"))
                }
            }
            "--threads" => {
                options.threads = value.parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--days" => options.days = value.parse().unwrap_or_else(|_| usage("bad --days")),
            "--out" => options.out = value.to_owned(),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown option {other:?}")),
        }
        i += 2;
    }
    options
}

/// Peak resident set size of this process in KiB, from `VmHWM` in
/// `/proc/self/status` (Linux; `None` elsewhere).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs `f` repeatedly until at least 0.2 s and three iterations have
/// elapsed, returning the last result and the mean per-iteration time.
fn bench<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    f(); // warm-up, discarded
    let started = Instant::now();
    let mut out = f();
    let mut iters = 1u32;
    while (started.elapsed().as_secs_f64() < 0.2 || iters < 3) && iters < 1_000 {
        out = f();
        iters += 1;
    }
    (out, started.elapsed().as_secs_f64() / f64::from(iters))
}

/// The display form the engine uses for a link's canonical orientation.
fn display(link: &Link) -> String {
    let key = |e: &LinkEnd| {
        (
            e.node.name.to_string(),
            format!("{:?}", e.node.kind),
            e.label.clone(),
        )
    };
    let (first, second) = if key(&link.b) < key(&link.a) {
        (&link.b, &link.a)
    } else {
        (&link.a, &link.b)
    };
    let end = |e: &LinkEnd| match &e.label {
        Some(l) => format!("{} {}", e.node.name, l),
        None => e.node.name.to_string(),
    };
    format!("{} <-> {}", end(first), end(second))
}

fn selected(link: &Link, filter: &LinkFilter) -> bool {
    if let Some(kind) = filter.kind {
        if link.kind() != kind {
            return false;
        }
    }
    if let Some(site) = &filter.site {
        let hit = [&link.a, &link.b]
            .iter()
            .any(|e| e.node.site() == Some(site.as_str()));
        if !hit {
            return false;
        }
    }
    true
}

/// Nearest-rank percentile over sorted raw percentage samples.
fn percentile(sorted: &[u8], pct: u64) -> u8 {
    let total = sorted.len() as u64;
    let rank = (total * pct).div_ceil(100).max(1);
    sorted.get(rank as usize - 1).copied().unwrap_or(0)
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    sum: u64,
    peak: u8,
}

impl Agg {
    fn add(&mut self, load: u8) {
        self.count += 1;
        self.sum += u64::from(load);
        self.peak = self.peak.max(load);
    }
}

/// The snapshot-reconstruction baseline: rebuild every snapshot from
/// the columnar store and fold the kernel in plain per-snapshot loops —
/// exactly the pattern the vectorized engine replaced.
fn reconstruct_baseline(store: &LongitudinalStore, query: &Query) -> QueryOutput {
    let mut snapshots = 0u64;
    let mut rows = 0u64;

    let mut scan = ScanStats::default();
    struct TopSlot {
        agg: Agg,
        kind: LinkKind,
        rank: usize,
    }
    let mut intern: BTreeMap<String, usize> = BTreeMap::new();
    let mut tops: BTreeMap<String, TopSlot> = BTreeMap::new();
    let mut top_rows = 0u64;
    let mut windows: Vec<(Timestamp, Vec<u8>)> = Vec::new();
    let mut sites: BTreeMap<String, Agg> = BTreeMap::new();
    let mut starts: Vec<Timestamp> = Vec::new();
    let mut grid: BTreeMap<(String, String), BTreeMap<Timestamp, HeatmapCell>> = BTreeMap::new();
    let mut heatmap_samples = 0u64;

    for s in store.snapshots() {
        // Interning order spans the whole history, range or not.
        if let QueryOp::TopK { .. } = query.op {
            for l in &s.links {
                let next = intern.len();
                intern.entry(display(l)).or_insert(next);
            }
        }
        if !query.range.contains(s.timestamp) {
            continue;
        }
        snapshots += 1;
        rows += s.links.len() as u64;

        match query.op {
            QueryOp::Scan => {
                for l in s.links.iter().filter(|l| selected(l, &query.filter)) {
                    for load in [l.a.egress_load.percent(), l.b.egress_load.percent()] {
                        scan.samples += 1;
                        scan.disabled += u64::from(load == 0);
                        scan.sum += u64::from(load);
                        scan.peak = scan.peak.max(load);
                    }
                }
            }
            QueryOp::TopK { .. } => {
                for l in s.links.iter().filter(|l| selected(l, &query.filter)) {
                    top_rows += 1;
                    let d = display(l);
                    let rank = *intern.get(&d).expect("interned above");
                    let slot = tops.entry(d).or_insert(TopSlot {
                        agg: Agg::default(),
                        kind: l.kind(),
                        rank,
                    });
                    slot.agg.add(l.a.egress_load.percent());
                    slot.agg.add(l.b.egress_load.percent());
                }
            }
            QueryOp::Percentiles { window } => {
                let start = s.timestamp.align_down(window);
                if windows.last().map(|w| w.0) != Some(start) {
                    windows.push((start, Vec::new()));
                }
                let bucket = &mut windows.last_mut().expect("window").1;
                for l in s.links.iter().filter(|l| selected(l, &query.filter)) {
                    bucket.push(l.a.egress_load.percent());
                    bucket.push(l.b.egress_load.percent());
                }
            }
            QueryOp::SiteLoads => {
                for l in s.links.iter().filter(|l| selected(l, &query.filter)) {
                    for e in [&l.a, &l.b] {
                        if let Some(site) = e.node.site() {
                            sites
                                .entry(site.to_owned())
                                .or_default()
                                .add(e.egress_load.percent());
                        }
                    }
                }
            }
            QueryOp::Heatmap { window } => {
                let start = s.timestamp.align_down(window);
                if starts.last() != Some(&start) {
                    starts.push(start);
                }
                for l in s.links.iter().filter(|l| selected(l, &query.filter)) {
                    let (x, y) = (l.a.node.name.to_string(), l.b.node.name.to_string());
                    let pair = if y < x { (y, x) } else { (x, y) };
                    let cell = grid.entry(pair).or_default().entry(start).or_default();
                    heatmap_samples += 2;
                    cell.samples += 2;
                    cell.sum +=
                        u64::from(l.a.egress_load.percent()) + u64::from(l.b.egress_load.percent());
                    cell.peak = cell
                        .peak
                        .max(l.a.egress_load.percent())
                        .max(l.b.egress_load.percent());
                }
            }
        }
    }

    let (samples, result) = match query.op {
        QueryOp::Scan => (scan.samples, QueryResult::Scan(scan)),
        QueryOp::TopK { k } => {
            let mut ranked: Vec<(String, TopSlot)> = tops.into_iter().collect();
            ranked.sort_by(|x, y| {
                y.1.agg
                    .peak
                    .cmp(&x.1.agg.peak)
                    .then_with(|| {
                        (u128::from(y.1.agg.sum) * u128::from(x.1.agg.count))
                            .cmp(&(u128::from(x.1.agg.sum) * u128::from(y.1.agg.count)))
                    })
                    .then_with(|| x.1.rank.cmp(&y.1.rank))
            });
            ranked.truncate(k);
            let top: Vec<HotLink> = ranked
                .into_iter()
                .map(|(link, slot)| HotLink {
                    link,
                    kind: slot.kind,
                    samples: slot.agg.count,
                    sum: slot.agg.sum,
                    peak: slot.agg.peak,
                })
                .collect();
            // Samples count every selected row, not just the surviving k.
            (top_rows * 2, QueryResult::TopK(top))
        }
        QueryOp::Percentiles { .. } => {
            let mut total = 0u64;
            let stats: Vec<WindowStats> = windows
                .into_iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(start, mut v)| {
                    v.sort_unstable();
                    total += v.len() as u64;
                    WindowStats {
                        start,
                        samples: v.len() as u64,
                        p50: percentile(&v, 50),
                        p90: percentile(&v, 90),
                        p99: percentile(&v, 99),
                        max: v.last().copied().unwrap_or(0),
                    }
                })
                .collect();
            (total, QueryResult::Percentiles(stats))
        }
        QueryOp::SiteLoads => {
            let samples: u64 = sites.values().map(|a| a.count).sum();
            let loads: Vec<SiteLoad> = sites
                .into_iter()
                .map(|(site, agg)| SiteLoad {
                    site,
                    samples: agg.count,
                    sum: agg.sum,
                    peak: agg.peak,
                })
                .collect();
            (samples, QueryResult::SiteLoads(loads))
        }
        QueryOp::Heatmap { .. } => {
            let groups: Vec<(String, String)> = grid.keys().cloned().collect();
            let columns = groups.len();
            let mut cells = vec![HeatmapCell::default(); starts.len() * columns];
            for (col, pair) in groups.iter().enumerate() {
                for (start, cell) in &grid[pair] {
                    let widx = starts.iter().position(|w| w == start).expect("window");
                    cells[widx * columns + col] = *cell;
                }
            }
            (
                heatmap_samples,
                QueryResult::Heatmap(HeatmapGrid {
                    starts,
                    groups: groups
                        .into_iter()
                        .map(|(x, y)| format!("{x} -- {y}"))
                        .collect(),
                    cells,
                }),
            )
        }
    };

    QueryOutput {
        snapshots,
        rows,
        samples,
        result,
    }
}

struct KernelRow {
    op: &'static str,
    vectorized_s: f64,
    baseline_s: f64,
    samples: u64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        if self.vectorized_s > 0.0 {
            self.baseline_s / self.vectorized_s
        } else {
            f64::INFINITY
        }
    }
}

fn main() {
    let options = parse_args();
    println!("=== exp_query — vectorized kernels vs snapshot reconstruction ===");
    println!(
        "seed {} | scale {} | {} days (hourly cadence) | {} threads | deterministic\n",
        options.seed, options.scale, options.days, options.threads
    );

    // Template snapshots: one extracted hour, re-stamped across history.
    let pipeline = Pipeline::new(SimulationConfig::scaled(options.seed, options.scale));
    let from = Timestamp::from_ymd(2022, 2, 1);
    let result = pipeline.run_window(MAP, from, from + Duration::from_hours(1));
    let templates = result.snapshots;
    assert!(!templates.is_empty(), "template extraction came up empty");

    let dir = TempDir::new("exp-query").expect("corpus dir");
    let store = DatasetStore::open(dir.path()).expect("corpus dir");
    let hours = options.days * 24;
    for h in 0..hours {
        let mut s = templates[h as usize % templates.len()].clone();
        s.timestamp = from + Duration::from_hours(h);
        store
            .write(
                MAP,
                FileKind::Yaml,
                s.timestamp,
                to_yaml_string(&s).as_bytes(),
            )
            .expect("write yaml");
    }
    let end = from + Duration::from_hours(hours);

    let ((columnar, _), build_s) =
        timed(|| build_longitudinal(&store, MAP, options.threads).expect("columnar build"));
    println!(
        "corpus: {} files, {} snapshots, {} link rows (columnar build {:.2}s)\n",
        hours,
        columnar.len(),
        columnar.observations(),
        build_s
    );

    let threads = options.threads;
    let ops: Vec<(&'static str, Query)> = vec![
        ("scan", Query::new(QueryOp::Scan)),
        ("topk", Query::new(QueryOp::TopK { k: 10 })),
        (
            "percentiles",
            Query::new(QueryOp::Percentiles {
                window: Duration::from_hours(6),
            }),
        ),
        ("sites", Query::new(QueryOp::SiteLoads)),
        (
            "heatmap",
            Query::new(QueryOp::Heatmap {
                window: Duration::from_hours(6),
            }),
        ),
    ];

    let mut rows: Vec<KernelRow> = Vec::new();
    for (op, query) in &ops {
        let (vectorized, vectorized_s) = bench(|| {
            let mut engine = QueryEngine::new(&columnar);
            engine.run(query, threads)
        });
        let (baseline, baseline_s) = bench(|| reconstruct_baseline(&columnar, query));
        assert_eq!(
            baseline, vectorized,
            "{op}: baseline disagrees with the engine"
        );
        rows.push(KernelRow {
            op,
            vectorized_s,
            baseline_s,
            samples: vectorized.samples,
        });
    }

    println!("vectorized and reconstruction answers identical: yes\n");
    println!(
        "{:>12} {:>14} {:>14} {:>9} {:>14}",
        "kernel", "vectorized s", "reconstruct s", "speedup", "samples"
    );
    for row in &rows {
        println!(
            "{:>12} {:>14.6} {:>14.6} {:>8.1}x {:>14}",
            row.op,
            row.vectorized_s,
            row.baseline_s,
            row.speedup(),
            row.samples
        );
    }

    // Windowed section: compact into segments, then prove a six-hour
    // top-k query decodes only the segments its range intersects.
    let (manifest, _) =
        reindex_segments(&store, MAP, threads, CacheMode::Auto).expect("compact corpus");
    let total_segments = manifest.segments.len();
    let range = TimeRange::new(end - Duration::from_hours(6), end);
    let intersecting = manifest
        .segments
        .iter()
        .filter(|m| range.intersects_closed(m.t_min, m.t_max))
        .count() as u64;
    let windowed_query = Query::new(QueryOp::TopK { k: 10 }).in_range(range);
    let ((windowed, _, load), windowed_s) = bench(|| {
        query_windowed(&store, MAP, &windowed_query, threads, CacheMode::Auto).expect("windowed")
    });
    assert_eq!(
        load.cache.segments_touched, intersecting,
        "a windowed query must decode only intersecting segments"
    );
    assert!(
        total_segments > 1 && intersecting < total_segments as u64,
        "the six-hour window must not touch the whole history \
         ({intersecting}/{total_segments})"
    );
    let mut engine = QueryEngine::new(&columnar);
    assert_eq!(
        engine.run(&windowed_query, threads),
        windowed,
        "windowed query disagrees with the full store"
    );
    println!(
        "\nwindowed 6h top-k: {:.6}s, {}/{} segments decoded, {} snapshots",
        windowed_s, intersecting, total_segments, windowed.snapshots
    );
    if let Some(kib) = peak_rss_kib() {
        println!("peak RSS (VmHWM)  {:.1} MiB", kib as f64 / 1024.0);
    }

    // Machine-readable artifact.
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"query\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {}, \"scale\": {}, \"threads\": {}, \"days\": {}, \
         \"files\": {}, \"snapshots\": {}, \"rows\": {},",
        options.seed,
        options.scale,
        options.threads,
        options.days,
        hours,
        columnar.len(),
        columnar.observations()
    );
    json.push_str("  \"kernels\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"op\": \"{}\", \"vectorized_s\": {:.6}, \"reconstruct_s\": {:.6}, \
             \"speedup\": {:.2}, \"samples\": {}}}{}",
            row.op,
            row.vectorized_s,
            row.baseline_s,
            row.speedup(),
            row.samples,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"windowed\": {{\"window\": \"6h\", \"op\": \"topk\", \"seconds\": {:.6}, \
         \"segments_touched\": {}, \"segments_total\": {}, \"snapshots\": {}}}",
        windowed_s, intersecting, total_segments, windowed.snapshots
    );
    json.push_str("}\n");
    std::fs::write(&options.out, &json).expect("write BENCH_query.json");
    println!("wrote {}", options.out);
}
