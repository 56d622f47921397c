//! Multi-pass vs single-pass §5 analysis — the measurement behind the
//! EXPERIMENTS.md "Single-pass analysis engine" table.
//!
//! ```sh
//! cargo run --release --bin exp_analyze -- --mode multi  --threads 8
//! cargo run --release --bin exp_analyze -- --mode single --threads 8
//! ```
//!
//! Peak RSS (`VmHWM`) is a per-process high-water mark, so comparing
//! memory requires one process per mode; `--mode both` still reports
//! both wall times in one run for a quick look.

use std::time::Instant;

use ovh_weather::analysis::{
    coverage_segments, detect_changes, evolution_series, maintenance_windows, site_growth, table1,
    GapDistribution,
};
use ovh_weather::dataset::TempDir;
use ovh_weather::prelude::*;

struct Options {
    seed: u64,
    scale: f64,
    hours: i64,
    threads: usize,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Multi,
    Single,
    Both,
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: exp_analyze [--seed N] [--scale X|full] [--hours H] [--threads N] \
         [--mode multi|single|both]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        seed: 42,
        scale: 1.0,
        hours: 6,
        threads: 8,
        mode: Mode::Both,
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
            "--hours" => options.hours = value.parse().unwrap_or_else(|_| usage("bad --hours")),
            "--threads" => {
                options.threads = value.parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--mode" => {
                options.mode = match value {
                    "multi" => Mode::Multi,
                    "single" => Mode::Single,
                    "both" => Mode::Both,
                    _ => usage("bad --mode"),
                }
            }
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

/// Legacy shape: one corpus load per §5 analysis (nine loads).
fn multi_pass(store: &DatasetStore, map: MapKind, threads: usize) {
    let config = SuiteConfig::default();
    let times: Vec<Timestamp> = load_snapshots(store, map, threads)
        .expect("load")
        .0
        .iter()
        .map(|s| s.timestamp)
        .collect();
    let _ = coverage_segments(&times, config.max_gap);
    let _ = GapDistribution::new(&times);
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let _ = detect_changes(
        &evolution_series(&snapshots),
        |p| p.routers,
        config.min_router_delta,
    );
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let _ = detect_changes(
        &evolution_series(&snapshots),
        |p| p.internal_links,
        config.min_link_delta,
    );
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let _ = snapshots.last().map(DegreeAnalysis::of);
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let mut hourly = HourlyLoads::new();
    snapshots.iter().for_each(|s| hourly.add_snapshot(s));
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let mut cdf = LoadCdf::new();
    snapshots.iter().for_each(|s| cdf.add_snapshot(s));
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let mut imbalance = ImbalanceCdf::new();
    snapshots.iter().for_each(|s| imbalance.add_snapshot(s));
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let _ = table1(&snapshots);
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let _ = site_growth(&snapshots);
    let snapshots = load_snapshots(store, map, threads).expect("load").0;
    let _ = maintenance_windows(&snapshots);
}

/// Suite shape: one streaming load into the columnar store, one scan.
fn single_pass(store: &DatasetStore, map: MapKind, threads: usize) {
    let (columnar, _) = build_longitudinal(store, map, threads).expect("build");
    let _ = AnalysisSuite::run(SuiteConfig::default(), columnar.snapshots());
}

fn main() {
    let options = parse_args();
    println!("=== exp_analyze — multi-pass vs single-pass §5 analysis ===");
    println!(
        "seed {} | scale {} | {} h of Europe | {} loader threads | deterministic\n",
        options.seed, options.scale, options.hours, options.threads
    );

    let dir = TempDir::new("exp-analyze").expect("corpus dir");
    let store = DatasetStore::open(dir.path()).expect("corpus dir");
    let pipeline = Pipeline::new(SimulationConfig::scaled(options.seed, options.scale));
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(options.hours);
    let map = MapKind::Europe;
    print!("materialising {from} .. {to}... ");
    let result = pipeline
        .materialize_window(&store, map, from, to)
        .expect("materialise corpus");
    println!("{} snapshots\n", result.snapshots.len());

    let mut measured: Vec<(&str, f64)> = Vec::new();
    if options.mode != Mode::Single {
        let started = Instant::now();
        multi_pass(&store, map, options.threads);
        let elapsed = started.elapsed().as_secs_f64();
        measured.push(("multi-pass (9 loads)", elapsed));
    }
    if options.mode != Mode::Multi {
        let started = Instant::now();
        single_pass(&store, map, options.threads);
        let elapsed = started.elapsed().as_secs_f64();
        measured.push(("single-pass (suite)", elapsed));
    }

    for (label, elapsed) in &measured {
        println!("{label:<22} {elapsed:>8.3} s");
    }
    if let [(_, multi), (_, single)] = measured[..] {
        println!("speedup                {:>8.2} x", multi / single);
    }
    if let Some(kib) = peak_rss_kib() {
        println!(
            "peak RSS (VmHWM)       {:>8.1} MiB{}",
            kib as f64 / 1024.0,
            if options.mode == Mode::Both {
                "  (both modes in one process — rerun per mode for a fair comparison)"
            } else {
                ""
            }
        );
    }
}
