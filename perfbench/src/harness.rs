//! What every workload shares: run context, input sizes, set-up
//! repetition, latency statistics, peak memory, per-layer metrics from
//! a trace, and the result line.

use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::trace::{Analysis, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestFull,
    WindowQuery,
    LiveAppend,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest_full" => Some(Workload::IngestFull),
            "window_query" => Some(Workload::WindowQuery),
            "live_append" => Some(Workload::LiveAppend),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestFull => "ingest_full",
            Workload::WindowQuery => "window_query",
            Workload::LiveAppend => "live_append",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Input sizes of one size class.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `ingest_full`: simulator scale and hours of 5-minute snapshots
    /// rendered for each of the four maps.
    pub ingest_scale: f64,
    pub ingest_hours: i64,
    /// `window_query` / `live_append`: Europe scale and days of history.
    pub history_scale: f64,
    pub history_days: usize,
    /// `live_append`: the history is this many snapshots short of whole
    /// days, so the tail segment seals part-way through a run.
    pub live_short: usize,
    /// `live_append`: fresh SVGs rendered ahead, the most appends a run
    /// can make.
    pub incoming: usize,
}

impl Size {
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn sizes(self) -> Sizes {
        match self {
            Size::Full => Sizes {
                ingest_scale: 1.0,
                ingest_hours: 2,
                history_scale: 0.15,
                history_days: 10,
                live_short: 48,
                incoming: 320,
            },
            Size::Tiny => Sizes {
                ingest_scale: 0.05,
                ingest_hours: 1,
                history_scale: 0.05,
                history_days: 2,
                live_short: 8,
                incoming: 40,
            },
        }
    }
}

/// Set-up runs per measured run: `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub mutate: bool,
    /// Scratch directory for this run's stores, removed at exit.
    pub work: PathBuf,
    /// Where the span dump is written.
    pub out: PathBuf,
}

impl Ctx {
    /// `setup_into` names the parent's work directory when this process
    /// is a set-up child; otherwise a fresh one is made.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        size: Size,
        mutate: bool,
        setup_into: Option<PathBuf>,
    ) -> io::Result<Ctx> {
        let cwd = std::env::current_dir()?;
        let work = match setup_into {
            Some(dir) => dir,
            None => {
                let work = cwd.join(".perfbench_work").join(format!(
                    "{}-{}",
                    workload.name(),
                    std::process::id()
                ));
                remove_dir(&work)?;
                std::fs::create_dir_all(&work)?;
                work
            }
        };
        Ok(Ctx {
            workload,
            seed,
            seconds,
            trace,
            size,
            mutate,
            work,
            out: cwd.join(".perfbench_out"),
        })
    }

    pub fn sizes(&self) -> Sizes {
        self.size.sizes()
    }

    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// The time budget of the untraced loop: the whole run, or half of
    /// it when the traced replay follows.
    pub fn untraced_budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    pub fn cleanup(&self) {
        let _ = remove_dir(&self.work);
        if let Some(parent) = self.work.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }

    pub fn write_trace(&self, tracer: &Tracer) -> io::Result<PathBuf> {
        let path = self.out.join(format!(
            "trace-{}-seed{}.jsonl",
            self.workload.name(),
            self.seed
        ));
        tracer.write_jsonl(&path)?;
        Ok(path)
    }
}

pub fn remove_dir(dir: &std::path::Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(err) if err.kind() != io::ErrorKind::NotFound => Err(err),
        _ => Ok(()),
    }
}

/// Runs the workload's set-up `ctx.setup_repeats()` times, each in a
/// child process of this binary that rebuilds `ctx.work` from scratch,
/// and returns the median wall seconds. The measuring process thus
/// starts with none of the set-up's heap, so its peak RSS covers the
/// measured phase alone.
pub fn run_setups(ctx: &Ctx) -> io::Result<f64> {
    let exe = std::env::current_exe()?;
    let mut times = Vec::new();
    for _ in 0..ctx.setup_repeats() {
        let started = Instant::now();
        let status = Command::new(&exe)
            .args(["--workload", ctx.workload.name()])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .args(["--size", ctx.size.name()])
            .arg("--setup-into")
            .arg(&ctx.work)
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!("set-up process failed: {status}")));
        }
        times.push(started.elapsed().as_secs_f64());
    }
    // Flush the set-up's dirty pages now, so their writeback does not
    // land in the measured phase. Not counted in `setup_s`.
    Command::new("sync").status()?;
    Ok(quantile(&times, 0.5))
}

/// Facts a set-up process hands to the measuring process, one
/// `name value` pair per line in `setup.txt`.
pub fn write_facts(ctx: &Ctx, facts: &[(&str, f64)]) -> io::Result<()> {
    let text: String = facts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::write(ctx.work.join("setup.txt"), text)
}

pub fn read_fact(ctx: &Ctx, name: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(ctx.work.join("setup.txt"))?;
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == name)
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| io::Error::other(format!("set-up recorded no {name}")))
}

/// Linear-interpolated quantile (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Starts peak-memory accounting afresh (Linux: resets `VmHWM`).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A run's outcome: op accounting, metrics, and human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed in the table only: values that hold for one workload,
    /// where every JSON metric must be reported by all of them.
    pub shown: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn print(&self, ctx: &Ctx) {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!(
            "perfbench {} seed {} | {} s | trace {} | {} threads used, {} available",
            ctx.workload.name(),
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            crate::corpus::THREADS,
            threads
        );
        for note in &self.notes {
            println!("  {note}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<40} {:>16.6} ({} failed of {} attempted)",
            "error_rate", error_rate, self.failed, self.attempted
        );
        for m in self.shown.iter().chain(&self.metrics) {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    ops: u64,
    busy_s: f64,
    latencies_ms: &[f64],
    peak_mib: f64,
    store_ratio: f64,
) {
    report.metrics.extend([
        metric("ops_per_s", ops as f64 / busy_s.max(1e-9), "1/s"),
        metric("latency_p50_ms", quantile(latencies_ms, 0.5), "ms"),
        metric("latency_p90_ms", quantile(latencies_ms, 0.9), "ms"),
        metric("peak_rss_mib", peak_mib, "MiB"),
        metric("store_bytes_per_yaml_byte", store_ratio, "B/B"),
        metric("setup_s", setup_s, "s"),
    ]);
    report.note(format!(
        "{} latency samples, {ops} ops in {busy_s:.3} s measured",
        latencies_ms.len()
    ));
}

/// Per-layer metrics from the traced replay of ops whose untraced
/// runs took `untraced_ms` each; also writes the spans out.
pub fn per_layer(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &Tracer,
    untraced_ms: &[f64],
) -> io::Result<()> {
    let path = ctx.write_trace(tracer)?;
    report.note(format!("spans written to {}", path.display()));
    let render_s = read_fact(ctx, "render_s")?;
    let a: Analysis = tracer.analyse();
    let ops = a.ops.len().max(1) as f64;
    let per_op = |name: &str| a.self_ms(name) / ops;
    let c = |name: &str| tracer.counter(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let op_ms: Vec<f64> = a.ops.iter().map(|o| o.wall_ns as f64 / 1e6).collect();
    let uncovered_ms: Vec<f64> = a.ops.iter().map(|o| o.uncovered_ns as f64 / 1e6).collect();
    let wall: f64 = op_ms.iter().sum();
    let uncovered: f64 = uncovered_ms.iter().sum();
    report.metrics.extend([
        metric("sim.render_s", render_s, "s"),
        metric("svg.parse_ms", a.ms_per_call("svg.parse"), "ms/file"),
        metric("extract.alg1_ms", a.ms_per_call("extract.alg1"), "ms/file"),
        metric("extract.alg2_ms", a.ms_per_call("extract.alg2"), "ms/file"),
        metric(
            "extract.broadphase_tested_fraction",
            ratio(c("extract.rects_tested"), c("extract.rects_baseline")),
            "ratio",
        ),
        metric(
            "extract.worker_busy_fraction",
            ratio(c("extract.busy_ns"), c("extract.capacity_ns")),
            "ratio",
        ),
        metric("yaml.emit_ms", a.ms_per_call("yaml.emit"), "ms/file"),
        metric("yaml.parse_ms", a.ms_per_call("yaml.parse"), "ms/file"),
        metric("dataset.walk_ms", a.ms_per_call("dataset.walk"), "ms/call"),
        metric(
            "dataset.walk_entries",
            ratio(c("dataset.walk_entries"), a.calls("dataset.walk") as f64),
            "entries/call",
        ),
        metric(
            "dataset.manifest_decode_ms",
            a.ms_per_call("dataset.manifest_decode"),
            "ms/call",
        ),
        metric("dataset.digest_ms", per_op("dataset.digest"), "ms/op"),
        metric("dataset.hash_ms", per_op("dataset.hash"), "ms/op"),
        metric(
            "dataset.segment_decode_ms",
            a.ms_per_call("dataset.segment_decode"),
            "ms/segment",
        ),
        metric(
            "dataset.segments_touched",
            c("dataset.segments_touched") / ops,
            "segments/op",
        ),
        metric(
            "dataset.reconstruct_ms",
            per_op("dataset.reconstruct"),
            "ms/op",
        ),
        metric(
            "dataset.snapshots_decoded_per_returned",
            ratio(
                c("dataset.snapshots_decoded"),
                c("dataset.snapshots_returned"),
            ),
            "ratio",
        ),
        metric(
            "dataset.columnar_build_ms",
            per_op("dataset.columnar_build"),
            "ms/op",
        ),
        metric(
            "dataset.segment_encode_ms",
            per_op("dataset.segment_encode"),
            "ms/op",
        ),
        metric("dataset.assemble_ms", per_op("dataset.assemble"), "ms/op"),
        metric(
            "dataset.bytes_written_per_append",
            c("dataset.bytes_written") / ops,
            "B/op",
        ),
        metric(
            "dataset.tail_snapshots",
            c("dataset.tail_snapshots") / ops,
            "snapshots/op",
        ),
        metric(
            "dataset.segments_rewritten",
            c("dataset.segments_rewritten") / ops,
            "segments/op",
        ),
        metric(
            "dataset.segments_rebuilt",
            c("dataset.segments_rebuilt"),
            "count",
        ),
        metric("query.catalog_ms", per_op("query.catalog"), "ms/op"),
        metric("query.kernel_ms", per_op("query.kernel"), "ms/op"),
        metric(
            "query.rows_scanned",
            c("query.rows_scanned") / ops,
            "rows/op",
        ),
        metric("analysis.suite_ms", per_op("analysis.suite"), "ms/op"),
        metric("analysis.render_ms", per_op("analysis.render"), "ms/op"),
        metric("io.read_ms", per_op("io.read"), "ms/op"),
        metric("io.write_ms", per_op("io.write"), "ms/op"),
        metric("trace.op_ms", quantile(&op_ms, 0.5), "ms"),
        metric("trace.uncovered_ms", quantile(&uncovered_ms, 0.5), "ms/op"),
        metric(
            "trace.coverage_fraction",
            1.0 - ratio(uncovered, wall),
            "ratio",
        ),
        metric(
            "trace.overhead_ms",
            quantile(&op_ms, 0.5) - quantile(untraced_ms, 0.5),
            "ms/op",
        ),
    ]);
    let mut layers: Vec<(&str, f64)> = a
        .layers
        .iter()
        .map(|(name, l)| (*name, l.self_ns as f64 / 1e6 / ops))
        .collect();
    layers.sort_by(|x, y| y.1.total_cmp(&x.1));
    let breakdown: Vec<String> = layers
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.3}"))
        .collect();
    report.note(format!(
        "self ms per op (traced, {} ops): {}",
        a.ops.len(),
        breakdown.join(", ")
    ));
    Ok(())
}
