//! perfbench — the weather-map pipeline's benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload ingest_full --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Three workloads drive the layer crates' public API in one process,
//! with at most two worker threads, from inputs generated from
//! `--seed`:
//!
//! * `ingest_full` — batch ingest of all four maps at full scale:
//!   walk, read, extract (Alg. 1 + 2), emit and write YAML, compact
//!   into segments, full-range load, §5 suite and render;
//! * `window_query` — one closed-loop client answering seeded windowed
//!   queries and windowed §5 suites over a compacted Europe history;
//! * `live_append` — one closed-loop collector appending fresh
//!   snapshots to that history and answering top-k over the newest 6 h.
//!
//! Every answer is checked against ground truth outside the timed
//! region. With `--trace 0` the last stdout line is a JSON object with
//! the end-to-end metrics; with `--trace 1` the same op sequence runs
//! untraced and then traced (spans from this benchmark's own code
//! around each layer call, see `mirror.rs`), the answers are compared,
//! and the per-layer metrics derived from the spans are printed instead.
//! Spans are written to `.perfbench_out/` at exit.
//!
//! `--size tiny` and `--mutate` exist for the benchmark's own tests: a
//! miniature input set, and a deliberately wrong answer that the
//! oracles must count as a failure. `--setup-into DIR` is how the
//! benchmark runs each set-up in a child process of its own.

mod corpus;
mod harness;
mod ingest;
mod live;
mod mirror;
mod trace;
mod window;

use std::process::ExitCode;

use harness::{Ctx, Size, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: perfbench --workload ingest_full|window_query|live_append --seed N \
         --seconds S --trace 0|1 [--size full|tiny] [--mutate]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut mutate = false;
    let mut setup_into = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        match args[i].as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--size" => match Size::parse(value) {
                Some(s) => size = s,
                None => return usage("--size takes full or tiny"),
            },
            "--setup-into" => setup_into = Some(std::path::PathBuf::from(value)),
            "--mutate" => {
                mutate = true;
                i += 1;
                continue;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    let is_setup = setup_into.is_some();
    let ctx = match Ctx::new(workload, seed, seconds, trace, size, mutate, setup_into) {
        Ok(ctx) => ctx,
        Err(err) => {
            eprintln!("error: cannot prepare the work directory: {err}");
            return ExitCode::FAILURE;
        }
    };
    if is_setup {
        let done = match workload {
            Workload::IngestFull => ingest::setup(&ctx),
            Workload::WindowQuery => window::setup(&ctx),
            Workload::LiveAppend => live::setup(&ctx),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("error: {} set-up failed: {err}", workload.name());
                ExitCode::FAILURE
            }
        };
    }
    let result = harness::run_setups(&ctx).and_then(|setup_s| match workload {
        Workload::IngestFull => ingest::run(&ctx, setup_s),
        Workload::WindowQuery => window::run(&ctx, setup_s),
        Workload::LiveAppend => live::run(&ctx, setup_s),
    });
    ctx.cleanup();
    match result {
        Ok(report) => {
            report.print(&ctx);
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {} failed: {err}", workload.name());
            ExitCode::FAILURE
        }
    }
}
