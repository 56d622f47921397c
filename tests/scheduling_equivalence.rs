//! Scheduling equivalence: batch extraction must be a pure function of
//! its inputs — worker count may change wall time, never results. This
//! drives a skewed corpus (clean snapshots interleaved with ≥20%
//! injected faults) through 1, 2 and 8 workers and demands identical
//! snapshots, statistics and timing-free metrics totals, down to the
//! emitted YAML bytes.

use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};

/// A Europe corpus window with every third file corrupted (cycling
/// through all fault kinds), giving a skewed per-file cost profile:
/// truncated files fail fast in the XML parser while clean files run
/// the full pipeline.
fn skewed_corpus() -> Vec<BatchInput> {
    let sim = Simulation::new(SimulationConfig::scaled(13, 0.1));
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(4);
    let mut inputs: Vec<BatchInput> = sim
        .corpus_between(MapKind::Europe, from, to)
        .map(|f| BatchInput {
            timestamp: f.timestamp,
            svg: f.svg,
        })
        .collect();
    assert!(
        inputs.len() >= 30,
        "corpus window too sparse: {}",
        inputs.len()
    );
    let mut injected = 0usize;
    for (i, input) in inputs.iter_mut().enumerate() {
        if i % 3 == 0 {
            let fault = FaultKind::ALL[(i / 3) % FaultKind::ALL.len()];
            input.svg = corrupt(&input.svg, fault, i as u64);
            injected += 1;
        }
    }
    assert!(injected * 5 >= inputs.len(), "need ≥20% injected faults");
    inputs
}

#[test]
fn thread_count_and_policy_never_change_results() {
    let inputs = skewed_corpus();
    let config = ExtractConfig::default();

    let (base_snapshots, base_stats, base_metrics) = extract_batch_with(
        &inputs,
        MapKind::Europe,
        &config,
        1,
        Scheduling::WorkStealing,
    );

    // The injected faults were actually rejected: ≥20% of the corpus.
    assert!(base_stats.failed * 5 >= inputs.len());
    assert!(base_stats.processed > 0);
    assert_eq!(base_stats.total(), inputs.len());
    assert_eq!(
        base_stats.failures_by_kind.values().sum::<usize>(),
        base_stats.failed,
        "failures_by_kind must sum to failed"
    );

    // Serial YAML bytes are the byte-for-byte reference.
    let base_yaml: Vec<String> = base_snapshots.iter().map(to_yaml_string).collect();

    for threads in [2usize, 8] {
        let scheduling = Scheduling::WorkStealing;
        let (snapshots, stats, metrics) =
            extract_batch_with(&inputs, MapKind::Europe, &config, threads, scheduling);
        let label = format!("{threads} threads, {scheduling:?}");
        assert_eq!(snapshots, base_snapshots, "{label}: snapshots differ");
        assert_eq!(stats, base_stats, "{label}: stats differ");
        assert_eq!(
            metrics.totals(),
            base_metrics.totals(),
            "{label}: metrics totals differ"
        );
        let yaml: Vec<String> = snapshots.iter().map(to_yaml_string).collect();
        assert_eq!(yaml, base_yaml, "{label}: emitted YAML differs from serial");
    }
}

#[test]
fn metrics_totals_mirror_batch_stats() {
    let inputs = skewed_corpus();
    let config = ExtractConfig::default();
    let (_, stats, metrics) = extract_batch_with(
        &inputs,
        MapKind::Europe,
        &config,
        8,
        Scheduling::WorkStealing,
    );
    let totals = metrics.totals();
    assert_eq!(totals.files_seen as usize, stats.total());
    assert_eq!(totals.snapshots_out as usize, stats.processed);
    assert_eq!(
        totals.bytes_in,
        inputs.iter().map(|i| i.svg.len() as u64).sum::<u64>()
    );
    assert_eq!(totals.failures_by_kind.len(), stats.failures_by_kind.len());
    for (kind, n) in &stats.failures_by_kind {
        assert_eq!(
            totals.failures_by_kind.get(kind),
            Some(&(*n as u64)),
            "kind {kind}"
        );
    }
    // Every file reaches the XML parse stage exactly once; later stages
    // see only the files that survived the earlier ones.
    assert_eq!(totals.stage_samples[0] as usize, inputs.len());
    assert!(totals.stage_samples[1] <= totals.stage_samples[0]);
    assert!(totals.stage_samples[2] <= totals.stage_samples[1]);
}

#[test]
fn spatial_index_never_changes_results() {
    // The grid broad phase is a pure candidate filter: over a corpus with
    // clean and corrupted files alike, disabling it must reproduce the
    // exact same snapshots, statistics and YAML bytes.
    let inputs = skewed_corpus();
    let grid_config = ExtractConfig::default();
    assert!(grid_config.use_spatial_index, "grid is the default");
    let brute_config = ExtractConfig {
        use_spatial_index: false,
        ..ExtractConfig::default()
    };

    let (grid, grid_stats, grid_metrics) = extract_batch_with(
        &inputs,
        MapKind::Europe,
        &grid_config,
        4,
        Scheduling::WorkStealing,
    );
    let (brute, brute_stats, brute_metrics) = extract_batch_with(
        &inputs,
        MapKind::Europe,
        &brute_config,
        4,
        Scheduling::WorkStealing,
    );

    assert_eq!(grid, brute, "snapshots must be identical");
    assert_eq!(grid_stats, brute_stats, "stats must be identical");
    let grid_yaml: Vec<String> = grid.iter().map(to_yaml_string).collect();
    let brute_yaml: Vec<String> = brute.iter().map(to_yaml_string).collect();
    assert_eq!(grid_yaml, brute_yaml, "emitted YAML must be byte-identical");

    // The work counters tell the two paths apart: same lines and
    // baseline, but the grid exact-tests only a fraction of the boxes.
    let g = grid_metrics.totals().broad_phase;
    let b = brute_metrics.totals().broad_phase;
    assert_eq!(g.lines, b.lines);
    assert_eq!(g.rects_baseline, b.rects_baseline);
    assert_eq!(b.rects_tested, b.rects_baseline);
    assert!(g.rects_tested < b.rects_tested, "grid must cull candidates");
    assert!(g.grid_builds > 0);
    assert_eq!(b.grid_builds, 0);
}
