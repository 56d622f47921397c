//! Load analysis — reproduces Fig. 5 of the paper: the diurnal load cycle
//! (5a), the load CDF split by link kind (5b), and the ECMP imbalance
//! distribution over parallel-link sets (5c).
//!
//! ```sh
//! cargo run --release --example load_analysis
//! ```

use ovh_weather::prelude::*;

fn main() {
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.25));

    // Two weeks of the Europe map, sampled every 2 hours (24 slots).
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = Timestamp::from_ymd(2022, 2, 15);
    println!("sampling the Europe map every 2 h from {from} to {to}...");
    let result = pipeline.run_window_sampled(MapKind::Europe, from, to, 24);
    println!("  {} snapshots extracted\n", result.snapshots.len());

    // One suite scan fills all three Fig. 5 collectors at once.
    let store = LongitudinalStore::from_snapshots(&result.snapshots);
    let (report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &store);
    let (hourly, cdf, imbalance) = (&report.hourly, &report.load_cdf, &report.imbalance);

    // --- Fig. 5a: loads by hour of day --------------------------------------
    println!("loads by hour of day (percent):");
    println!(
        "{:>5} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "hour", "p1", "p25", "p50", "p75", "p99"
    );
    for hour in 0..24u8 {
        if let Some(w) = hourly.summary(hour) {
            println!(
                "{hour:>5} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1}",
                w.p1, w.p25, w.p50, w.p75, w.p99
            );
        }
    }
    if let Some((trough, peak)) = hourly.extreme_hours() {
        println!(
            "\nmedian trough at {trough:02}h (paper: 02-04h), peak at {peak:02}h (paper: 19-21h)"
        );
    }

    // --- Fig. 5b: load CDF ---------------------------------------------------
    let all = cdf.all();
    println!("\nload CDF (all directed loads, n = {}):", all.len());
    for x in [10.0, 20.0, 33.0, 40.0, 60.0, 80.0] {
        println!("  P(load <= {x:>2}) = {:.3}", all.cdf(x));
    }
    let (p75, above60, delta) = cdf.headline().expect("loads collected");
    println!("  75th percentile: {p75:.1} % (paper: ~33 %)");
    println!("  fraction above 60 %: {:.4} (paper: very few)", above60);
    println!("  mean external - mean internal: {delta:+.1} points (paper: externals cooler)");

    // --- Fig. 5c: ECMP imbalance --------------------------------------------
    let (all_le_1, external_le_2) = imbalance.headline();
    println!("\nECMP imbalance over directed parallel sets:");
    println!("  internal sets: {}", imbalance.internal().len());
    println!("  external sets: {}", imbalance.external().len());
    for x in [0.0, 1.0, 2.0, 5.0] {
        println!(
            "  P(imbalance <= {x}) internal {:.3} external {:.3}",
            imbalance.internal().cdf(x),
            imbalance.external().cdf(x)
        );
    }
    println!(
        "  all sets <= 1 point: {:.1} % (paper: > 60 %)",
        all_le_1 * 100.0
    );
    println!(
        "  external sets <= 2 points: {:.1} % (paper: > 90 %)",
        external_le_2 * 100.0
    );
}
