//! Link-upgrade case study — reproduces Fig. 6 of the paper: the March
//! 2022 AMS-IX upgrade. A fifth parallel link appears (*A*), PeeringDB
//! announces +100 Gbps nine days later (*B*), and activation two weeks
//! after the addition spreads traffic over all five links (*C*).
//!
//! ```sh
//! cargo run --release --example link_upgrade_case_study
//! ```

use ovh_weather::prelude::*;

fn main() {
    // The Fig. 6 scenario needs the Europe map's peering fabric; half the
    // paper's scale keeps it while staying fast.
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.5));
    let scenario = pipeline
        .simulation()
        .scenario()
        .expect("scenario scheduled")
        .clone();
    println!(
        "monitored group: {} <-> {} (scheduled: added {}, PeeringDB {}, activated {})\n",
        scenario.router,
        scenario.peering,
        scenario.link_added,
        scenario.peeringdb_updated,
        scenario.link_activated
    );

    // Observe the group daily over March 2022, like Fig. 6's x-axis.
    let from = Timestamp::from_ymd(2022, 3, 1);
    let to = Timestamp::from_ymd(2022, 4, 1);
    let result = pipeline.run_window_sampled(MapKind::Europe, from, to, 288);

    // The PeeringDB capacity records of the monitored peering (arrow B).
    let records: Vec<CapacityRecord> = scenario
        .peeringdb_records
        .iter()
        .map(|r| CapacityRecord {
            at: r.at,
            total_capacity_gbps: r.total_capacity_gbps,
        })
        .collect();

    // Configure the suite with the Fig. 6 target: the upgrade forensics
    // then run in the same scan as every other §5 analysis.
    let store = LongitudinalStore::from_snapshots(&result.snapshots);
    let (suite_report, _) = AnalysisSuite::run_store(
        SuiteConfig {
            upgrade: Some(ovh_weather::analysis::UpgradeTarget {
                from: scenario.router.clone(),
                to: scenario.peering.clone(),
                records,
            }),
            ..SuiteConfig::default()
        },
        &store,
    );
    let upgrade = suite_report.upgrade.expect("upgrade target configured");
    let observations = &upgrade.observations;

    println!(
        "{:<22} {:>6} {:>8} {:>12}",
        "date", "links", "active", "mean load %"
    );
    for o in observations {
        println!(
            "{:<22} {:>6} {:>8} {:>12.1}",
            o.timestamp.to_iso8601(),
            o.links,
            o.active_links,
            o.mean_active_load
        );
    }

    let report = &upgrade.report;

    println!("\ndetected storyline:");
    println!(
        "  A: link added      {:?}",
        report.link_added.map(|t| t.to_iso8601())
    );
    println!(
        "  B: PeeringDB       {:?} (total {:?} Gbps)",
        report.capacity_update.as_ref().map(|r| r.at.to_iso8601()),
        report
            .capacity_update
            .as_ref()
            .map(|r| r.total_capacity_gbps)
    );
    println!(
        "  C: link activated  {:?}",
        report.link_activated.map(|t| t.to_iso8601())
    );
    println!(
        "  inferred per-link capacity: {:?} Gbps (paper: 100 Gbps)",
        report.inferred_link_capacity_gbps
    );
    if let Some(ratio) = report.load_drop_ratio() {
        println!("  load drop at activation: x{ratio:.2} (capacity ratio 4/5 = 0.80)");
    }

    // The detection must agree with the scenario script (daily sampling
    // quantises the detection instants to the next sampled day).
    let added = report.link_added.expect("arrow A detected");
    let activated = report.link_activated.expect("arrow C detected");
    assert!(added >= scenario.link_added && added - scenario.link_added <= Duration::from_days(2));
    assert!(
        activated >= scenario.link_activated
            && activated - scenario.link_activated <= Duration::from_days(2)
    );
    println!("\ndetection matches the scripted milestones: OK");
}
