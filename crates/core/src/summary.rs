//! A bundled analysis summary over a snapshot series.
//!
//! Downstream consumers (the CLI's `analyze`, notebooks, dashboards)
//! usually want the same §5 headline numbers together; this rolls the
//! per-figure analyses into one struct with a readable `Display`.

use std::fmt;

use wm_analysis::{AnalysisSuite, EvolutionPoint, SuiteConfig, SuiteReport};
use wm_dataset::LongitudinalStore;
use wm_model::TopologySnapshot;

/// Headline analysis results over one time-ordered snapshot series.
#[derive(Debug, Clone)]
pub struct CorpusSummary {
    /// Number of snapshots summarised.
    pub snapshots: usize,
    /// First point of the evolution series.
    pub first: Option<EvolutionPoint>,
    /// Last point of the evolution series.
    pub last: Option<EvolutionPoint>,
    /// Fig. 5b headline: `(p75, fraction above 60 %, external − internal)`.
    pub load_headline: Option<(f64, f64, f64)>,
    /// Fig. 5a extremes: `(trough hour, peak hour)`.
    pub diurnal_extremes: Option<(u8, u8)>,
    /// Fig. 5c headline: `(all ≤ 1 pt, external ≤ 2 pt)`.
    pub imbalance_headline: (f64, f64),
    /// Fastest-growing site and its link-end delta, when any site grew.
    pub fastest_site: Option<(String, i64)>,
    /// Number of maintenance windows observed.
    pub maintenance_windows: usize,
}

/// Computes the bundled summary — one [`AnalysisSuite`] scan, then the
/// headline projection.
#[must_use]
pub fn summarize(snapshots: &[TopologySnapshot]) -> CorpusSummary {
    let store = LongitudinalStore::from_snapshots(snapshots);
    CorpusSummary::from_report(&AnalysisSuite::run_store(SuiteConfig::default(), &store).0)
}

impl CorpusSummary {
    /// Projects the headline numbers out of a full [`SuiteReport`], so a
    /// caller who already ran the suite pays nothing extra.
    #[must_use]
    pub fn from_report(report: &SuiteReport) -> CorpusSummary {
        CorpusSummary {
            snapshots: report.snapshots,
            first: report.evolution.series.first().copied(),
            last: report.evolution.series.last().copied(),
            load_headline: report.load_cdf.headline(),
            diurnal_extremes: report.hourly.extreme_hours(),
            imbalance_headline: report.imbalance.headline(),
            fastest_site: report
                .sites
                .first()
                .filter(|g| g.link_growth() != 0)
                .map(|g| (g.site.clone(), g.link_growth())),
            maintenance_windows: report.maintenance.windows.len(),
        }
    }
}

impl fmt::Display for CorpusSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "snapshots: {}", self.snapshots)?;
        if let (Some(first), Some(last)) = (&self.first, &self.last) {
            writeln!(
                f,
                "routers {} -> {} | internal links {} -> {} | external links {} -> {}",
                first.routers,
                last.routers,
                first.internal_links,
                last.internal_links,
                first.external_links,
                last.external_links
            )?;
        }
        if let Some((p75, above60, delta)) = self.load_headline {
            writeln!(
                f,
                "loads: p75 {p75:.1} %, above 60 %: {:.2} %, external-internal {delta:+.1} pts",
                above60 * 100.0
            )?;
        }
        if let Some((trough, peak)) = self.diurnal_extremes {
            writeln!(f, "diurnal: median trough {trough:02} h, peak {peak:02} h")?;
        }
        let (all_le_1, external_le_2) = self.imbalance_headline;
        writeln!(
            f,
            "imbalance: all <=1 pt {:.1} %, external <=2 pt {:.1} %",
            all_le_1 * 100.0,
            external_le_2 * 100.0
        )?;
        if let Some((site, delta)) = &self.fastest_site {
            writeln!(f, "fastest-growing site: {site} ({delta:+} link ends)")?;
        }
        write!(
            f,
            "maintenance windows observed: {}",
            self.maintenance_windows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{MapKind, Timestamp};
    use wm_simulator::{Simulation, SimulationConfig};

    #[test]
    fn summary_over_simulated_day() {
        let sim = Simulation::new(SimulationConfig::scaled(3, 0.08));
        let snapshots: Vec<TopologySnapshot> = (0..12)
            .map(|h| {
                sim.snapshot(
                    MapKind::Europe,
                    Timestamp::from_ymd_hms(2022, 2, 1, h * 2, 0, 0),
                )
                .truth
            })
            .collect();
        let summary = summarize(&snapshots);
        assert_eq!(summary.snapshots, 12);
        assert!(summary.first.is_some() && summary.last.is_some());
        assert!(summary.load_headline.is_some());
        let text = summary.to_string();
        assert!(text.contains("routers"), "{text}");
        assert!(text.contains("imbalance"), "{text}");
    }

    #[test]
    fn empty_series_summary() {
        let summary = summarize(&[]);
        assert_eq!(summary.snapshots, 0);
        assert!(summary.first.is_none());
        assert!(summary.load_headline.is_none());
        assert!(summary.fastest_site.is_none());
        // Display must not panic on the empty summary.
        let _ = summary.to_string();
    }
}
