//! Link-load analyses (Fig. 5a and Fig. 5b).

use wm_model::LinkKind;

use crate::stats::{Distribution, WhiskerSummary};

/// Loads grouped by hour of day — the Fig. 5a machinery.
///
/// Every directed load of every snapshot lands in its capture hour's
/// bucket; the figure then draws the per-hour whisker summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HourlyLoads {
    buckets: [Vec<f64>; 24],
}

impl HourlyLoads {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> HourlyLoads {
        HourlyLoads::default()
    }

    /// Adds one directed load to an hour bucket (hours past 23 are
    /// ignored).
    pub fn push(&mut self, hour: u8, value: f64) {
        if let Some(bucket) = self.buckets.get_mut(hour as usize) {
            bucket.push(value);
        }
    }

    /// Number of samples collected for one hour (0 past hour 23).
    #[must_use]
    pub fn samples_in_hour(&self, hour: u8) -> usize {
        self.buckets.get(hour as usize).map_or(0, Vec::len)
    }

    /// The whisker summary of one hour (`None` when the bucket is empty
    /// or the hour is past 23).
    #[must_use]
    pub fn summary(&self, hour: u8) -> Option<WhiskerSummary> {
        let dist = Distribution::new(self.buckets.get(hour as usize)?.clone());
        WhiskerSummary::of(&dist)
    }

    /// All 24 summaries — the rows of Fig. 5a.
    #[must_use]
    pub fn summaries(&self) -> Vec<Option<WhiskerSummary>> {
        (0..24).map(|h| self.summary(h)).collect()
    }

    /// The hour with the lowest median (the paper: between 2 and 4 a.m.)
    /// and the hour with the highest (7–9 p.m.).
    #[must_use]
    pub fn extreme_hours(&self) -> Option<(u8, u8)> {
        let medians: Vec<(u8, f64)> = (0..24u8)
            .filter_map(|h| self.summary(h).map(|s| (h, s.p50)))
            .collect();
        if medians.is_empty() {
            return None;
        }
        let min = medians.iter().min_by(|a, b| a.1.total_cmp(&b.1))?.0;
        let max = medians.iter().max_by(|a, b| a.1.total_cmp(&b.1))?.0;
        Some((min, max))
    }
}

/// Load CDFs split by link kind — the Fig. 5b machinery.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadCdf {
    all: Vec<f64>,
    internal: Vec<f64>,
    external: Vec<f64>,
}

impl LoadCdf {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> LoadCdf {
        LoadCdf::default()
    }

    /// Adds one directed load.
    pub fn push(&mut self, kind: LinkKind, value: f64) {
        self.all.push(value);
        match kind {
            LinkKind::Internal => self.internal.push(value),
            LinkKind::External => self.external.push(value),
        }
    }

    /// Distribution over all directed loads.
    #[must_use]
    pub fn all(&self) -> Distribution {
        Distribution::new(self.all.clone())
    }

    /// Distribution over internal-link loads.
    #[must_use]
    pub fn internal(&self) -> Distribution {
        Distribution::new(self.internal.clone())
    }

    /// Distribution over external-link loads.
    #[must_use]
    pub fn external(&self) -> Distribution {
        Distribution::new(self.external.clone())
    }

    /// The three headline Fig. 5b facts, as `(p75, fraction_above_60,
    /// external_mean_minus_internal_mean)`:
    /// 75 % of loads below ~33 %, very few above 60 %, externals cooler.
    #[must_use]
    pub fn headline(&self) -> Option<(f64, f64, f64)> {
        let all = self.all();
        let p75 = all.quantile(0.75)?;
        let above60 = all.ccdf(60.0);
        let delta = self.external().mean()? - self.internal().mean()?;
        Some((p75, above60, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::report_of;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, Timestamp, TopologySnapshot};

    fn snapshot(hour: u8, loads: &[(u8, u8, bool)]) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(
            MapKind::Europe,
            Timestamp::from_ymd_hms(2021, 6, 15, hour, 0, 0),
        );
        s.nodes.push(Node::router("r-a"));
        s.nodes.push(Node::router("r-b"));
        s.nodes.push(Node::peering("PEER"));
        for (la, lb, internal) in loads {
            let other = if *internal {
                Node::router("r-b")
            } else {
                Node::peering("PEER")
            };
            s.links.push(Link::new(
                LinkEnd::new(Node::router("r-a"), None, Load::new(*la).unwrap()),
                LinkEnd::new(other, None, Load::new(*lb).unwrap()),
            ));
        }
        s
    }

    #[test]
    fn hourly_buckets_fill_by_capture_hour() {
        let hourly = report_of(&[
            snapshot(3, &[(10, 20, true)]),
            snapshot(20, &[(40, 50, true), (60, 70, true)]),
        ])
        .hourly;
        assert_eq!(hourly.samples_in_hour(3), 2);
        assert_eq!(hourly.samples_in_hour(20), 4);
        assert_eq!(hourly.samples_in_hour(12), 0);
        assert!(hourly.summary(12).is_none());
        let s3 = hourly.summary(3).unwrap();
        assert_eq!(s3.p50, 15.0);
    }

    #[test]
    fn hours_past_23_read_as_empty() {
        let mut hourly = HourlyLoads::new();
        for hour in [0, 23, 24, 255] {
            hourly.push(hour, 50.0);
        }
        for hour in [24, 255] {
            assert_eq!(hourly.samples_in_hour(hour), 0);
            assert!(hourly.summary(hour).is_none());
        }
        assert_eq!(hourly.samples_in_hour(23), 1);
        assert_eq!(hourly.summaries().iter().flatten().count(), 2);
    }

    #[test]
    fn extreme_hours_identify_trough_and_peak() {
        let mut hourly = HourlyLoads::new();
        for (hour, load) in [(3, 5.0), (12, 20.0), (20, 50.0)] {
            hourly.push(hour, load);
            hourly.push(hour, load);
        }
        assert_eq!(hourly.extreme_hours(), Some((3, 20)));
        assert_eq!(HourlyLoads::new().extreme_hours(), None);
    }

    #[test]
    fn cdf_splits_by_kind() {
        let cdf = report_of(&[snapshot(10, &[(10, 20, true), (2, 4, false)])]).load_cdf;
        assert_eq!(cdf.all().len(), 4);
        assert_eq!(cdf.internal().len(), 2);
        assert_eq!(cdf.external().len(), 2);
        assert_eq!(cdf.internal().mean(), Some(15.0));
        assert_eq!(cdf.external().mean(), Some(3.0));
    }

    #[test]
    fn headline_reports_the_fig_5b_facts() {
        let mut cdf = LoadCdf::new();
        // 8 loads: internals hot, externals cool, one above 60.
        for load in [30.0, 25.0, 20.0, 65.0] {
            cdf.push(LinkKind::Internal, load);
        }
        for load in [5.0, 10.0, 8.0, 12.0] {
            cdf.push(LinkKind::External, load);
        }
        let (p75, above60, delta) = cdf.headline().unwrap();
        assert!(p75 <= 30.0, "p75 {p75}");
        assert!((above60 - 0.125).abs() < 1e-12);
        assert!(delta < 0.0, "externals must be cooler");
        assert!(LoadCdf::new().headline().is_none());
    }
}
