//! Collection-timeframe analyses (Fig. 2 and Fig. 3).
//!
//! Fig. 2 draws, per map, the segments of time over which snapshots are
//! available at the five-minute resolution; Fig. 3 reports the
//! distribution of the time distance between consecutive data files.

use wm_model::{time::SNAPSHOT_INTERVAL, Duration, Timestamp};

use crate::stats::Distribution;

/// A contiguous stretch of collected data (one Fig. 2 bar segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageSegment {
    /// First collected snapshot of the segment.
    pub start: Timestamp,
    /// Last collected snapshot of the segment.
    pub end: Timestamp,
    /// Number of snapshots inside.
    pub snapshots: usize,
}

impl CoverageSegment {
    /// Wall-clock span of the segment.
    #[must_use]
    pub fn span(&self) -> Duration {
        self.end - self.start
    }
}

/// Splits sorted snapshot instants into coverage segments, breaking
/// whenever consecutive snapshots are more than `max_gap` apart.
///
/// Fig. 2 is drawn with a break threshold large enough to hide single
/// missing snapshots but small enough to reveal outages; the paper's
/// figure visibly breaks on multi-hour discontinuities.
#[must_use]
pub fn coverage_segments(times: &[Timestamp], max_gap: Duration) -> Vec<CoverageSegment> {
    let mut segments: Vec<CoverageSegment> = Vec::new();
    for &at in times {
        match segments.last_mut() {
            Some(open) if at - open.end <= max_gap => {
                open.end = at;
                open.snapshots += 1;
            }
            _ => segments.push(CoverageSegment {
                start: at,
                end: at,
                snapshots: 1,
            }),
        }
    }
    segments
}

/// The Fig. 3 statistics of one map's snapshot gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct GapDistribution {
    /// All inter-snapshot distances, in seconds.
    pub distances: Distribution,
}

impl GapDistribution {
    /// Builds the distribution from sorted snapshot instants.
    #[must_use]
    pub fn new(times: &[Timestamp]) -> GapDistribution {
        let distances: Vec<f64> = times
            .iter()
            .zip(times.iter().skip(1))
            .map(|(&previous, &next)| (next - previous).as_secs() as f64)
            .collect();
        GapDistribution {
            distances: Distribution::new(distances),
        }
    }

    /// Fraction of gaps at exactly the five-minute resolution (the
    /// paper: ≥ 99.8 % for Europe).
    #[must_use]
    pub fn fraction_at_resolution(&self) -> f64 {
        if self.distances.is_empty() {
            return 0.0;
        }
        let at = self
            .distances
            .samples()
            .iter()
            .filter(|d| **d == SNAPSHOT_INTERVAL.as_secs() as f64)
            .count();
        at as f64 / self.distances.len() as f64
    }

    /// Fraction of gaps not exceeding `limit` (the paper: for non-Europe
    /// maps, "in a very large amount of cases the gap is not larger than
    /// ten minutes").
    #[must_use]
    pub fn fraction_within(&self, limit: Duration) -> f64 {
        self.distances.cdf(limit.as_secs() as f64)
    }

    /// The largest observed gap.
    #[must_use]
    pub fn max_gap(&self) -> Option<Duration> {
        self.distances
            .samples()
            .last()
            .map(|s| Duration::from_secs(*s as i64))
    }
}

/// The finished timeframe artifact: Fig. 2's segments plus Fig. 3's gap
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeframeReport {
    /// Coverage segments, in time order.
    pub segments: Vec<CoverageSegment>,
    /// The inter-snapshot gap distribution.
    pub gaps: GapDistribution,
}

/// Snapshot instants under collection, closed into a [`TimeframeReport`].
#[derive(Debug, Clone)]
pub(crate) struct TimeframePass {
    max_gap: Duration,
    times: Vec<Timestamp>,
}

impl TimeframePass {
    /// Creates a fold breaking segments on gaps larger than `max_gap`.
    pub(crate) fn new(max_gap: Duration) -> TimeframePass {
        TimeframePass {
            max_gap,
            times: Vec::new(),
        }
    }

    /// Records one snapshot instant.
    pub(crate) fn observe_instant(&mut self, at: Timestamp) {
        self.times.push(at);
    }

    /// Builds the coverage segments and the gap distribution.
    pub(crate) fn finish(self) -> TimeframeReport {
        TimeframeReport {
            segments: coverage_segments(&self.times, self.max_gap),
            gaps: GapDistribution::new(&self.times),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(ms: &[i64]) -> Vec<Timestamp> {
        ms.iter().map(|m| Timestamp::from_unix(m * 60)).collect()
    }

    #[test]
    fn single_segment_when_no_gaps() {
        let times = minutes(&[0, 5, 10, 15, 20]);
        let segments = coverage_segments(&times, Duration::from_minutes(10));
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].snapshots, 5);
        assert_eq!(segments[0].span(), Duration::from_minutes(20));
    }

    #[test]
    fn breaks_on_large_gaps() {
        let times = minutes(&[0, 5, 10, 500, 505, 510]);
        let segments = coverage_segments(&times, Duration::from_minutes(60));
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].end, Timestamp::from_unix(10 * 60));
        assert_eq!(segments[1].start, Timestamp::from_unix(500 * 60));
    }

    #[test]
    fn small_gaps_do_not_break_segments() {
        let times = minutes(&[0, 5, 15, 20]); // one missing snapshot at 10
        let segments = coverage_segments(&times, Duration::from_minutes(60));
        assert_eq!(segments.len(), 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(coverage_segments(&[], Duration::from_minutes(10)).is_empty());
        let one = minutes(&[42]);
        let segments = coverage_segments(&one, Duration::from_minutes(10));
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].snapshots, 1);
        assert_eq!(segments[0].span(), Duration::ZERO);
    }

    #[test]
    fn gap_distribution_statistics() {
        // 9 five-minute gaps and one ten-minute gap.
        let times = minutes(&[0, 5, 10, 15, 20, 25, 30, 35, 40, 50, 55]);
        let gaps = GapDistribution::new(&times);
        assert_eq!(gaps.distances.len(), 10);
        assert!((gaps.fraction_at_resolution() - 0.9).abs() < 1e-12);
        assert_eq!(gaps.fraction_within(Duration::from_minutes(10)), 1.0);
        assert_eq!(gaps.max_gap(), Some(Duration::from_minutes(10)));
    }

    #[test]
    fn gap_distribution_of_empty_series() {
        let gaps = GapDistribution::new(&[]);
        assert_eq!(gaps.fraction_at_resolution(), 0.0);
        assert_eq!(gaps.max_gap(), None);
    }
}
