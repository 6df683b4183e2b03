//! Monitor configuration.

use rvmtl_distrib::SegmentationMode;

/// How a computation is chopped into segments before monitoring (Sec. V-C).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Segmentation {
    /// Monitor the whole computation as a single solver instance.
    #[default]
    None,
    /// Split into a fixed number of segments `g`.
    Count(usize),
    /// Split so that there are `f` segments per unit of time (the paper's
    /// segment frequency, Fig. 5c).
    Frequency(f64),
}

impl Segmentation {
    /// Resolves the segmentation into a concrete segment count for a
    /// computation of the given duration.
    pub fn segment_count(&self, duration: u64) -> usize {
        match *self {
            Segmentation::None => 1,
            Segmentation::Count(g) => g.max(1),
            Segmentation::Frequency(f) => rvmtl_distrib::segments_for_frequency(duration, f),
        }
    }
}

/// Configuration of a [`crate::Monitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// How the computation is segmented.
    pub segmentation: Segmentation,
    /// Boundary-attribution mode for segments.
    pub mode: SegmentationMode,
    /// Upper bound on the number of distinct rewritten formulas kept per
    /// pending formula per segment (`None` = unbounded). Mirrors the paper's
    /// bounded number of solver solutions per segment (Fig. 5e).
    pub max_solutions_per_segment: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            segmentation: Segmentation::None,
            mode: SegmentationMode::Disjoint,
            max_solutions_per_segment: None,
        }
    }
}

impl MonitorConfig {
    /// A configuration monitoring the whole computation in one solver
    /// instance.
    pub fn unsegmented() -> Self {
        MonitorConfig::default()
    }

    /// A configuration splitting the computation into `g` segments.
    pub fn with_segments(g: usize) -> Self {
        MonitorConfig {
            segmentation: Segmentation::Count(g),
            ..MonitorConfig::default()
        }
    }

    /// A configuration targeting a segment frequency (segments per time unit).
    pub fn with_frequency(f: f64) -> Self {
        MonitorConfig {
            segmentation: Segmentation::Frequency(f),
            ..MonitorConfig::default()
        }
    }

    /// Uses the paper's overlapping segment windows instead of the default
    /// disjoint partition.
    pub fn overlap(mut self) -> Self {
        self.mode = SegmentationMode::Overlap;
        self
    }

    /// Bounds the number of distinct solutions kept per segment.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0 — the monitor must keep at least one rewritten
    /// formula per segment to stay sound (same contract as
    /// `ProgressionQuery::with_limit`; a zero limit used to be silently
    /// clamped to 1, which masked caller bugs).
    pub fn max_solutions(mut self, limit: usize) -> Self {
        assert!(
            limit > 0,
            "MonitorConfig::max_solutions: the solution limit must be at least 1"
        );
        self.max_solutions_per_segment = Some(limit);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation_resolution() {
        assert_eq!(Segmentation::None.segment_count(100), 1);
        assert_eq!(Segmentation::Count(5).segment_count(100), 5);
        assert_eq!(Segmentation::Count(0).segment_count(100), 1);
        assert_eq!(Segmentation::Frequency(0.5).segment_count(20), 10);
        assert_eq!(Segmentation::Frequency(1.0).segment_count(0), 1);
    }

    #[test]
    fn builder_style_config() {
        let cfg = MonitorConfig::with_segments(4).max_solutions(3);
        assert_eq!(cfg.segmentation, Segmentation::Count(4));
        assert_eq!(cfg.max_solutions_per_segment, Some(3));
        let overlap = MonitorConfig::with_frequency(2.0).overlap();
        assert_eq!(overlap.mode, SegmentationMode::Overlap);
        assert_eq!(MonitorConfig::default(), MonitorConfig::unsegmented());
    }

    #[test]
    #[should_panic(expected = "must be at least 1")]
    fn zero_max_solutions_panics() {
        let _ = MonitorConfig::unsegmented().max_solutions(0);
    }
}
