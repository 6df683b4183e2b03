//! The distributed runtime verification algorithm (the paper's contribution):
//! segment the computation, progress every pending formula through the solver
//! for each segment, and report the set of verdicts.

use crate::{Integrity, MonitorConfig, VerdictSet};
use rvmtl_distrib::{segment, DistributedComputation};
use rvmtl_mtl::{Formula, FormulaId, Interner, ShiftedId};
use rvmtl_solver::{SegmentSolver, SolverStats};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Per-segment accounting emitted by [`Monitor::run`].
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Segment index (0-based).
    pub index: usize,
    /// Number of events in the segment.
    pub events: usize,
    /// Number of pending formulas entering the segment.
    pub pending_in: usize,
    /// Number of distinct rewritten formulas leaving the segment.
    pub pending_out: usize,
    /// Aggregated solver statistics over all pending formulas of the segment.
    pub solver_stats: SolverStats,
    /// Wall-clock time spent on the segment.
    pub elapsed: Duration,
}

/// The result of monitoring one computation against one formula.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// The final verdict set (each rewritten formula closed against the empty
    /// future).
    pub verdicts: VerdictSet,
    /// The rewritten formulas pending after the last segment, before
    /// finalisation.
    pub pending: BTreeSet<Formula>,
    /// Per-segment accounting.
    pub segments: Vec<SegmentReport>,
    /// Total wall-clock monitoring time.
    pub elapsed: Duration,
    /// Provenance of the verdicts. The batch monitor consumes a validated
    /// complete computation — no fault can be absorbed and no work item lost
    /// — so this is always [`Integrity::Exact`]; the field gives batch and
    /// streaming reports one shared provenance vocabulary.
    pub integrity: Integrity,
}

impl MonitorReport {
    /// Total number of search states explored by the solver across segments.
    pub fn explored_states(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.solver_stats.explored_states)
            .sum()
    }
}

/// The batch monitor: segments a complete computation according to its
/// configuration, progresses the pending formulas segment by segment, and
/// closes what remains against the empty future.
///
/// # Examples
///
/// ```
/// use rvmtl_distrib::ComputationBuilder;
/// use rvmtl_monitor::{Monitor, MonitorConfig};
/// use rvmtl_mtl::{parse, state};
///
/// // Fig. 3 of the paper: the verdict is ambiguous under ε = 2.
/// let mut b = ComputationBuilder::new(2, 2);
/// b.event(0, 1, state!["a"]);
/// b.event(0, 4, state![]);
/// b.event(1, 2, state!["a"]);
/// b.event(1, 5, state!["b"]);
/// let comp = b.build()?;
///
/// let report = Monitor::new(MonitorConfig::unsegmented()).run(&comp, &parse("a U[0,6) b")?);
/// assert!(report.verdicts.is_ambiguous());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    config: MonitorConfig,
}

impl Monitor {
    /// Creates a monitor with the given configuration.
    pub fn new(config: MonitorConfig) -> Self {
        Monitor { config }
    }

    /// Creates a monitor with the default (unsegmented) configuration.
    pub fn with_defaults() -> Self {
        Monitor::default()
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Monitors `phi` over the complete computation `comp` and returns the
    /// verdict set together with per-segment accounting.
    ///
    /// One [`Interner`] holds every formula of the run, so the stable parts
    /// of the specification are interned once, not once per segment per
    /// pending formula. Pending obligations are kept in shift-normal form:
    /// two obligations that are exact time-translates of each other share
    /// one arena node and differ only in the shift word of their
    /// [`ShiftedId`]. All pending formulas of a segment share one
    /// [`SegmentSolver`] (memo table and per-cut caches included) and are
    /// progressed in set order, so the run does the solver work of a
    /// one-query sequential `rvmtl-runtime` stream over the same segments.
    pub fn run(&self, comp: &DistributedComputation, phi: &Formula) -> MonitorReport {
        let started = Instant::now();
        let g = self.config.segmentation.segment_count(comp.duration());
        let segments = segment(comp, g, self.config.mode);
        let final_anchor = comp.max_local_time() + comp.epsilon();

        let mut arena = Interner::new();
        let root = arena.intern(phi);
        let mut pending: BTreeSet<ShiftedId> = BTreeSet::from([arena.normalize(root)]);
        let mut reports = Vec::with_capacity(segments.len());
        for (i, seg) in segments.iter().enumerate() {
            let seg_started = Instant::now();
            let next_anchor = segments
                .get(i + 1)
                .map_or(final_anchor, DistributedComputation::base_time);
            // Materialise the shift-normal pendings before the solver
            // borrows the arena.
            let seeds: Vec<FormulaId> = pending.iter().map(|&s| arena.materialize(s)).collect();
            let mut solver = SegmentSolver::new(seg, next_anchor, &mut arena);
            if let Some(limit) = self.config.max_solutions_per_segment {
                solver = solver.with_limit(limit);
            }
            let mut solver_stats = SolverStats::default();
            let mut next: BTreeSet<FormulaId> = BTreeSet::new();
            for psi in seeds {
                let result = solver.progress(psi);
                solver_stats.absorb(&result.stats);
                next.extend(result.formulas);
            }
            let pending_in = pending.len();
            pending = next.into_iter().map(|id| arena.normalize(id)).collect();
            reports.push(SegmentReport {
                index: i,
                events: seg.event_count(),
                pending_in,
                pending_out: pending.len(),
                solver_stats,
                elapsed: seg_started.elapsed(),
            });
        }
        MonitorReport {
            // Translation changes interval anchors, not operator kinds, and
            // `eval_empty` only looks at the kinds, so the canonical
            // residual's empty-future verdict is the obligation's.
            verdicts: VerdictSet::from_bools(pending.iter().map(|s| arena.eval_empty(s.id))),
            pending: pending.iter().map(|&s| arena.resolve_shifted(s)).collect(),
            segments: reports,
            elapsed: started.elapsed(),
            integrity: Integrity::Exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::naive_verdicts;
    use crate::Segmentation;
    use rvmtl_distrib::ComputationBuilder;
    use rvmtl_mtl::{parse, state};

    fn fig3() -> DistributedComputation {
        let mut b = ComputationBuilder::new(2, 2);
        b.event(0, 1, state!["a"]);
        b.event(0, 4, state![]);
        b.event(1, 2, state!["a"]);
        b.event(1, 5, state!["b"]);
        b.build().unwrap()
    }

    /// The hedged two-party swap of Fig. 1/Fig. 2: both chains perform their
    /// setup, deposits, escrows and redeems; with ε = 2 the relative order and
    /// timing of the two redeem events is uncertain.
    fn fig2_swap() -> DistributedComputation {
        let mut b = ComputationBuilder::new(2, 2);
        // Apricot chain (process 0).
        b.event(0, 1, state!["Apr.SetUp"]);
        b.event(0, 4, state!["Apr.Deposit(pa+pb)"]);
        b.event(0, 5, state!["Apr.Escrow"]);
        b.event(0, 7, state!["Apr.Redeem(bob)"]);
        // Banana chain (process 1).
        b.event(1, 1, state!["Ban.SetUp"]);
        b.event(1, 3, state!["Ban.Deposit(pb)"]);
        b.event(1, 6, state!["Ban.Escrow"]);
        b.event(1, 7, state!["Ban.Redeem(alice)"]);
        b.build().unwrap()
    }

    #[test]
    fn unsegmented_monitor_matches_bruteforce_oracle() {
        let comp = fig3();
        for text in ["a U[0,6) b", "F[0,6) b", "G[0,4) a", "a U[2,9) b"] {
            let phi = parse(text).unwrap();
            let report = Monitor::with_defaults().run(&comp, &phi);
            assert_eq!(
                report.verdicts,
                naive_verdicts(&comp, &phi),
                "mismatch for {text}"
            );
        }
    }

    #[test]
    fn fig2_swap_specification_is_ambiguous() {
        // φ_spec: Alice should not be outrun by Bob within 8 time units. With
        // ε = 2 both a satisfying and a violating interleaving exist (Sec. I).
        let comp = fig2_swap();
        let phi = parse("!Apr.Redeem(bob) U[0,8) Ban.Redeem(alice)").unwrap();
        let report = Monitor::with_defaults().run(&comp, &phi);
        assert!(report.verdicts.may_be_satisfied());
        assert!(report.verdicts.may_be_violated());
        assert!(report.verdicts.is_ambiguous());
    }

    #[test]
    fn fig2_swap_segmented_as_in_the_paper() {
        // The paper chops the Fig. 2 computation into two segments; the
        // ambiguity must survive segmentation.
        let comp = fig2_swap();
        let phi = parse("!Apr.Redeem(bob) U[0,8) Ban.Redeem(alice)").unwrap();
        let report = Monitor::new(MonitorConfig::with_segments(2)).run(&comp, &phi);
        assert_eq!(report.segments.len(), 2);
        assert!(report.verdicts.may_be_satisfied());
        assert!(report.verdicts.may_be_violated());
    }

    #[test]
    fn segmented_verdicts_are_subset_of_unsegmented() {
        let comp = fig2_swap();
        for text in [
            "!Apr.Redeem(bob) U[0,8) Ban.Redeem(alice)",
            "F[0,6) Ban.Escrow",
            "G[0,10) !Apr.Redeem(bob)",
            "F[0,4) Ban.Deposit(pb) & F[0,5) Apr.Deposit(pa+pb)",
        ] {
            let phi = parse(text).unwrap();
            let whole = Monitor::with_defaults().run(&comp, &phi).verdicts;
            for g in [2, 3, 4] {
                let segmented = Monitor::new(MonitorConfig::with_segments(g))
                    .run(&comp, &phi)
                    .verdicts;
                assert!(!segmented.is_empty(), "g = {g}, {text}");
                for v in segmented.booleans() {
                    assert!(
                        whole.booleans().contains(&v),
                        "g = {g}, {text}: segmented verdict {v} not justified by the whole computation"
                    );
                }
            }
        }
    }

    #[test]
    fn max_solutions_bounds_pending_formulas() {
        let comp = fig2_swap();
        let phi = parse("F[2,9) Ban.Escrow & F[1,8) Apr.Escrow").unwrap();
        let bounded =
            Monitor::new(MonitorConfig::with_segments(3).max_solutions(1)).run(&comp, &phi);
        for seg in &bounded.segments {
            assert!(seg.pending_out <= seg.pending_in.max(1));
        }
        assert!(!bounded.verdicts.is_empty());
    }

    #[test]
    fn report_accounting_is_populated() {
        let comp = fig3();
        let phi = parse("a U[0,6) b").unwrap();
        let report = Monitor::new(MonitorConfig::with_segments(2)).run(&comp, &phi);
        assert_eq!(report.segments.len(), 2);
        let events: usize = report.segments.iter().map(|s| s.events).sum();
        assert_eq!(events, comp.event_count());
        assert!(report.explored_states() > 0);
        assert!(report.segments[0].pending_in == 1);
    }

    #[test]
    fn frequency_segmentation_resolves_against_duration() {
        let comp = fig2_swap();
        let phi = parse("F[0,10) Ban.Redeem(alice)").unwrap();
        let report = Monitor::new(MonitorConfig {
            segmentation: Segmentation::Frequency(0.5),
            ..MonitorConfig::default()
        })
        .run(&comp, &phi);
        assert_eq!(report.segments.len(), 4); // duration 7 at 0.5 segments/unit
        assert!(report.verdicts.may_be_satisfied());
    }

    /// Fence posts of far-apart events: `j · duration` no longer fits in
    /// `u64`, which used to panic in debug builds and, in release builds,
    /// wrapped the segment bases and turned the verdicts conclusive and wrong.
    #[test]
    fn far_apart_events_segment_without_overflow() {
        let mut b = ComputationBuilder::new(2, 2);
        b.event(0, 1, state!["a"]);
        b.event(1, 1 << 63, state!["b"]);
        let comp = b.build().unwrap();
        let segments = segment(&comp, 4, rvmtl_distrib::SegmentationMode::Disjoint);
        assert!(segments
            .windows(2)
            .all(|pair| pair[0].base_time() <= pair[1].base_time()));
        let kept: usize = segments.iter().map(|s| s.event_count()).sum();
        assert_eq!(kept, comp.event_count());
        assert!(rvmtl_distrib::boundary_events(&comp, 4).is_empty());
        for text in ["F b", "G a", "a U b"] {
            let phi = parse(text).unwrap();
            let report = Monitor::new(MonitorConfig::with_segments(4)).run(&comp, &phi);
            assert_eq!(report.verdicts, naive_verdicts(&comp, &phi), "{text}");
        }
        // One segment spanning a gap beyond 2^63: the shift-relative cache
        // keys of delayed-window specs see elapsed times that no longer fit
        // in `i64`, which used to wrap and panic in `OneKey::pack`.
        let mut b = ComputationBuilder::new(2, 2);
        b.event(0, 1, state!["a"]);
        b.event(1, (1 << 63) + 7, state!["b"]);
        let comp = b.build().unwrap();
        for text in [
            "F[3,10) b",
            "G[2,5) a",
            "a U[3,9) b",
            "F[3,inf) b",
            "G[3,inf) a",
            "!b U[2,inf) b",
        ] {
            let phi = parse(text).unwrap();
            let report = Monitor::new(MonitorConfig::with_segments(1)).run(&comp, &phi);
            assert_eq!(report.verdicts, naive_verdicts(&comp, &phi), "{text}");
        }
    }

    #[test]
    fn deterministic_single_process_run_is_unambiguous() {
        let mut b = ComputationBuilder::new(1, 1);
        b.event(0, 1, state!["req"]);
        b.event(0, 3, state!["cs"]);
        let comp = b.build().unwrap();
        let phi = parse("req -> F[0,5) cs").unwrap();
        let report = Monitor::with_defaults().run(&comp, &phi);
        assert!(report.verdicts.definitely_satisfied());
        let phi_strict = parse("req -> F[0,2) cs").unwrap();
        let report = Monitor::with_defaults().run(&comp, &phi_strict);
        assert!(report.verdicts.definitely_violated());
    }
}
