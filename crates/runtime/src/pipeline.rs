//! Segment stages: the per-segment solve step both execution paths share,
//! and the worker loop of the pipelined path.
//!
//! The paper progresses every pending formula through a segment
//! independently (Sec. V-C): the next pending set is the union of each
//! obligation's rewrites. A batch's obligations therefore split across
//! workers that share nothing. The monitor deals a batch's *units* — one
//! `(entry segment, pending obligation)` pair each — round-robin to scoped
//! worker threads, each of which owns a private [`Interner`]. A worker
//! advances its units segment by segment through [`solve_segment`], the
//! step the sequential path runs, and returns one pending set per unit; the
//! monitor merges those back into the query arena. There is no lock, queue
//! or shared cache: what a worker solves, in which order and over which
//! arena state is a function of its units and its own history, so its
//! solver counters, cache tallies and its choice of representatives under
//! a solution limit repeat exactly from run to run.

use rvmtl_distrib::DistributedComputation;
use rvmtl_mtl::hashing::FxHashMap;
use rvmtl_mtl::{FormulaId, Interner};
use rvmtl_obs::{Histogram, Stopwatch};
use rvmtl_solver::{SegmentSolver, SolverStats};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Progresses `seeds` through one segment (`comp`, its residuals anchored
/// at `next_anchor`): one [`SegmentSolver`] over `arena` with the solution
/// limit, and one `catch_unwind`-isolated solve per seed, in order. `emit`
/// receives each seed's rewrites, or `None` when its solve panicked (the
/// obligation is lost; the remaining seeds proceed). Solver counters are
/// absorbed into `stats`; each solve's wall time is recorded into
/// `work_item`, and their sum is returned (0 with telemetry off).
pub(crate) fn solve_segment(
    arena: &mut Interner,
    (comp, next_anchor): (&DistributedComputation, u64),
    limit: Option<usize>,
    seeds: &[FormulaId],
    stats: &mut SolverStats,
    work_item: &Histogram,
    mut emit: impl FnMut(Option<BTreeSet<FormulaId>>),
) -> u64 {
    let mut solver = SegmentSolver::new(comp, next_anchor, arena);
    if let Some(l) = limit {
        solver = solver.with_limit(l);
    }
    let mut busy = 0;
    for &psi in seeds {
        let timer = work_item.is_enabled().then(Stopwatch::start);
        let solved = catch_unwind(AssertUnwindSafe(|| solver.progress(psi)));
        if let Some(timer) = timer {
            let nanos = timer.elapsed_nanos();
            work_item.record(nanos);
            busy += nanos;
        }
        emit(solved.ok().map(|result| {
            stats.absorb(&result.stats);
            result.formulas
        }));
    }
    busy
}

/// What one worker produced for its units, in dealt order.
pub(crate) struct WorkerOutcome {
    /// Per unit, its pending set leaving the batch's last segment.
    pub(crate) outs: Vec<BTreeSet<FormulaId>>,
    /// Per unit, the `(segment, obligation)` pairs whose solve panicked.
    pub(crate) lost: Vec<Vec<(usize, FormulaId)>>,
    /// The worker's solver counters.
    pub(crate) stats: SolverStats,
    /// Summed solve wall time (ns; 0 with telemetry off).
    pub(crate) busy: u64,
}

/// Advances `units` — `(entry segment, seed)` pairs, seeds interned in
/// `arena` — through `segments` (each with its residual anchor). A unit
/// joins at its entry segment. At each segment the distinct formulas of the
/// units' pending sets (first seen in unit order, then formula order) are
/// solved once each through [`solve_segment`], and a unit's next pending
/// set is the union of its formulas' rewrites.
pub(crate) fn run_worker(
    arena: &mut Interner,
    segments: &[(DistributedComputation, u64)],
    units: &[(usize, FormulaId)],
    limit: Option<usize>,
    work_item: &Histogram,
) -> WorkerOutcome {
    let mut pending = vec![BTreeSet::new(); units.len()];
    let mut lost = vec![Vec::new(); units.len()];
    let mut stats = SolverStats::default();
    let mut busy = 0;
    let mut index: FxHashMap<FormulaId, usize> = FxHashMap::default();
    let mut seeds = Vec::new();
    let mut solved = Vec::new();
    let start = units.iter().map(|&(entry, _)| entry).min().unwrap_or(0);
    for (k, (comp, next_anchor)) in segments.iter().enumerate().skip(start) {
        index.clear();
        seeds.clear();
        solved.clear();
        for (&(entry, seed), set) in units.iter().zip(&mut pending) {
            if entry == k {
                set.insert(seed);
            }
            for &psi in set.iter() {
                index.entry(psi).or_insert_with(|| {
                    seeds.push(psi);
                    seeds.len() - 1
                });
            }
        }
        busy += solve_segment(
            arena,
            (comp, *next_anchor),
            limit,
            &seeds,
            &mut stats,
            work_item,
            |rewrites| solved.push(rewrites),
        );
        for (set, lost) in pending.iter_mut().zip(&mut lost) {
            let mut next = BTreeSet::new();
            for &psi in &*set {
                match &solved[index[&psi]] {
                    Some(rewrites) => next.extend(rewrites.iter().copied()),
                    None => lost.push((k, psi)),
                }
            }
            *set = next;
        }
    }
    WorkerOutcome {
        outs: pending,
        lost,
        stats,
        busy,
    }
}
