//! The decision engine behind the monitor's per-segment queries.
//!
//! The paper encodes each segment as an SMT instance over (1) an
//! uninterpreted function `ρ` describing a sequence of consistent cuts, (2) a
//! monotone time function `τ` whose values are drawn from each event's `±ε`
//! window (`δ`), and (3) constraints asserting a verdict of the MTL formula —
//! then asks Z3 for satisfying assignments, blocking each verdict found to
//! enumerate the distinct ones (Sec. V).
//!
//! This module is a dedicated decision procedure for exactly that theory: a
//! depth-first search over cut sequences and admissible time assignments that
//! carries the *progressed formula* along each branch and memoises on
//! `(cut, last assigned time, pending formula)`. Because progression composes
//! (`Pr(α.α′, φ) ≡ Pr(α′, Pr(α, φ))`), the search returns the exact set of
//! rewritten formulas (and hence verdicts) that the explicit enumeration of
//! `Tr(E, ⇝)` would produce, without materialising the traces.
//!
//! # Hot-path design
//!
//! The search spends its entire budget on memo lookups and progression steps,
//! so both are kept O(1)-shaped:
//!
//! * **Formulas are hash-consed.** The engine borrows a caller-supplied
//!   [`Interner`] (the monitor keeps one alive for the whole query, across
//!   segments) and carries [`FormulaId`]s (4-byte copies with id-equality and
//!   id-hashing) instead of `Formula` trees; progression steps go through
//!   [`Interner::progress_one_over`] / [`Interner::progress_gap_over`].
//! * **Time is explored per residual, not per tick.** An event admissible in
//!   the window `[lo, hi]` is *not* branched on once per occurrence time:
//!   [`Interner::progress_one_over`] partitions the window into maximal
//!   ranges with one residual each (at most `temporal_horizon + 1` of them,
//!   independent of ε), and the search recurses once per range. A range whose
//!   residual is time-invariant collapses to its earliest point — the
//!   canonical representative of the whole range, because the reachable
//!   rewrite set of a time-invariant pending formula shrinks monotonically in
//!   the pending time — so the memo key can stay a fixed-size
//!   `(cut rank, canonical time, FormulaId)` triple and still deduplicate
//!   entire time ranges.
//! * **Cuts are ranked.** A cut is a vector of per-process counts; the engine
//!   maps it to a single `u128` *rank* via mixed-radix strides
//!   (`rank = Σ counts[p]·stride[p]`, `stride[p] = Π_{q<p}(n_q+1)`), updated
//!   incrementally by `+stride[p]` when the search appends an event of
//!   process `p`. The memo key is the packed `(u128, u64, FormulaId)` triple —
//!   fixed-size, no allocation, O(1) hash/eq. Lattices too large even for
//!   `u128` fall back to interning the count vectors of visited cuts (see
//!   [`CutRanker`]).
//! * **Single-pass accumulation.** Each node's contribution set is assembled
//!   while its children are first explored (every child hands its results to
//!   the parent's sink), so no second walk over the children — and no second
//!   round of progression calls — is needed to populate the memo.
//! * **Per-cut caches.** `cut.enabled()` and `cut.frontier_state()` are
//!   computed once per cut rank and shared across all time steps and pending
//!   formulas that visit the cut.

use crate::memo::{MemoProbe, MemoTable, StagedSlot};
use rvmtl_distrib::{Cut, DistributedComputation, EventId};
use rvmtl_mtl::hashing::FxHashMap;
use rvmtl_mtl::{
    evaluate, ArenaOps, Formula, FormulaId, Interner, ProbeScratch, RangeKind, SplitRange,
    StateKey, TimedTrace,
};
use std::collections::BTreeSet;
use std::mem;
use std::sync::Arc;

/// Which exploration engine a solver runs.
///
/// Both engines execute the *same* search — identical verdict sets and
/// identical [`SolverStats`] on every input, which the `engine_differential`
/// suite asserts across ε sweeps, property suites and both arenas. They
/// differ only in how the search tree is traversed:
///
/// * [`ExploreEngine::WorkStack`] (the default) — the data-oriented core: an
///   explicit work stack over struct-of-arrays frontier batches, batched
///   cache probes, pooled per-depth buffers and staged memo slots (see the
///   crate-level "Data-oriented core" section).
/// * [`ExploreEngine::Reference`] — the retained recursive explorer, kept as
///   the oracle of the `engine_differential` suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExploreEngine {
    /// Flat work-stack engine over frontier batches (default).
    #[default]
    WorkStack,
    /// Recursive reference engine (differential baseline).
    Reference,
}

/// Generates [`SolverStats`] together with its element-wise combinators from
/// **one** field list, so a counter added here is automatically covered by
/// [`SolverStats::absorb`], [`SolverStats::delta_since`] and
/// [`SolverStats::for_each_field`]. (The previous hand-written `delta_since`
/// silently read 0 for any counter it forgot — a bug class this macro removes
/// structurally; `stats_combinators_cover_every_field` pins it.)
macro_rules! solver_stats {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Counters describing the work performed by a query — useful for the
        /// scalability experiments and for regression-testing the memoisation.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SolverStats {
            $($(#[$doc])* pub $field: usize,)+
        }

        impl SolverStats {
            /// Adds the counters of `other` into `self` (used by the monitor
            /// to aggregate per-segment statistics).
            pub fn absorb(&mut self, other: &SolverStats) {
                $(self.$field += other.$field;)+
            }

            /// The element-wise difference `self − other` (used to carve the
            /// stats of one query out of a solver's cumulative counters).
            pub fn delta_since(&self, other: &SolverStats) -> SolverStats {
                SolverStats {
                    $($field: self.$field - other.$field,)+
                }
            }

            /// Visits every counter as a `(name, value)` pair, in declaration
            /// order. This is the introspection hook the bench pins and the
            /// telemetry bridge build on: a counter added to the macro list
            /// shows up everywhere without further plumbing.
            pub fn for_each_field(&self, mut f: impl FnMut(&'static str, usize)) {
                $(f(stringify!($field), self.$field);)+
            }

            /// Mutable counterpart of [`SolverStats::for_each_field`] (used
            /// by the coverage unit test to fill every field with a distinct
            /// nonzero value without naming the fields).
            pub fn for_each_field_mut(&mut self, mut f: impl FnMut(&'static str, &mut usize)) {
                $(f(stringify!($field), &mut self.$field);)+
            }
        }
    };
}

solver_stats! {
    /// Number of distinct search states explored.
    explored_states,
    /// Number of memoisation hits.
    memo_hits,
    /// Number of complete cut sequences reached.
    completed_sequences,
    /// Number of branches cut off early because the pending formula had
    /// already collapsed to a constant verdict.
    constant_cutoffs,
    /// Number of residual-constant time ranges produced by the
    /// interval-splitting progression (one per `(node, event, residual)`
    /// instead of one per `(node, event, tick)`).
    time_splits,
    /// Number of admissible occurrence times that were *not* explored as
    /// separate search states because their range collapsed to its canonical
    /// earliest point (the per-tick engine would have explored each of them).
    /// Counts both time-invariant uniform ranges and shift-normal translated
    /// ranges.
    merged_time_points,
    /// Number of search nodes that were rewritten to their shift-normal zone
    /// representative before the memo lookup (pending time advanced toward
    /// the first live window, pending formula translated down in step), so a
    /// memo entry earned at one absolute time is a hit at every translate.
    shift_normalized_nodes,
    /// Number of sibling frontier batches progressed against one event in a
    /// single pass: one per `(search node, enabled event)` pair with a
    /// non-empty admissible window. Structural — both explore engines count
    /// the same expansions, so the figure is pinnable.
    frontier_batches,
    /// Number of per-tick cache probes issued through the batched splitter
    /// entry points (`progress_one_over_batched` / `progress_gap_over_batched`
    /// — one contiguous hash-table walk per batch instead of one per tick).
    /// Structural, like `frontier_batches`.
    batched_probe_ticks,
}

/// The result of a progression query on one segment: the set of distinct
/// rewritten formulas, together with solver statistics.
#[derive(Debug, Clone)]
pub struct ProgressionResult {
    /// The distinct progressed formulas, one per distinguishable class of
    /// traces of the segment.
    pub formulas: BTreeSet<Formula>,
    /// Work counters.
    pub stats: SolverStats,
}

impl ProgressionResult {
    /// The set of final verdicts obtained by closing every rewritten formula
    /// against the empty future (finite-trace semantics).
    pub fn verdicts(&self) -> BTreeSet<bool> {
        self.formulas.iter().map(finalize).collect()
    }
}

/// Closes a (possibly rewritten) formula at the end of the computation: any
/// obligation still referring to future observations is resolved by the
/// finite-trace semantics over an empty remainder (`◇` obligations fail, `□`
/// obligations hold vacuously).
pub fn finalize(phi: &Formula) -> bool {
    evaluate(&TimedTrace::empty(), phi)
}

/// A progression query over one segment (or a whole computation).
#[derive(Debug, Clone)]
pub struct ProgressionQuery<'a> {
    comp: &'a DistributedComputation,
    /// Time at which the residuals of the returned formulas are anchored
    /// (the base time of the *next* segment).
    next_anchor: u64,
    /// Stop after this many distinct rewritten formulas have been found
    /// (`usize::MAX` for no limit).
    limit: usize,
    /// Which exploration engine runs the search.
    engine: ExploreEngine,
}

impl<'a> ProgressionQuery<'a> {
    /// Creates a query over `comp` whose residual obligations will be anchored
    /// at `next_anchor` (the base time of the next segment, or any time at or
    /// after the segment's last event for a final segment).
    pub fn new(comp: &'a DistributedComputation, next_anchor: u64) -> Self {
        ProgressionQuery {
            comp,
            next_anchor,
            limit: usize::MAX,
            engine: ExploreEngine::default(),
        }
    }

    /// Selects the exploration engine (default: [`ExploreEngine::WorkStack`]).
    /// Both engines produce identical results and statistics; the reference
    /// engine exists as a differential baseline.
    pub fn with_engine(mut self, engine: ExploreEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Limits the number of distinct rewritten formulas to search for; the
    /// query returns as soon as the limit is reached. This mirrors the paper's
    /// repeated SMT invocations with blocked verdicts (Fig. 5e).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0. A progression query always produces at least
    /// one rewritten formula on a feasible segment, so a zero limit cannot
    /// mean anything except a caller bug — it used to be silently clamped to
    /// 1, which masked such bugs.
    pub fn with_limit(mut self, limit: usize) -> Self {
        assert!(
            limit > 0,
            "ProgressionQuery::with_limit: the solution limit must be at least 1"
        );
        self.limit = limit;
        self
    }

    /// Runs the query for a pending formula `phi` anchored at the segment's
    /// base time, returning every distinct rewritten formula the segment's
    /// traces can produce.
    pub fn distinct_progressions(&self, phi: &Formula) -> ProgressionResult {
        let mut interner = Interner::new();
        let psi = interner.intern(phi);
        let mut engine = Engine::new(self.comp, self.next_anchor, self.limit, &mut interner);
        engine.mode = self.engine;
        engine.run(psi, &mut |_, _| false);
        let (found, stats) = engine.into_parts();
        ProgressionResult {
            formulas: found.iter().map(|&id| interner.resolve(id)).collect(),
            stats,
        }
    }
}

/// The result of progressing one interned pending formula through a
/// [`SegmentSolver`]: the distinct rewritten formulas as ids in the shared
/// interner, plus the statistics of this query alone.
#[derive(Debug, Clone)]
pub struct InternedProgression {
    /// The distinct rewritten formulas, interned in the solver's shared arena.
    pub formulas: BTreeSet<FormulaId>,
    /// Work counters of this query (not cumulative across queries).
    pub stats: SolverStats,
}

/// A solver for one segment shared by *all* pending formulas of that segment,
/// working directly on [`FormulaId`]s in a caller-owned arena.
///
/// This is the monitor-facing entry point: the memo table, the feasibility
/// cache and the per-cut `enabled`/`frontier` caches are built once per
/// segment and reused by every pending formula progressed through it (memo
/// entries are keyed by the pending formula, so entries produced for one
/// formula are directly reusable by another that rewrites into the same
/// obligation). The arena outlives the solver — the monitor keeps one arena
/// alive across all segments of a query, so the stable parts of the
/// specification are interned exactly once.
///
/// The solver is generic over [`ArenaOps`] and borrows its arena exclusively;
/// the streaming runtime's pipelined path gives each worker an [`Interner`]
/// of its own, so the arena, its progression caches and the solver's memo
/// tables are all private to one thread.
pub struct SegmentSolver<'a, 'i, A: ArenaOps = Interner> {
    engine: Engine<'a, 'i, A>,
}

impl<'a, 'i, A: ArenaOps> SegmentSolver<'a, 'i, A> {
    /// Creates a solver for `comp` anchoring residuals at `next_anchor`,
    /// interning formulas in the caller's arena.
    pub fn new(comp: &'a DistributedComputation, next_anchor: u64, interner: &'i mut A) -> Self {
        SegmentSolver {
            engine: Engine::new(comp, next_anchor, usize::MAX, interner),
        }
    }

    /// Limits the number of distinct rewritten formulas per
    /// [`SegmentSolver::progress`] call.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is 0 (see [`ProgressionQuery::with_limit`]).
    pub fn with_limit(mut self, limit: usize) -> Self {
        assert!(
            limit > 0,
            "SegmentSolver::with_limit: the solution limit must be at least 1"
        );
        self.engine.limit = limit;
        self
    }

    /// Selects the exploration engine (default: [`ExploreEngine::WorkStack`]).
    /// Both engines produce identical results and statistics; the reference
    /// engine exists as a differential baseline.
    pub fn with_engine(mut self, engine: ExploreEngine) -> Self {
        self.engine.mode = engine;
        self
    }

    /// Progresses one pending formula over the segment, returning the distinct
    /// rewritten formulas as interner ids.
    pub fn progress(&mut self, psi: FormulaId) -> InternedProgression {
        #[cfg(feature = "test-panic")]
        self.panic_if_marked(psi);
        let before = self.engine.stats;
        self.engine.found.clear();
        self.engine.run(psi, &mut |_, _| false);
        InternedProgression {
            formulas: std::mem::take(&mut self.engine.found),
            stats: self.engine.stats.delta_since(&before),
        }
    }

    /// Cumulative statistics over every query run through this solver.
    pub fn stats(&self) -> SolverStats {
        self.engine.stats
    }

    /// Deterministic failure injection for the `test-panic` feature: a
    /// pending formula mentioning the reserved `__panic__` atom panics at
    /// progression entry — before the search touches the arena or the
    /// caches — letting the runtime's panic-isolation path be driven from
    /// tests without unsafe hooks or extra dependencies.
    #[cfg(feature = "test-panic")]
    fn panic_if_marked(&self, psi: FormulaId) {
        let phi = ArenaOps::resolve(&*self.engine.interner, psi);
        if phi.atoms().iter().any(|p| p.name() == "__panic__") {
            panic!("test-panic: progressing a formula marked with the __panic__ atom");
        }
    }
}

/// Convenience wrapper: the set of distinct rewritten formulas of `phi` over
/// `comp`, anchoring residuals at `next_anchor`.
pub fn distinct_progressions(
    comp: &DistributedComputation,
    phi: &Formula,
    next_anchor: u64,
) -> BTreeSet<Formula> {
    ProgressionQuery::new(comp, next_anchor)
        .distinct_progressions(phi)
        .formulas
}

/// The set of verdicts `[(E, ⇝) ⊨F φ]` of a complete computation, computed
/// symbolically (without enumerating traces). Agrees with
/// [`rvmtl_distrib::all_verdicts`] — that equivalence is checked by the
/// differential tests.
pub fn possible_verdicts(comp: &DistributedComputation, phi: &Formula) -> BTreeSet<bool> {
    let anchor = comp.max_local_time() + comp.epsilon();
    ProgressionQuery::new(comp, anchor)
        .distinct_progressions(phi)
        .verdicts()
}

/// Returns `true` if some trace of the computation yields the verdict
/// `target`; stops searching as soon as a witness is found.
pub fn exists_verdict(comp: &DistributedComputation, phi: &Formula, target: bool) -> bool {
    // Verdicts are a projection of the rewritten formulas, so search all of
    // them but stop as soon as one with the requested verdict appears.
    let anchor = comp.max_local_time() + comp.epsilon();
    let mut interner = Interner::new();
    let psi = interner.intern(phi);
    let mut engine = Engine::new(comp, anchor, usize::MAX, &mut interner);
    engine.run(psi, &mut |interner, id| interner.eval_empty(id) == target)
}

/// Memo key of a search node: `(cut rank, canonical pending time, pending
/// formula)`. Fixed-size, allocation-free, O(1) hash and equality.
///
/// A node stands for every admissible pending time of a *range* when the
/// pending formula is time-invariant or the range sweeps one shift-normal
/// zone; the canonical representative of such a range is its earliest time
/// (see [`Engine::explore`]). Nodes are additionally rewritten to their
/// *zone representative* before the lookup (see [`Engine::canonical_node`]):
/// while every live window lies strictly in the future, the pending time is
/// advanced toward the window anchor and the pending formula translated down
/// in step, so translates of one obligation encountered at different
/// absolute times share a single memo entry.
type NodeKey = (u128, u64, FormulaId);

/// The per-segment solver caches: the search memo, the feasibility cache,
/// the per-cut `enabled`/`frontier`/earliest-window caches and the cut
/// ranker, shared by every pending formula a [`SegmentSolver`] progresses
/// through its segment.
struct SegmentCaches {
    /// Maps cuts to unique ranks (see [`CutRanker`]).
    ranker: CutRanker,
    /// Contribution sets per node, stored as sorted deduplicated boxed
    /// slices (the sets are tiny for most nodes; a flat slice beats a tree
    /// set on both build and replay). The open-addressed
    /// [`MemoTable`] folds the activation lookup and the completion insert
    /// into a single hash walk per node via staged slots.
    memo: MemoTable<NodeKey, Box<[FormulaId]>>,
    feasibility: FxHashMap<(u128, u64), bool>,
    /// `cut.enabled()` per cut rank.
    enabled_cache: FxHashMap<u128, Arc<[EventId]>>,
    /// `cut.frontier_state()` per cut rank, pre-interned in the formula arena
    /// so progressions against it are memoised on a 4-byte key.
    frontier_cache: FxHashMap<u128, StateKey>,
    /// Earliest admissible window start over the enabled events, per cut
    /// rank — the bound up to which a node's pending time can be advanced
    /// without changing its children (see [`Engine::canonical_node`]).
    min_lo_cache: FxHashMap<u128, u64>,
    /// Key/result buffers of the batched probe splitters, pooled across
    /// every progression of the segment (scratch).
    probe: ProbeScratch,
    /// Residual ranges of the event currently being progressed (scratch).
    splits: Vec<SplitRange>,
    /// Pooled per-depth frames and cuts of the work-stack engine (scratch).
    stack: StackScratch,
}

impl SegmentCaches {
    /// Fresh caches for one segment.
    fn new(comp: &DistributedComputation) -> Self {
        SegmentCaches {
            ranker: CutRanker::new(comp),
            memo: MemoTable::default(),
            feasibility: FxHashMap::default(),
            enabled_cache: FxHashMap::default(),
            frontier_cache: FxHashMap::default(),
            min_lo_cache: FxHashMap::default(),
            probe: ProbeScratch::default(),
            splits: Vec::new(),
            stack: StackScratch::default(),
        }
    }
}

/// Assigns every cut of one computation a unique `u128` rank.
///
/// The fast path ranks a cut by its mixed-radix value over the per-process
/// event counts (`rank = Σ counts[p]·stride[p]`), maintained incrementally by
/// `+stride[p]` as the search appends events. When the lattice has more than
/// `u128::MAX` points (hundreds of mostly-idle processes — the lattice is
/// astronomically larger than anything the search will visit, which prunes
/// through time windows), ranks fall back to interning the count vectors of
/// the cuts actually reached, which stay dense.
enum CutRanker {
    Strides(Vec<u128>),
    Interned(FxHashMap<Box<[usize]>, u128>),
}

impl CutRanker {
    fn new(comp: &DistributedComputation) -> Self {
        let mut strides = Vec::with_capacity(comp.process_count());
        let mut acc: u128 = 1;
        for p in 0..comp.process_count() {
            strides.push(acc);
            let radix = comp.events_of(p.into()).len() as u128 + 1;
            acc = match acc.checked_mul(radix) {
                Some(next) => next,
                None => return CutRanker::Interned(FxHashMap::default()),
            };
        }
        CutRanker::Strides(strides)
    }

    /// The rank of the empty cut. In the interned mode rank 0 is reserved for
    /// it: the empty cut is never produced by `child` (every child contains at
    /// least one event), and `child` assigns ids starting at 1.
    fn root(&mut self) -> u128 {
        0
    }

    /// The rank of `next_cut`, reached from a cut of rank `parent` by one
    /// event of `process`.
    fn child(&mut self, parent: u128, next_cut: &Cut, process: usize) -> u128 {
        match self {
            CutRanker::Strides(strides) => parent + strides[process],
            CutRanker::Interned(ids) => {
                // Ids start at 1; 0 names the empty cut (see `root`).
                let next = ids.len() as u128 + 1;
                *ids.entry(next_cut.counts().into()).or_insert(next)
            }
        }
    }
}

/// One level of the work-stack engine: a search node mid-expansion holding
/// the flat struct-of-arrays batch of sibling children produced for the
/// event currently being progressed. Frames are pooled per depth in
/// [`StackScratch`] and reinitialised in place, so steady-state descent
/// allocates nothing.
struct Frame {
    /// Cut rank of the node (the cut itself lives at the same index of the
    /// parallel `StackScratch::cuts` array).
    rank: u128,
    /// Canonical pending time of the node.
    time: u64,
    /// Canonical pending formula of the node.
    psi: FormulaId,
    /// Memo slot reserved at activation, redeemed at completion.
    slot: StagedSlot,
    /// Whether the node's cut is empty (gap progression) or not (frontier
    /// progression).
    empty_cut: bool,
    /// The node's enabled events.
    enabled: Arc<[EventId]>,
    /// Next enabled event to progress against.
    event_ix: usize,
    /// Rank of the child cut for the event currently batched.
    next_rank: u128,
    /// SoA sibling batch for the current event: canonical pending times…
    batch_times: Vec<u64>,
    /// …residual pending formulas…
    batch_ids: Vec<FormulaId>,
    /// …and merged-away time points per sibling (the width of the range the
    /// sibling canonically represents; 0 for per-tick children).
    batch_merged: Vec<u64>,
    /// Next sibling of the batch to activate.
    child_ix: usize,
    /// The node's contribution set, assembled as its children finish.
    local: Vec<FormulaId>,
}

impl Frame {
    fn new() -> Self {
        Frame {
            rank: 0,
            time: 0,
            psi: FormulaId::TRUE,
            slot: StagedSlot::invalid(),
            empty_cut: true,
            enabled: Vec::new().into(),
            event_ix: 0,
            next_rank: 0,
            batch_times: Vec::new(),
            batch_ids: Vec::new(),
            batch_merged: Vec::new(),
            child_ix: 0,
            local: Vec::new(),
        }
    }
}

/// The pooled per-depth state of the work-stack engine: one [`Frame`] and one
/// [`Cut`] per search depth, grown on first use and reused across every
/// progression of the segment.
///
/// Invariant: `cuts[0]` is the empty cut and is never rewritten — the driver
/// only ever writes `cuts[depth + 1]` (via [`Cut::extended_into`]), and depth
/// starts at 0.
#[derive(Default)]
struct StackScratch {
    frames: Vec<Frame>,
    cuts: Vec<Cut>,
}

impl StackScratch {
    /// Ensures depth `depth + 1` (a frame and cut for both the level and its
    /// child) exists.
    fn ensure_levels(&mut self, depth: usize, process_count: usize) {
        while self.frames.len() < depth + 2 {
            self.frames.push(Frame::new());
        }
        while self.cuts.len() < depth + 2 {
            self.cuts.push(Cut::empty(process_count));
        }
    }
}

/// Outcome of activating a search node in the work-stack engine.
enum Activation {
    /// The node resolved without descending (memo hit, constant cutoff, dead
    /// branch or completed sequence); the flag is the node's stop signal
    /// (`stop` accepted a formula or the limit was reached).
    Finished(bool),
    /// The node initialised its frame and the driver must descend into it.
    Descended,
}

/// One driver-loop action, computed inside the borrow region over the split
/// frame/cut arrays and executed after those borrows end.
enum Action {
    /// Nothing to do (empty window, sibling handed off, batch refilled).
    Advance,
    /// A child frame was initialised; descend.
    Descend,
    /// The frame at the current depth finished without stopping; pop.
    Pop,
    /// The root frame finished with the given stop signal.
    Return(bool),
    /// A stop signal fired at the current depth; unwind raw contribution
    /// sets from `depth` to the root and return `true`.
    Unwind,
    /// The frame at the current depth finished *with* a stop signal: pop
    /// first, then unwind from the parent.
    PopUnwind,
}

struct Engine<'a, 'i, A: ArenaOps> {
    comp: &'a DistributedComputation,
    next_anchor: u64,
    limit: usize,
    /// Hash-consed formula arena, borrowed from the caller so it can span
    /// several segments (and every pending formula of each).
    interner: &'i mut A,
    /// The per-segment caches (memo, feasibility, per-cut tables, ranker).
    caches: SegmentCaches,
    stats: SolverStats,
    found: BTreeSet<FormulaId>,
    /// Which traversal runs the search (see [`ExploreEngine`]).
    mode: ExploreEngine,
}

/// Early-stop predicate over found formulas; receives the arena so it can
/// inspect (e.g. finalize) the formula without resolving it to a tree.
type StopFn<'s, A> = dyn FnMut(&A, FormulaId) -> bool + 's;

impl<'a, 'i, A: ArenaOps> Engine<'a, 'i, A> {
    fn new(
        comp: &'a DistributedComputation,
        next_anchor: u64,
        limit: usize,
        interner: &'i mut A,
    ) -> Self {
        Engine {
            comp,
            next_anchor,
            limit,
            interner,
            caches: SegmentCaches::new(comp),
            stats: SolverStats::default(),
            found: BTreeSet::new(),
            mode: ExploreEngine::default(),
        }
    }

    /// Explores the full search space for `psi`. Returns `true` if `stop`
    /// accepted a formula (or the limit was reached) before exhaustion.
    fn run(&mut self, psi: FormulaId, stop: &mut StopFn<'_, A>) -> bool {
        let mut sink = Vec::new();
        match self.mode {
            ExploreEngine::WorkStack => self.run_stack(psi, stop, &mut sink),
            ExploreEngine::Reference => {
                let initial_cut = Cut::empty(self.comp.process_count());
                let root = self.caches.ranker.root();
                self.explore(
                    &initial_cut,
                    root,
                    self.comp.base_time(),
                    psi,
                    stop,
                    &mut sink,
                )
            }
        }
    }

    fn into_parts(self) -> (BTreeSet<FormulaId>, SolverStats) {
        (self.found, self.stats)
    }

    /// The events that can consistently extend the cut, computed once per cut
    /// rank.
    fn enabled(&mut self, cut: &Cut, rank: u128) -> Arc<[EventId]> {
        if let Some(cached) = self.caches.enabled_cache.get(&rank) {
            return Arc::clone(cached);
        }
        let enabled: Arc<[EventId]> = cut.enabled(self.comp).into();
        self.caches.enabled_cache.insert(rank, Arc::clone(&enabled));
        enabled
    }

    /// The frontier state of the cut, computed and interned once per cut
    /// rank.
    fn frontier(&mut self, cut: &Cut, rank: u128) -> StateKey {
        if let Some(&cached) = self.caches.frontier_cache.get(&rank) {
            return cached;
        }
        let key = self.interner.intern_state(&cut.frontier_state(self.comp));
        self.caches.frontier_cache.insert(rank, key);
        key
    }

    /// The earliest admissible window start over the cut's enabled events,
    /// computed once per cut rank. A node whose pending time lies below this
    /// bound schedules its next event in exactly the same time range as a
    /// node at the bound — pending time only matters once it *clips* a
    /// window.
    fn min_enabled_lo(&mut self, cut: &Cut, rank: u128) -> u64 {
        if let Some(&cached) = self.caches.min_lo_cache.get(&rank) {
            return cached;
        }
        let enabled = self.enabled(cut, rank);
        let min_lo = enabled
            .iter()
            .map(|&event| self.comp.time_window(event).0)
            .min()
            .unwrap_or(0);
        self.caches.min_lo_cache.insert(rank, min_lo);
        min_lo
    }

    /// Rewrites a search node to its *shift-normal zone representative*
    /// before memo lookup and exploration. Sound whenever advancing the
    /// pending time does not change the node's subtree:
    ///
    /// * the pending time may advance up to [`Engine::min_enabled_lo`] —
    ///   below that bound it clips no event window, so the children (event,
    ///   occurrence-time) pairs are unchanged;
    /// * a time-invariant pending formula is unaffected by the advance (its
    ///   progressions ignore elapsed time), so the node at the bound is
    ///   *equal* to the original;
    /// * a pending formula with shift slack σ ≥ 1 is translated down in step
    ///   with the advance (capped at σ − 1, so the first window stays
    ///   strictly in the future and the observation keeps falling outside
    ///   it): by the translation lemma of
    ///   [`rvmtl_mtl::Interner::shift_slack`] the progressions of the
    ///   translated pair coincide with the original's at every matching
    ///   absolute time.
    ///
    /// Two obligations that are time-translates of each other therefore meet
    /// in one memo entry keyed by their common zone representative — a memo
    /// entry earned at one absolute time is a hit at every translate.
    ///
    /// # Shift-free fast path
    ///
    /// When the arena's shift watermark ([`ArenaOps::ever_shifted`]) is down
    /// — no node with a nonzero finite slack was ever interned, the common
    /// case for specifications whose windows all start at zero — every
    /// pending formula provably has slack 0 or `u64::MAX`, so the only
    /// rewrite this method can ever perform is the time-invariant advance.
    /// The fast path decides that from the fused metadata record alone and
    /// skips the zone branching wholesale; by construction it returns exactly
    /// what the general path would, so search shapes (and the pinned
    /// explored-state counts) are bit-identical with the watermark up or
    /// down.
    fn canonical_node(
        &mut self,
        cut: &Cut,
        rank: u128,
        pending_time: u64,
        psi: FormulaId,
    ) -> (u64, FormulaId) {
        // One fused read serves the invariance check and the slack branch.
        let meta = self.interner.node_meta(psi);
        let invariant = meta.horizon == 0;
        if !self.interner.ever_shifted() {
            // Shift-free arena: slack is 0 (open window — no rewrite) or MAX
            // (propositional, hence invariant). Only the invariant advance
            // below can apply.
            if !invariant {
                return (pending_time, psi);
            }
        } else if !invariant && (meta.slack == 0 || meta.slack == u64::MAX) {
            // Cheap early-out for the common case: a formula with an open
            // window (slack 0) and time-dependent progression admits no
            // rewrite at all — skip the per-cut bound lookup entirely.
            return (pending_time, psi);
        }
        let bound = if cut.is_full(self.comp) {
            // No events left: only the final anchor remains, and the step to
            // it tolerates any pending time up to the anchor.
            self.next_anchor
        } else {
            self.min_enabled_lo(cut, rank)
        };
        if pending_time >= bound {
            return (pending_time, psi);
        }
        if invariant {
            self.stats.shift_normalized_nodes += 1;
            return (bound, psi);
        }
        let canonical_time = bound.min(pending_time.saturating_add(meta.slack - 1));
        if canonical_time == pending_time {
            return (pending_time, psi);
        }
        let translated = self
            .interner
            .translate_down(psi, canonical_time - pending_time);
        self.stats.shift_normalized_nodes += 1;
        (canonical_time, translated)
    }

    /// Returns `true` if the remaining events of `cut` can be scheduled with
    /// monotone times starting at `pending_time` (every event within its ±ε
    /// window). Used to close branches whose pending formula has already
    /// collapsed to a constant: the constant only counts as a solution if the
    /// cut sequence can actually be completed.
    fn can_complete(&mut self, cut: &Cut, rank: u128, pending_time: u64) -> bool {
        if cut.is_full(self.comp) {
            return true;
        }
        let key = (rank, pending_time);
        if let Some(&cached) = self.caches.feasibility.get(&key) {
            return cached;
        }
        let mut feasible = false;
        let enabled = self.enabled(cut, rank);
        for &event in enabled.iter() {
            let (lo, hi) = self.comp.time_window(event);
            let lo = lo.max(pending_time);
            if lo > hi {
                continue;
            }
            let next_cut = cut.extended(self.comp, event);
            let next_rank =
                self.caches
                    .ranker
                    .child(rank, &next_cut, self.comp.event(event).process.0);
            // Scheduling the event as early as possible dominates any later
            // choice for feasibility purposes.
            if self.can_complete(&next_cut, next_rank, lo) {
                feasible = true;
                break;
            }
        }
        self.caches.feasibility.insert(key, feasible);
        feasible
    }

    /// Progression of the pending formula when one more observation (or the
    /// end of the segment) arrives at time `next_time`. The pending formula
    /// is anchored at `pending_time` (for the empty cut that is the
    /// segment's base, possibly advanced by the zone canonicalisation — the
    /// formula was translated down in step, so the gap is measured from the
    /// canonical anchor).
    fn step(
        &mut self,
        cut: &Cut,
        rank: u128,
        pending_time: u64,
        psi: FormulaId,
        next_time: u64,
    ) -> FormulaId {
        if cut.size() == 0 {
            // No observation is pending yet: only time has passed since the
            // formula's anchor.
            self.interner
                .progress_gap_cached(psi, next_time.saturating_sub(pending_time))
        } else {
            let key = self.frontier(cut, rank);
            self.interner
                .progress_one_cached(key, psi, next_time.saturating_sub(pending_time))
        }
    }

    /// Explores the search space rooted at the given node. Every final
    /// rewritten formula of the subtree is inserted into `self.found` and into
    /// the caller's `sink` (the parent node's contribution set, assembled in
    /// this same pass — this is what makes the search single-pass). Returns
    /// `true` (and stops) as soon as `stop` accepts one of the found formulas
    /// or the configured limit is reached; a node abandoned early caches
    /// nothing, so the memo only ever holds complete contribution sets.
    ///
    /// # Time-interval abstraction and shift-normal zones
    ///
    /// The admissible occurrence times of an enabled event are *not* branched
    /// on one tick at a time. The window is partitioned by
    /// [`Interner::progress_one_over`] into maximal [`rvmtl_mtl::SplitRange`]s,
    /// and each range contributes:
    ///
    /// * **one** child node at the range's earliest time when the residual is
    ///   time-invariant ([`Interner::is_time_invariant`]). This is sound and
    ///   complete because a time-invariant pending formula rewrites the same
    ///   way along every schedule regardless of timing, so the set of final
    ///   formulas reachable from pending time `t` is exactly the set of
    ///   event schedules completable with monotone in-window times `≥ t` —
    ///   which shrinks monotonically in `t`. The union over a range therefore
    ///   equals the contribution of its infimum, which becomes the range's
    ///   canonical memo representative.
    /// * **one** child node at the earliest time of a
    ///   [`RangeKind::Translated`] range — the ticks of such a range sweep
    ///   one shift-normal zone (the residuals are exact time-translates with
    ///   a common window anchor and shifts ≥ 1), so later members schedule a
    ///   subset of the event times available to the earliest one while
    ///   producing identical residuals at matching absolute times: their
    ///   contributions nest, and the union over the range again equals the
    ///   contribution of its infimum. This is what caps the per-event
    ///   branching at the live window *width* (plus the open-window ticks)
    ///   instead of the full temporal horizon — the ε-saturation point of a
    ///   delayed-window formula drops below its horizon.
    /// * one child node per tick otherwise (the residual still holds a live
    ///   open bounded interval, so different pending times genuinely differ)
    ///   — but the residual itself is computed once per range, not per tick.
    fn explore(
        &mut self,
        cut: &Cut,
        rank: u128,
        pending_time: u64,
        psi: FormulaId,
        stop: &mut StopFn<'_, A>,
        sink: &mut Vec<FormulaId>,
    ) -> bool {
        if self.found.len() >= self.limit {
            return true;
        }
        // Rewrite to the zone representative first: translates of one
        // obligation share a single memo entry and a single subtree.
        let (pending_time, psi) = self.canonical_node(cut, rank, pending_time, psi);
        let key: NodeKey = (rank, pending_time, psi);
        if let Some(cached) = self.caches.memo.get(&key) {
            self.stats.memo_hits += 1;
            sink.extend(cached.iter().copied());
            // Field-disjoint borrows: the cached slice lives in
            // `self.caches`, the replay touches only `found`/`interner`.
            let (found, interner, limit) = (&mut self.found, &mut *self.interner, self.limit);
            for &f in cached.iter() {
                let hit = stop(interner, f);
                found.insert(f);
                if hit || found.len() >= limit {
                    return true;
                }
            }
            return false;
        }
        self.stats.explored_states += 1;
        let mut local: Vec<FormulaId> = Vec::new();
        let mut stopped = false;

        if psi.is_constant() && self.can_complete(cut, rank, pending_time) {
            // The verdict can no longer change: every feasible extension
            // produces the same rewritten formula.
            self.stats.constant_cutoffs += 1;
            local.push(psi);
        } else if psi.is_constant() {
            // Dead branch: the remaining events cannot be scheduled, so this
            // partial interleaving corresponds to no trace at all.
        } else if cut.is_full(self.comp) {
            self.stats.completed_sequences += 1;
            let final_formula = self.step(cut, rank, pending_time, psi, self.next_anchor);
            local.push(final_formula);
        } else {
            let enabled = self.enabled(cut, rank);
            'outer: for &event in enabled.iter() {
                let (lo, hi) = self.comp.time_window(event);
                let lo = lo.max(pending_time);
                if lo > hi {
                    continue;
                }
                let next_cut = cut.extended(self.comp, event);
                let next_rank =
                    self.caches
                        .ranker
                        .child(rank, &next_cut, self.comp.event(event).process.0);
                // One batched splitter call per (node, event): the cache
                // probes for the whole admissible window are issued as one
                // contiguous walk, misses resolved together.
                let mut splits: Vec<SplitRange> = Vec::new();
                let probes = if cut.size() == 0 {
                    // No observation is pending yet: only time has passed
                    // since the formula's (canonical) anchor.
                    self.interner.progress_gap_over_batched(
                        psi,
                        pending_time,
                        lo,
                        hi,
                        &mut self.caches.probe,
                        &mut splits,
                    )
                } else {
                    let key = self.frontier(cut, rank);
                    self.interner.progress_one_over_batched(
                        key,
                        pending_time,
                        psi,
                        lo,
                        hi,
                        &mut self.caches.probe,
                        &mut splits,
                    )
                };
                self.stats.frontier_batches += 1;
                self.stats.batched_probe_ticks += probes;
                self.stats.time_splits += splits.len();
                for range in splits {
                    let collapse = range.kind == RangeKind::Translated
                        || self.interner.is_time_invariant(range.residual);
                    if collapse {
                        // The whole range is subsumed by its earliest time
                        // (see the method documentation).
                        self.stats.merged_time_points += (range.hi - range.lo) as usize;
                        stopped |= self.explore(
                            &next_cut,
                            next_rank,
                            range.lo,
                            range.residual,
                            stop,
                            &mut local,
                        );
                        if stopped {
                            break 'outer;
                        }
                    } else {
                        for t in range.lo..=range.hi {
                            stopped |= self.explore(
                                &next_cut,
                                next_rank,
                                t,
                                range.residual,
                                stop,
                                &mut local,
                            );
                            if stopped {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            if stopped {
                // Partial exploration: surface what was found but do not
                // memoise an incomplete set.
                sink.extend(local.iter().copied());
                return true;
            }
        }

        // Children of different events/time ranges may have contributed the
        // same rewritten formula; canonicalise once per node.
        local.sort_unstable();
        local.dedup();
        for &f in &local {
            if stop(self.interner, f) {
                stopped = true;
            }
            self.found.insert(f);
        }
        sink.extend(local.iter().copied());
        self.caches.memo.insert(key, local.into());
        stopped || self.found.len() >= self.limit
    }

    /// Work-stack traversal: the same search as [`Engine::explore`] (same
    /// visit order, same stats, same memo content) driven by an explicit
    /// stack of pooled [`Frame`]s instead of recursion. The scratch is taken
    /// out of the caches for the duration of the run so the driver can split
    /// its arrays while calling `&mut self` methods.
    fn run_stack(
        &mut self,
        psi: FormulaId,
        stop: &mut StopFn<'_, A>,
        sink: &mut Vec<FormulaId>,
    ) -> bool {
        let mut scratch = mem::take(&mut self.caches.stack);
        let stopped = self.drive(&mut scratch, psi, stop, sink);
        self.caches.stack = scratch;
        stopped
    }

    fn drive(
        &mut self,
        scratch: &mut StackScratch,
        psi: FormulaId,
        stop: &mut StopFn<'_, A>,
        sink: &mut Vec<FormulaId>,
    ) -> bool {
        let process_count = self.comp.process_count();
        scratch.ensure_levels(0, process_count);
        let root_rank = self.caches.ranker.root();
        let base_time = self.comp.base_time();
        {
            let root_cut = &scratch.cuts[0];
            let root_frame = &mut scratch.frames[0];
            match self.activate(root_cut, root_rank, base_time, psi, stop, sink, root_frame) {
                Activation::Finished(stopped) => return stopped,
                Activation::Descended => {}
            }
        }
        let mut depth = 0usize;
        loop {
            scratch.ensure_levels(depth, process_count);
            // Split the pooled arrays around `depth` so the node's cut/frame,
            // its child's cut/frame and its parent's sink can be borrowed
            // simultaneously (all disjoint from `self`).
            let action = {
                let (cuts_here, cuts_child) = scratch.cuts.split_at_mut(depth + 1);
                let cut = &cuts_here[depth];
                let child_cut = &mut cuts_child[0];
                let (frames_above, frames_here) = scratch.frames.split_at_mut(depth);
                let (frame, child_frame) = match frames_here {
                    [frame, child_frame, ..] => (frame, child_frame),
                    _ => unreachable!("ensure_levels grew the frame pool"),
                };
                if frame.child_ix < frame.batch_times.len() {
                    // Phase A: activate the next sibling of the current
                    // batch. The range width it canonically represents is
                    // accounted before activation, exactly where the
                    // recursive engine counts it.
                    let i = frame.child_ix;
                    frame.child_ix += 1;
                    self.stats.merged_time_points += frame.batch_merged[i] as usize;
                    match self.activate(
                        child_cut,
                        frame.next_rank,
                        frame.batch_times[i],
                        frame.batch_ids[i],
                        stop,
                        &mut frame.local,
                        child_frame,
                    ) {
                        Activation::Finished(true) => Action::Unwind,
                        Activation::Finished(false) => Action::Advance,
                        Activation::Descended => Action::Descend,
                    }
                } else if frame.event_ix < frame.enabled.len() {
                    // Phase B: progress the node against its next enabled
                    // event and flatten the resulting residual ranges into
                    // the SoA sibling batch.
                    let event = frame.enabled[frame.event_ix];
                    frame.event_ix += 1;
                    let (lo, hi) = self.comp.time_window(event);
                    let lo = lo.max(frame.time);
                    if lo > hi {
                        Action::Advance
                    } else {
                        cut.extended_into(self.comp, event, child_cut);
                        frame.next_rank = self.caches.ranker.child(
                            frame.rank,
                            child_cut,
                            self.comp.event(event).process.0,
                        );
                        let probes = if frame.empty_cut {
                            self.interner.progress_gap_over_batched(
                                frame.psi,
                                frame.time,
                                lo,
                                hi,
                                &mut self.caches.probe,
                                &mut self.caches.splits,
                            )
                        } else {
                            let key = self.frontier(cut, frame.rank);
                            self.interner.progress_one_over_batched(
                                key,
                                frame.time,
                                frame.psi,
                                lo,
                                hi,
                                &mut self.caches.probe,
                                &mut self.caches.splits,
                            )
                        };
                        self.stats.frontier_batches += 1;
                        self.stats.batched_probe_ticks += probes;
                        self.stats.time_splits += self.caches.splits.len();
                        frame.batch_times.clear();
                        frame.batch_ids.clear();
                        frame.batch_merged.clear();
                        frame.child_ix = 0;
                        for range in self.caches.splits.iter() {
                            let collapse = range.kind == RangeKind::Translated
                                || self.interner.is_time_invariant(range.residual);
                            if collapse {
                                // The whole range is subsumed by its
                                // earliest time (see [`Engine::explore`]).
                                frame.batch_times.push(range.lo);
                                frame.batch_ids.push(range.residual);
                                frame.batch_merged.push(range.hi - range.lo);
                            } else {
                                for t in range.lo..=range.hi {
                                    frame.batch_times.push(t);
                                    frame.batch_ids.push(range.residual);
                                    frame.batch_merged.push(0);
                                }
                            }
                        }
                        Action::Advance
                    }
                } else {
                    // Phase C: every event batched and every sibling
                    // activated — the node's contribution set is complete.
                    let key: NodeKey = (frame.rank, frame.time, frame.psi);
                    let parent_sink: &mut Vec<FormulaId> = match frames_above.last_mut() {
                        Some(parent) => &mut parent.local,
                        None => &mut *sink,
                    };
                    let stopped =
                        self.finish_node(key, frame.slot, &mut frame.local, parent_sink, stop);
                    if depth == 0 {
                        Action::Return(stopped)
                    } else if stopped {
                        Action::PopUnwind
                    } else {
                        Action::Pop
                    }
                }
            };
            match action {
                Action::Advance => {}
                Action::Descend => depth += 1,
                Action::Pop => depth -= 1,
                Action::Return(stopped) => return stopped,
                Action::Unwind => {
                    unwind_raw(scratch, depth, sink);
                    return true;
                }
                Action::PopUnwind => {
                    depth -= 1;
                    unwind_raw(scratch, depth, sink);
                    return true;
                }
            }
        }
    }

    /// Activates a search node in the work-stack engine: the limit check,
    /// zone canonicalisation, staged memo probe and leaf resolution of
    /// [`Engine::explore`], in the same order. Interior nodes initialise
    /// `frame` in place and descend.
    #[allow(clippy::too_many_arguments)]
    fn activate(
        &mut self,
        cut: &Cut,
        rank: u128,
        pending_time: u64,
        psi: FormulaId,
        stop: &mut StopFn<'_, A>,
        parent_sink: &mut Vec<FormulaId>,
        frame: &mut Frame,
    ) -> Activation {
        if self.found.len() >= self.limit {
            return Activation::Finished(true);
        }
        let (time, psi) = self.canonical_node(cut, rank, pending_time, psi);
        let key: NodeKey = (rank, time, psi);
        // One hash walk serves both the activation lookup and (on a miss)
        // the completion insert, via the staged slot.
        let slot = match self.caches.memo.probe(&key) {
            MemoProbe::Hit(ix) => {
                self.stats.memo_hits += 1;
                let cached = self.caches.memo.value(ix);
                parent_sink.extend(cached.iter().copied());
                // Field-disjoint borrows: the cached slice lives in
                // `self.caches`, the replay touches only `found`/`interner`.
                let (found, interner, limit) = (&mut self.found, &mut *self.interner, self.limit);
                for &f in cached.iter() {
                    let hit = stop(interner, f);
                    found.insert(f);
                    if hit || found.len() >= limit {
                        return Activation::Finished(true);
                    }
                }
                return Activation::Finished(false);
            }
            MemoProbe::Miss(slot) => slot,
        };
        self.stats.explored_states += 1;
        if psi.is_constant() {
            frame.local.clear();
            if self.can_complete(cut, rank, time) {
                // The verdict can no longer change: every feasible extension
                // produces the same rewritten formula.
                self.stats.constant_cutoffs += 1;
                frame.local.push(psi);
            }
            // (An empty set is the dead-branch case: the remaining events
            // cannot be scheduled, so this partial interleaving corresponds
            // to no trace at all.)
            let stopped = self.finish_node(key, slot, &mut frame.local, parent_sink, stop);
            return Activation::Finished(stopped);
        }
        if cut.is_full(self.comp) {
            self.stats.completed_sequences += 1;
            let final_formula = self.step(cut, rank, time, psi, self.next_anchor);
            frame.local.clear();
            frame.local.push(final_formula);
            let stopped = self.finish_node(key, slot, &mut frame.local, parent_sink, stop);
            return Activation::Finished(stopped);
        }
        frame.rank = rank;
        frame.time = time;
        frame.psi = psi;
        frame.slot = slot;
        frame.empty_cut = cut.size() == 0;
        frame.enabled = self.enabled(cut, rank);
        frame.event_ix = 0;
        frame.next_rank = 0;
        frame.batch_times.clear();
        frame.batch_ids.clear();
        frame.batch_merged.clear();
        frame.child_ix = 0;
        frame.local.clear();
        Activation::Descended
    }

    /// Completes a node: canonicalises its contribution set, scans it
    /// against `stop`/`found`, hands it to the parent's sink and redeems the
    /// staged memo slot. Mirrors the tail of [`Engine::explore`] exactly
    /// (including scanning the full set even after a stop hit — the set is
    /// complete, so it is memoised either way).
    fn finish_node(
        &mut self,
        key: NodeKey,
        slot: StagedSlot,
        local: &mut Vec<FormulaId>,
        parent_sink: &mut Vec<FormulaId>,
        stop: &mut StopFn<'_, A>,
    ) -> bool {
        local.sort_unstable();
        local.dedup();
        let mut stopped = false;
        for &f in local.iter() {
            if stop(self.interner, f) {
                stopped = true;
            }
            self.found.insert(f);
        }
        parent_sink.extend(local.iter().copied());
        self.caches
            .memo
            .insert_staged(slot, key, local.as_slice().into());
        stopped || self.found.len() >= self.limit
    }
}

/// Drains the raw (unsorted, unmemoised) contribution sets from `from` down
/// to the root into `sink` — the work-stack analog of the recursive engine's
/// early-stop path, where every ancestor surfaces what was found so far but
/// memoises nothing (its set is incomplete).
fn unwind_raw(scratch: &mut StackScratch, from: usize, sink: &mut Vec<FormulaId>) {
    let mut depth = from;
    loop {
        if depth == 0 {
            sink.append(&mut scratch.frames[0].local);
            return;
        }
        let (above, here) = scratch.frames.split_at_mut(depth);
        above[depth - 1].local.append(&mut here[0].local);
        depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvmtl_distrib::{all_verdicts, ComputationBuilder};
    use rvmtl_mtl::{parse, state, Interval};

    fn fig3(epsilon: u64) -> DistributedComputation {
        let mut b = ComputationBuilder::new(2, epsilon);
        b.event(0, 1, state!["a"]);
        b.event(0, 4, state![]);
        b.event(1, 2, state!["a"]);
        b.event(1, 5, state!["b"]);
        b.build().unwrap()
    }

    #[test]
    fn verdicts_match_bruteforce_on_fig3() {
        let comp = fig3(2);
        let phi = parse("a U[0,6) b").unwrap();
        assert_eq!(possible_verdicts(&comp, &phi), all_verdicts(&comp, &phi));
        assert_eq!(possible_verdicts(&comp, &phi).len(), 2);
    }

    #[test]
    fn verdicts_match_bruteforce_on_many_formulas() {
        let comp = fig3(2);
        let formulas = [
            "F[0,6) b",
            "G[0,4) a",
            "a U[2,9) b",
            "F[0,3) b",
            "G[0,10) (a | b)",
            "(F[0,6) a) & (F[0,8) b)",
            "!(a U[0,6) b)",
        ];
        for text in formulas {
            let phi = parse(text).unwrap();
            assert_eq!(
                possible_verdicts(&comp, &phi),
                all_verdicts(&comp, &phi),
                "mismatch for {text}"
            );
        }
    }

    #[test]
    fn verdicts_match_bruteforce_with_varying_epsilon() {
        for eps in [1, 2, 3] {
            let comp = fig3(eps);
            let phi = parse("a U[0,6) b").unwrap();
            assert_eq!(
                possible_verdicts(&comp, &phi),
                all_verdicts(&comp, &phi),
                "mismatch for ε = {eps}"
            );
        }
    }

    #[test]
    fn unambiguous_computation_has_single_verdict() {
        let mut b = ComputationBuilder::new(2, 1);
        b.event(0, 1, state!["a"]);
        b.event(1, 3, state!["b"]);
        let comp = b.build().unwrap();
        let phi = parse("a U[0,6) b").unwrap();
        let verdicts = possible_verdicts(&comp, &phi);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts.contains(&true));
    }

    #[test]
    fn exists_verdict_finds_witnesses() {
        let comp = fig3(2);
        let phi = parse("a U[0,6) b").unwrap();
        assert!(exists_verdict(&comp, &phi, true));
        assert!(exists_verdict(&comp, &phi, false));
        let trivially_true = parse("true").unwrap();
        assert!(exists_verdict(&comp, &trivially_true, true));
        assert!(!exists_verdict(&comp, &trivially_true, false));
    }

    #[test]
    fn progression_shrinks_pending_obligation_deterministically() {
        // The Fig. 2 scenario: during the first segment only setup/deposit
        // events occur (no redeem), so the pending until survives. Because
        // residuals are anchored at the next segment's boundary (here 5), the
        // interval shrinks by exactly the boundary offset regardless of the
        // interleaving — the ordering ambiguity of the deposits resurfaces as
        // differing verdicts in the *next* segment instead (see the monitor
        // crate's Fig. 2 end-to-end test).
        let mut b = ComputationBuilder::new(2, 2);
        b.event(0, 1, state!["Apr.SetUp"]);
        b.event(1, 1, state!["Ban.SetUp"]);
        b.event(1, 3, state!["Ban.Deposit(pb)"]);
        b.event(0, 4, state!["Apr.Deposit(pa+pb)"]);
        let comp = b.build().unwrap();
        let phi = parse("!Apr.Redeem(bob) U[0,8) Ban.Redeem(alice)").unwrap();
        let result = ProgressionQuery::new(&comp, 5).distinct_progressions(&phi);
        let expected: Formula = parse("!Apr.Redeem(bob) U[0,3) Ban.Redeem(alice)").unwrap();
        assert_eq!(result.formulas, BTreeSet::from([expected]));
        assert_eq!(
            result
                .formulas
                .iter()
                .map(|f| match f {
                    Formula::Until(_, i, _) => *i,
                    other => panic!("unexpected rewritten formula {other}"),
                })
                .collect::<BTreeSet<_>>(),
            BTreeSet::from([Interval::bounded(0, 3)])
        );
    }

    #[test]
    fn limit_stops_early() {
        let comp = fig3(3);
        let phi = parse("a U[0,6) b").unwrap();
        let limited = ProgressionQuery::new(&comp, 10)
            .with_limit(1)
            .distinct_progressions(&phi);
        assert_eq!(limited.formulas.len(), 1);
        let full = ProgressionQuery::new(&comp, 10).distinct_progressions(&phi);
        assert!(full.formulas.len() >= limited.formulas.len());
    }

    #[test]
    fn memoisation_reduces_work() {
        let mut b = ComputationBuilder::new(2, 3);
        for t in 1..=4u64 {
            b.event(0, 2 * t, state!["p"]);
            b.event(1, 2 * t + 1, state!["q"]);
        }
        let comp = b.build().unwrap();
        let phi = parse("G[0,20) (p | q)").unwrap();
        let result = ProgressionQuery::new(&comp, 30).distinct_progressions(&phi);
        assert!(
            result.stats.memo_hits > 0,
            "expected memo hits: {:?}",
            result.stats
        );
        assert!(result.stats.explored_states > 0);
    }

    #[test]
    fn empty_computation_progresses_by_gap_only() {
        let comp = ComputationBuilder::new(2, 2).build().unwrap();
        let phi = parse("F[0,5) p").unwrap();
        // Anchoring the residual 3 time units later shrinks the interval.
        let res = distinct_progressions(&comp, &phi, 3);
        assert_eq!(res.len(), 1);
        assert_eq!(res.iter().next().unwrap(), &parse("F[0,2) p").unwrap());
        // Anchoring past the deadline resolves it to false.
        let res = distinct_progressions(&comp, &phi, 10);
        assert_eq!(res.iter().next().unwrap(), &Formula::False);
    }

    #[test]
    fn constant_formula_short_circuits() {
        let comp = fig3(2);
        let result = ProgressionQuery::new(&comp, 10).distinct_progressions(&Formula::True);
        assert_eq!(result.formulas.len(), 1);
        assert!(result.stats.constant_cutoffs >= 1);
        assert_eq!(result.verdicts(), BTreeSet::from([true]));
    }

    #[test]
    fn stats_combinators_cover_every_field() {
        // Fill every counter with a distinct nonzero value *without naming
        // the fields*, so a counter added to the macro list is covered here
        // automatically — this is the regression test for the bug class
        // where `delta_since` forgot a newly added counter.
        let mut stats = SolverStats::default();
        let mut next = 1usize;
        let mut field_count = 0usize;
        stats.for_each_field_mut(|_, value| {
            *value = next;
            next += 1;
            field_count += 1;
        });
        assert!(field_count >= 9, "expected at least 9 counters");

        // delta_since(default) must reproduce every field exactly.
        assert_eq!(stats.delta_since(&SolverStats::default()), stats);
        // x.delta_since(x) must be all zeros.
        assert_eq!(stats.delta_since(&stats), SolverStats::default());
        // absorb must double every field.
        let mut doubled = stats;
        doubled.absorb(&stats);
        let mut expected_doubled = SolverStats::default();
        let mut next = 1usize;
        expected_doubled.for_each_field_mut(|_, value| {
            *value = 2 * next;
            next += 1;
        });
        assert_eq!(doubled, expected_doubled);
        // for_each_field must visit the same fields with the same values.
        let mut seen = Vec::new();
        stats.for_each_field(|name, value| seen.push((name, value)));
        assert_eq!(seen.len(), field_count);
        assert!(seen.iter().any(|&(name, _)| name == "frontier_batches"));
        assert!(seen.iter().any(|&(name, _)| name == "batched_probe_ticks"));
    }

    #[test]
    fn engines_agree_on_results_and_stats() {
        let comp = fig3(2);
        for text in ["a U[0,6) b", "G[0,10) (a | b)", "F[0,3) b"] {
            let phi = parse(text).unwrap();
            let work_stack = ProgressionQuery::new(&comp, 10)
                .with_engine(ExploreEngine::WorkStack)
                .distinct_progressions(&phi);
            let reference = ProgressionQuery::new(&comp, 10)
                .with_engine(ExploreEngine::Reference)
                .distinct_progressions(&phi);
            assert_eq!(work_stack.formulas, reference.formulas, "formulas: {text}");
            assert_eq!(work_stack.stats, reference.stats, "stats: {text}");
            assert!(work_stack.stats.frontier_batches > 0, "batches: {text}");
            assert!(work_stack.stats.batched_probe_ticks > 0, "probes: {text}");
        }
    }

    #[test]
    fn engines_agree_under_limit_stop() {
        let comp = fig3(3);
        let phi = parse("a U[0,6) b").unwrap();
        for limit in 1..=3usize {
            let work_stack = ProgressionQuery::new(&comp, 10)
                .with_limit(limit)
                .with_engine(ExploreEngine::WorkStack)
                .distinct_progressions(&phi);
            let reference = ProgressionQuery::new(&comp, 10)
                .with_limit(limit)
                .with_engine(ExploreEngine::Reference)
                .distinct_progressions(&phi);
            assert_eq!(work_stack.formulas, reference.formulas, "limit {limit}");
            assert_eq!(work_stack.stats, reference.stats, "limit {limit}");
        }
    }

    #[test]
    fn finalize_applies_finite_semantics() {
        assert!(finalize(&Formula::True));
        assert!(!finalize(&Formula::False));
        assert!(!finalize(&parse("F[0,5) p").unwrap()));
        assert!(finalize(&parse("G[0,5) p").unwrap()));
        assert!(!finalize(&parse("a U[0,5) b").unwrap()));
        assert!(!finalize(&parse("p").unwrap()));
    }
}
