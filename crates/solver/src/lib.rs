//! An SMT-style decision engine for MTL monitoring under partial synchrony.
//!
//! This crate plays the role of the SMT solver in the paper's architecture
//! (Sec. V): given one segment of a distributed computation and a pending MTL
//! formula, it determines every *distinct* way the segment's admissible traces
//! (consistent-cut sequences × bounded-skew time assignments) can rewrite the
//! formula, and therefore every verdict the segment can justify.
//!
//! Three interfaces are provided:
//!
//! * [`SegmentSolver`] — the monitor-facing API: one solver per segment,
//!   shared by every pending formula, working on [`rvmtl_mtl::FormulaId`]s in
//!   a caller-owned query-spanning [`rvmtl_mtl::Interner`];
//! * [`ProgressionQuery`] / [`distinct_progressions`] / [`possible_verdicts`] —
//!   the self-contained query API over `Formula` trees;
//! * [`SolverInstance`] — an incremental check/block/model loop mirroring how
//!   the paper drives Z3 with blocking clauses (Fig. 5e).
//!
//! The engine is exact: its verdict sets coincide with brute-force
//! enumeration of all traces (`rvmtl_distrib::all_verdicts`), which is
//! verified by differential and property-based tests.
//!
//! # Engine design: interval nodes, memo keys and the formula interner
//!
//! The search is a DFS over `(cut, pending time, pending formula)` nodes; the
//! memo table is consulted once per node visit, so the cost of building and
//! hashing the key — and of taking a progression step — *is* the cost of the
//! solver. Four representation choices keep all of it O(1)-shaped:
//!
//! 1. **Formulas are hash-consed** in an [`rvmtl_mtl::Interner`] *borrowed
//!    from the caller*: [`SegmentSolver`] shares one arena across every
//!    pending formula of a segment, and the monitor keeps that arena alive
//!    across all segments of a query, so the stable parts of the
//!    specification are interned exactly once. Every distinct canonical
//!    formula is stored once and named by a 4-byte [`rvmtl_mtl::FormulaId`];
//!    clone is a copy, equality is an integer compare, and the id doubles as
//!    a perfect hash. The arena's smart constructors canonicalise on the fly,
//!    so simplification-equivalent rewrites deduplicate by construction — the
//!    memo never sees two names for the same pending obligation.
//!
//! 2. **Time is explored per residual, not per tick.** The admissible
//!    occurrence window `[lo, hi]` of an enabled event (width `2ε + 1`) is
//!    partitioned by [`rvmtl_mtl::Interner::progress_one_over`] into maximal
//!    *residual-constant ranges* — at most
//!    `min(hi − lo, temporal_horizon(ψ)) + 1` of them, where the
//!    [temporal horizon](rvmtl_mtl::Interner::temporal_horizon) is the
//!    largest interval endpoint in the pending formula — and the search
//!    recurses once per range. A range whose residual is *time-invariant*
//!    (horizon 0: every live interval is `[0, ∞)`, so progression never
//!    again depends on timing) collapses to a single child at the range's
//!    earliest time: the reachable rewrite set of a time-invariant pending
//!    formula shrinks monotonically in the pending time, so the union over
//!    the range equals the contribution of its infimum. This is what turns
//!    the ε axis from a linear branching factor into a bounded one — beyond
//!    `ε ≈ horizon` the explored-state count saturates (see the
//!    `epsilon_saturation` series of `BENCH_2.json` and
//!    `tests/regression.rs::explored_states_saturate_in_epsilon`).
//!    Progression steps themselves are memoised per node of the formula DAG,
//!    keyed `(frontier state, subformula, min(elapsed, horizon))`
//!    ([`rvmtl_mtl::Interner::progress_one_cached`]), so structurally shared
//!    obligations are progressed once per `(state, elapsed)` across the whole
//!    query.
//!
//! 3. **Cuts are ranked into a `u128`.** A cut of a fixed computation is a
//!    vector of per-process event counts; the engine assigns each process a
//!    mixed-radix stride (`stride[p] = Π_{q<p} (n_q + 1)`) and identifies the
//!    cut with `Σ counts[p]·stride[p]` — a bijection onto `0..Π(n_p+1)`.
//!    Extending a cut by one event of process `p` is `rank + stride[p]`, so
//!    ranks are maintained incrementally and no per-node `Vec` key is ever
//!    materialised. When the lattice exceeds `u128::MAX` points (hundreds of
//!    mostly-idle processes), ranking falls back to interning the count
//!    vectors of the cuts actually visited, which stay dense. The memo key is
//!    the packed triple `(u128 cut rank, u64 canonical pending time,
//!    FormulaId)` hashed with the Fx multiply-xor hasher
//!    ([`rvmtl_mtl::hashing`]) — a time *range* is represented by its
//!    canonical infimum, so range nodes and singleton nodes share one
//!    fixed-size key space and memo hits fire across differently-shaped
//!    parents.
//!
//! 4. **Single-pass accumulation.** Each node's result set (the distinct
//!    rewritten formulas reachable below it) is assembled while its children
//!    are explored for the first time: every recursive call receives the
//!    parent's sink and deposits its contribution directly. Progression
//!    therefore runs once per `(node, event, residual-range)` edge — there is
//!    no second "re-derive by re-walking children" pass — and a node
//!    abandoned by an early stop (solution limit, verdict witness) caches
//!    nothing, keeping the memo free of partial sets. Per-cut derived data
//!    (`enabled()`, the interned frontier state, the earliest enabled window
//!    start) is cached by cut rank and shared by all formulas and time
//!    assignments passing through the cut, and lives as long as the
//!    [`SegmentSolver`], which serves every pending formula of its segment.
//!
//! # Shift-normal zones
//!
//! The interval abstraction of point 2 collapses a time range only when its
//! residual is fully time-invariant. The arena's *shift-normal form*
//! ([`rvmtl_mtl::Interner::shift_slack`] /
//! [`rvmtl_mtl::Interner::normalize`]) extends the collapse to residuals
//! that still carry live bounded windows, as long as those windows have not
//! *opened*: two pending formulas that are exact time-translates of each
//! other (same canonical residual, shifts ≥ 1) do identical future work at
//! matching absolute times, because no observation can fall inside a window
//! that only opens later — the zone/region construction of timed-automata
//! tooling, transplanted onto progression. The engine exploits the
//! equivalence in three places:
//!
//! * **Translated ranges.** [`rvmtl_mtl::Interner::progress_one_over`]
//!   merges consecutive occurrence-time ticks whose residuals are exact unit
//!   translates of one another into a single
//!   [`rvmtl_mtl::RangeKind::Translated`] range, and the search collapses it
//!   to its earliest tick exactly like an invariant range: within one zone,
//!   a later pending time can only schedule a subset of the event times
//!   available to an earlier one while producing identical residuals at
//!   matching absolute times, so the contributions nest and the union over
//!   the range equals its infimum's. Per-event branching is thereby bounded
//!   by the live window *width* (open-region ticks) instead of the temporal
//!   horizon — on delayed-window formulas the ε-saturation point drops
//!   strictly below the horizon (`BENCH_4.json`, `epsilon_dense`;
//!   `tests/regression.rs::explored_states_saturate_below_the_horizon_on_delayed_windows`).
//! * **Zone-canonical memo keys.** Before the memo lookup, a node whose
//!   pending time lies below every enabled window start is rewritten to its
//!   zone representative: the pending time advances to that bound (capped at
//!   `shift slack − 1`, keeping the first window strictly future) and the
//!   pending formula is translated down in step. Translates of one
//!   obligation reached at different absolute times — across parents,
//!   events, and pending formulas — therefore share one `(rank, time, id)`
//!   memo entry: a memo entry earned at one absolute time is a hit at every
//!   translate. The rewrite count is reported as
//!   [`SolverStats::shift_normalized_nodes`].
//! * **Shift-relative progression caches.** The arena's
//!   `one_cache`/`gap_cache` are keyed `(canonical residual, elapsed −
//!   shift)` ([`rvmtl_mtl::Interner::progress_one_cached`]), so the
//!   progression *results* feeding the search are likewise computed once per
//!   zone, not once per absolute anchor — and survive GC compaction exactly
//!   when their canonical endpoints do.
//!
//! The soundness boundary of the whole construction is the shift slack's
//! definition: an `Until` whose left argument is not time-invariant has
//! slack 0 (its left obligation is progressed at observations *before* the
//! window opens, anchoring it absolutely), the shift-0 member of a zone is
//! never merged with its translates (its window is open: the observation
//! participates), and differential suites pin verdict equality against
//! brute-force enumeration across ε sweeps biased to delayed windows.
//!
//! # Fused node metadata and the shift-free fast path
//!
//! The zone machinery must not tax formulas that have no translatable
//! structure (every window starting at zero — the common phi4-style
//! specification). Two representation choices erase that tax:
//!
//! * **Fused metadata records.** Everything the engine asks about a pending
//!   formula besides its children — kind tag, temporal horizon, shift slack,
//!   canonical residual — lives in one dense [`rvmtl_mtl::NodeMeta`] table
//!   entry ([`rvmtl_mtl::Interner::node_meta`]). The pre-memo rewrite and
//!   the range-collapse checks issue a single indexed read where the PR 4
//!   engine walked three parallel side tables, and the progression caches
//!   are keyed by packed `u128` scalars that hash as two words and compare
//!   as one integer instead of field-by-field tuples.
//! * **The arena shift watermark.** An arena that has never interned a
//!   nonzero-finite-slack node reports
//!   [`rvmtl_mtl::Interner::ever_shifted`]` == false`, and every consumer
//!   short-circuits: `normalize` is the identity, cache keys stay in the
//!   direct PR 2 form, and the engine's pre-memo zone rewrite reduces
//!   to the time-invariant advance — provably the only rewrite a shift-free
//!   arena admits, so search shapes (and the pinned explored-state counts)
//!   are bit-identical with the watermark up or down; the
//!   `shift_free_fast_path` property suite asserts exactly that, and the CI
//!   `bench_snapshot --check` gate pins the counters of every sweep against
//!   `BENCH_PINS.json`.
//!
//! # Data-oriented core
//!
//! The representation work above fixes *what* the hot loop touches (packed
//! keys, fused metadata, cached derived data); the work-stack engine
//! ([`ExploreEngine::WorkStack`], the default) additionally fixes *how* it
//! touches it, replacing the recursive explorer with an explicit stack of
//! pooled per-depth frames over struct-of-arrays sibling batches:
//!
//! * **Flat frontier batches.** When a node is progressed against one
//!   enabled event, the admissible window's residual ranges are flattened
//!   into three parallel arrays — pending times, residual ids, merged range
//!   widths — held in the node's pooled frame. All sibling children of one
//!   cut rank therefore live contiguously and are activated by index, with
//!   no per-child allocation: cuts are rewritten in place per depth
//!   ([`rvmtl_distrib::Cut::extended_into`]), and frames/cut/scratch buffers
//!   are pooled in the [`SegmentSolver`] across every progression of a
//!   segment.
//! * **Batched cache probes.** The per-tick progression-cache lookups of a
//!   window are issued as *one* contiguous walk per `(node, event)` batch
//!   ([`rvmtl_mtl::Interner::progress_one_over`] /
//!   [`rvmtl_mtl::Interner::progress_gap_over`]): keys for the whole
//!   window are packed first, probed together, and the misses are resolved
//!   together afterwards. Within one batch all
//!   packed keys are distinct — the shift-relative key coordinate strictly
//!   increases across the run and the horizon clamp is reached only at the
//!   final tick — so probe-all-then-resolve observes exactly the hit/miss
//!   tallies of calling [`rvmtl_mtl::Interner::progress_one_cached`] once
//!   per tick, which keeps the cache counters pinnable. The zone rewrite is likewise amortised: siblings sharing a
//!   canonical residual are batch entries of one splitter call, not repeated
//!   `normalize` walks.
//! * **Staged memo slots.** The search memo is an open-addressed table
//!   whose miss probe returns the slot the key would occupy
//!   (`MemoTable::probe`); the completion insert redeems that slot without a
//!   second hash walk, so each `(rank, time, formula)` triple is hashed once
//!   per node instead of once at activation and once at completion.
//! * **Union-of-contributions survives batching** because batching changes
//!   only the *schedule* of the same edges, not their set: the driver
//!   activates batch entries in the order the recursive engine would have
//!   recursed (events in enabled order, ranges in window order, ticks within
//!   a range in time order), counts merged range widths at the same points,
//!   and assembles each node's contribution set in the same single pass
//!   (children deposit into the parent frame's sink). The retained
//!   recursive engine ([`ExploreEngine::Reference`]) runs the identical
//!   search through the same splitters; the `engine_differential`
//!   suite pins verdict sets *and* full [`SolverStats`] equality between
//!   the two across ε sweeps, property suites and the saturation fixtures.
//!   `BENCH_9.json` records the ns/state gap between them.
//!
//! The batch shape itself is pinned: [`SolverStats::frontier_batches`] (one
//! per `(node, event)` expansion with a non-empty clipped window) and
//! [`SolverStats::batched_probe_ticks`] (per-tick probes issued through the
//! splitters) are structural counts, identical across engines
//! and recorded in `BENCH_PINS.json` like every other search-shape counter.
//!
//! The search-shape counters ([`SolverStats`], including the
//! interval-abstraction counters `time_splits` / `merged_time_points` and
//! the zone counter `shift_normalized_nodes`) are pinned on Fig. 3-style
//! scenarios in `tests/regression.rs`; `BENCH_1.json` … `BENCH_4.json` at
//! the repository root track the resulting throughput on the Fig. 5a
//! workload and the ε/length/dense sweeps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod instance;
mod memo;
mod progression;

pub use instance::{CheckResult, Model, SolverInstance};
pub use progression::{
    distinct_progressions, exists_verdict, finalize, possible_verdicts, ExploreEngine,
    InternedProgression, ProgressionQuery, ProgressionResult, SegmentSolver, SolverStats,
};
