//! The formula-arena abstraction.
//!
//! The solver engine and the monitors are written against [`ArenaOps`],
//! which [`crate::Interner`] implements. Concurrent callers give each thread
//! an arena of its own (the streaming runtime's pipelined path owns one
//! `Interner` per worker), so no implementation needs locks. The trait has
//! two layers:
//!
//! * **Required methods** — node storage, canonicalising smart constructors,
//!   state interning and the two progression caches, which the interner
//!   implements natively with plain vectors and maps.
//! * **Provided methods** — the *algorithms*: memoised single-observation and
//!   gap progression, interval-splitting progression over occurrence windows,
//!   empty-future evaluation, and conversion to/from the plain [`Formula`]
//!   tree. These are written once, here, on top of the required methods.
//!
//! The provided algorithms mirror the documented contracts of the inherent
//! [`crate::Interner`] methods of the same names (see `intern.rs` for the
//! soundness arguments: horizon clamping, invariant-only range merging, the
//! stable tail); the interner's inherent methods delegate here.

use crate::{
    Formula, FormulaId, GapKey, Interval, Node, NodeKind, NodeMeta, OneKey, Prop, ShiftedId, State,
    StateKey,
};

/// Reusable buffers for the batched interval-splitting progressions
/// ([`ArenaOps::progress_one_over_batched`] /
/// [`ArenaOps::progress_gap_over_batched`]). One instance amortises the key,
/// probe-result and residual vectors across every window a caller splits —
/// the solver keeps one per segment, so the batch entry points allocate
/// nothing in steady state.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Packed one-cache keys of the current tick run.
    one_keys: Vec<OneKey>,
    /// Packed gap-cache keys of the current tick run.
    gap_keys: Vec<GapKey>,
    /// Probe results, aligned with the key vector (`None` = miss).
    probes: Vec<Option<FormulaId>>,
    /// Per-tick residuals after misses are resolved.
    residuals: Vec<FormulaId>,
}

/// How the residuals of a [`SplitRange`] vary across the range; see
/// [`crate::Interner::progress_one_over`] for the full contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeKind {
    /// Every time point of the range yields the range's residual.
    Uniform,
    /// The residual at `lo + k` is `translate_down(residual, k)`: the range
    /// sweeps one shift-normal zone (canonical residual constant, shift
    /// decrementing per tick and staying ≥ 1). A caller performing a
    /// union-of-contributions search may collapse the range to its earliest
    /// point, exactly as for a time-invariant `Uniform` range.
    Translated,
}

/// One maximal range of an interval-splitting progression
/// ([`crate::Interner::progress_one_over`] /
/// [`crate::Interner::progress_gap_over`]): the occurrence times `[lo, hi]`
/// (inclusive) together with the residual at `lo` and the law giving the
/// residuals of the remaining points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRange {
    /// Earliest occurrence time of the range.
    pub lo: u64,
    /// Latest occurrence time of the range (inclusive).
    pub hi: u64,
    /// The residual at `lo`.
    pub residual: FormulaId,
    /// How the residuals of the later points relate to `residual`.
    pub kind: RangeKind,
}

/// Operations every formula arena provides; see the module documentation.
///
/// The provided methods implement progression, evaluation and conversion
/// generically; implementors only supply storage, canonicalising constructors
/// and caches. The trait is not object-safe (the interval-splitting helpers
/// take closures); it is used via monomorphisation only.
pub trait ArenaOps {
    /// The node named by `id` (a clone — nodes are small).
    fn node(&self, id: FormulaId) -> Node;

    /// Returns `true` if the interned state `key` satisfies the proposition.
    fn state_holds(&self, key: StateKey, p: &Prop) -> bool;

    /// The fused metadata record of `id` — kind tag, temporal horizon, shift
    /// slack and canonical residual in **one** indexed read (see
    /// [`crate::NodeMeta`]). This is the only per-node metadata primitive;
    /// [`ArenaOps::temporal_horizon`] and friends are projections of it, so
    /// hot paths that need several properties should call this once and
    /// project locally.
    fn node_meta(&self, id: FormulaId) -> NodeMeta;

    /// The arena-level shift watermark (see [`crate::Interner::ever_shifted`]):
    /// `false` while no node with a nonzero finite shift slack has ever been
    /// interned, in which case shift-normal decomposition is the identity on
    /// every id of this arena and callers skip the zone machinery wholesale.
    fn ever_shifted(&self) -> bool;

    /// Interns an observation state (see [`crate::Interner::intern_state`]).
    fn intern_state(&mut self, state: &State) -> StateKey;

    /// Interns an atomic proposition.
    fn mk_atom(&mut self, p: Prop) -> FormulaId;
    /// Smart negation.
    fn mk_not(&mut self, a: FormulaId) -> FormulaId;
    /// Smart n-ary conjunction.
    fn mk_and_all(&mut self, parts: Vec<FormulaId>) -> FormulaId;
    /// Smart n-ary disjunction.
    fn mk_or_all(&mut self, parts: Vec<FormulaId>) -> FormulaId;
    /// Smart implication.
    fn mk_implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId;
    /// Smart timed until.
    fn mk_until(&mut self, a: FormulaId, i: Interval, b: FormulaId) -> FormulaId;
    /// Smart timed eventually.
    fn mk_eventually(&mut self, i: Interval, a: FormulaId) -> FormulaId;
    /// Smart timed always.
    fn mk_always(&mut self, i: Interval, a: FormulaId) -> FormulaId;

    /// Looks up a memoised single-observation progression. The key is the
    /// packed shift-relative scalar `(state, canonical residual, elapsed −
    /// shift, shifted?)` — see [`ArenaOps::progress_one_cached`].
    fn one_cache_get(&self, key: OneKey) -> Option<FormulaId>;
    /// Memoises a single-observation progression.
    fn one_cache_put(&mut self, key: OneKey, value: FormulaId);
    /// Looks up a memoised gap progression (packed shift-relative key
    /// `(canonical residual, elapsed − shift)`; see
    /// [`ArenaOps::progress_gap_cached`]).
    fn gap_cache_get(&self, key: GapKey) -> Option<FormulaId>;
    /// Memoises a gap progression.
    fn gap_cache_put(&mut self, key: GapKey, value: FormulaId);

    /// Probes the one-cache for every key of a run, in order, writing one
    /// `Option` per key into `out` (cleared first). Semantically identical to
    /// looping [`ArenaOps::one_cache_get`] — including the hit/miss tallies,
    /// which must count one probe per key — but implementors may amortise the
    /// table traffic and the tallying over the whole run.
    fn one_cache_get_batch(&self, keys: &[OneKey], out: &mut Vec<Option<FormulaId>>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.one_cache_get(k)));
    }

    /// Batched counterpart of [`ArenaOps::gap_cache_get`]; same contract as
    /// [`ArenaOps::one_cache_get_batch`].
    fn gap_cache_get_batch(&self, keys: &[GapKey], out: &mut Vec<Option<FormulaId>>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.gap_cache_get(k)));
    }

    /// Smart binary conjunction.
    fn mk_and(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        self.mk_and_all(vec![a, b])
    }

    /// Smart binary disjunction.
    fn mk_or(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        self.mk_or_all(vec![a, b])
    }

    /// The temporal horizon of `id` (see [`crate::Interner::temporal_horizon`];
    /// a projection of [`ArenaOps::node_meta`]).
    fn temporal_horizon(&self, id: FormulaId) -> u64 {
        self.node_meta(id).horizon
    }

    /// The shift slack of `id` (see [`crate::Interner::shift_slack`]):
    /// `u64::MAX` for propositional formulas, otherwise the largest exact
    /// downward translation of the top-level intervals. A projection of
    /// [`ArenaOps::node_meta`].
    fn shift_slack(&self, id: FormulaId) -> u64 {
        self.node_meta(id).slack
    }

    /// The canonical shift-normal residual of `id` (see
    /// [`crate::Interner::shift_canon`]; a projection of
    /// [`ArenaOps::node_meta`]).
    fn shift_canon(&self, id: FormulaId) -> FormulaId {
        self.node_meta(id).canon
    }

    /// Returns `true` if progression of `id` is independent of elapsed time
    /// (see [`crate::Interner::temporal_horizon`]).
    fn is_time_invariant(&self, id: FormulaId) -> bool {
        self.node_meta(id).horizon == 0
    }

    /// Shifts every top-level temporal interval of `id` up by `delta` —
    /// the exact inverse of [`ArenaOps::translate_down`] on its domain.
    /// Propositional formulas are fixed points; subformulas *under* a
    /// temporal operator are untouched (their anchor is the operator's
    /// window, which moves as a whole).
    fn translate_up(&mut self, id: FormulaId, delta: u64) -> FormulaId {
        if delta == 0 || self.shift_slack(id) == u64::MAX {
            return id;
        }
        match self.node(id) {
            Node::True | Node::False | Node::Atom(_) => id,
            Node::Not(a) => {
                let a = self.translate_up(a, delta);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_up(c, delta))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_up(c, delta))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.translate_up(a, delta);
                let b = self.translate_up(b, delta);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => self.mk_eventually(i.shift_up(delta), a),
            Node::Always(i, a) => self.mk_always(i.shift_up(delta), a),
            Node::Until(a, i, b) => self.mk_until(a, i.shift_up(delta), b),
        }
    }

    /// Translates every top-level temporal interval of `id` down by `delta`,
    /// exactly — `delta` must not exceed [`ArenaOps::shift_slack`], so no
    /// endpoint clamps and [`ArenaOps::translate_up`] inverts the move.
    /// Equals `progress_gap(id, delta)` on that domain (a gap shorter than
    /// the slack elapses no window, it only slides them).
    fn translate_down(&mut self, id: FormulaId, delta: u64) -> FormulaId {
        debug_assert!(
            delta <= self.shift_slack(id),
            "translate_down past the shift slack is not exact"
        );
        if delta == 0 || self.shift_slack(id) == u64::MAX {
            return id;
        }
        match self.node(id) {
            Node::True | Node::False | Node::Atom(_) => id,
            Node::Not(a) => {
                let a = self.translate_down(a, delta);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_down(c, delta))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.translate_down(c, delta))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.translate_down(a, delta);
                let b = self.translate_down(b, delta);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => self.mk_eventually(i.translate_down(delta), a),
            Node::Always(i, a) => self.mk_always(i.translate_down(delta), a),
            Node::Until(a, i, b) => self.mk_until(a, i.translate_down(delta), b),
        }
    }

    /// Decomposes `id` into its shift-normal form `(shift, canonical
    /// residual)`: the greatest common offset of the top-level intervals is
    /// factored out. Formulas with slack 0 (a window already open, or an
    /// `Until` with a non-invariant left argument) and propositional formulas
    /// are their own canonical form with shift 0.
    fn normalize(&self, id: FormulaId) -> ShiftedId {
        // Shift-free arenas (watermark down) have no decomposable node at
        // all: skip even the metadata read.
        if !self.ever_shifted() {
            return ShiftedId::unshifted(id);
        }
        let meta = self.node_meta(id);
        if meta.is_translatable() {
            ShiftedId {
                shift: meta.slack,
                id: meta.canon,
            }
        } else {
            ShiftedId::unshifted(id)
        }
    }

    /// Rebuilds the plain id of a shift-normal pair
    /// (`translate_up(s.id, s.shift)`) — the inverse of
    /// [`ArenaOps::normalize`].
    fn materialize(&mut self, s: ShiftedId) -> FormulaId {
        self.translate_up(s.id, s.shift)
    }

    /// Resolves a shift-normal pair to a plain [`Formula`] tree without
    /// materialising the translated node in the arena. Produces exactly
    /// `resolve(materialize(s))`: top-level intervals are shifted up *before*
    /// the structural re-sort of n-ary operands.
    fn resolve_shifted(&self, s: ShiftedId) -> Formula {
        fn go<A: ArenaOps + ?Sized>(arena: &A, id: FormulaId, delta: u64) -> Formula {
            if delta == 0 || arena.shift_slack(id) == u64::MAX {
                return arena.resolve(id);
            }
            match arena.node(id) {
                Node::True | Node::False | Node::Atom(_) => arena.resolve(id),
                Node::Not(a) => Formula::not(go(arena, a, delta)),
                Node::And(children) => fold_nary(
                    children.iter().map(|&c| go(arena, c, delta)).collect(),
                    true,
                ),
                Node::Or(children) => fold_nary(
                    children.iter().map(|&c| go(arena, c, delta)).collect(),
                    false,
                ),
                Node::Implies(a, b) => Formula::implies(go(arena, a, delta), go(arena, b, delta)),
                Node::Eventually(i, a) => Formula::eventually(i.shift_up(delta), arena.resolve(a)),
                Node::Always(i, a) => Formula::always(i.shift_up(delta), arena.resolve(a)),
                Node::Until(a, i, b) => {
                    Formula::until(arena.resolve(a), i.shift_up(delta), arena.resolve(b))
                }
            }
        }
        go(self, s.id, s.shift)
    }

    /// Memoised single-observation progression over an interned state (see
    /// [`crate::Interner::progress_one_cached`] for the original contract and
    /// the horizon-clamping argument).
    ///
    /// # Shift-relative memoisation
    ///
    /// For a formula with shift slack σ ≥ 1 the progression at elapsed time
    /// Δ depends only on the *canonical residual* and the relative time
    /// Δ − σ — for every Δ, not only while the window is still closed. Two
    /// translates `S_{σ₁}c`, `S_{σ₂}c` (σᵢ ≥ 1) compared at matching
    /// relative times Δᵢ − σᵢ behave identically at each constructor: a
    /// top-level window `[s+σᵢ, e+σᵢ)` never contains the observation point
    /// 0 (s + σᵢ ≥ 1), so the observed parts of `◇`/`□`/`U` are closed
    /// (`⊥`/`⊤`) in *both* members regardless of Δ, an `U`'s left obligation
    /// is time-invariant by the slack definition (its progression ignores
    /// Δ), and the residual windows land at `tops − Δ = canonical tops −
    /// (Δ − σ)` with clamping that also depends only on Δ − σ. (For
    /// Δ ≥ σ the result does mention open-window residuals such as
    /// `observed ∨ F[0, e−(Δ−σ)) …` — produced by the *residual* clause, not
    /// the observation, and still a function of Δ − σ alone.) The
    /// memo key is therefore `(state, canon, Δ − σ, shifted=true)` and one
    /// entry serves the obligation at *every* absolute time it is
    /// re-encountered — across windows, segments and queries. Slack-0
    /// formulas (window open: the observation participates) keep direct
    /// `(state, id, min(Δ, horizon), shifted=false)` entries; the flag keeps
    /// the two regimes of one canonical residual apart. The relative time of
    /// shifted entries is clamped at the canonical residual's horizon, which
    /// is at least the member's own stability threshold minus its shift.
    fn progress_one_cached(&mut self, key: StateKey, id: FormulaId, elapsed: u64) -> FormulaId {
        // One fused metadata read serves the slack branch, the horizon clamp
        // and the canonical id. A shift-free node (slack 0 or MAX — the only
        // possibility while the arena watermark is down) takes the direct-key
        // path with no further table traffic.
        let meta = self.node_meta(id);
        // Clamping is sound per node: for `elapsed ≥ temporal_horizon(id)`
        // every bounded interval in `id` has elapsed and every unbounded
        // start has saturated, so the result equals the horizon's.
        let clamped = elapsed.min(meta.horizon);
        let cache_key = if meta.is_translatable() {
            let canon_horizon = self.node_meta(meta.canon).horizon;
            let rel = (elapsed as i64 - meta.slack as i64).min(canon_horizon as i64);
            OneKey::pack(key, meta.canon, rel, true)
        } else {
            OneKey::pack(key, id, clamped as i64, false)
        };
        if let Some(f) = self.one_cache_get(cache_key) {
            return f;
        }
        let f = self.progress_one_compute(key, id, clamped);
        self.one_cache_put(cache_key, f);
        f
    }

    /// The uncached body of [`ArenaOps::progress_one_cached`]: structural
    /// progression of `id` against the observation `key` at horizon-clamped
    /// elapsed time `clamped`. Issues **no** top-level cache traffic (children
    /// still go through the cached entry point) — callers that probed and
    /// missed call this and then memoise the result themselves, which is what
    /// lets the batched splitter collect a run of misses and resolve them
    /// together without double-counting probes.
    fn progress_one_compute(&mut self, key: StateKey, id: FormulaId, clamped: u64) -> FormulaId {
        match self.node(id) {
            Node::True => FormulaId::TRUE,
            Node::False => FormulaId::FALSE,
            Node::Atom(p) => {
                if self.state_holds(key, &p) {
                    FormulaId::TRUE
                } else {
                    FormulaId::FALSE
                }
            }
            Node::Not(a) => {
                let a = self.progress_one_cached(key, a, clamped);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_one_cached(key, c, clamped))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_one_cached(key, c, clamped))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.progress_one_cached(key, a, clamped);
                let b = self.progress_one_cached(key, b, clamped);
                self.mk_implies(a, b)
            }
            Node::Eventually(interval, a) => {
                let observed = if interval.contains(0) {
                    self.progress_one_cached(key, a, clamped)
                } else {
                    FormulaId::FALSE
                };
                if interval.elapsed_by(clamped) {
                    observed
                } else {
                    let residual = self.mk_eventually(interval.shift_down(clamped), a);
                    self.mk_or(observed, residual)
                }
            }
            Node::Always(interval, a) => {
                let observed = if interval.contains(0) {
                    self.progress_one_cached(key, a, clamped)
                } else {
                    FormulaId::TRUE
                };
                if interval.elapsed_by(clamped) {
                    observed
                } else {
                    let residual = self.mk_always(interval.shift_down(clamped), a);
                    self.mk_and(observed, residual)
                }
            }
            Node::Until(a, interval, b) => {
                let pre = if interval.start() > 0 {
                    self.progress_one_cached(key, a, clamped)
                } else {
                    FormulaId::TRUE
                };
                let observed_witness = if interval.contains(0) {
                    self.progress_one_cached(key, b, clamped)
                } else {
                    FormulaId::FALSE
                };
                let future_witness = if interval.elapsed_by(clamped) {
                    FormulaId::FALSE
                } else {
                    let all_a = self.progress_one_cached(key, a, clamped);
                    let residual = self.mk_until(a, interval.shift_down(clamped), b);
                    self.mk_and(all_a, residual)
                };
                let witness = self.mk_or(observed_witness, future_witness);
                self.mk_and(pre, witness)
            }
        }
    }

    /// Memoised gap progression (see [`crate::Interner::progress_gap_cached`]),
    /// keyed shift-relative like [`ArenaOps::progress_one_cached`] — without a
    /// regime flag, because a gap consumes no observation: `gap(S_σ c, Δ)`
    /// equals `gap(c, Δ − σ)` for `Δ ≥ σ` and the pure translate
    /// `S_{σ−Δ} c` for `Δ ≤ σ` (negative relative times in the key).
    fn progress_gap_cached(&mut self, id: FormulaId, elapsed: u64) -> FormulaId {
        let meta = self.node_meta(id);
        let clamped = elapsed.min(meta.horizon);
        if clamped == 0 {
            // A zero gap is the identity, and a time-invariant formula is a
            // fixpoint of every gap.
            return id;
        }
        let slack = meta.slack;
        // Non-invariant formulas (horizon > 0) always have a finite slack:
        // slack == MAX means no top-level temporal operator at all.
        let cache_key = if slack >= 1 {
            let canon_horizon = self.node_meta(meta.canon).horizon;
            GapKey::pack(
                meta.canon,
                (elapsed as i64 - slack as i64).min(canon_horizon as i64),
            )
        } else {
            GapKey::pack(id, clamped as i64)
        };
        if let Some(f) = self.gap_cache_get(cache_key) {
            return f;
        }
        let f = self.progress_gap_compute(id, elapsed);
        self.gap_cache_put(cache_key, f);
        f
    }

    /// The uncached body of [`ArenaOps::progress_gap_cached`]: structural gap
    /// progression of `id` by `elapsed` ticks with **no** top-level cache
    /// traffic (the counterpart of [`ArenaOps::progress_one_compute`] for the
    /// batched splitter's collected-miss resolution).
    fn progress_gap_compute(&mut self, id: FormulaId, elapsed: u64) -> FormulaId {
        let meta = self.node_meta(id);
        let clamped = elapsed.min(meta.horizon);
        if clamped == 0 {
            return id;
        }
        if elapsed < meta.slack {
            // The gap is shorter than the slack: no window elapses, they all
            // slide — the result is the exact translate.
            return self.translate_down(id, elapsed);
        }
        match self.node(id) {
            Node::True | Node::False | Node::Atom(_) => id,
            Node::Not(a) => {
                let a = self.progress_gap_cached(a, clamped);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_gap_cached(c, clamped))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_gap_cached(c, clamped))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.progress_gap_cached(a, clamped);
                let b = self.progress_gap_cached(b, clamped);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => {
                if i.elapsed_by(clamped) {
                    FormulaId::FALSE
                } else {
                    self.mk_eventually(i.shift_down(clamped), a)
                }
            }
            Node::Always(i, a) => {
                if i.elapsed_by(clamped) {
                    FormulaId::TRUE
                } else {
                    self.mk_always(i.shift_down(clamped), a)
                }
            }
            Node::Until(a, i, b) => {
                if i.elapsed_by(clamped) {
                    FormulaId::FALSE
                } else {
                    self.mk_until(a, i.shift_down(clamped), b)
                }
            }
        }
    }

    /// Interval-splitting progression over a pre-interned observation state
    /// (see [`crate::Interner::progress_one_over`] for the contract: the
    /// returned ranges tile `[lo, hi]`; multi-point ranges below the
    /// stability threshold carry time-invariant residuals or sweep one
    /// shift-normal zone).
    fn progress_one_over_keyed(
        &mut self,
        key: StateKey,
        time: u64,
        id: FormulaId,
        lo: u64,
        hi: u64,
    ) -> Vec<SplitRange> {
        progress_over_with(
            self,
            lo,
            hi,
            time.saturating_add(self.temporal_horizon(id)),
            |arena, t| arena.progress_one_cached(key, id, t.saturating_sub(time)),
        )
    }

    /// Interval-splitting gap progression (see
    /// [`crate::Interner::progress_gap_over`]).
    fn progress_gap_over(&mut self, id: FormulaId, base: u64, lo: u64, hi: u64) -> Vec<SplitRange> {
        progress_over_with(
            self,
            lo,
            hi,
            base.saturating_add(self.temporal_horizon(id)),
            |arena, t| arena.progress_gap_cached(id, t.saturating_sub(base)),
        )
    }

    /// Batched variant of [`ArenaOps::progress_one_over_keyed`]: splits the
    /// same window into the same ranges (appended to `out`, cleared first),
    /// but issues the per-tick cache probes as **one contiguous batch**
    /// through [`ArenaOps::one_cache_get_batch`], collects the misses, and
    /// resolves them together in tick order. Returns the number of probes
    /// issued (the tick count of the clamped run), which the solver surfaces
    /// as its `batched_probe_ticks` counter.
    ///
    /// # Tally equivalence
    ///
    /// Probe-all-then-resolve sees exactly the hits and misses the
    /// interleaved scalar loop would see, because within one run every packed
    /// key is distinct — the relative time strictly increases tick over tick
    /// and the horizon clamp is only reached at the final tick (the run stops
    /// at the stability threshold) — and resolving a missed tick can never
    /// insert another tick's key: a resolution memoises only its own key
    /// (top-level) plus keys of *structurally smaller* subterms, while every
    /// run key names `id` or its equal-size canonical residual.
    #[allow(clippy::too_many_arguments)]
    fn progress_one_over_batched(
        &mut self,
        key: StateKey,
        time: u64,
        id: FormulaId,
        lo: u64,
        hi: u64,
        scratch: &mut ProbeScratch,
        out: &mut Vec<SplitRange>,
    ) -> usize {
        debug_assert!(lo <= hi, "window [{lo}, {hi}] is empty");
        let meta = self.node_meta(id);
        let stable_from = time.saturating_add(meta.horizon);
        // The scalar loop steps `lo ..= hi` but breaks at the first stable
        // tick, so the probed run is clamped at the stability threshold.
        let run_hi = hi.min(stable_from.max(lo));
        let ProbeScratch {
            one_keys,
            probes,
            residuals,
            ..
        } = scratch;
        one_keys.clear();
        if meta.is_translatable() {
            let canon_horizon = self.node_meta(meta.canon).horizon;
            for t in lo..=run_hi {
                let elapsed = t.saturating_sub(time);
                let rel = (elapsed as i64 - meta.slack as i64).min(canon_horizon as i64);
                one_keys.push(OneKey::pack(key, meta.canon, rel, true));
            }
        } else {
            for t in lo..=run_hi {
                let clamped = t.saturating_sub(time).min(meta.horizon);
                one_keys.push(OneKey::pack(key, id, clamped as i64, false));
            }
        }
        self.one_cache_get_batch(one_keys, probes);
        residuals.clear();
        for i in 0..probes.len() {
            let f = match probes[i] {
                Some(f) => f,
                None => {
                    let t = lo + i as u64;
                    let clamped = t.saturating_sub(time).min(meta.horizon);
                    let f = self.progress_one_compute(key, id, clamped);
                    self.one_cache_put(one_keys[i], f);
                    f
                }
            };
            residuals.push(f);
        }
        out.clear();
        merge_residual_run(self, lo, hi, stable_from, residuals, out);
        one_keys.len()
    }

    /// Batched variant of [`ArenaOps::progress_gap_over`]; same contract and
    /// tally-equivalence argument as [`ArenaOps::progress_one_over_batched`].
    /// Returns the probe count — ticks whose clamped gap is zero (the scalar
    /// path's identity early-return) issue no probe and form a prefix of the
    /// run, so they are excluded from both the batch and the count.
    fn progress_gap_over_batched(
        &mut self,
        id: FormulaId,
        base: u64,
        lo: u64,
        hi: u64,
        scratch: &mut ProbeScratch,
        out: &mut Vec<SplitRange>,
    ) -> usize {
        debug_assert!(lo <= hi, "window [{lo}, {hi}] is empty");
        let meta = self.node_meta(id);
        let stable_from = base.saturating_add(meta.horizon);
        let run_hi = hi.min(stable_from.max(lo));
        let ProbeScratch {
            gap_keys,
            probes,
            residuals,
            ..
        } = scratch;
        gap_keys.clear();
        residuals.clear();
        // A translatable node's relative times are keyed against its
        // canonical residual's horizon; read it once. (Finite nonzero slack
        // implies a temporal top level, so `canon` is populated; the other
        // arms never read the value.)
        let canon_horizon = if meta.slack >= 1 && meta.slack != u64::MAX {
            self.node_meta(meta.canon).horizon
        } else {
            0
        };
        // Zero-gap ticks (elapsed == 0, or any tick of a time-invariant
        // formula) are the identity with no cache traffic on the scalar
        // path; elapsed is monotone in `t`, so they form a prefix of the
        // run, recorded directly as residuals. The probed suffix starts at
        // tick `lo + residuals.len()`.
        for t in lo..=run_hi {
            let elapsed = t.saturating_sub(base);
            if elapsed.min(meta.horizon) == 0 {
                residuals.push(id);
            } else if meta.slack >= 1 {
                gap_keys.push(GapKey::pack(
                    meta.canon,
                    (elapsed as i64 - meta.slack as i64).min(canon_horizon as i64),
                ));
            } else {
                gap_keys.push(GapKey::pack(id, elapsed.min(meta.horizon) as i64));
            }
        }
        let prefix = residuals.len() as u64;
        self.gap_cache_get_batch(gap_keys, probes);
        for i in 0..probes.len() {
            let f = match probes[i] {
                Some(f) => f,
                None => {
                    let elapsed = (lo + prefix + i as u64).saturating_sub(base);
                    let f = self.progress_gap_compute(id, elapsed);
                    self.gap_cache_put(gap_keys[i], f);
                    f
                }
            };
            residuals.push(f);
        }
        out.clear();
        merge_residual_run(self, lo, hi, stable_from, residuals, out);
        gap_keys.len()
    }

    /// Closes a formula against the empty future (see
    /// [`crate::Interner::eval_empty`]). Leaf-deciding kinds (constants,
    /// atoms, temporal operators) are classified from the metadata kind tag
    /// alone — no node clone; only boolean connectives fetch the node for its
    /// children.
    fn eval_empty(&self, id: FormulaId) -> bool {
        match self.node_meta(id).kind {
            NodeKind::True | NodeKind::Always => true,
            NodeKind::False | NodeKind::Atom | NodeKind::Eventually | NodeKind::Until => false,
            NodeKind::Not | NodeKind::And | NodeKind::Or | NodeKind::Implies => {
                match self.node(id) {
                    Node::Not(a) => !self.eval_empty(a),
                    Node::And(children) => children.iter().all(|&c| self.eval_empty(c)),
                    Node::Or(children) => children.iter().any(|&c| self.eval_empty(c)),
                    Node::Implies(a, b) => !self.eval_empty(a) || self.eval_empty(b),
                    _ => unreachable!("kind tag agrees with the node"),
                }
            }
        }
    }

    /// Interns a formula tree, canonicalising through the smart constructors.
    fn intern(&mut self, phi: &Formula) -> FormulaId {
        match phi {
            Formula::True => FormulaId::TRUE,
            Formula::False => FormulaId::FALSE,
            Formula::Atom(p) => self.mk_atom(p.clone()),
            Formula::Not(a) => {
                let a = self.intern(a);
                self.mk_not(a)
            }
            Formula::And(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.mk_and(a, b)
            }
            Formula::Or(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.mk_or(a, b)
            }
            Formula::Implies(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.mk_implies(a, b)
            }
            Formula::Until(a, i, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.mk_until(a, *i, b)
            }
            Formula::Eventually(i, a) => {
                let a = self.intern(a);
                self.mk_eventually(*i, a)
            }
            Formula::Always(i, a) => {
                let a = self.intern(a);
                self.mk_always(*i, a)
            }
        }
    }

    /// Rebuilds the plain formula tree named by `id` (same canonical shape as
    /// [`crate::Interner::resolve`]: n-ary operands re-sorted structurally, so
    /// resolutions agree across arenas with different id assignments).
    fn resolve(&self, id: FormulaId) -> Formula {
        match self.node(id) {
            Node::True => Formula::True,
            Node::False => Formula::False,
            Node::Atom(p) => Formula::Atom(p),
            Node::Not(a) => Formula::not(self.resolve(a)),
            Node::And(children) => resolve_nary(self, &children, true),
            Node::Or(children) => resolve_nary(self, &children, false),
            Node::Implies(a, b) => Formula::implies(self.resolve(a), self.resolve(b)),
            Node::Until(a, i, b) => Formula::until(self.resolve(a), i, self.resolve(b)),
            Node::Eventually(i, a) => Formula::eventually(i, self.resolve(a)),
            Node::Always(i, a) => Formula::always(i, self.resolve(a)),
        }
    }
}

fn resolve_nary<A: ArenaOps + ?Sized>(arena: &A, children: &[FormulaId], conj: bool) -> Formula {
    fold_nary(children.iter().map(|&c| arena.resolve(c)).collect(), conj)
}

/// Left-associates resolved n-ary operands in structural order (the shape
/// [`crate::simplify`] produces).
// n-ary nodes hold >= 2 operands by the smart-constructor invariant.
#[allow(clippy::expect_used)]
fn fold_nary(mut resolved: Vec<Formula>, conj: bool) -> Formula {
    resolved.sort();
    let mut iter = resolved.into_iter();
    let first = iter.next().expect("n-ary nodes have at least two operands");
    iter.fold(first, |acc, f| {
        if conj {
            Formula::and(acc, f)
        } else {
            Formula::or(acc, f)
        }
    })
}

/// Shared splitting loop: walks `t` over `[lo, hi]`, calling `step` once per
/// time point below `stable_from` and once for the whole tail at or beyond
/// it, merging adjacent residuals into one range when they are equal and
/// time-invariant (`Uniform`) or exact unit translates of one another with
/// shifts staying ≥ 1 (`Translated`) — see
/// [`crate::Interner::progress_one_over`] for why exactly these merges are
/// sound for a union-of-contributions caller.
fn progress_over_with<A: ArenaOps + ?Sized>(
    arena: &mut A,
    lo: u64,
    hi: u64,
    stable_from: u64,
    mut step: impl FnMut(&mut A, u64) -> FormulaId,
) -> Vec<SplitRange> {
    debug_assert!(lo <= hi, "window [{lo}, {hi}] is empty");
    // `prev` is the step result at `t − 1` (the residual of the previous
    // tick, which for a `Translated` range differs from the range's stored
    // `residual`).
    let mut out: Vec<SplitRange> = Vec::new();
    let mut prev: Option<FormulaId> = None;
    let mut t = lo;
    while t <= hi {
        let f = step(arena, t);
        let stable = t >= stable_from;
        let upper = if stable { hi } else { t };
        let extended = match out.last_mut() {
            Some(r) if r.hi + 1 == t => {
                if prev == Some(f) && r.kind == RangeKind::Uniform && arena.is_time_invariant(f) {
                    r.hi = upper;
                    true
                } else if !stable
                    && (r.kind == RangeKind::Translated || r.lo == r.hi)
                    && prev.is_some_and(|p| is_unit_translate(arena, p, f))
                {
                    // The previous residual is the exact one-tick-later
                    // translate of this one: keep sweeping the zone. The
                    // check requires the *new* member's shift ≥ 1, so the
                    // shift-0 member (window opening) always starts its own
                    // range.
                    r.kind = RangeKind::Translated;
                    r.hi = t;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !extended {
            out.push(SplitRange {
                lo: t,
                hi: upper,
                residual: f,
                kind: RangeKind::Uniform,
            });
        }
        prev = Some(f);
        if stable {
            break;
        }
        t += 1;
    }
    out
}

/// Returns `true` if `prev` is the exact unit translate `S₁ f` of `f` and
/// `f` itself still has shift slack ≥ 1 — the condition under which a range
/// ending in `prev` may absorb `f` as a [`RangeKind::Translated`] member.
fn is_unit_translate<A: ArenaOps + ?Sized>(arena: &A, prev: FormulaId, f: FormulaId) -> bool {
    let mf = arena.node_meta(f);
    if !mf.is_translatable() {
        return false;
    }
    let mp = arena.node_meta(prev);
    mp.slack == mf.slack + 1 && mp.canon == mf.canon
}

/// The merge half of [`progress_over_with`], applied to a run of residuals
/// that has already been resolved (`residuals[i]` is the residual at tick
/// `lo + i`): folds adjacent ticks into `Uniform` / `Translated` ranges and
/// extends the final (stable) tick's range to `hi`, appending to `out`. The
/// run must cover `lo ..= min(hi, max(lo, stable_from))` — exactly the ticks
/// the scalar loop steps before breaking on stability — so both splitters
/// produce identical range vectors for identical residual sequences.
fn merge_residual_run<A: ArenaOps + ?Sized>(
    arena: &A,
    lo: u64,
    hi: u64,
    stable_from: u64,
    residuals: &[FormulaId],
    out: &mut Vec<SplitRange>,
) {
    let mut prev: Option<FormulaId> = None;
    for (i, &f) in residuals.iter().enumerate() {
        let t = lo + i as u64;
        let stable = t >= stable_from;
        let upper = if stable { hi } else { t };
        let extended = match out.last_mut() {
            Some(r) if r.hi + 1 == t => {
                if prev == Some(f) && r.kind == RangeKind::Uniform && arena.is_time_invariant(f) {
                    r.hi = upper;
                    true
                } else if !stable
                    && (r.kind == RangeKind::Translated || r.lo == r.hi)
                    && prev.is_some_and(|p| is_unit_translate(arena, p, f))
                {
                    r.kind = RangeKind::Translated;
                    r.hi = t;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !extended {
            out.push(SplitRange {
                lo: t,
                hi: upper,
                residual: f,
                kind: RangeKind::Uniform,
            });
        }
        prev = Some(f);
        if stable {
            break;
        }
    }
}
