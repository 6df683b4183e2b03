//! Hash-consed formula storage: an arena/interner in which every distinct
//! (canonicalised) formula is stored exactly once and named by a small
//! [`FormulaId`].
//!
//! The solver's progression search (`rvmtl-solver`) memoises on
//! `(cut, time, pending formula)` millions of times per query. With the plain
//! [`Formula`] tree that means deep clones, deep structural hashing and deep
//! equality on every lookup. Interning collapses all three to `u32` copies and
//! compares:
//!
//! * **clone** — [`FormulaId`] is `Copy`;
//! * **eq** — ids are equal iff the canonical formulas are structurally equal
//!   (hash-consing invariant: one node per distinct formula);
//! * **hash** — the id is its own perfect hash; no tree walk.
//!
//! Construction goes through *smart constructors* ([`Interner::mk_and_all`],
//! [`Interner::mk_not`], …) that apply the same canonicalising rewrites as
//! [`crate::simplify`] — constant folding, double-negation elimination,
//! flattening/sorting/deduplication of `∧`/`∨` operands, complementary-literal
//! collapse, empty-interval collapse — so structurally different but
//! simplification-equivalent formulas receive the same id. The progression
//! engine ([`Interner::progress`], [`Interner::progress_one`],
//! [`Interner::progress_gap`]) builds its results exclusively through these
//! constructors.
//!
//! An [`Interner`] is a plain value, not a global: the solver keeps one per
//! query, and the `Formula`-level entry points of this crate create a
//! short-lived one per call. Memory grows with the number of distinct
//! formulas ever interned and is released when the interner is dropped;
//! [`Interner::compact`] renumbers the live part.
//!
//! # Shift-normal form
//!
//! On top of hash-consing, the arena maintains a zone-style *shift-normal*
//! decomposition: alongside horizon tables, every node carries its
//! [shift slack](Interner::shift_slack) — the greatest common offset that
//! can be factored out of its top-level live intervals exactly — and its
//! [canonical residual](Interner::shift_canon), the node with that offset
//! removed. A formula thus resolves to a `(shift, canonical id)` pair
//! ([`ShiftedId`], via [`crate::ArenaOps::normalize`]), and two pending
//! obligations that are exact time-translates of each other share one arena
//! node. The invariant buys a memo-key contract used throughout the solver
//! and the runtime:
//!
//! * the progression caches are keyed *shift-relative* —
//!   `(state, canonical id, elapsed − shift)` — because a translate's
//!   progression at matching relative times is literally the same id while
//!   the first window has not opened (shift ≥ 1), so one entry serves the
//!   obligation at every absolute time it recurs;
//! * interval-splitting progression emits [`RangeKind::Translated`](crate::RangeKind)
//!   ranges sweeping one zone per tick, which a union-of-contributions
//!   search collapses to the earliest tick;
//! * [`Interner::compact`] keeps a live node's canonical residual alive with
//!   it, so decomposition tables never dangle and a cache entry survives
//!   exactly when its canonical endpoints do.
//!
//! The slack is deliberately conservative where translation would be
//! unsound: an `Until` whose left argument is not time-invariant gets slack
//! 0 (the left obligation is evaluated at observations before the window
//! opens, anchoring the node absolutely), as does any node whose window has
//! already opened.
//!
//! # Metadata layout and the shift-free fast path
//!
//! All per-node derived data lives in **one** dense side table of fused
//! [`NodeMeta`] records — kind tag, temporal horizon, shift slack and
//! canonical residual id in a single entry — so the hot-path sequence "read
//! the slack, branch, read the horizon, read the canon" costs one indexed
//! load instead of three parallel-`Vec` lookups ([`Interner::node_meta`]).
//! The progression caches are keyed by packed scalars ([`OneKey`],
//! [`GapKey`]): the logical `(state, canon, elapsed − shift, shifted?)` and
//! `(canon, elapsed − shift)` tuples are folded into one `u128` each, which
//! hashes as two words and compares as one integer.
//!
//! On top of that, the arena keeps a **shift watermark**
//! ([`Interner::ever_shifted`]): `false` until the first node with a nonzero
//! finite slack is interned. Formulas whose windows all start at zero (the
//! common phi4-style specifications) never trip it, and while it is down the
//! zone machinery is provably inert — every slack is 0 or `u64::MAX`, so
//! [`crate::ArenaOps::normalize`] short-circuits to the identity, cache keys
//! degrade to the direct `(state, id, min(elapsed, horizon))` form, and the
//! solver skips its pre-memo zone rewrite wholesale. The watermark is
//! monotone during forward operation and recomputed by [`Interner::compact`]
//! (it may drop back to `false` when GC collects the last shifted node).

use crate::hashing::FxHashMap;
use crate::{Formula, Interval, Prop, SplitRange, State, TimedTrace};
use std::cell::Cell;

/// A reference to an interned formula. Cheap to copy, compare and hash;
/// meaningful only together with the [`Interner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormulaId(u32);

impl FormulaId {
    /// The id of the constant `true` (the same in every interner).
    pub const TRUE: FormulaId = FormulaId(0);
    /// The id of the constant `false` (the same in every interner).
    pub const FALSE: FormulaId = FormulaId(1);

    /// Returns `true` if this id names the constant `true` or `false`.
    pub fn is_constant(self) -> bool {
        self == FormulaId::TRUE || self == FormulaId::FALSE
    }

    /// Returns `Some(b)` if this id names the boolean constant `b`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            FormulaId::TRUE => Some(true),
            FormulaId::FALSE => Some(false),
            _ => None,
        }
    }

    /// The raw index (dense: useful for side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from its raw representation (crate-internal: used by
    /// compaction, snapshots and the packed cache keys).
    pub(crate) fn from_raw(raw: u32) -> Self {
        FormulaId(raw)
    }

    /// The raw representation (crate-internal).
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// One interned formula node. Children are [`FormulaId`]s, so equality and
/// hashing of a node touch only one level of the tree.
///
/// `And`/`Or` are n-ary with operands sorted by id and deduplicated — the
/// interned counterpart of the sorted operand sets `crate::simplify` builds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic proposition.
    Atom(Prop),
    /// Negation `¬φ`.
    Not(FormulaId),
    /// N-ary conjunction (≥ 2 operands, sorted by id, deduplicated).
    And(Box<[FormulaId]>),
    /// N-ary disjunction (≥ 2 operands, sorted by id, deduplicated).
    Or(Box<[FormulaId]>),
    /// Implication `φ₁ → φ₂`.
    Implies(FormulaId, FormulaId),
    /// Timed until `φ₁ U_I φ₂`.
    Until(FormulaId, Interval, FormulaId),
    /// Timed eventually `◇_I φ`.
    Eventually(Interval, FormulaId),
    /// Timed always `□_I φ`.
    Always(Interval, FormulaId),
}

/// The operator kind of an interned [`Node`], stored in [`NodeMeta`] so hot
/// paths can classify a node from the fused metadata record without cloning
/// the node itself (an `And`/`Or` clone copies its boxed operand slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NodeKind {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic proposition.
    Atom,
    /// Negation.
    Not,
    /// N-ary conjunction.
    And,
    /// N-ary disjunction.
    Or,
    /// Implication.
    Implies,
    /// Timed until.
    Until,
    /// Timed eventually.
    Eventually,
    /// Timed always.
    Always,
}

impl NodeKind {
    /// The kind tag of a node.
    pub fn of(node: &Node) -> NodeKind {
        match node {
            Node::True => NodeKind::True,
            Node::False => NodeKind::False,
            Node::Atom(_) => NodeKind::Atom,
            Node::Not(_) => NodeKind::Not,
            Node::And(_) => NodeKind::And,
            Node::Or(_) => NodeKind::Or,
            Node::Implies(..) => NodeKind::Implies,
            Node::Until(..) => NodeKind::Until,
            Node::Eventually(..) => NodeKind::Eventually,
            Node::Always(..) => NodeKind::Always,
        }
    }
}

/// The fused per-node metadata record: everything the progression and solver
/// hot paths need to know about a node *besides* its children, packed into
/// one dense table entry so classifying a node costs a single indexed read.
///
/// Before this record existed the arena kept three parallel `Vec`s
/// (`horizons`, `slacks`, `canons`) and the hot paths paid one bounds-checked
/// indexed load — usually a cache miss each — per queried property. Fusing
/// them means the common sequence "read the slack, branch, read the horizon,
/// read the canon" touches one table slot instead of three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMeta {
    /// The temporal horizon (see [`Interner::temporal_horizon`]).
    pub horizon: u64,
    /// The shift slack (see [`Interner::shift_slack`]); `u64::MAX` for
    /// propositional (translation-invariant) formulas.
    pub slack: u64,
    /// The canonical shift-normal residual (see [`Interner::shift_canon`]);
    /// the node itself when the slack is 0 or `u64::MAX`.
    pub canon: FormulaId,
    /// The operator kind of the node.
    pub kind: NodeKind,
}

impl NodeMeta {
    /// Returns `true` if progression of the node is independent of elapsed
    /// time (horizon 0).
    pub fn is_time_invariant(self) -> bool {
        self.horizon == 0
    }

    /// Returns `true` if the node decomposes into a nonzero shift plus a
    /// canonical residual (slack in `1..u64::MAX`) — the only nodes for which
    /// `canon` differs from the node itself.
    pub fn is_translatable(self) -> bool {
        self.slack >= 1 && self.slack != u64::MAX
    }
}

/// Packed key of the memoised single-observation progressions
/// ([`crate::ArenaOps::progress_one_cached`]): the logical tuple
/// `(state, formula, relative elapsed, shifted-flag)` packed into one `u128`
/// scalar — `state` in bits 96..128, `formula` in bits 64..96, the flag in
/// bit 63 and the zig-zag-coded relative time in bits 0..63. One scalar
/// hashes as two words and compares as one integer, where the unpacked
/// 4-tuple hashed four fields and compared field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OneKey(u128);

/// Zig-zag encoding of a signed relative time (sign folded into bit 0 so
/// small magnitudes stay small).
#[inline]
fn zigzag(rel: i64) -> u64 {
    (rel.wrapping_shl(1) ^ (rel >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

impl OneKey {
    /// Packs a cache key.
    ///
    /// # Panics
    ///
    /// Panics if `rel ≥ 2^62` or `rel < −2^62` (the exact range of the
    /// 63-bit zig-zag payload; the asymmetry is the usual two's-complement
    /// one). Relative elapsed times are bounded by temporal horizons and
    /// shift slacks, i.e. by interval endpoints of the monitored formulas;
    /// endpoints near 2^62 time units are not meaningful inputs.
    pub fn pack(state: StateKey, formula: FormulaId, rel: i64, shifted: bool) -> OneKey {
        let z = zigzag(rel);
        assert!(
            z >> 63 == 0,
            "relative elapsed time {rel} overflows the packed progression-cache key"
        );
        OneKey(
            ((state.raw() as u128) << 96)
                | ((formula.raw() as u128) << 64)
                | ((shifted as u128) << 63)
                | z as u128,
        )
    }

    /// The interned observation state of the key.
    pub fn state(self) -> StateKey {
        StateKey::from_raw((self.0 >> 96) as u32)
    }

    /// The formula endpoint of the key (the canonical residual for shifted
    /// entries, the formula itself for direct ones).
    pub fn formula(self) -> FormulaId {
        FormulaId::from_raw((self.0 >> 64) as u32)
    }

    /// The relative elapsed time (`elapsed − shift` for shifted entries,
    /// horizon-clamped elapsed for direct ones).
    pub fn rel(self) -> i64 {
        unzigzag(self.0 as u64 & (u64::MAX >> 1))
    }

    /// Returns `true` for a shift-relative entry.
    pub fn shifted(self) -> bool {
        (self.0 >> 63) & 1 == 1
    }
}

/// Packed key of the memoised gap progressions
/// ([`crate::ArenaOps::progress_gap_cached`]): the logical pair
/// `(formula, relative elapsed)` as one `u128` — formula in bits 64..96,
/// zig-zag-coded relative time in bits 0..64 (the full 64-bit code, so no
/// range restriction applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GapKey(u128);

impl GapKey {
    /// Packs a cache key.
    pub fn pack(formula: FormulaId, rel: i64) -> GapKey {
        GapKey(((formula.raw() as u128) << 64) | zigzag(rel) as u128)
    }

    /// The formula endpoint of the key.
    pub fn formula(self) -> FormulaId {
        FormulaId::from_raw((self.0 >> 64) as u32)
    }

    /// The relative elapsed time.
    pub fn rel(self) -> i64 {
        unzigzag(self.0 as u64)
    }
}

/// A formula in *shift-normal* decomposition: the pair `(shift, id)` names
/// the formula obtained by shifting every top-level temporal interval of the
/// canonical residual `id` up by `shift` time units.
///
/// Two pending obligations that are exact time-translates of each other (the
/// same residual shape anchored at different absolute times — ubiquitous
/// under clock-skew windows, where one obligation is progressed against every
/// admissible delivery time) decompose to the *same* canonical `id` and
/// differ only in the `shift` word. The arena therefore stores one node per
/// translate class, the progression caches hit at every translate (see
/// [`crate::ArenaOps::progress_one_cached`]), and monitor pending sets /
/// GC root sets shrink to canonical residuals plus offsets.
///
/// Produced by [`crate::ArenaOps::normalize`]; turned back into a plain id by
/// [`crate::ArenaOps::materialize`]. For formulas that admit no exact
/// translation (`shift_slack` 0) and for time-invariant formulas the shift is
/// 0 and `id` is the formula itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShiftedId {
    /// Offset of the first live window: every top-level temporal interval of
    /// the denoted formula starts `shift` units after `id`'s.
    pub shift: u64,
    /// The canonical (shift-normal) residual.
    pub id: FormulaId,
}

impl ShiftedId {
    /// The decomposition of a formula that is its own canonical form.
    pub fn unshifted(id: FormulaId) -> Self {
        ShiftedId { shift: 0, id }
    }
}

/// A reference to an interned [`State`] (see [`Interner::intern_state`]).
/// Cheap to copy, compare and hash; meaningful only together with the
/// interner that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey(u32);

impl StateKey {
    /// The raw index (useful for dense side tables). Only dense for keys
    /// produced by an [`Interner`] (see [`FormulaId::index`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a key from its raw representation (crate-internal).
    pub(crate) fn from_raw(raw: u32) -> Self {
        StateKey(raw)
    }

    /// The raw representation (crate-internal).
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// The formula arena. See the module documentation.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    nodes: Vec<Node>,
    ids: FxHashMap<Node, FormulaId>,
    /// The fused per-node metadata records ([`NodeMeta`]: kind tag, temporal
    /// horizon, shift slack, canonical residual), computed once at interning
    /// time — children are always interned before their parents, so one
    /// bottom-up step per node suffices. One indexed read serves every
    /// metadata query of the hot paths.
    metas: Vec<NodeMeta>,
    /// Arena-level shift watermark: `true` once any node with a nonzero
    /// finite shift slack has been interned. While `false` the whole zone
    /// machinery is provably inert — every slack is 0 or `u64::MAX`, so
    /// [`crate::ArenaOps::normalize`] is the identity, the progression
    /// caches use direct keys only, and the solver skips its pre-memo zone
    /// rewrite. Recomputed by [`Interner::compact`] from the surviving nodes
    /// (the watermark may drop back to `false` when GC collects the last
    /// shifted node).
    ever_shifted: bool,
    /// Interned observation states (see [`Interner::intern_state`]).
    states: Vec<State>,
    state_ids: FxHashMap<State, StateKey>,
    /// Memoised single-observation progressions, keyed *shift-relative*:
    /// `(state, canonical residual, elapsed − shift, shifted?)` packed into a
    /// [`OneKey`] scalar. A formula with shift slack σ ≥ 1 shares one entry
    /// with every exact translate of its canonical residual (the progression
    /// result is literally the same id at matching relative elapsed time —
    /// see [`crate::ArenaOps::progress_one_cached`]); formulas with slack 0
    /// keep direct `(state, formula, min(elapsed, horizon))` entries, flagged
    /// so they never collide with the shifted entries of the same canonical
    /// id (the observation participates in an open window only for the
    /// slack-0 member). The relative elapsed time is clamped at the canonical
    /// residual's horizon (progression is elapsed-independent beyond it).
    one_cache: FxHashMap<OneKey, FormulaId>,
    /// Cumulative hit/miss tallies of the two caches (telemetry; preserved
    /// across [`Interner::compact`]). `Cell` because lookups take `&self` —
    /// this makes the arena `!Sync`: concurrent callers give each thread an
    /// arena of its own.
    stats: CacheStatCells,
    /// Memoised gap progressions, keyed `(canonical residual, elapsed −
    /// shift)` packed into a [`GapKey`] scalar. Gap progression has no
    /// slack-0 asymmetry (no observation is consumed), so shifted and direct
    /// entries share one keyspace; negative relative times denote pure
    /// translations (`gap(S_σ c, Δ) = S_{σ−Δ} c` for `Δ ≤ σ`).
    gap_cache: FxHashMap<GapKey, FormulaId>,
}

impl Interner {
    /// Creates an interner holding only the two boolean constants.
    pub fn new() -> Self {
        let mut interner = Interner {
            nodes: Vec::with_capacity(64),
            ids: FxHashMap::default(),
            metas: Vec::with_capacity(64),
            ever_shifted: false,
            states: Vec::new(),
            state_ids: FxHashMap::default(),
            one_cache: FxHashMap::default(),
            gap_cache: FxHashMap::default(),
            stats: CacheStatCells::default(),
        };
        let t = interner.insert(Node::True);
        let f = interner.insert(Node::False);
        debug_assert_eq!(t, FormulaId::TRUE);
        debug_assert_eq!(f, FormulaId::FALSE);
        interner
    }

    /// Number of distinct formulas interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false`: a fresh interner already holds the two boolean
    /// constants, so `len() >= 2`. Provided for `len`/`is_empty` consistency.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node named by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not come from this interner.
    pub fn node(&self, id: FormulaId) -> &Node {
        &self.nodes[id.index()]
    }

    // Overflowing 2^32 interned nodes is unrecoverable by design (ids are
    // u32 on the wire); aborting beats silently aliasing formulas.
    #[allow(clippy::expect_used)]
    fn insert(&mut self, node: Node) -> FormulaId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = FormulaId(u32::try_from(self.nodes.len()).expect("interner overflow"));
        let (horizon, slack) = self.meta_of(&node);
        // Every node starts as its own canonical form; a node with a positive
        // finite slack immediately factors the common offset out. The
        // canonical residual is interned through the same smart constructors
        // (recursively — its own slack is 0, so the recursion is one level
        // deep per distinct translate class).
        let kind = NodeKind::of(&node);
        self.nodes.push(node.clone());
        self.metas.push(NodeMeta {
            horizon,
            slack,
            canon: id,
            kind,
        });
        self.ids.insert(node, id);
        if slack > 0 && slack < u64::MAX {
            self.ever_shifted = true;
            let canon = <Self as crate::ArenaOps>::translate_down(self, id, slack);
            self.metas[id.index()].canon = canon;
        }
        id
    }

    /// The temporal horizon and shift slack of a node, from its (already
    /// interned) children, in one pass over their fused metadata records.
    ///
    /// Horizon: a bounded interval `[s, e)` contributes `e`; an unbounded
    /// `[s, ∞)` contributes `s` (the delay after which its start saturates at
    /// 0); boolean connectives take the maximum of their operands.
    ///
    /// Slack: the largest exact downward time-translation of all top-level
    /// intervals. `u64::MAX` means the node has no top-level temporal
    /// operator (it is translation-*invariant*, not translatable). An
    /// `Until` whose left argument is not time-invariant admits no
    /// translation at all: the left obligation is evaluated at every
    /// observation *before* the window opens, anchoring the node absolutely
    /// (see [`Interner::shift_slack`]); boolean connectives take the minimum
    /// of their operands.
    fn meta_of(&self, node: &Node) -> (u64, u64) {
        fn endpoint(i: &Interval) -> u64 {
            i.end().unwrap_or(i.start())
        }
        let meta = |id: &FormulaId| self.metas[id.index()];
        match node {
            Node::True | Node::False | Node::Atom(_) => (0, u64::MAX),
            Node::Not(a) => {
                let m = meta(a);
                (m.horizon, m.slack)
            }
            Node::And(children) | Node::Or(children) => {
                children.iter().fold((0, u64::MAX), |(h, s), c| {
                    let m = meta(c);
                    (h.max(m.horizon), s.min(m.slack))
                })
            }
            Node::Implies(a, b) => {
                let (ma, mb) = (meta(a), meta(b));
                (ma.horizon.max(mb.horizon), ma.slack.min(mb.slack))
            }
            Node::Eventually(i, a) | Node::Always(i, a) => {
                (endpoint(i).max(meta(a).horizon), i.translation_slack())
            }
            Node::Until(a, i, b) => {
                let (ma, mb) = (meta(a), meta(b));
                let slack = if ma.horizon == 0 {
                    i.translation_slack()
                } else {
                    0
                };
                (endpoint(i).max(ma.horizon).max(mb.horizon), slack)
            }
        }
    }

    /// The *temporal horizon* of `id`: the largest interval endpoint occurring
    /// anywhere in the formula (the exclusive end `e` of a bounded interval
    /// `[s, e)`, the start `s` of an unbounded `[s, ∞)`).
    ///
    /// Two facts about progression follow from the horizon `T`, and the
    /// interval-splitting entry points ([`Interner::progress_one_over`],
    /// [`Interner::progress_gap_over`]) are built on them:
    ///
    /// 1. **Stability.** For any elapsed time `Δ ≥ T`, the progressions
    ///    [`Interner::progress_one`] and [`Interner::progress_gap`] no longer
    ///    depend on `Δ`: every bounded interval has fully elapsed (the
    ///    operator resolves to its observed part) and every unbounded start
    ///    has saturated at 0.
    /// 2. **Time invariance.** `T == 0` means every live interval in the
    ///    formula is `[0, ∞)`, so progression never depends on elapsed time at
    ///    *any* depth, and the property is preserved by progression. A
    ///    time-invariant pending formula rewrites identically along a trace
    ///    regardless of when its observations occur — only their order
    ///    matters.
    pub fn temporal_horizon(&self, id: FormulaId) -> u64 {
        self.metas[id.index()].horizon
    }

    /// Returns `true` if progression of `id` is independent of elapsed time
    /// (see [`Interner::temporal_horizon`]; equivalent to
    /// `temporal_horizon(id) == 0`). Boolean constants are time-invariant.
    pub fn is_time_invariant(&self, id: FormulaId) -> bool {
        self.metas[id.index()].horizon == 0
    }

    /// The fused metadata record of `id` — kind tag, temporal horizon, shift
    /// slack and canonical residual in one indexed read (see [`NodeMeta`]).
    pub fn node_meta(&self, id: FormulaId) -> NodeMeta {
        self.metas[id.index()]
    }

    /// The arena-level shift watermark: `true` once any node with a nonzero
    /// finite shift slack has been interned. While `false`, shift-normal
    /// decomposition is the identity on every id of this arena and the
    /// zone machinery (normalisation, representative rewriting, shift-
    /// relative cache keys) is skipped wholesale by its consumers.
    /// [`Interner::compact`] recomputes the flag from the surviving nodes.
    pub fn ever_shifted(&self) -> bool {
        self.ever_shifted
    }

    /// The *shift slack* of `id`: the largest `δ` for which translating every
    /// top-level temporal interval down by `δ` is exact (no endpoint clamps at
    /// zero) **and** gap/single-observation progression commutes with the
    /// translation, so `id` and its translate do identical future work at
    /// matching relative times. Concretely:
    ///
    /// * propositional formulas (no temporal operator reachable through
    ///   boolean connectives) have slack `u64::MAX` — they are translation
    ///   *invariant*;
    /// * `◇_I`/`□_I` contribute `I.start()` (their subformula is only ever
    ///   evaluated once the window has opened, at which point all translates
    ///   of a zone have progressed to the same absolute residual);
    /// * `U_I` contributes `I.start()` when its left argument is
    ///   time-invariant and `0` otherwise — the left obligation is progressed
    ///   at every observation *before* the window opens, and a non-invariant
    ///   left argument would anchor those progressions at absolute times;
    /// * boolean connectives take the minimum of their operands.
    ///
    /// The slack is the `shift` of [`crate::ArenaOps::normalize`] and the
    /// soundness bound of every shift-relative memoisation in this crate and
    /// the solver: two formulas with the same [`Interner::shift_canon`] and
    /// slacks ≥ 1 are exact time-translates whose progressions coincide at
    /// matching relative elapsed times.
    pub fn shift_slack(&self, id: FormulaId) -> u64 {
        self.metas[id.index()].slack
    }

    /// The canonical shift-normal residual of `id`: `id` with
    /// [`Interner::shift_slack`] factored out of every top-level interval
    /// (`id` itself when the slack is 0 or `u64::MAX`). Two formulas are
    /// exact time-translates of each other iff they share a canonical
    /// residual.
    pub fn shift_canon(&self, id: FormulaId) -> FormulaId {
        self.metas[id.index()].canon
    }

    // ------------------------------------------------------------------
    // Smart constructors (the interned mirror of `crate::simplify`).
    // ------------------------------------------------------------------

    /// Interns an atomic proposition.
    pub fn mk_atom(&mut self, p: Prop) -> FormulaId {
        self.insert(Node::Atom(p))
    }

    /// Smart negation: folds constants, removes double negations.
    pub fn mk_not(&mut self, a: FormulaId) -> FormulaId {
        match self.node(a) {
            Node::True => FormulaId::FALSE,
            Node::False => FormulaId::TRUE,
            Node::Not(inner) => *inner,
            _ => self.insert(Node::Not(a)),
        }
    }

    /// Smart binary conjunction.
    pub fn mk_and(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        self.mk_and_all([a, b])
    }

    /// Smart binary disjunction.
    pub fn mk_or(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        self.mk_or_all([a, b])
    }

    /// Smart n-ary conjunction: flattens nested conjunctions, sorts and
    /// deduplicates operands, folds constants and complementary pairs.
    /// Returns `true` for an empty operand list.
    pub fn mk_and_all(&mut self, parts: impl IntoIterator<Item = FormulaId>) -> FormulaId {
        self.mk_nary(parts, true)
    }

    /// Smart n-ary disjunction (dual of [`Interner::mk_and_all`]). Returns
    /// `false` for an empty operand list.
    pub fn mk_or_all(&mut self, parts: impl IntoIterator<Item = FormulaId>) -> FormulaId {
        self.mk_nary(parts, false)
    }

    fn mk_nary(
        &mut self,
        parts: impl IntoIterator<Item = FormulaId>,
        conjunction: bool,
    ) -> FormulaId {
        let (absorbing, neutral) = if conjunction {
            (FormulaId::FALSE, FormulaId::TRUE)
        } else {
            (FormulaId::TRUE, FormulaId::FALSE)
        };
        let mut operands: Vec<FormulaId> = Vec::new();
        for part in parts {
            if part == absorbing {
                return absorbing;
            }
            if part == neutral {
                continue;
            }
            // Flatten one level: nested n-ary nodes of the same kind cannot
            // occur as children of each other, so this keeps the set flat.
            match (conjunction, self.node(part)) {
                (true, Node::And(children)) | (false, Node::Or(children)) => {
                    operands.extend(children.iter().copied());
                }
                _ => operands.push(part),
            }
        }
        operands.sort_unstable();
        operands.dedup();
        // Complementary-literal collapse: φ and ¬φ together absorb.
        for &op in &operands {
            if let Node::Not(inner) = self.node(op) {
                if operands.binary_search(inner).is_ok() {
                    return absorbing;
                }
            }
        }
        match operands.len() {
            0 => neutral,
            1 => operands[0],
            _ => {
                let node = if conjunction {
                    Node::And(operands.into_boxed_slice())
                } else {
                    Node::Or(operands.into_boxed_slice())
                };
                self.insert(node)
            }
        }
    }

    /// Smart implication.
    pub fn mk_implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match (a, b) {
            (FormulaId::TRUE, _) => b,
            (FormulaId::FALSE, _) => FormulaId::TRUE,
            (_, FormulaId::TRUE) => FormulaId::TRUE,
            (_, FormulaId::FALSE) => self.mk_not(a),
            _ if a == b => FormulaId::TRUE,
            _ => self.insert(Node::Implies(a, b)),
        }
    }

    /// Smart timed until.
    pub fn mk_until(&mut self, a: FormulaId, i: Interval, b: FormulaId) -> FormulaId {
        if i.is_empty() || b == FormulaId::FALSE {
            return FormulaId::FALSE;
        }
        self.insert(Node::Until(a, i, b))
    }

    /// Smart timed eventually.
    pub fn mk_eventually(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        if i.is_empty() || a == FormulaId::FALSE {
            return FormulaId::FALSE;
        }
        self.insert(Node::Eventually(i, a))
    }

    /// Smart timed always.
    pub fn mk_always(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        if i.is_empty() || a == FormulaId::TRUE {
            return FormulaId::TRUE;
        }
        self.insert(Node::Always(i, a))
    }

    // ------------------------------------------------------------------
    // Conversion to and from the plain `Formula` tree.
    // ------------------------------------------------------------------

    /// Interns a formula tree, canonicalising it through the smart
    /// constructors (so `intern` also *simplifies*: the id of `a ∧ a` is the
    /// id of `a`).
    pub fn intern(&mut self, phi: &Formula) -> FormulaId {
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

    /// Rebuilds the plain formula tree named by `id`.
    ///
    /// N-ary conjunctions/disjunctions are rebuilt as left-associated binary
    /// trees over *structurally* sorted operands, which is exactly the shape
    /// [`crate::simplify`] has always produced — so resolving an interned
    /// formula and simplifying a plain one agree syntactically.
    pub fn resolve(&self, id: FormulaId) -> Formula {
        match self.node(id) {
            Node::True => Formula::True,
            Node::False => Formula::False,
            Node::Atom(p) => Formula::Atom(p.clone()),
            Node::Not(a) => Formula::not(self.resolve(*a)),
            Node::And(children) => self.resolve_nary(children, true),
            Node::Or(children) => self.resolve_nary(children, false),
            Node::Implies(a, b) => Formula::implies(self.resolve(*a), self.resolve(*b)),
            Node::Until(a, i, b) => Formula::until(self.resolve(*a), *i, self.resolve(*b)),
            Node::Eventually(i, a) => Formula::eventually(*i, self.resolve(*a)),
            Node::Always(i, a) => Formula::always(*i, self.resolve(*a)),
        }
    }

    // n-ary nodes hold >= 2 operands by the smart-constructor invariant.
    #[allow(clippy::expect_used)]
    fn resolve_nary(&self, children: &[FormulaId], conjunction: bool) -> Formula {
        let mut resolved: Vec<Formula> = children.iter().map(|&c| self.resolve(c)).collect();
        resolved.sort();
        let mut iter = resolved.into_iter();
        let first = iter.next().expect("n-ary nodes have at least two operands");
        iter.fold(first, |acc, f| {
            if conjunction {
                Formula::and(acc, f)
            } else {
                Formula::or(acc, f)
            }
        })
    }

    // ------------------------------------------------------------------
    // Interned progression (Sec. IV of the paper).
    // ------------------------------------------------------------------

    /// Progresses `id` over the observed segment `trace`, anchoring residual
    /// obligations at `next_base` — the interned counterpart of
    /// [`crate::progress`].
    pub fn progress(&mut self, trace: &TimedTrace, id: FormulaId, next_base: u64) -> FormulaId {
        if trace.is_empty() {
            return id;
        }
        self.progress_at(trace, 0, id, next_base)
    }

    fn progress_at(
        &mut self,
        trace: &TimedTrace,
        i: usize,
        id: FormulaId,
        next_base: u64,
    ) -> FormulaId {
        let n = trace.len();
        debug_assert!(i < n, "progress_at called past the end of the segment");
        match self.node(id).clone() {
            Node::True => FormulaId::TRUE,
            Node::False => FormulaId::FALSE,
            Node::Atom(p) => {
                if trace.state(i).holds_prop(&p) {
                    FormulaId::TRUE
                } else {
                    FormulaId::FALSE
                }
            }
            Node::Not(a) => {
                let a = self.progress_at(trace, i, a, next_base);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_at(trace, i, c, next_base))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_at(trace, i, c, next_base))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.progress_at(trace, i, a, next_base);
                let b = self.progress_at(trace, i, b, next_base);
                self.mk_implies(a, b)
            }
            // Algorithm 2 (Eventually): disjunction over the in-interval
            // positions plus a residual if the interval outlives the segment.
            Node::Eventually(interval, a) => {
                let base = trace.time(i);
                let elapsed = next_base.saturating_sub(base);
                let parts: Vec<FormulaId> = (i..n)
                    .filter(|&j| interval.contains(trace.time(j) - base))
                    .map(|j| self.progress_at(trace, j, a, next_base))
                    .collect();
                let observed = self.mk_or_all(parts);
                if interval.elapsed_by(elapsed) {
                    observed
                } else {
                    let residual = self.mk_eventually(interval.shift_down(elapsed), a);
                    self.mk_or(observed, residual)
                }
            }
            // Algorithm 1 (Always): conjunction over the in-interval positions
            // plus a residual if the interval outlives the segment.
            Node::Always(interval, a) => {
                let base = trace.time(i);
                let elapsed = next_base.saturating_sub(base);
                let parts: Vec<FormulaId> = (i..n)
                    .filter(|&j| interval.contains(trace.time(j) - base))
                    .map(|j| self.progress_at(trace, j, a, next_base))
                    .collect();
                let observed = self.mk_and_all(parts);
                if interval.elapsed_by(elapsed) {
                    observed
                } else {
                    let residual = self.mk_always(interval.shift_down(elapsed), a);
                    self.mk_and(observed, residual)
                }
            }
            // Algorithm 3 (Until).
            Node::Until(a, interval, b) => {
                let base = trace.time(i);
                let elapsed = next_base.saturating_sub(base);
                // A: φ1 at every position strictly before the interval opens.
                let parts: Vec<FormulaId> = (i..n)
                    .filter(|&j| trace.time(j) - base < interval.start())
                    .map(|j| self.progress_at(trace, j, a, next_base))
                    .collect();
                let pre = self.mk_and_all(parts);
                // B: an observed witness for φ2 within the interval, φ1 at
                // every earlier position of the segment.
                let witnesses: Vec<FormulaId> = (i..n)
                    .filter(|&j| interval.contains(trace.time(j) - base))
                    .map(|j| {
                        let up: Vec<FormulaId> = (i..j)
                            .map(|k| self.progress_at(trace, k, a, next_base))
                            .collect();
                        let up_to_j = self.mk_and_all(up);
                        let at_j = self.progress_at(trace, j, b, next_base);
                        self.mk_and(up_to_j, at_j)
                    })
                    .collect();
                let observed_witness = self.mk_or_all(witnesses);
                // Residual: the witness lies beyond the segment.
                let future_witness = if interval.elapsed_by(elapsed) {
                    FormulaId::FALSE
                } else {
                    let all: Vec<FormulaId> = (i..n)
                        .map(|k| self.progress_at(trace, k, a, next_base))
                        .collect();
                    let all_a = self.mk_and_all(all);
                    let residual = self.mk_until(a, interval.shift_down(elapsed), b);
                    self.mk_and(all_a, residual)
                };
                let witness = self.mk_or(observed_witness, future_witness);
                self.mk_and(pre, witness)
            }
        }
    }

    /// Progression over a segment consisting of a *single* observation
    /// (`state` at `time`) — the shape the solver's search steps through, kept
    /// allocation-free on the hot path.
    pub fn progress_one(
        &mut self,
        state: &State,
        time: u64,
        id: FormulaId,
        next_base: u64,
    ) -> FormulaId {
        match self.node(id).clone() {
            Node::True => FormulaId::TRUE,
            Node::False => FormulaId::FALSE,
            Node::Atom(p) => {
                if state.holds_prop(&p) {
                    FormulaId::TRUE
                } else {
                    FormulaId::FALSE
                }
            }
            Node::Not(a) => {
                let a = self.progress_one(state, time, a, next_base);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_one(state, time, c, next_base))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_one(state, time, c, next_base))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.progress_one(state, time, a, next_base);
                let b = self.progress_one(state, time, b, next_base);
                self.mk_implies(a, b)
            }
            Node::Eventually(interval, a) => {
                let elapsed = next_base.saturating_sub(time);
                let observed = if interval.contains(0) {
                    self.progress_one(state, time, a, next_base)
                } else {
                    FormulaId::FALSE
                };
                if interval.elapsed_by(elapsed) {
                    observed
                } else {
                    let residual = self.mk_eventually(interval.shift_down(elapsed), a);
                    self.mk_or(observed, residual)
                }
            }
            Node::Always(interval, a) => {
                let elapsed = next_base.saturating_sub(time);
                let observed = if interval.contains(0) {
                    self.progress_one(state, time, a, next_base)
                } else {
                    FormulaId::TRUE
                };
                if interval.elapsed_by(elapsed) {
                    observed
                } else {
                    let residual = self.mk_always(interval.shift_down(elapsed), a);
                    self.mk_and(observed, residual)
                }
            }
            Node::Until(a, interval, b) => {
                let elapsed = next_base.saturating_sub(time);
                // The single position is either before the interval opens
                // (φ1 must hold there) or inside it (it may witness φ2).
                let pre = if interval.start() > 0 {
                    self.progress_one(state, time, a, next_base)
                } else {
                    FormulaId::TRUE
                };
                let observed_witness = if interval.contains(0) {
                    self.progress_one(state, time, b, next_base)
                } else {
                    FormulaId::FALSE
                };
                let future_witness = if interval.elapsed_by(elapsed) {
                    FormulaId::FALSE
                } else {
                    let all_a = self.progress_one(state, time, a, next_base);
                    let residual = self.mk_until(a, interval.shift_down(elapsed), b);
                    self.mk_and(all_a, residual)
                };
                let witness = self.mk_or(observed_witness, future_witness);
                self.mk_and(pre, witness)
            }
        }
    }

    /// Interns an observation state, so repeated progressions against the
    /// same state can be memoised on a 4-byte key (the solver observes the
    /// same cut frontiers over and over across its search).
    // Overflowing 2^32 interned states is unrecoverable by design, as for
    // formula ids in `insert`.
    #[allow(clippy::expect_used)]
    pub fn intern_state(&mut self, state: &State) -> StateKey {
        if let Some(&key) = self.state_ids.get(state) {
            return key;
        }
        let key = StateKey(u32::try_from(self.states.len()).expect("state interner overflow"));
        self.states.push(state.clone());
        self.state_ids.insert(state.clone(), key);
        key
    }

    /// Memoised [`Interner::progress_one`] over an interned state: the result
    /// of progressing `id` across a single observation of state `key` with
    /// `elapsed` time units between the observation and the next anchor.
    ///
    /// `progress_one(state, time, id, next)` depends on its two time
    /// arguments only through `next − time`, and beyond the formula's
    /// [temporal horizon](Interner::temporal_horizon) not even on that — so
    /// the memo key clamps the elapsed time at the horizon and one cache
    /// entry serves every tick of the stable tail of any window, across all
    /// segments the interner lives through. The memoisation is applied at
    /// *every* recursion level, so structurally shared subformulas (e.g. the
    /// per-process obligations of a replicated specification, or the stable
    /// core of a `□`-residual) are progressed once per `(state, elapsed)`
    /// no matter how many pending formulas contain them.
    pub fn progress_one_cached(&mut self, key: StateKey, id: FormulaId, elapsed: u64) -> FormulaId {
        // The algorithm lives in `ArenaOps`, next to the other provided
        // progression algorithms.
        <Self as crate::ArenaOps>::progress_one_cached(self, key, id, elapsed)
    }

    /// Memoised [`Interner::progress_gap`] (same per-node elapsed-clamping
    /// memo as [`Interner::progress_one_cached`]).
    pub fn progress_gap_cached(&mut self, id: FormulaId, elapsed: u64) -> FormulaId {
        <Self as crate::ArenaOps>::progress_gap_cached(self, id, elapsed)
    }

    /// Interval-splitting progression: partitions the occurrence-time window
    /// `[lo, hi]` (inclusive) of the *next* observation into maximal
    /// [`SplitRange`]s — ranges whose residuals the caller may treat as one
    /// search node — and returns them in increasing time order.
    ///
    /// The pending formula `id` is anchored at `time` and the observation
    /// being consumed is `state` at `time`. Each returned range `[a, b]`
    /// carries the residual at its earliest point `a` and a
    /// [`crate::RangeKind`] describing the rest of the range:
    ///
    /// * [`crate::RangeKind::Uniform`] — `progress_one(state, time, id, t)` is the
    ///   same formula at every `t ∈ [a, b]`;
    /// * [`crate::RangeKind::Translated`] — the residual at `a + k` is the exact
    ///   time-translate `translate_down(residual, k)`: the range sweeps one
    ///   shift-normal zone ([`Interner::shift_canon`] constant, shift
    ///   decrementing per tick, never reaching 0 inside the range).
    ///
    /// Two mechanisms bound the number of progression calls by
    /// `min(hi − lo, temporal_horizon(id)) + 1` instead of `hi − lo + 1`:
    ///
    /// * beyond the stability threshold `time + temporal_horizon(id)` the
    ///   residual no longer depends on `t`, so the entire tail of the window
    ///   is resolved with a single progression call;
    /// * below the threshold, adjacent time points merge into one range when
    ///   the shared residual is *time-invariant*
    ///   ([`Interner::is_time_invariant`]) or when consecutive residuals are
    ///   exact unit translates of each other with shifts that stay ≥ 1. In
    ///   both cases the caller is entitled to collapse the range to its
    ///   earliest point: the reachable rewrite set from pending time `t`
    ///   within one zone shrinks monotonically in `t` (later members can only
    ///   schedule a subset of the event times available to earlier ones,
    ///   while the residuals produced at matching absolute times coincide),
    ///   so the union over the range equals the contribution of its infimum.
    ///   The shift-0 member of a zone (the tick at which the window opens) is
    ///   never merged into the translated range: from that tick on the
    ///   observation falls *inside* the window and the progression changes
    ///   shape.
    ///
    /// The invariant-only uniform rule still applies to the stable tail: a
    /// non-invariant tail residual (a bounded operator nested under an
    /// unbounded one) is returned as one multi-point `Uniform` range — saving
    /// the per-tick progression calls — and the caller must still treat each
    /// time point of that range as a distinct search state.
    pub fn progress_one_over(
        &mut self,
        state: &State,
        time: u64,
        id: FormulaId,
        lo: u64,
        hi: u64,
    ) -> Vec<SplitRange> {
        let key = self.intern_state(state);
        self.progress_one_over_keyed(key, time, id, lo, hi)
    }

    /// [`Interner::progress_one_over`] for a pre-interned observation state —
    /// the solver interns each cut frontier once and reuses the key across
    /// every window explored at that cut.
    pub fn progress_one_over_keyed(
        &mut self,
        key: StateKey,
        time: u64,
        id: FormulaId,
        lo: u64,
        hi: u64,
    ) -> Vec<SplitRange> {
        <Self as crate::ArenaOps>::progress_one_over_keyed(self, key, time, id, lo, hi)
    }

    /// Interval-splitting counterpart of [`Interner::progress_gap`]: partitions
    /// the window `[lo, hi]` of the next anchor time into maximal ranges on
    /// which `progress_gap(id, t − base)` is constant or translate-swept.
    /// `base` is the anchor time of `id`. Same contract and merge rules as
    /// [`Interner::progress_one_over`].
    pub fn progress_gap_over(
        &mut self,
        id: FormulaId,
        base: u64,
        lo: u64,
        hi: u64,
    ) -> Vec<SplitRange> {
        <Self as crate::ArenaOps>::progress_gap_over(self, id, base, lo, hi)
    }

    /// Progression over an observation gap of `elapsed` time units — the
    /// interned counterpart of [`crate::progress_gap`].
    pub fn progress_gap(&mut self, id: FormulaId, elapsed: u64) -> FormulaId {
        if elapsed == 0 {
            return id;
        }
        match self.node(id).clone() {
            Node::True | Node::False | Node::Atom(_) => id,
            Node::Not(a) => {
                let a = self.progress_gap(a, elapsed);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_gap(c, elapsed))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts: Vec<FormulaId> = children
                    .iter()
                    .map(|&c| self.progress_gap(c, elapsed))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.progress_gap(a, elapsed);
                let b = self.progress_gap(b, elapsed);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => {
                if i.elapsed_by(elapsed) {
                    FormulaId::FALSE
                } else {
                    self.mk_eventually(i.shift_down(elapsed), a)
                }
            }
            Node::Always(i, a) => {
                if i.elapsed_by(elapsed) {
                    FormulaId::TRUE
                } else {
                    self.mk_always(i.shift_down(elapsed), a)
                }
            }
            Node::Until(a, i, b) => {
                if i.elapsed_by(elapsed) {
                    FormulaId::FALSE
                } else {
                    self.mk_until(a, i.shift_down(elapsed), b)
                }
            }
        }
    }

    /// Closes a formula against the empty future: the finite-trace verdict of
    /// `id` on an empty remainder (`◇`/`U` obligations fail, `□` obligations
    /// hold vacuously). Agrees with evaluating the resolved formula on an
    /// empty [`TimedTrace`].
    pub fn eval_empty(&self, id: FormulaId) -> bool {
        match self.node(id) {
            Node::True => true,
            Node::False => false,
            Node::Atom(_) => false,
            Node::Not(a) => !self.eval_empty(*a),
            Node::And(children) => children.iter().all(|&c| self.eval_empty(c)),
            Node::Or(children) => children.iter().any(|&c| self.eval_empty(c)),
            Node::Implies(a, b) => !self.eval_empty(*a) || self.eval_empty(*b),
            Node::Eventually(..) | Node::Until(..) => false,
            Node::Always(..) => true,
        }
    }

    /// Cumulative progression-cache hit/miss tallies (monotone across
    /// [`Interner::compact`]; see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Current memory footprint of the arena, in table entries.
    pub fn memory(&self) -> ArenaMemory {
        ArenaMemory {
            nodes: self.nodes.len(),
            states: self.states.len(),
            one_cache_entries: self.one_cache.len(),
            gap_cache_entries: self.gap_cache.len(),
        }
    }

    /// Epoch compaction: mark-and-renumber garbage collection over the arena.
    ///
    /// Keeps exactly the nodes reachable from `roots` (plus the two boolean
    /// constants), renumbers them densely in their original order — so
    /// children keep smaller ids than parents and the sorted operand lists of
    /// n-ary nodes stay sorted — and drops everything else: dead nodes, the
    /// observation states no surviving cache entry refers to, and every
    /// `one_cache`/`gap_cache` entry whose key *or* value formula died (the
    /// caches are weak: they never keep a formula alive, and a dropped entry
    /// is simply recomputed on the next miss).
    ///
    /// Reachability includes the *shift-normal closure*: a live node keeps
    /// its canonical residual ([`Interner::shift_canon`]) alive, so the
    /// decomposition tables stay total and the shift-relative cache entries —
    /// which are keyed by canonical ids — survive exactly when their
    /// canonical endpoints do. Cache entries referring to canonical residuals
    /// of *dead* formulas are dropped with them.
    ///
    /// Returns the remapping from old to new ids; every id handed out before
    /// the call (pending sets, memo keys, …) is invalidated and must either
    /// be translated through the remap or discarded. [`FormulaId::TRUE`] and
    /// [`FormulaId::FALSE`] are stable across compactions.
    // Marking closes over children and canonical residuals, so every index
    // dereferenced during the sweep was marked by construction.
    #[allow(clippy::expect_used)]
    pub fn compact(&mut self, roots: impl IntoIterator<Item = FormulaId>) -> FormulaRemap {
        // Mark.
        let mut live = vec![false; self.nodes.len()];
        live[FormulaId::TRUE.index()] = true;
        live[FormulaId::FALSE.index()] = true;
        let mut stack: Vec<FormulaId> = roots.into_iter().collect();
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            // Shift-normal closure: the canonical residual survives with its
            // translate (it is pushed, not just marked, so its own children
            // are marked too).
            stack.push(self.metas[id.index()].canon);
            match &self.nodes[id.index()] {
                Node::True | Node::False | Node::Atom(_) => {}
                Node::Not(a) => stack.push(*a),
                Node::And(children) | Node::Or(children) => stack.extend(children.iter().copied()),
                Node::Implies(a, b) | Node::Until(a, _, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Node::Eventually(_, a) | Node::Always(_, a) => stack.push(*a),
            }
        }

        // Renumber nodes in original order; children are always interned
        // before their parents, so one forward pass remaps every child.
        let mut map: Vec<Option<FormulaId>> = vec![None; self.nodes.len()];
        let mut nodes: Vec<Node> = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        let mut meta_olds: Vec<NodeMeta> = Vec::with_capacity(nodes.capacity());
        let remap_children = |ids: &[FormulaId], map: &[Option<FormulaId>]| -> Box<[FormulaId]> {
            ids.iter()
                .map(|c| map[c.index()].expect("children are marked with their parents"))
                .collect()
        };
        for (index, node) in self.nodes.iter().enumerate() {
            if !live[index] {
                continue;
            }
            let new_id = FormulaId::from_raw(u32::try_from(nodes.len()).expect("shrinking"));
            let remapped = match node {
                Node::True => Node::True,
                Node::False => Node::False,
                Node::Atom(p) => Node::Atom(p.clone()),
                Node::Not(a) => Node::Not(map[a.index()].expect("marked")),
                Node::And(children) => Node::And(remap_children(children, &map)),
                Node::Or(children) => Node::Or(remap_children(children, &map)),
                Node::Implies(a, b) => Node::Implies(
                    map[a.index()].expect("marked"),
                    map[b.index()].expect("marked"),
                ),
                Node::Until(a, i, b) => Node::Until(
                    map[a.index()].expect("marked"),
                    *i,
                    map[b.index()].expect("marked"),
                ),
                Node::Eventually(i, a) => Node::Eventually(*i, map[a.index()].expect("marked")),
                Node::Always(i, a) => Node::Always(*i, map[a.index()].expect("marked")),
            };
            nodes.push(remapped);
            meta_olds.push(self.metas[index]);
            map[index] = Some(new_id);
        }
        let ids: FxHashMap<Node, FormulaId> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), FormulaId::from_raw(i as u32)))
            .collect();
        // Canonical residuals were marked with their translates, so the
        // decomposition table remaps totally.
        let metas: Vec<NodeMeta> = meta_olds
            .into_iter()
            .map(|m| NodeMeta {
                canon: map[m.canon.index()]
                    .expect("canonical residuals are marked with their translates"),
                ..m
            })
            .collect();

        // Surviving cache entries: both endpoints must have survived — for
        // the shift-relative keys the key endpoint *is* the canonical
        // residual, so an entry lives exactly as long as its canonical
        // endpoints. Collect the states those entries still refer to,
        // renumber them, drop the rest.
        let mut state_live = vec![false; self.states.len()];
        let retained_one: Vec<(OneKey, FormulaId, FormulaId)> = self
            .one_cache
            .iter()
            .filter_map(|(&k, &v)| {
                let f = map[k.formula().index()]?;
                let v = map[v.index()]?;
                state_live[k.state().index()] = true;
                Some((k, f, v))
            })
            .collect();
        let mut state_map: Vec<Option<StateKey>> = vec![None; self.states.len()];
        let mut states: Vec<State> = Vec::new();
        for (index, state) in self.states.iter().enumerate() {
            if state_live[index] {
                state_map[index] = Some(StateKey::from_raw(states.len() as u32));
                states.push(state.clone());
            }
        }
        let state_ids: FxHashMap<State, StateKey> = states
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), StateKey::from_raw(i as u32)))
            .collect();
        let one_cache: FxHashMap<OneKey, FormulaId> = retained_one
            .into_iter()
            .map(|(k, f, v)| {
                let s = state_map[k.state().index()].expect("marked above");
                (OneKey::pack(s, f, k.rel(), k.shifted()), v)
            })
            .collect();
        let gap_cache: FxHashMap<GapKey, FormulaId> = self
            .gap_cache
            .iter()
            .filter_map(|(&k, &v)| {
                Some((
                    GapKey::pack(map[k.formula().index()]?, k.rel()),
                    map[v.index()]?,
                ))
            })
            .collect();

        self.nodes = nodes;
        self.ids = ids;
        self.metas = metas;
        // The watermark may drop: if GC collected the last nonzero-slack
        // node, the arena is shift-free again and every fast path re-arms.
        self.ever_shifted = self.metas.iter().any(|m| m.is_translatable());
        self.states = states;
        self.state_ids = state_ids;
        self.one_cache = one_cache;
        self.gap_cache = gap_cache;
        FormulaRemap { map }
    }
}

/// Memory footprint of an arena, in table entries (see [`Interner::memory`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaMemory {
    /// Number of interned formula nodes.
    pub nodes: usize,
    /// Number of interned observation states.
    pub states: usize,
    /// Number of memoised single-observation progressions.
    pub one_cache_entries: usize,
    /// Number of memoised gap progressions.
    pub gap_cache_entries: usize,
}

impl ArenaMemory {
    /// Total number of table entries (the figure the GC pin tests bound).
    pub fn total_entries(&self) -> usize {
        self.nodes + self.states + self.one_cache_entries + self.gap_cache_entries
    }
}

/// Cumulative hit/miss tallies of the two progression caches (see
/// [`Interner::cache_stats`]).
///
/// The tallies are monotone over the arena's lifetime: [`Interner::compact`]
/// rebuilds the cache tables but leaves the counters in place, so a stream's
/// figures accumulate across GC epochs. Counting happens inside the four
/// [`crate::ArenaOps`] cache accessors — the only paths the progression
/// algorithms probe the caches through — so a lookup is counted exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Single-observation progression lookups that found an entry.
    pub one_hits: u64,
    /// Single-observation progression lookups that missed.
    pub one_misses: u64,
    /// Gap progression lookups that found an entry.
    pub gap_hits: u64,
    /// Gap progression lookups that missed.
    pub gap_misses: u64,
}

impl CacheStats {
    /// Total lookups that hit, across both caches.
    pub fn hits(&self) -> u64 {
        self.one_hits + self.gap_hits
    }

    /// Total lookups that missed, across both caches.
    pub fn misses(&self) -> u64 {
        self.one_misses + self.gap_misses
    }

    /// Total lookups, across both caches.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }
}

/// Interior-mutable tally cells for [`CacheStats`] inside the
/// [`Interner`] (`Cell` keeps the arena `Clone`; lookups take `&self`).
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheStatCells {
    one_hits: Cell<u64>,
    one_misses: Cell<u64>,
    gap_hits: Cell<u64>,
    gap_misses: Cell<u64>,
}

impl CacheStatCells {
    fn tally(cell: &Cell<u64>) {
        cell.set(cell.get().wrapping_add(1));
    }

    /// Folds a batch's probes into one cell update (zero adds skipped).
    fn tally_n(cell: &Cell<u64>, n: u64) {
        if n > 0 {
            cell.set(cell.get().wrapping_add(n));
        }
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            one_hits: self.one_hits.get(),
            one_misses: self.one_misses.get(),
            gap_hits: self.gap_hits.get(),
            gap_misses: self.gap_misses.get(),
        }
    }
}

/// The old-id → new-id translation produced by [`Interner::compact`].
#[derive(Debug, Clone)]
pub struct FormulaRemap {
    map: Vec<Option<FormulaId>>,
}

/// Error returned by [`FormulaRemap::remap`] when the requested id did not
/// survive the compaction — it was garbage, not a root or a root's subterm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapCollected {
    /// The pre-compaction id that was collected.
    pub id: FormulaId,
}

impl std::fmt::Display for RemapCollected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "formula id {:?} was collected — pass it as a root to compact()",
            self.id
        )
    }
}

impl std::error::Error for RemapCollected {}

impl FormulaRemap {
    /// The new id of `old`, or `None` if the node was collected.
    pub fn get(&self, old: FormulaId) -> Option<FormulaId> {
        self.map.get(old.index()).copied().flatten()
    }

    /// The new id of `old`, or [`RemapCollected`] if the node did not
    /// survive the compaction.
    pub fn remap(&self, old: FormulaId) -> Result<FormulaId, RemapCollected> {
        self.get(old).ok_or(RemapCollected { id: old })
    }

    /// The new id of a formula that was passed as a compaction root, for hot
    /// paths where liveness holds by construction.
    ///
    /// # Panics
    ///
    /// Panics if `old` was not live at compaction time — callers must have
    /// passed it (or an ancestor) as a root to [`Interner::compact`].
    pub fn remap_unchecked(&self, old: FormulaId) -> FormulaId {
        match self.get(old) {
            Some(new) => new,
            None => panic!(
                "FormulaRemap::remap_unchecked: {}",
                RemapCollected { id: old }
            ),
        }
    }

    /// Number of nodes that survived the compaction.
    pub fn retained(&self) -> usize {
        self.map.iter().filter(|m| m.is_some()).count()
    }
}

impl crate::ArenaOps for Interner {
    fn node(&self, id: FormulaId) -> Node {
        self.nodes[id.index()].clone()
    }

    fn state_holds(&self, key: StateKey, p: &crate::Prop) -> bool {
        self.states[key.index()].holds_prop(p)
    }

    fn node_meta(&self, id: FormulaId) -> NodeMeta {
        Interner::node_meta(self, id)
    }

    fn ever_shifted(&self) -> bool {
        Interner::ever_shifted(self)
    }

    fn intern_state(&mut self, state: &State) -> StateKey {
        Interner::intern_state(self, state)
    }

    fn mk_atom(&mut self, p: crate::Prop) -> FormulaId {
        Interner::mk_atom(self, p)
    }

    fn mk_not(&mut self, a: FormulaId) -> FormulaId {
        Interner::mk_not(self, a)
    }

    fn mk_and_all(&mut self, parts: Vec<FormulaId>) -> FormulaId {
        Interner::mk_and_all(self, parts)
    }

    fn mk_or_all(&mut self, parts: Vec<FormulaId>) -> FormulaId {
        Interner::mk_or_all(self, parts)
    }

    fn mk_implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        Interner::mk_implies(self, a, b)
    }

    fn mk_until(&mut self, a: FormulaId, i: Interval, b: FormulaId) -> FormulaId {
        Interner::mk_until(self, a, i, b)
    }

    fn mk_eventually(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        Interner::mk_eventually(self, i, a)
    }

    fn mk_always(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        Interner::mk_always(self, i, a)
    }

    fn one_cache_get(&self, key: OneKey) -> Option<FormulaId> {
        let found = self.one_cache.get(&key).copied();
        CacheStatCells::tally(if found.is_some() {
            &self.stats.one_hits
        } else {
            &self.stats.one_misses
        });
        found
    }

    fn one_cache_put(&mut self, key: OneKey, value: FormulaId) {
        self.one_cache.insert(key, value);
    }

    fn gap_cache_get(&self, key: GapKey) -> Option<FormulaId> {
        let found = self.gap_cache.get(&key).copied();
        CacheStatCells::tally(if found.is_some() {
            &self.stats.gap_hits
        } else {
            &self.stats.gap_misses
        });
        found
    }

    fn gap_cache_put(&mut self, key: GapKey, value: FormulaId) {
        self.gap_cache.insert(key, value);
    }

    fn one_cache_get_batch(&self, keys: &[OneKey], out: &mut Vec<Option<FormulaId>>) {
        out.clear();
        out.reserve(keys.len());
        let mut hits = 0u64;
        let mut misses = 0u64;
        for key in keys {
            let found = self.one_cache.get(key).copied();
            if found.is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
            out.push(found);
        }
        CacheStatCells::tally_n(&self.stats.one_hits, hits);
        CacheStatCells::tally_n(&self.stats.one_misses, misses);
    }

    fn gap_cache_get_batch(&self, keys: &[GapKey], out: &mut Vec<Option<FormulaId>>) {
        out.clear();
        out.reserve(keys.len());
        let mut hits = 0u64;
        let mut misses = 0u64;
        for key in keys {
            let found = self.gap_cache.get(key).copied();
            if found.is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
            out.push(found);
        }
        CacheStatCells::tally_n(&self.stats.gap_hits, hits);
        CacheStatCells::tally_n(&self.stats.gap_misses, misses);
    }

    // The inherent implementations of these two stay authoritative (they
    // avoid the per-node clone of the generic defaults).
    fn eval_empty(&self, id: FormulaId) -> bool {
        Interner::eval_empty(self, id)
    }

    fn resolve(&self, id: FormulaId) -> Formula {
        Interner::resolve(self, id)
    }

    fn intern(&mut self, phi: &Formula) -> FormulaId {
        Interner::intern(self, phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, simplify, state};

    #[test]
    fn constants_have_fixed_ids() {
        let mut interner = Interner::new();
        assert_eq!(interner.intern(&Formula::True), FormulaId::TRUE);
        assert_eq!(interner.intern(&Formula::False), FormulaId::FALSE);
        assert!(FormulaId::TRUE.is_constant());
        assert_eq!(FormulaId::TRUE.as_bool(), Some(true));
        assert_eq!(FormulaId::FALSE.as_bool(), Some(false));
    }

    #[test]
    fn interning_is_hash_consing() {
        let mut interner = Interner::new();
        let phi = Formula::until(
            Formula::not(Formula::atom("a")),
            Interval::bounded(0, 8),
            Formula::atom("b"),
        );
        let a = interner.intern(&phi);
        let b = interner.intern(&phi.clone());
        assert_eq!(a, b);
        let before = interner.len();
        let _ = interner.intern(&phi);
        assert_eq!(interner.len(), before, "re-interning allocates nothing");
    }

    #[test]
    fn intern_resolve_matches_simplify() {
        let mut interner = Interner::new();
        let samples = [
            Formula::and(
                Formula::atom("a"),
                Formula::and(Formula::True, Formula::atom("a")),
            ),
            Formula::or(
                Formula::not(Formula::not(Formula::atom("b"))),
                Formula::False,
            ),
            Formula::implies(Formula::atom("a"), Formula::atom("a")),
            Formula::until(
                Formula::atom("a"),
                Interval::bounded(0, 5),
                Formula::or(Formula::atom("b"), Formula::False),
            ),
            Formula::and(
                Formula::and(Formula::atom("c"), Formula::atom("a")),
                Formula::atom("b"),
            ),
        ];
        for phi in samples {
            let id = interner.intern(&phi);
            assert_eq!(interner.resolve(id), simplify(&phi), "phi = {phi}");
        }
    }

    #[test]
    fn complementary_operands_collapse() {
        let mut interner = Interner::new();
        let a = interner.intern(&Formula::atom("a"));
        let na = interner.mk_not(a);
        assert_eq!(interner.mk_and(a, na), FormulaId::FALSE);
        assert_eq!(interner.mk_or(a, na), FormulaId::TRUE);
        assert_eq!(interner.mk_not(na), a);
    }

    #[test]
    fn progress_one_matches_general_progress() {
        let mut interner = Interner::new();
        let formulas = [
            crate::parse("a U[0,8) b").unwrap(),
            crate::parse("F[2,6) a").unwrap(),
            crate::parse("G[0,4) (a | b)").unwrap(),
            crate::parse("!a U[2,9) (a & b)").unwrap(),
        ];
        let states = [state!["a"], state!["b"], state![], state!["a", "b"]];
        for phi in &formulas {
            for s in &states {
                for time in [0u64, 2, 5] {
                    for next in [time, time + 1, time + 4, time + 20] {
                        let id = interner.intern(phi);
                        let via_one = interner.progress_one(s, time, id, next);
                        let trace = TimedTrace::new(vec![s.clone()], vec![time]).unwrap();
                        let via_trace = interner.progress(&trace, id, next);
                        assert_eq!(
                            via_one, via_trace,
                            "phi = {phi}, state = {s}, time = {time}, next = {next}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn temporal_horizon_is_the_largest_interval_endpoint() {
        let mut interner = Interner::new();
        let cases = [
            ("true", 0),
            ("p", 0),
            ("!p & (q | r)", 0),
            ("F[0,5) p", 5),
            ("G[2,9) p", 9),
            ("p U[0,6) q", 6),
            ("(F[0,3) p) & (G[0,11) q)", 11),
            ("F[0,inf) p", 0),
            ("F[4,inf) p", 4),
            ("F[0,inf) (F[0,3) p)", 3),
            ("G[0,inf) (p U[1,7) q)", 7),
        ];
        for (text, expected) in cases {
            let id = interner.intern(&crate::parse(text).unwrap());
            assert_eq!(interner.temporal_horizon(id), expected, "horizon of {text}");
            assert_eq!(interner.is_time_invariant(id), expected == 0, "{text}");
        }
    }

    /// The residual a [`SplitRange`] asserts for time point `t`.
    fn residual_at(interner: &mut Interner, r: &crate::SplitRange, t: u64) -> FormulaId {
        match r.kind {
            crate::RangeKind::Uniform => r.residual,
            crate::RangeKind::Translated => {
                <Interner as crate::ArenaOps>::translate_down(interner, r.residual, t - r.lo)
            }
        }
    }

    #[test]
    fn progress_one_over_matches_per_tick_progression() {
        let mut interner = Interner::new();
        let formulas = [
            "a U[0,8) b",
            "F[2,6) a",
            "G[0,4) (a | b)",
            "!a U[2,9) (a & b)",
            "F[0,inf) (F[0,3) b)",
            "(F[0,5) a) | (G[1,inf) b)",
            "a U[6,12) b",
            "(F[3,7) a) & (F[5,11) b)",
        ];
        let states = [state!["a"], state!["b"], state![], state!["a", "b"]];
        for text in formulas {
            let phi = crate::parse(text).unwrap();
            for s in &states {
                for time in [0u64, 3] {
                    for (lo, hi) in [(time, time + 25), (time + 2, time + 14)] {
                        let id = interner.intern(&phi);
                        let splits = interner.progress_one_over(s, time, id, lo, hi);
                        // The ranges tile [lo, hi] exactly, in order.
                        let mut expected_start = lo;
                        for r in &splits {
                            assert_eq!(r.lo, expected_start, "{text} at {s}");
                            assert!(r.hi >= r.lo && r.hi <= hi);
                            expected_start = r.hi + 1;
                            // Every point of the range progresses to the
                            // residual the range's kind asserts for it.
                            for t in r.lo..=r.hi {
                                let expected = residual_at(&mut interner, r, t);
                                assert_eq!(
                                    interner.progress_one(s, time, id, t),
                                    expected,
                                    "{text}, state {s}, time {time}, t = {t}, {r:?}"
                                );
                            }
                            // Multi-point uniform ranges below the stability
                            // threshold must carry a time-invariant residual;
                            // translated ranges must sweep shifts ≥ 1 (the
                            // shift-0 member opens its own range).
                            match r.kind {
                                crate::RangeKind::Uniform => {
                                    if r.hi > r.lo && r.hi < time + interner.temporal_horizon(id) {
                                        assert!(
                                            interner.is_time_invariant(r.residual),
                                            "{text} range {r:?}"
                                        );
                                    }
                                }
                                crate::RangeKind::Translated => {
                                    assert!(r.hi > r.lo, "{text}: singleton translated range");
                                    assert!(
                                        interner.shift_slack(r.residual) > r.hi - r.lo,
                                        "{text} range {r:?}: members must keep shift ≥ 1"
                                    );
                                }
                            }
                        }
                        assert_eq!(
                            expected_start,
                            hi + 1,
                            "{text}: ranges must cover the window"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn progress_gap_over_matches_per_tick_gap() {
        let mut interner = Interner::new();
        for text in [
            "F[0,5) p",
            "p U[2,9) q",
            "G[0,inf) p",
            "F[3,inf) (G[0,4) q)",
            "p U[6,12) q",
        ] {
            let phi = crate::parse(text).unwrap();
            let id = interner.intern(&phi);
            let base = 4u64;
            let splits = interner.progress_gap_over(id, base, base, base + 20);
            let mut expected_start = base;
            for r in &splits {
                assert_eq!(r.lo, expected_start, "{text}");
                expected_start = r.hi + 1;
                for t in r.lo..=r.hi {
                    let expected = residual_at(&mut interner, r, t);
                    assert_eq!(
                        interner.progress_gap(id, t - base),
                        expected,
                        "{text}, t = {t}"
                    );
                }
            }
            assert_eq!(expected_start, base + 21, "{text}");
        }
    }

    #[test]
    fn stable_tail_collapses_to_one_range() {
        let mut interner = Interner::new();
        let id = interner.intern(&crate::parse("F[0,6) b").unwrap());
        // Anchored at 0, window [0, 100]: per-tick residuals up to the
        // horizon, then one range for the entire elapsed tail.
        let splits = interner.progress_one_over(&state![], 0, id, 0, 100);
        let r = *splits.last().unwrap();
        assert_eq!((r.lo, r.hi), (6, 100), "tail of {splits:?}");
        assert_eq!(r.residual, FormulaId::FALSE);
        assert!(splits.len() <= 7);
    }

    #[test]
    fn delayed_window_collapses_to_translated_range() {
        let mut interner = Interner::new();
        let id = interner.intern(&crate::parse("F[6,12) b").unwrap());
        // Anchored at 0: while the window has not opened (occurrence times
        // 1..=5) the residuals F[5,11), F[4,10), … are exact translates of
        // one canonical residual and merge into one translated range; the
        // shift-0 member (the window opening at 6) starts its own range.
        let splits = interner.progress_one_over(&state![], 0, id, 0, 20);
        let translated: Vec<_> = splits
            .iter()
            .filter(|r| r.kind == crate::RangeKind::Translated)
            .collect();
        assert_eq!(translated.len(), 1, "{splits:?}");
        assert_eq!((translated[0].lo, translated[0].hi), (0, 5), "{splits:?}");
        assert_eq!(
            interner.shift_canon(translated[0].residual),
            interner.intern(&crate::parse("F[0,6) b").unwrap()),
            "the zone's canonical residual is the unshifted window"
        );
        // In-window times (6..=11) split per tick (their residuals are not
        // translates — the window is open and shrinking), the elapsed tail
        // (12..) is one uniform range.
        assert!(splits.len() <= 2 + 6 + 1, "{splits:?}");
    }

    #[test]
    fn normalize_materialize_roundtrips() {
        let mut interner = Interner::new();
        use crate::ArenaOps;
        for text in [
            "F[6,12) b",
            "a U[3,9) b",
            "(F[2,6) a) & (F[4,10) b)",
            "p & (F[3,5) q)",
            "G[0,inf) p",
            "a | b",
            "F[0,4) x",
            "!(G[2,8) y)",
        ] {
            let id = interner.intern(&crate::parse(text).unwrap());
            let s = interner.normalize(id);
            assert_eq!(
                interner.materialize(s),
                id,
                "{text}: materialize must invert normalize"
            );
            assert_eq!(
                interner.resolve_shifted(s),
                interner.resolve(id),
                "{text}: resolve_shifted must agree with resolve"
            );
            assert_eq!(
                interner.eval_empty(s.id),
                interner.eval_empty(id),
                "{text}: eval_empty is translation-invariant"
            );
            // The canonical residual is a fixpoint of normalisation.
            let again = interner.normalize(s.id);
            assert_eq!(again.shift, 0, "{text}");
            assert_eq!(again.id, s.id, "{text}");
        }
        // Translates share one canonical residual.
        let a = interner.intern(&crate::parse("F[6,12) b").unwrap());
        let b = interner.intern(&crate::parse("F[2,8) b").unwrap());
        assert_eq!(interner.shift_canon(a), interner.shift_canon(b));
        assert_eq!(interner.shift_slack(a), 6);
        assert_eq!(interner.shift_slack(b), 2);
        // An until with a non-invariant left argument admits no translation:
        // its left obligation is progressed at observations before the
        // window opens, anchoring it absolutely.
        let anchored = interner.intern(&crate::parse("(F[0,4) a) U[3,9) b").unwrap());
        assert_eq!(interner.shift_slack(anchored), 0);
        assert_eq!(interner.shift_canon(anchored), anchored);
    }

    #[test]
    fn compact_keeps_roots_and_drops_garbage() {
        let mut interner = Interner::new();
        let keep = interner.intern(&crate::parse("a U[0,8) b").unwrap());
        let drop_me = interner.intern(&crate::parse("F[0,5) (c & d)").unwrap());
        let before = interner.memory();
        let remap = interner.compact([keep]);
        let after = interner.memory();
        assert!(after.nodes < before.nodes, "{before:?} -> {after:?}");
        let new_keep = remap.remap(keep).unwrap();
        assert_eq!(
            interner.resolve(new_keep),
            crate::parse("a U[0,8) b").map(|f| simplify(&f)).unwrap()
        );
        assert!(remap.get(drop_me).is_none() || drop_me.index() >= interner.len());
        // Constants survive with stable ids.
        assert_eq!(remap.remap(FormulaId::TRUE).unwrap(), FormulaId::TRUE);
        assert_eq!(remap.remap(FormulaId::FALSE).unwrap(), FormulaId::FALSE);
        // The arena still works after compaction: re-interning the kept
        // formula is a no-op, new formulas get fresh ids.
        assert_eq!(
            interner.intern(&crate::parse("a U[0,8) b").unwrap()),
            new_keep
        );
        let fresh = interner.intern(&crate::parse("G[0,3) z").unwrap());
        assert!(interner.len() > new_keep.index());
        assert!(fresh.index() < interner.len());
    }

    #[test]
    fn compact_preserves_progression_results() {
        let mut interner = Interner::new();
        let phi = crate::parse("!a U[2,9) (a & b)").unwrap();
        let id = interner.intern(&phi);
        // Warm the caches.
        let key = interner.intern_state(&state!["a"]);
        let warm = interner.progress_one_cached(key, id, 3);
        let remap = interner.compact([id, warm]);
        let id2 = remap.remap(id).unwrap();
        // Progressing through the compacted arena gives the same formula.
        let key2 = interner.intern_state(&state!["a"]);
        let after = interner.progress_one_cached(key2, id2, 3);
        let mut reference = Interner::new();
        let rid = reference.intern(&phi);
        let rkey = reference.intern_state(&state!["a"]);
        let rres = reference.progress_one_cached(rkey, rid, 3);
        assert_eq!(interner.resolve(after), reference.resolve(rres));
        // Cache entries whose endpoints survived were carried over.
        assert_eq!(
            interner.resolve(remap.remap(warm).unwrap()),
            interner.resolve(after)
        );
    }

    #[test]
    fn compact_bounds_memory_under_churn() {
        let mut interner = Interner::new();
        let root = interner.intern(&crate::parse("G[0,inf) (a -> F[0,6) b)").unwrap());
        let mut live = root;
        let mut peak_after_gc = 0usize;
        for round in 0..50u64 {
            // Churn: throwaway formulas plus cache warming.
            for k in 0..10u64 {
                let text = format!("F[0,{}) (p{} & q{})", 3 + (round + k) % 7, k, round % 5);
                let _ = interner.intern(&crate::parse(&text).unwrap());
            }
            let key = interner.intern_state(&state!["a"]);
            live = interner.progress_one_cached(key, live, 1 + round % 3);
            let remap = interner.compact([live]);
            live = remap.remap(live).unwrap();
            peak_after_gc = peak_after_gc.max(interner.memory().total_entries());
        }
        assert!(
            peak_after_gc < 200,
            "post-GC footprint must stay bounded, got {peak_after_gc}"
        );
    }

    #[test]
    fn packed_cache_keys_roundtrip() {
        for state in [0u32, 1, 7, u32::MAX] {
            for formula in [0u32, 2, 0x89AB_CDEF, u32::MAX] {
                for rel in [
                    0i64,
                    1,
                    -1,
                    63,
                    -64,
                    i32::MAX as i64,
                    -(1 << 40),
                    (1 << 62) - 1,
                    -(1 << 62),
                ] {
                    for shifted in [false, true] {
                        let key = OneKey::pack(
                            StateKey::from_raw(state),
                            FormulaId::from_raw(formula),
                            rel,
                            shifted,
                        );
                        assert_eq!(key.state().raw(), state);
                        assert_eq!(key.formula().raw(), formula);
                        assert_eq!(key.rel(), rel);
                        assert_eq!(key.shifted(), shifted);
                    }
                    let gap = GapKey::pack(FormulaId::from_raw(formula), rel);
                    assert_eq!(gap.formula().raw(), formula);
                    assert_eq!(gap.rel(), rel);
                }
            }
        }
        // The extreme 64-bit relative times stay representable in GapKey
        // (full zig-zag), and distinct tuples pack to distinct keys.
        for rel in [i64::MAX, i64::MIN] {
            let gap = GapKey::pack(FormulaId::TRUE, rel);
            assert_eq!(gap.rel(), rel);
        }
        let a = OneKey::pack(StateKey::from_raw(1), FormulaId::from_raw(2), 3, false);
        let b = OneKey::pack(StateKey::from_raw(1), FormulaId::from_raw(2), 3, true);
        let c = OneKey::pack(StateKey::from_raw(1), FormulaId::from_raw(2), -3, false);
        assert!(a != b && a != c && b != c);
    }

    #[test]
    #[should_panic(expected = "overflows the packed progression-cache key")]
    fn one_key_rejects_unrepresentable_relative_times() {
        let _ = OneKey::pack(StateKey::from_raw(0), FormulaId::TRUE, 1 << 62, false);
    }

    #[test]
    fn eval_empty_matches_empty_trace_evaluation() {
        let mut interner = Interner::new();
        let samples = [
            crate::parse("true").unwrap(),
            crate::parse("p").unwrap(),
            crate::parse("!p").unwrap(),
            crate::parse("F[0,5) p").unwrap(),
            crate::parse("G[0,5) p").unwrap(),
            crate::parse("p U[0,5) q").unwrap(),
            crate::parse("(G[0,5) p) & !q").unwrap(),
        ];
        for phi in samples {
            let id = interner.intern(&phi);
            assert_eq!(
                interner.eval_empty(id),
                evaluate(&TimedTrace::empty(), &phi),
                "phi = {phi}"
            );
        }
    }
}
