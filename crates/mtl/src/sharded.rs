//! A lock-per-shard concurrent formula arena.
//!
//! [`ShardedInterner`] is the concurrent counterpart of [`Interner`]: the
//! same hash-consing invariant (one node per distinct canonical formula), the
//! same canonicalising smart constructors, and the same progression caches —
//! but every table is split into [`SHARDS`] shards, each behind its own
//! `Mutex`, so worker threads can intern nodes and hit the `one_cache` /
//! `gap_cache` concurrently. This is what lets the pipelined streaming path
//! share one *query-spanning* arena (and its memoised progressions) instead
//! of rebuilding a throwaway interner per formula.
//!
//! # Id packing
//!
//! A node is assigned to the shard named by the hash of its canonical form,
//! and its [`FormulaId`] packs the shard into the low [`SHARD_BITS`] bits and
//! the index within the shard into the high bits. Ids are therefore *sparse*
//! in [`FormulaId::index`] space (unlike the dense ids of [`Interner`]), but
//! remain 4-byte copies with id-equality. The two boolean constants keep
//! their universal ids: `TRUE` is slot 0 of shard 0 and `FALSE` is slot 0 of
//! shard 1, so `FormulaId::TRUE`/`FormulaId::FALSE` mean the same thing in
//! every arena. [`StateKey`]s are packed the same way.
//!
//! # Locking discipline
//!
//! Every operation locks **at most one shard at a time** and never recurses
//! while holding a lock: cross-shard data (children's nodes, horizons) is
//! read — shard by shard — *before* the target shard is locked, so the lock
//! graph is trivially acyclic. Races are benign by idempotence: two threads
//! interning the same node serialise on its (single) home shard, and two
//! threads racing a cache miss compute the same canonical result.
//!
//! # Determinism
//!
//! *Which* raw id a formula receives depends on thread interleaving (slot
//! indices are handed out in arrival order), but everything observable is
//! canonical: node identity within the arena, [`ArenaOps::resolve`] (which
//! re-sorts n-ary operands structurally), verdicts, and formula *sets*
//! resolved out of the arena are interleaving-independent. The agreement with
//! the sequential [`Interner`] is pinned by `tests/intern_properties.rs`.

use crate::hashing::{FxHashMap, FxHasher};
use crate::intern::{ArenaMemory, CacheStats};
use crate::{
    ArenaOps, Formula, FormulaId, GapKey, Interval, Node, NodeKind, NodeMeta, OneKey, Prop, State,
    StateKey,
};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of bits of a packed id that name the shard.
pub const SHARD_BITS: u32 = 4;
/// Number of shards (`2^SHARD_BITS`).
pub const SHARDS: usize = 1 << SHARD_BITS;

/// One shard: a miniature interner plus its slice of the caches.
#[derive(Debug, Default)]
struct Shard {
    nodes: Vec<Node>,
    ids: FxHashMap<Node, u32>,
    /// Fused per-node metadata records (see [`crate::NodeMeta`]): kind tag,
    /// horizon, shift slack and canonical residual (which may live in a
    /// different shard) in one slot-indexed read under the shard lock.
    metas: Vec<NodeMeta>,
    states: Vec<State>,
    state_ids: FxHashMap<State, u32>,
    one_cache: FxHashMap<OneKey, FormulaId>,
    gap_cache: FxHashMap<GapKey, FormulaId>,
}

/// Cumulative hit/miss tallies of the progression caches, shared across all
/// shards (relaxed atomics: worker threads tally concurrently; the figures
/// are telemetry, not synchronisation).
#[derive(Debug, Default)]
struct SharedCacheStats {
    one_hits: AtomicU64,
    one_misses: AtomicU64,
    gap_hits: AtomicU64,
    gap_misses: AtomicU64,
}

impl SharedCacheStats {
    fn tally(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a whole batch's worth of probes into one relaxed add (zero adds
    /// skipped: the common all-hit / all-miss batch touches one cell).
    fn tally_n(cell: &AtomicU64, n: u64) {
        if n > 0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            one_hits: self.one_hits.load(Ordering::Relaxed),
            one_misses: self.one_misses.load(Ordering::Relaxed),
            gap_hits: self.gap_hits.load(Ordering::Relaxed),
            gap_misses: self.gap_misses.load(Ordering::Relaxed),
        }
    }
}

/// The concurrent formula arena. See the module documentation.
#[derive(Debug)]
pub struct ShardedInterner {
    shards: Vec<Mutex<Shard>>,
    /// Arena-level shift watermark (see [`crate::Interner::ever_shifted`]),
    /// **monotone under concurrent interning**: it is raised with a release
    /// store *before* the nonzero-slack node is published into its home
    /// shard, so any thread that can observe the node's id (which requires a
    /// synchronising handoff from the interning thread) also observes the
    /// raised watermark with the acquire load in
    /// [`ShardedInterner::ever_shifted`]. A thread racing ahead of the
    /// handoff may still read `false` and take the direct-key fast path for
    /// ids it already holds — harmless: those ids have slack 0 or `MAX`, and
    /// direct/shifted cache entries are disjoint by the key flag, so the two
    /// regimes never alias. Reset only by [`ShardedInterner::clear`] (the
    /// epoch GC), which invalidates all ids anyway.
    ever_shifted: AtomicBool,
    /// Cumulative cache hit/miss tallies (telemetry; preserved across
    /// [`ShardedInterner::clear`] so a stream's figures accumulate over GC
    /// epochs).
    stats: SharedCacheStats,
}

impl Default for ShardedInterner {
    fn default() -> Self {
        ShardedInterner::new()
    }
}

impl Clone for ShardedInterner {
    fn clone(&self) -> Self {
        ShardedInterner {
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let s = s.lock().unwrap_or_else(PoisonError::into_inner);
                    Mutex::new(Shard {
                        nodes: s.nodes.clone(),
                        ids: s.ids.clone(),
                        metas: s.metas.clone(),
                        states: s.states.clone(),
                        state_ids: s.state_ids.clone(),
                        one_cache: s.one_cache.clone(),
                        gap_cache: s.gap_cache.clone(),
                    })
                })
                .collect(),
            ever_shifted: AtomicBool::new(self.ever_shifted.load(Ordering::Acquire)),
            stats: SharedCacheStats {
                one_hits: AtomicU64::new(self.stats.one_hits.load(Ordering::Relaxed)),
                one_misses: AtomicU64::new(self.stats.one_misses.load(Ordering::Relaxed)),
                gap_hits: AtomicU64::new(self.stats.gap_hits.load(Ordering::Relaxed)),
                gap_misses: AtomicU64::new(self.stats.gap_misses.load(Ordering::Relaxed)),
            },
        }
    }
}

fn pack(shard: usize, local: u32) -> u32 {
    debug_assert!(local <= u32::MAX >> SHARD_BITS, "shard overflow");
    (local << SHARD_BITS) | shard as u32
}

fn unpack(raw: u32) -> (usize, usize) {
    (
        (raw & (SHARDS as u32 - 1)) as usize,
        (raw >> SHARD_BITS) as usize,
    )
}

fn shard_of<T: Hash>(value: &T) -> usize {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    (hasher.finish() as usize) & (SHARDS - 1)
}

impl ShardedInterner {
    /// Creates an arena holding only the two boolean constants.
    // Freshly constructed mutexes cannot be poisoned.
    #[allow(clippy::expect_used)]
    pub fn new() -> Self {
        let interner = ShardedInterner {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            ever_shifted: AtomicBool::new(false),
            stats: SharedCacheStats::default(),
        };
        // The constants live at fixed slots so their universal ids hold:
        // TRUE = raw 0 = (shard 0, slot 0), FALSE = raw 1 = (shard 1, slot 0).
        {
            let mut s0 = interner.shards[0].lock().expect("fresh shard");
            s0.nodes.push(Node::True);
            s0.metas.push(NodeMeta {
                horizon: 0,
                slack: u64::MAX,
                canon: FormulaId::TRUE,
                kind: NodeKind::True,
            });
            s0.ids.insert(Node::True, 0);
        }
        {
            let mut s1 = interner.shards[1].lock().expect("fresh shard");
            s1.nodes.push(Node::False);
            s1.metas.push(NodeMeta {
                horizon: 0,
                slack: u64::MAX,
                canon: FormulaId::FALSE,
                kind: NodeKind::False,
            });
            s1.ids.insert(Node::False, 0);
        }
        debug_assert_eq!(pack(0, 0), FormulaId::TRUE.raw());
        debug_assert_eq!(pack(1, 0), FormulaId::FALSE.raw());
        interner
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard> {
        // Recover from poisoning instead of propagating it: every critical
        // section below appends complete entries (node, meta, id) or reads —
        // a panic between the pushes of one intern cannot be observed because
        // the id is published only after all three — so a poisoned shard is
        // still structurally consistent, and panic-isolated callers (the
        // runtime's worker pool) keep the arena usable after a caught panic.
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of distinct formulas interned so far (sums the shards; a moment
    ///-in-time figure under concurrent use).
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.lock(i).nodes.len()).sum()
    }

    /// Always `false`: a fresh arena holds the two constants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current memory footprint across all shards, in table entries.
    pub fn memory(&self) -> ArenaMemory {
        let mut memory = ArenaMemory::default();
        for i in 0..SHARDS {
            let s = self.lock(i);
            memory.nodes += s.nodes.len();
            memory.states += s.states.len();
            memory.one_cache_entries += s.one_cache.len();
            memory.gap_cache_entries += s.gap_cache.len();
        }
        memory
    }

    /// Drops every node, state and cache entry except the two constants —
    /// the epoch reset of the streaming runtime's GC: all previously issued
    /// ids (other than the constants) are invalidated. The shift watermark
    /// ([`ShardedInterner::ever_shifted`]) resets with the arena, so a new
    /// epoch re-arms the shift-free fast paths until a nonzero-slack node is
    /// interned again.
    pub fn clear(&mut self) {
        let stats = std::mem::take(&mut self.stats);
        *self = ShardedInterner::new();
        self.stats = stats;
    }

    /// Cumulative progression-cache hit/miss tallies (monotone across
    /// [`ShardedInterner::clear`]; see [`CacheStats`]). A moment-in-time
    /// figure under concurrent use.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// The node named by `id` (a clone; the shard lock cannot be held across
    /// the caller's use).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not come from this arena.
    pub fn node(&self, id: FormulaId) -> Node {
        let (shard, local) = unpack(id.raw());
        self.lock(shard).nodes[local].clone()
    }

    /// The fused metadata record of `id` (see
    /// [`Interner::node_meta`](crate::Interner::node_meta)) — one shard lock
    /// and one indexed read serve every metadata query.
    pub fn node_meta(&self, id: FormulaId) -> NodeMeta {
        let (shard, local) = unpack(id.raw());
        self.lock(shard).metas[local]
    }

    /// The arena-level shift watermark (see
    /// [`Interner::ever_shifted`](crate::Interner::ever_shifted)); monotone
    /// under concurrent interning — see the field documentation.
    pub fn ever_shifted(&self) -> bool {
        self.ever_shifted.load(Ordering::Acquire)
    }

    /// The temporal horizon of `id` (see [`Interner::temporal_horizon`](crate::Interner::temporal_horizon)).
    pub fn temporal_horizon(&self, id: FormulaId) -> u64 {
        self.node_meta(id).horizon
    }

    /// The shift slack of `id` (see [`Interner::shift_slack`](crate::Interner::shift_slack)).
    pub fn shift_slack(&self, id: FormulaId) -> u64 {
        self.node_meta(id).slack
    }

    /// The canonical shift-normal residual of `id` (see
    /// [`Interner::shift_canon`](crate::Interner::shift_canon)).
    pub fn shift_canon(&self, id: FormulaId) -> FormulaId {
        self.node_meta(id).canon
    }

    /// Returns `true` if the interned state satisfies the proposition.
    pub fn state_holds(&self, key: StateKey, p: &Prop) -> bool {
        let (shard, local) = unpack(key.raw());
        self.lock(shard).states[local].holds_prop(p)
    }

    /// Interns an observation state (see [`Interner::intern_state`](crate::Interner::intern_state)).
    // Shard overflow is unrecoverable by design (packed u32 keys), as for
    // the sequential interner.
    #[allow(clippy::expect_used)]
    pub fn intern_state(&self, state: &State) -> StateKey {
        let shard = shard_of(state);
        let mut s = self.lock(shard);
        if let Some(&local) = s.state_ids.get(state) {
            return StateKey::from_raw(pack(shard, local));
        }
        let local = u32::try_from(s.states.len()).expect("state shard overflow");
        assert!(
            local <= u32::MAX >> SHARD_BITS,
            "sharded state interner overflow (shard {shard})"
        );
        s.states.push(state.clone());
        s.state_ids.insert(state.clone(), local);
        StateKey::from_raw(pack(shard, local))
    }

    /// The temporal horizon and shift slack of a node from its (already
    /// interned) children — mirror of the sequential interner's fused rule,
    /// computed in **one** pass over the children (one shard lock per child
    /// instead of the two the split horizon/slack walks used to take).
    /// Reads the children's shards, so it must be called with no lock held.
    fn meta_of(&self, node: &Node) -> (u64, u64) {
        fn endpoint(i: &Interval) -> u64 {
            i.end().unwrap_or(i.start())
        }
        match node {
            Node::True | Node::False | Node::Atom(_) => (0, u64::MAX),
            Node::Not(a) => {
                let m = self.node_meta(*a);
                (m.horizon, m.slack)
            }
            Node::And(children) | Node::Or(children) => {
                children.iter().fold((0, u64::MAX), |(h, s), c| {
                    let m = self.node_meta(*c);
                    (h.max(m.horizon), s.min(m.slack))
                })
            }
            Node::Implies(a, b) => {
                let (ma, mb) = (self.node_meta(*a), self.node_meta(*b));
                (ma.horizon.max(mb.horizon), ma.slack.min(mb.slack))
            }
            Node::Eventually(i, a) | Node::Always(i, a) => (
                endpoint(i).max(self.node_meta(*a).horizon),
                i.translation_slack(),
            ),
            Node::Until(a, i, b) => {
                let (ma, mb) = (self.node_meta(*a), self.node_meta(*b));
                let slack = if ma.horizon == 0 {
                    i.translation_slack()
                } else {
                    0
                };
                (endpoint(i).max(ma.horizon).max(mb.horizon), slack)
            }
        }
    }

    /// Builds the exact downward translate of a (possibly not yet interned)
    /// node; the smart constructors lock shards transiently, so no lock may
    /// be held here.
    fn translate_down_node(&self, node: &Node, delta: u64) -> FormulaId {
        match node {
            Node::True | Node::False | Node::Atom(_) => {
                unreachable!("propositional nodes have slack MAX and are their own canonical form")
            }
            Node::Not(a) => {
                let a = self.translate_down_id(*a, delta);
                self.mk_not(a)
            }
            Node::And(children) => {
                let parts = children
                    .iter()
                    .map(|&c| self.translate_down_id(c, delta))
                    .collect();
                self.mk_and_all(parts)
            }
            Node::Or(children) => {
                let parts = children
                    .iter()
                    .map(|&c| self.translate_down_id(c, delta))
                    .collect();
                self.mk_or_all(parts)
            }
            Node::Implies(a, b) => {
                let a = self.translate_down_id(*a, delta);
                let b = self.translate_down_id(*b, delta);
                self.mk_implies(a, b)
            }
            Node::Eventually(i, a) => self.mk_eventually(i.translate_down(delta), *a),
            Node::Always(i, a) => self.mk_always(i.translate_down(delta), *a),
            Node::Until(a, i, b) => self.mk_until(*a, i.translate_down(delta), *b),
        }
    }

    fn translate_down_id(&self, id: FormulaId, delta: u64) -> FormulaId {
        // Interned children go through the shared trait algorithm so the two
        // arenas cannot diverge; only the not-yet-interned top node needs the
        // node-level variant above.
        let mut handle = self;
        ArenaOps::translate_down(&mut handle, id, delta)
    }

    // Shard overflow is unrecoverable by design (packed u32 ids), as for
    // the sequential interner.
    #[allow(clippy::expect_used)]
    fn insert(&self, node: Node) -> FormulaId {
        debug_assert!(
            !matches!(node, Node::True | Node::False),
            "constants are pre-seeded and folded by the smart constructors"
        );
        let shard = shard_of(&node);
        // Fast path: the node is already interned (canonical-residual
        // construction below is not free, so look before computing).
        if let Some(&local) = self.lock(shard).ids.get(&node) {
            return FormulaId::from_raw(pack(shard, local));
        }
        // Bottom-up metadata and the canonical residual read (and, for the
        // canon, populate) other shards — no lock may be held while they do.
        // Races are benign: two threads computing the same node derive the
        // same canonical id and serialise on the home shard below.
        let (horizon, slack) = self.meta_of(&node);
        let canon = if slack > 0 && slack < u64::MAX {
            // Raise the watermark *before* the node becomes observable: any
            // thread that receives this node's id through a synchronising
            // handoff also sees the raised flag (see the field docs).
            self.ever_shifted.store(true, Ordering::Release);
            Some(self.translate_down_node(&node, slack))
        } else {
            None
        };
        let kind = NodeKind::of(&node);
        let mut s = self.lock(shard);
        if let Some(&local) = s.ids.get(&node) {
            return FormulaId::from_raw(pack(shard, local));
        }
        let local = u32::try_from(s.nodes.len()).expect("shard overflow");
        assert!(
            local <= u32::MAX >> SHARD_BITS,
            "sharded interner overflow (shard {shard})"
        );
        let id = FormulaId::from_raw(pack(shard, local));
        s.nodes.push(node.clone());
        s.metas.push(NodeMeta {
            horizon,
            slack,
            canon: canon.unwrap_or(id),
            kind,
        });
        s.ids.insert(node, local);
        id
    }

    /// Interns an atomic proposition.
    pub fn mk_atom(&self, p: Prop) -> FormulaId {
        self.insert(Node::Atom(p))
    }

    /// Smart negation (same canonicalisation as [`Interner::mk_not`](crate::Interner::mk_not)).
    pub fn mk_not(&self, a: FormulaId) -> FormulaId {
        match a {
            FormulaId::TRUE => FormulaId::FALSE,
            FormulaId::FALSE => FormulaId::TRUE,
            _ => match self.node(a) {
                Node::Not(inner) => inner,
                _ => self.insert(Node::Not(a)),
            },
        }
    }

    /// Smart binary conjunction.
    pub fn mk_and(&self, a: FormulaId, b: FormulaId) -> FormulaId {
        self.mk_and_all(vec![a, b])
    }

    /// Smart binary disjunction.
    pub fn mk_or(&self, a: FormulaId, b: FormulaId) -> FormulaId {
        self.mk_or_all(vec![a, b])
    }

    /// Smart n-ary conjunction (same canonicalisation as
    /// [`Interner::mk_and_all`](crate::Interner::mk_and_all)).
    pub fn mk_and_all(&self, parts: Vec<FormulaId>) -> FormulaId {
        self.mk_nary(parts, true)
    }

    /// Smart n-ary disjunction.
    pub fn mk_or_all(&self, parts: Vec<FormulaId>) -> FormulaId {
        self.mk_nary(parts, false)
    }

    fn mk_nary(&self, parts: Vec<FormulaId>, conjunction: bool) -> FormulaId {
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
                if operands.binary_search(&inner).is_ok() {
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
    pub fn mk_implies(&self, a: FormulaId, b: FormulaId) -> FormulaId {
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
    pub fn mk_until(&self, a: FormulaId, i: Interval, b: FormulaId) -> FormulaId {
        if i.is_empty() || b == FormulaId::FALSE {
            return FormulaId::FALSE;
        }
        self.insert(Node::Until(a, i, b))
    }

    /// Smart timed eventually.
    pub fn mk_eventually(&self, i: Interval, a: FormulaId) -> FormulaId {
        if i.is_empty() || a == FormulaId::FALSE {
            return FormulaId::FALSE;
        }
        self.insert(Node::Eventually(i, a))
    }

    /// Smart timed always.
    pub fn mk_always(&self, i: Interval, a: FormulaId) -> FormulaId {
        if i.is_empty() || a == FormulaId::TRUE {
            return FormulaId::TRUE;
        }
        self.insert(Node::Always(i, a))
    }

    fn one_cache_get(&self, key: OneKey) -> Option<FormulaId> {
        let (shard, _) = unpack(key.formula().raw());
        let found = self.lock(shard).one_cache.get(&key).copied();
        SharedCacheStats::tally(if found.is_some() {
            &self.stats.one_hits
        } else {
            &self.stats.one_misses
        });
        found
    }

    fn one_cache_put(&self, key: OneKey, value: FormulaId) {
        let (shard, _) = unpack(key.formula().raw());
        self.lock(shard).one_cache.insert(key, value);
    }

    fn gap_cache_get(&self, key: GapKey) -> Option<FormulaId> {
        let (shard, _) = unpack(key.formula().raw());
        let found = self.lock(shard).gap_cache.get(&key).copied();
        SharedCacheStats::tally(if found.is_some() {
            &self.stats.gap_hits
        } else {
            &self.stats.gap_misses
        });
        found
    }

    fn gap_cache_put(&self, key: GapKey, value: FormulaId) {
        let (shard, _) = unpack(key.formula().raw());
        self.lock(shard).gap_cache.insert(key, value);
    }

    /// Batched one-cache probe: locks each shard **once per maximal run of
    /// same-shard keys** instead of once per key, and folds the hit/miss
    /// tallies into two relaxed adds per run. A splitter batch keys every
    /// tick against the same formula, so the common case is one lock
    /// round-trip for the whole batch. Tally totals are identical to the
    /// per-key path: one probe counted per key, in order.
    fn one_cache_get_batch(&self, keys: &[OneKey], out: &mut Vec<Option<FormulaId>>) {
        out.clear();
        out.reserve(keys.len());
        let mut i = 0;
        let mut hits = 0u64;
        let mut misses = 0u64;
        while i < keys.len() {
            let (shard, _) = unpack(keys[i].formula().raw());
            let guard = self.lock(shard);
            while i < keys.len() && unpack(keys[i].formula().raw()).0 == shard {
                let found = guard.one_cache.get(&keys[i]).copied();
                if found.is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                }
                out.push(found);
                i += 1;
            }
        }
        SharedCacheStats::tally_n(&self.stats.one_hits, hits);
        SharedCacheStats::tally_n(&self.stats.one_misses, misses);
    }

    /// Batched gap-cache probe; see [`ShardedInterner::one_cache_get_batch`].
    fn gap_cache_get_batch(&self, keys: &[GapKey], out: &mut Vec<Option<FormulaId>>) {
        out.clear();
        out.reserve(keys.len());
        let mut i = 0;
        let mut hits = 0u64;
        let mut misses = 0u64;
        while i < keys.len() {
            let (shard, _) = unpack(keys[i].formula().raw());
            let guard = self.lock(shard);
            while i < keys.len() && unpack(keys[i].formula().raw()).0 == shard {
                let found = guard.gap_cache.get(&keys[i]).copied();
                if found.is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                }
                out.push(found);
                i += 1;
            }
        }
        SharedCacheStats::tally_n(&self.stats.gap_hits, hits);
        SharedCacheStats::tally_n(&self.stats.gap_misses, misses);
    }
}

/// The [`ArenaOps`] algorithms run directly on the concurrent arena. This
/// impl allows `&mut ShardedInterner` call sites (e.g. the sequential parts
/// of a monitor that owns one); use the impl on `&ShardedInterner` to hand
/// *shared* handles to worker threads.
impl ArenaOps for ShardedInterner {
    fn node(&self, id: FormulaId) -> Node {
        ShardedInterner::node(self, id)
    }

    fn state_holds(&self, key: StateKey, p: &Prop) -> bool {
        ShardedInterner::state_holds(self, key, p)
    }

    fn node_meta(&self, id: FormulaId) -> NodeMeta {
        ShardedInterner::node_meta(self, id)
    }

    fn ever_shifted(&self) -> bool {
        ShardedInterner::ever_shifted(self)
    }

    fn intern_state(&mut self, state: &State) -> StateKey {
        ShardedInterner::intern_state(self, state)
    }

    fn mk_atom(&mut self, p: Prop) -> FormulaId {
        ShardedInterner::mk_atom(self, p)
    }

    fn mk_not(&mut self, a: FormulaId) -> FormulaId {
        ShardedInterner::mk_not(self, a)
    }

    fn mk_and_all(&mut self, parts: Vec<FormulaId>) -> FormulaId {
        ShardedInterner::mk_and_all(self, parts)
    }

    fn mk_or_all(&mut self, parts: Vec<FormulaId>) -> FormulaId {
        ShardedInterner::mk_or_all(self, parts)
    }

    fn mk_implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        ShardedInterner::mk_implies(self, a, b)
    }

    fn mk_until(&mut self, a: FormulaId, i: Interval, b: FormulaId) -> FormulaId {
        ShardedInterner::mk_until(self, a, i, b)
    }

    fn mk_eventually(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        ShardedInterner::mk_eventually(self, i, a)
    }

    fn mk_always(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        ShardedInterner::mk_always(self, i, a)
    }

    fn one_cache_get(&self, key: OneKey) -> Option<FormulaId> {
        ShardedInterner::one_cache_get(self, key)
    }

    fn one_cache_put(&mut self, key: OneKey, value: FormulaId) {
        ShardedInterner::one_cache_put(self, key, value)
    }

    fn gap_cache_get(&self, key: GapKey) -> Option<FormulaId> {
        ShardedInterner::gap_cache_get(self, key)
    }

    fn gap_cache_put(&mut self, key: GapKey, value: FormulaId) {
        ShardedInterner::gap_cache_put(self, key, value)
    }

    fn one_cache_get_batch(&self, keys: &[OneKey], out: &mut Vec<Option<FormulaId>>) {
        ShardedInterner::one_cache_get_batch(self, keys, out)
    }

    fn gap_cache_get_batch(&self, keys: &[GapKey], out: &mut Vec<Option<FormulaId>>) {
        ShardedInterner::gap_cache_get_batch(self, keys, out)
    }
}

/// Shared-handle impl: lets any number of worker threads drive the arena
/// through `&ShardedInterner` handles (each handle satisfies the `&mut self`
/// contract of [`ArenaOps`] while the arena itself is only shared).
impl ArenaOps for &ShardedInterner {
    fn node(&self, id: FormulaId) -> Node {
        ShardedInterner::node(self, id)
    }

    fn state_holds(&self, key: StateKey, p: &Prop) -> bool {
        ShardedInterner::state_holds(self, key, p)
    }

    fn node_meta(&self, id: FormulaId) -> NodeMeta {
        ShardedInterner::node_meta(self, id)
    }

    fn ever_shifted(&self) -> bool {
        ShardedInterner::ever_shifted(self)
    }

    fn intern_state(&mut self, state: &State) -> StateKey {
        ShardedInterner::intern_state(self, state)
    }

    fn mk_atom(&mut self, p: Prop) -> FormulaId {
        ShardedInterner::mk_atom(self, p)
    }

    fn mk_not(&mut self, a: FormulaId) -> FormulaId {
        ShardedInterner::mk_not(self, a)
    }

    fn mk_and_all(&mut self, parts: Vec<FormulaId>) -> FormulaId {
        ShardedInterner::mk_and_all(self, parts)
    }

    fn mk_or_all(&mut self, parts: Vec<FormulaId>) -> FormulaId {
        ShardedInterner::mk_or_all(self, parts)
    }

    fn mk_implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        ShardedInterner::mk_implies(self, a, b)
    }

    fn mk_until(&mut self, a: FormulaId, i: Interval, b: FormulaId) -> FormulaId {
        ShardedInterner::mk_until(self, a, i, b)
    }

    fn mk_eventually(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        ShardedInterner::mk_eventually(self, i, a)
    }

    fn mk_always(&mut self, i: Interval, a: FormulaId) -> FormulaId {
        ShardedInterner::mk_always(self, i, a)
    }

    fn one_cache_get(&self, key: OneKey) -> Option<FormulaId> {
        ShardedInterner::one_cache_get(self, key)
    }

    fn one_cache_put(&mut self, key: OneKey, value: FormulaId) {
        ShardedInterner::one_cache_put(self, key, value)
    }

    fn gap_cache_get(&self, key: GapKey) -> Option<FormulaId> {
        ShardedInterner::gap_cache_get(self, key)
    }

    fn gap_cache_put(&mut self, key: GapKey, value: FormulaId) {
        ShardedInterner::gap_cache_put(self, key, value)
    }

    fn one_cache_get_batch(&self, keys: &[OneKey], out: &mut Vec<Option<FormulaId>>) {
        ShardedInterner::one_cache_get_batch(self, keys, out)
    }

    fn gap_cache_get_batch(&self, keys: &[GapKey], out: &mut Vec<Option<FormulaId>>) {
        ShardedInterner::gap_cache_get_batch(self, keys, out)
    }
}

impl ShardedInterner {
    /// Interns a formula tree (see [`ArenaOps::intern`]; provided inherently
    /// so shared handles can intern without importing the trait).
    pub fn intern(&self, phi: &Formula) -> FormulaId {
        let mut handle = self;
        ArenaOps::intern(&mut handle, phi)
    }

    /// Rebuilds the plain formula tree named by `id` (see
    /// [`ArenaOps::resolve`]).
    pub fn resolve(&self, id: FormulaId) -> Formula {
        let handle = self;
        ArenaOps::resolve(&handle, id)
    }

    /// Closes a formula against the empty future (see
    /// [`ArenaOps::eval_empty`]).
    pub fn eval_empty(&self, id: FormulaId) -> bool {
        let handle = self;
        ArenaOps::eval_empty(&handle, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, state, Interner};

    #[test]
    fn constants_keep_universal_ids() {
        let arena = ShardedInterner::new();
        assert_eq!(arena.intern(&Formula::True), FormulaId::TRUE);
        assert_eq!(arena.intern(&Formula::False), FormulaId::FALSE);
        assert!(matches!(arena.node(FormulaId::TRUE), Node::True));
        assert!(matches!(arena.node(FormulaId::FALSE), Node::False));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn hash_consing_across_threads() {
        let arena = ShardedInterner::new();
        let phi = parse("(F[0,5) p) & (q U[1,8) r)").unwrap();
        let ids: Vec<FormulaId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| arena.intern(&phi))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        let again = arena.intern(&phi);
        assert_eq!(again, ids[0]);
    }

    #[test]
    fn agrees_with_sequential_interner() {
        let mut plain = Interner::new();
        let arena = ShardedInterner::new();
        for text in [
            "a U[0,8) b",
            "F[2,6) a",
            "G[0,4) (a | b)",
            "!a U[2,9) (a & b)",
            "(F[0,5) a) | (G[1,inf) b)",
            "a -> (b & !a)",
        ] {
            let phi = parse(text).unwrap();
            let plain_id = plain.intern(&phi);
            let sharded_id = arena.intern(&phi);
            assert_eq!(plain.resolve(plain_id), arena.resolve(sharded_id), "{text}");
            assert_eq!(
                plain.temporal_horizon(plain_id),
                arena.temporal_horizon(sharded_id),
                "{text}"
            );
            assert_eq!(
                plain.eval_empty(plain_id),
                arena.eval_empty(sharded_id),
                "{text}"
            );
            // Progression agrees too (resolved structurally).
            for s in [state!["a"], state!["b"], state![]] {
                for elapsed in [0u64, 1, 3, 10] {
                    let key_p = plain.intern_state(&s);
                    let key_s = arena.intern_state(&s);
                    let mut handle = &arena;
                    let via_plain = plain.progress_one_cached(key_p, plain_id, elapsed);
                    let via_sharded =
                        ArenaOps::progress_one_cached(&mut handle, key_s, sharded_id, elapsed);
                    assert_eq!(
                        plain.resolve(via_plain),
                        arena.resolve(via_sharded),
                        "{text}, state {s}, elapsed {elapsed}"
                    );
                }
            }
        }
    }

    #[test]
    fn clear_resets_to_constants() {
        let mut arena = ShardedInterner::new();
        let id = arena.intern(&parse("F[0,5) p").unwrap());
        assert!(arena.len() > 2);
        arena.clear();
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.memory().nodes, 2);
        // Old non-constant ids are invalid now; re-interning works.
        let again = arena.intern(&parse("F[0,5) p").unwrap());
        let _ = id;
        assert!(matches!(arena.node(again), Node::Eventually(..)));
    }
}
