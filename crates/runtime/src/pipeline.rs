//! The pipelined segment-stage executor.
//!
//! A *batch* of consecutive closed segments is processed by a pool of scoped
//! worker threads sharing one work queue. The pipeline progresses *classes*,
//! not queries: the monitor groups the queries with the same entry segment
//! and pending set into one class (every settled ⊤/⊥ query of a batch falls
//! into a handful of them) and fans each class's result back to its
//! members. The unit of work is one `(class, segment, pending formula)`
//! triple, but workers *drain and solve them in
//! same-segment batches*: a worker pops an item and takes every queued item
//! of the same segment along with it (capped to a fair share under
//! contention), then progresses the whole batch through **one**
//! [`SegmentSolver`] over the batch's shared [`ShardedInterner`] — the
//! segment's cache slot is taken and merged back once per batch instead of
//! once per item, and the solver's pooled work-stack frames and probe
//! scratch stay warm across the batch. Each distinct rewritten formula is
//! enqueued *immediately* as a work item for the next segment — segment
//! `k + 1` starts progressing a formula as soon as stage `k` emits it, while
//! other formulas (of any class) are still inside stage `k`. There is no
//! barrier between stages; the only synchronisation points are the shared
//! queue, the per-`(segment, class)` dedup sets that keep the pending *sets*
//! identical to the sequential union semantics, the per-segment cache
//! slots, and the output sets of the last segment of the batch. A class of
//! queries registered mid-stream enters the pipeline at its anchor
//! boundary's segment instead of stage 0.
//!
//! Two levels of cross-item sharing keep the per-item cost down:
//!
//! * **Per-segment result cache.** Work items are deduplicated per
//!   `(segment, canonical pending formula)` *across classes*: when classes
//!   with different pending sets share an obligation (common once
//!   shift-normal pendings collapse time-translates to shared canonical
//!   residuals), the segment is solved once and the later items replay the
//!   cached result set. Statistics are accounted once per distinct item: a
//!   replay (or the loser of two workers racing the same item past the
//!   cache miss) adds nothing.
//! * **Per-segment solver caches.** The solver's memo/feasibility/per-cut
//!   caches ([`SegmentCaches`]) live in one slot per segment: a worker takes
//!   the slot, continues from it, and merges it back, so consecutive work
//!   items of a segment stop rebuilding the memo from scratch — previously
//!   the main single-thread regression of the pipelined path against the
//!   sequential one. Two workers racing the same segment simply build
//!   independent caches and merge afterwards (memo entries are complete,
//!   deterministic contribution sets keyed by mixed-radix cut ranks).
//!
//! Remaining worker-local state is genuinely per-item; the arena — nodes,
//! states and the `one_cache`/`gap_cache` progression memos, which carry the
//! cross-segment reuse — is shared by every worker through `&` handles.

use crate::telemetry::PipelineTelemetry;
use rvmtl_distrib::DistributedComputation;
use rvmtl_mtl::hashing::FxHashMap;
use rvmtl_mtl::{FormulaId, ShardedInterner};
use rvmtl_obs::Stopwatch;
use rvmtl_solver::{SegmentCaches, SegmentSolver, SolverStats};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning instead of propagating it.
///
/// Every mutex in this module guards state that is consistent at each await
/// point of the holding critical section (sets and maps are only ever grown,
/// cache slots are take-then-put): a panic inside a critical section cannot
/// leave a half-updated value behind, so clearing the poison flag is sound.
/// The panic itself is contained by the per-item [`catch_unwind`] in
/// [`worker`] and surfaced through [`PipelineOutcome::lost`].
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One unit of work: progress `psi` (of `class`) over `segment`.
struct Item {
    class: usize,
    segment: usize,
    psi: FormulaId,
}

struct PipelineState {
    queue: Mutex<VecDeque<Item>>,
    ready: Condvar,
    /// Items queued or being processed; workers exit when it reaches zero.
    open: AtomicUsize,
    /// Per-`(segment, class)` dedup: a formula is progressed through a
    /// segment once per class, no matter how many stage-`k` branches emitted
    /// it.
    seen: Vec<Vec<Mutex<BTreeSet<FormulaId>>>>,
    /// Per-segment cross-class result cache: pending formula → rewritten
    /// set. The second and later classes carrying the same pending formula
    /// replay the first one's solve.
    results: Vec<Mutex<FxHashMap<FormulaId, BTreeSet<FormulaId>>>>,
    /// Per-segment solver caches, passed from work item to work item.
    caches: Vec<Mutex<Option<SegmentCaches>>>,
    /// Per-class pending set leaving the batch's last segment.
    outs: Vec<Mutex<BTreeSet<FormulaId>>>,
    stats: Mutex<SolverStats>,
    /// `(class, pending formula)` pairs whose solve panicked: the item's
    /// obligation is lost, its rewrites are never fanned out, and every
    /// query of the class must be reported as degraded.
    lost: Mutex<Vec<(usize, FormulaId)>>,
}

/// What a pipeline batch produced: per-class pending sets leaving the last
/// segment, aggregated solver statistics, and the work items lost to panics.
pub(crate) struct PipelineOutcome {
    pub(crate) outs: Vec<BTreeSet<FormulaId>>,
    pub(crate) stats: SolverStats,
    /// Obligations whose solve panicked, one `(class, pending formula)` pair
    /// per lost item. Empty on a healthy run.
    pub(crate) lost: Vec<(usize, FormulaId)>,
}

/// Runs `seeds` (per-class pending formulas, interned in `shared`) through
/// the pipeline of `segments` (each with its residual anchor) on `workers`
/// threads. `entries[c]` is the segment index at which class `c` enters the
/// pipeline. Returns the per-class pending sets after the last segment, the
/// aggregated solver statistics, and any work items lost to panics.
pub(crate) fn run_pipeline(
    segments: &[(DistributedComputation, u64)],
    seeds: &[Vec<FormulaId>],
    entries: &[usize],
    shared: &ShardedInterner,
    workers: usize,
    limit: Option<usize>,
    telemetry: &PipelineTelemetry,
) -> PipelineOutcome {
    assert!(!segments.is_empty(), "a pipeline batch needs segments");
    assert_eq!(seeds.len(), entries.len(), "one entry stage per class");
    let state = PipelineState {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        open: AtomicUsize::new(0),
        seen: (0..segments.len())
            .map(|_| {
                (0..seeds.len())
                    .map(|_| Mutex::new(BTreeSet::new()))
                    .collect()
            })
            .collect(),
        results: (0..segments.len())
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect(),
        caches: (0..segments.len()).map(|_| Mutex::new(None)).collect(),
        outs: (0..seeds.len())
            .map(|_| Mutex::new(BTreeSet::new()))
            .collect(),
        stats: Mutex::new(SolverStats::default()),
        lost: Mutex::new(Vec::new()),
    };
    {
        let mut queue = lock_recover(&state.queue);
        for (class, (pending, &entry)) in seeds.iter().zip(entries).enumerate() {
            let mut seen = lock_recover(&state.seen[entry][class]);
            for &psi in pending {
                if seen.insert(psi) {
                    state.open.fetch_add(1, Ordering::AcqRel);
                    queue.push_back(Item {
                        class,
                        segment: entry,
                        psi,
                    });
                }
            }
        }
    }

    let workers = workers.max(1);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles
                .push(scope.spawn(|| worker(&state, segments, shared, limit, workers, telemetry)));
        }
        for handle in handles {
            // A solve panic is caught *inside* the worker and recorded in
            // `state.lost`; a join error would mean the queue plumbing itself
            // panicked. Either way the surviving queries' results are intact,
            // so the outcome is returned rather than the panic re-raised.
            let _ = handle.join();
        }
    });

    let outs = state
        .outs
        .into_iter()
        .map(|set| set.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let stats = state
        .stats
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let lost = state
        .lost
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    PipelineOutcome { outs, stats, lost }
}

/// Drains a same-segment *batch* of work items from the queue: the first
/// item plus every queued item of the same segment (relative order
/// preserved), capped so that a contended queue still leaves work for the
/// other workers. Returns `None` when the pipeline has drained.
fn pop_batch(state: &PipelineState, workers: usize) -> Option<Vec<Item>> {
    let mut queue = lock_recover(&state.queue);
    loop {
        if let Some(first) = queue.pop_front() {
            // Leave roughly a worker's fair share behind when siblings are
            // competing for the queue (single-worker runs take everything).
            let cap = (queue.len() + 1).div_ceil(workers.max(1)).max(1);
            let segment = first.segment;
            let mut batch = vec![first];
            let mut keep = VecDeque::with_capacity(queue.len());
            while let Some(item) = queue.pop_front() {
                if batch.len() < cap && item.segment == segment {
                    batch.push(item);
                } else {
                    keep.push_back(item);
                }
            }
            *queue = keep;
            return Some(batch);
        }
        if state.open.load(Ordering::Acquire) == 0 {
            return None;
        }
        queue = state
            .ready
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Solves one same-segment batch of work items through a *single*
/// [`SegmentSolver`]: the segment's cache slot is taken once, every item of
/// the batch progresses through the warm solver (frames, probe scratch and
/// memo stay hot), and the caches are merged back once — instead of one
/// take/solve/merge round-trip per `(class, segment, formula)` item. Items
/// whose pending formula was already solved for another class replay the
/// per-segment result cache without touching the solver.
///
/// Returns one outcome per item, in order: `Some(rewrites)` or `None` for an
/// item whose solve panicked. A panic is isolated to its item — the poisoned
/// solver (and the caches it held) is discarded, exactly like the previous
/// per-item path, and the remaining items of the batch continue on a fresh
/// solver.
fn solve_batch(
    state: &PipelineState,
    segments: &[(DistributedComputation, u64)],
    shared: &ShardedInterner,
    limit: Option<usize>,
    items: &[Item],
    telemetry: &PipelineTelemetry,
) -> Vec<Option<BTreeSet<FormulaId>>> {
    let seg_ix = items[0].segment;
    let (segment, anchor) = &segments[seg_ix];
    let mut outcomes: Vec<Option<BTreeSet<FormulaId>>> = Vec::with_capacity(items.len());
    while outcomes.len() < items.len() {
        // Replay-cache fast path: no solver needed.
        {
            let results = lock_recover(&state.results[seg_ix]);
            while outcomes.len() < items.len() {
                match results.get(&items[outcomes.len()].psi) {
                    Some(cached) => outcomes.push(Some(cached.clone())),
                    None => break,
                }
            }
        }
        if outcomes.len() == items.len() {
            break;
        }
        // Build one solver for the remaining run of the batch.
        let caches = lock_recover(&state.caches[seg_ix])
            .take()
            .unwrap_or_else(|| SegmentCaches::new(segment));
        let mut handle = shared;
        let mut solver = SegmentSolver::with_caches(segment, *anchor, &mut handle, caches);
        if let Some(l) = limit {
            solver = solver.with_limit(l);
        }
        let mut poisoned = false;
        while outcomes.len() < items.len() && !poisoned {
            let item = &items[outcomes.len()];
            if let Some(cached) = lock_recover(&state.results[seg_ix]).get(&item.psi) {
                outcomes.push(Some(cached.clone()));
                continue;
            }
            // Isolate the solve: a panicking class loses this one item while
            // every other item — including the same class's siblings —
            // proceeds untouched.
            let timer = telemetry.work_item.is_enabled().then(Stopwatch::start);
            let solved = catch_unwind(AssertUnwindSafe(|| solver.progress(item.psi)));
            if let Some(timer) = timer {
                let nanos = timer.elapsed_nanos();
                telemetry.work_item.record(nanos);
                telemetry.busy.add(nanos);
            }
            match solved {
                Ok(result) => {
                    // Publish result and stats atomically: two workers may
                    // race the same (segment, formula) item past the lookup
                    // above and both solve it (the duplicate search is benign
                    // — results are deterministic), but only the one that
                    // first publishes accounts its statistics, so the
                    // aggregated counters stay those of one solve per
                    // distinct item.
                    let won = lock_recover(&state.results[seg_ix])
                        .insert(item.psi, result.formulas.clone())
                        .is_none();
                    if won {
                        lock_recover(&state.stats).absorb(&result.stats);
                    }
                    outcomes.push(Some(result.formulas));
                }
                Err(_) => {
                    outcomes.push(None);
                    poisoned = true;
                }
            }
        }
        if poisoned {
            // The solver may have panicked mid-search; its state (and the
            // caches it took) is not trusted — dropped here, same as the old
            // per-item path, which lost the taken caches on a panic too.
            continue;
        }
        let caches = solver.into_caches();
        let mut slot = lock_recover(&state.caches[seg_ix]);
        match slot.as_mut() {
            Some(existing) => existing.absorb(caches),
            None => *slot = Some(caches),
        }
    }
    outcomes
}

fn worker(
    state: &PipelineState,
    segments: &[(DistributedComputation, u64)],
    shared: &ShardedInterner,
    limit: Option<usize>,
    workers: usize,
    telemetry: &PipelineTelemetry,
) {
    loop {
        let Some(batch) = pop_batch(state, workers) else {
            // Everything drained: wake any sibling still waiting.
            state.ready.notify_all();
            return;
        };

        let batch_timer = telemetry.segment_batch.is_enabled().then(Stopwatch::start);
        let outcomes = solve_batch(state, segments, shared, limit, &batch, telemetry);
        if let Some(timer) = batch_timer {
            telemetry.segment_batch.record(timer.elapsed_nanos());
        }

        for (item, outcome) in batch.iter().zip(outcomes) {
            let Some(formulas) = outcome else {
                lock_recover(&state.lost).push((item.class, item.psi));
                if state.open.fetch_sub(1, Ordering::AcqRel) == 1 {
                    state.ready.notify_all();
                }
                continue;
            };

            let next_segment = item.segment + 1;
            if next_segment < segments.len() {
                // Hand each fresh rewrite to the next stage immediately.
                let fresh: Vec<FormulaId> = {
                    let mut seen = lock_recover(&state.seen[next_segment][item.class]);
                    formulas
                        .into_iter()
                        .filter(|&psi| seen.insert(psi))
                        .collect()
                };
                if !fresh.is_empty() {
                    let mut queue = lock_recover(&state.queue);
                    for psi in fresh {
                        state.open.fetch_add(1, Ordering::AcqRel);
                        queue.push_back(Item {
                            class: item.class,
                            segment: next_segment,
                            psi,
                        });
                    }
                    drop(queue);
                    state.ready.notify_all();
                }
            } else {
                lock_recover(&state.outs[item.class]).extend(formulas);
            }

            if state.open.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last open item: release every waiting sibling.
                state.ready.notify_all();
            }
        }
    }
}
