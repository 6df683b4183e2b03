//! Segment stages: the per-segment solve step both execution paths share,
//! the worker loop of the pipelined path, and the pool that runs it.
//!
//! The paper progresses every pending formula through a segment
//! independently (Sec. V-C): the next pending set is the union of each
//! obligation's rewrites. A batch's obligations therefore split across
//! workers that share nothing. The monitor deals a batch's *units* — one
//! `(entry segment, pending obligation)` pair each — round-robin to
//! workers, each of which owns a private [`Interner`]. Worker 0 runs on the
//! calling thread; every other worker is a [`WorkerPool`] thread the monitor
//! keeps across batches, fed one [`Job`] per batch that carries the
//! worker's arena by value and hands it back with the result. A worker
//! advances its units segment by segment through [`solve_segment`], the
//! step the sequential path runs, and returns one pending set per unit; the
//! monitor merges those back into the query arena. There is no lock or
//! shared cache: what a worker solves, in which order and over which arena
//! state is a function of its units and its own history, so its solver
//! counters, cache tallies and its choice of representatives under a
//! solution limit repeat exactly from run to run.

use rvmtl_distrib::DistributedComputation;
use rvmtl_mtl::hashing::FxHashMap;
use rvmtl_mtl::{FormulaId, Interner};
use rvmtl_obs::{Histogram, Stopwatch};
use rvmtl_solver::{SegmentSolver, SolverStats};
use std::any::Any;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

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

/// One worker's share of a batch, with everything it needs to run on a
/// thread of its own: its arena (by value), the batch's segments and its
/// units, seeds interned in that arena.
pub(crate) struct Job {
    pub(crate) arena: Interner,
    pub(crate) segments: Arc<[(DistributedComputation, u64)]>,
    pub(crate) units: Vec<(usize, FormulaId)>,
    pub(crate) limit: Option<usize>,
    pub(crate) work_item: Histogram,
}

/// A finished [`Job`]: the worker's arena, handed back, and its outcome.
pub(crate) type Done = (Interner, WorkerOutcome);

impl Job {
    fn run(mut self) -> Done {
        let outcome = run_worker(
            &mut self.arena,
            &self.segments,
            &self.units,
            self.limit,
            &self.work_item,
        );
        (self.arena, outcome)
    }
}

/// A pool thread: it runs each job it receives and sends back the result.
struct PoolThread {
    jobs: Sender<Job>,
    done: Receiver<Done>,
    handle: JoinHandle<()>,
}

impl PoolThread {
    fn spawn(worker: usize) -> std::io::Result<Self> {
        let (jobs, inbox) = channel::<Job>();
        let (outbox, done) = channel();
        let handle = thread::Builder::new()
            .name(format!("rvmtl-worker-{worker}"))
            .spawn(move || {
                // The loop ends when the pool drops its job sender.
                for job in inbox {
                    if outbox.send(job.run()).is_err() {
                        break;
                    }
                }
            })?;
        Ok(PoolThread { jobs, done, handle })
    }
}

/// The pipelined path's worker threads: thread `k − 1` serves worker `k`,
/// and worker 0 is the calling thread. A thread is spawned by the first
/// batch that deals its worker a share, and again only if it died; the
/// threads are joined when the pool drops.
#[derive(Default)]
pub(crate) struct WorkerPool {
    threads: Vec<Option<PoolThread>>,
}

impl WorkerPool {
    /// Runs `jobs[0]` on the calling thread and `jobs[k]` on worker `k`'s
    /// pool thread, and returns every result in job order once all are in.
    /// A job whose run panicked comes back as its panic payload, as do a
    /// job whose thread could not be spawned and one whose thread died; such
    /// a thread is joined and forgotten, so the next batch respawns it.
    pub(crate) fn run(&mut self, jobs: Vec<Job>) -> Vec<thread::Result<Done>> {
        let mut jobs = jobs.into_iter();
        let Some(local) = jobs.next() else {
            return Vec::new();
        };
        if self.threads.len() < jobs.len() {
            self.threads.resize_with(jobs.len(), || None);
        }
        // Dispatch first, so the pool threads solve while the caller does.
        let sent: Vec<thread::Result<()>> = jobs
            .enumerate()
            .map(|(i, job)| self.dispatch(i, job))
            .collect();
        let mut results = vec![catch_unwind(AssertUnwindSafe(|| local.run()))];
        for (i, sent) in sent.into_iter().enumerate() {
            results.push(sent.and_then(|()| self.collect(i)));
        }
        results
    }

    fn dispatch(&mut self, i: usize, job: Job) -> thread::Result<()> {
        let slot = &mut self.threads[i];
        if slot.is_none() {
            let thread = PoolThread::spawn(i + 1).map_err(|e| -> Box<dyn Any + Send> {
                Box::new(format!("cannot spawn pipeline worker thread: {e}"))
            })?;
            *slot = Some(thread);
        }
        if let Some(thread) = slot {
            // A send fails only if the thread has died; `collect` reports it.
            let _ = thread.jobs.send(job);
        }
        Ok(())
    }

    fn collect(&mut self, i: usize) -> thread::Result<Done> {
        if let Some(Ok(done)) = self.threads[i].as_ref().map(|t| t.done.recv()) {
            return Ok(done);
        }
        // The thread died holding the job: join it for its panic.
        let payload = self.threads[i]
            .take()
            .and_then(|thread| thread.handle.join().err());
        Err(payload.unwrap_or_else(|| Box::new("pipeline worker thread ended without a result")))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Drop every job sender before joining, so all threads wind down
        // together; a thread's panic has already been reported by `run`.
        let handles: Vec<JoinHandle<()>> = self
            .threads
            .drain(..)
            .flatten()
            .map(|PoolThread { handle, .. }| handle)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}
