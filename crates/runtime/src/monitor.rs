//! The streaming monitor: multi-query online verification of live
//! per-process event streams.

use crate::checkpoint::{
    decode_monitor, encode_monitor, epochs_newest_first, write_epoch, CheckpointError,
    MonitorCounters, MonitorImage, QueryImage,
};
use crate::pipeline::{solve_segment, Job, WorkerOutcome, WorkerPool};
use crate::telemetry::RuntimeMetrics;
use crate::{RuntimeHealth, StreamConfig};
use rvmtl_distrib::{
    DistributedComputation, FaultCounters, FaultPolicy, IncrementalSegmenter, StreamError,
};
use rvmtl_monitor::{Integrity, Verdict, VerdictSet};
use rvmtl_mtl::hashing::FxHashMap;
use rvmtl_mtl::{ArenaMemory, CacheStats, Formula, FormulaId, Interner, ShiftedId, State};
use rvmtl_obs::{FlightKind, FlightRecorder, Stopwatch, TelemetrySnapshot};
use rvmtl_solver::SolverStats;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Handle to one query multiplexed over a [`StreamMonitor`]'s stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryId(usize);

impl QueryId {
    /// The query's index (dense, in registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A closed segment awaiting processing, with the anchor time of its residual
/// obligations (the base time of the next segment, or `end + ε` for the final
/// one).
struct QueuedSegment {
    comp: DistributedComputation,
    next_anchor: u64,
}

struct QueryState {
    /// The original specification (kept for reporting).
    root: Formula,
    /// Pending rewritten formulas in shift-normal form over the
    /// query-spanning arena: obligations that are exact time-translates of
    /// each other — within one query or across queries — share one arena
    /// node and differ only in the shift word.
    pending: BTreeSet<ShiftedId>,
    /// Boundary at which the query entered the stream: it participates in
    /// segments whose base time is at or after this. Queries registered
    /// before monitoring started are anchored at the stream's base time;
    /// queries added mid-stream are re-anchored at the boundary following
    /// every segment closed so far.
    anchored_at: u64,
    /// Ingestion faults absorbed in windows this query observes (events at or
    /// after its anchor boundary) — the evidence behind its verdicts is
    /// degraded by exactly these.
    faults: FaultCounters,
    /// Obligations of this query lost to a panicking solve (one per
    /// obligation, also when other queries held and lost it too).
    panics: u64,
    /// The obligations lost, resolved to plain formulas
    /// (so they survive arena GC) and reported as
    /// [`Verdict::Inconclusive`] entries.
    lost: BTreeSet<Formula>,
}

impl QueryState {
    /// The integrity tag of this query's verdicts so far.
    fn integrity(&self) -> Integrity {
        Integrity::from_counters(
            self.faults.dropped,
            self.faults.deduped,
            self.faults.late_beyond_epsilon,
            self.panics,
        )
    }
}

/// Per-segment scratch of the sequential path, kept across segments so that
/// a segment allocates nothing beyond its solves and its changed pending
/// sets.
#[derive(Default)]
struct SegmentScratch {
    /// Distinct pending obligation → its position in `distinct`.
    index: FxHashMap<ShiftedId, usize>,
    /// The distinct pending obligations of the observing queries, in
    /// first-seen order (query order, then pending order).
    distinct: Vec<ShiftedId>,
    /// For each observing query in order, the `distinct` position of each
    /// of its pending obligations.
    slots: Vec<usize>,
    /// `distinct`, materialised.
    seeds: Vec<FormulaId>,
    /// Per distinct obligation, its rewrites as a range of `rewrites`, or
    /// `None` when its solve panicked.
    solved: Vec<Option<Range<usize>>>,
    /// The rewritten formulas of every solve, concatenated, in shift-normal
    /// form.
    rewrites: Vec<ShiftedId>,
}

impl SegmentScratch {
    fn clear(&mut self) {
        self.index.clear();
        self.distinct.clear();
        self.slots.clear();
        self.seeds.clear();
        self.solved.clear();
        self.rewrites.clear();
    }
}

/// A worker arena's remap memos for one GC epoch. Both arenas keep their
/// ids until the next compaction, so an obligation that recurs batch after
/// batch crosses between them by lookup instead of by resolve and
/// re-intern.
#[derive(Default)]
struct RemapMemo {
    /// Query-arena obligation → its seed in the worker arena.
    seeds: FxHashMap<ShiftedId, FormulaId>,
    /// Worker-arena result → its normalised query-arena obligation.
    results: FxHashMap<FormulaId, ShiftedId>,
}

impl RemapMemo {
    fn clear(&mut self) {
        self.seeds.clear();
        self.results.clear();
    }
}

/// The final report of a finished stream.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Final verdict set per query, indexed by [`QueryId::index`].
    pub verdicts: Vec<VerdictSet>,
    /// Rewritten formulas pending after the last segment, per query, before
    /// finalisation (the same quantity as
    /// [`rvmtl_monitor::MonitorReport::pending`]).
    pub pending: Vec<std::collections::BTreeSet<Formula>>,
    /// Number of segments processed.
    pub segments: usize,
    /// Aggregated solver statistics.
    pub stats: SolverStats,
    /// Post-run footprint of the query-spanning arena.
    pub memory: ArenaMemory,
    /// Number of GC epochs that ran.
    pub gc_runs: usize,
    /// Integrity tag per query, indexed by [`QueryId::index`]:
    /// [`Integrity::Exact`] unless a fault was absorbed or a work item lost
    /// in a window the query observes.
    pub integrity: Vec<Integrity>,
    /// Final runtime health counters (see [`RuntimeHealth`]).
    pub health: RuntimeHealth,
    /// Final telemetry snapshot (count-shape metrics always; timing
    /// histograms when [`StreamConfig::with_telemetry`] was on) — the same
    /// view [`StreamMonitor::telemetry`] returns mid-stream.
    pub telemetry: TelemetrySnapshot,
    /// The rendered error behind the most recent automatic checkpoint
    /// failure, if any (the count is in
    /// [`RuntimeHealth::checkpoint_failures`]).
    pub last_checkpoint_error: Option<String>,
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stream report: {} queries over {} segments, {} GC epochs",
            self.verdicts.len(),
            self.segments,
            self.gc_runs
        )?;
        for (index, (verdicts, integrity)) in self.verdicts.iter().zip(&self.integrity).enumerate()
        {
            writeln!(f, "  query {index} [{integrity}]: {verdicts}")?;
        }
        writeln!(
            f,
            "  solver: {} states, {} frontier batches, {} batched probe ticks",
            self.stats.explored_states, self.stats.frontier_batches, self.stats.batched_probe_ticks
        )?;
        writeln!(f, "  health: {}", self.health)?;
        match &self.last_checkpoint_error {
            Some(error) => writeln!(f, "  last checkpoint error: {error}"),
            None => writeln!(f, "  last checkpoint error: none"),
        }
    }
}

/// A streaming monitoring engine: ingests per-process event streams, closes
/// segments by the watermark rule, runs closed segments through sequential or
/// pipelined solver stages, and multiplexes any number of MTL queries over
/// one shared segmentation.
///
/// See the crate documentation for the architecture (watermark rule, pipeline
/// stages, GC epochs). The verdict sets produced are identical to running the
/// batch [`rvmtl_monitor::Monitor`] over the completed computation with the
/// same segment boundaries — pinned by the differential test suite.
pub struct StreamMonitor {
    config: StreamConfig,
    segmenter: IncrementalSegmenter,
    /// The query-spanning arena every pending formula lives in between
    /// stages; compacted at GC epochs.
    arena: Interner,
    /// The pipelined path's private worker arenas, one per worker a batch
    /// has used so far (none on the sequential path). They keep their nodes
    /// and progression caches across batches and are emptied at GC epochs.
    /// A batch lends each arena to its worker's job and puts it back before
    /// returning, so between batches every arena is here.
    worker_arenas: Vec<Interner>,
    /// Per worker arena, its remap memos (cleared with the arena).
    worker_memos: Vec<RemapMemo>,
    /// The pipelined path's worker threads (none until a batch needs them).
    pool: WorkerPool,
    queries: Vec<QueryState>,
    queue: VecDeque<QueuedSegment>,
    segments_processed: usize,
    since_gc: usize,
    gc_runs: usize,
    stats: SolverStats,
    /// Events and heartbeats rejected with a [`StreamError`].
    rejected: u64,
    /// Work items lost to panicking solver stages, across all queries.
    worker_panics: u64,
    /// Forced queue flushes triggered by the backpressure bound.
    backpressure_stalls: u64,
    /// Automatic epoch checkpoints that failed to write.
    checkpoint_failures: u64,
    /// The error behind the most recent automatic checkpoint failure.
    last_checkpoint_error: Option<CheckpointError>,
    /// Epoch checkpoints successfully written and fsynced (automatic and
    /// [`StreamMonitor::write_checkpoint`]). Deliberately *not* part of the
    /// checkpoint wire format: a restored monitor starts counting from its
    /// restore point.
    checkpoints_written: u64,
    /// Events accepted into the stream (rejected calls are counted in
    /// `rejected` instead).
    events_observed: u64,
    /// Heartbeats accepted.
    heartbeats: u64,
    /// Deepest the closed-segment queue ever got.
    queue_depth_peak: usize,
    /// Wall-clock close instant per queued segment base, for the
    /// event-to-verdict and per-query verdict-latency histograms. Populated
    /// only while telemetry is enabled; entries are consumed when their
    /// segment is solved.
    closed_at: HashMap<u64, Instant>,
    /// The registry-resident timing instruments and the flight recorder
    /// (all no-ops unless [`StreamConfig::with_telemetry`] was set).
    metrics: RuntimeMetrics,
    /// Reused buffers of the sequential path (empty until the first
    /// segment is solved).
    scratch: SegmentScratch,
}

impl StreamMonitor {
    /// Creates a monitor for a stream over `process_count` processes with
    /// skew bound `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `process_count` is 0 (via the segmenter).
    pub fn new(process_count: usize, epsilon: u64, config: StreamConfig) -> Self {
        let segmenter = IncrementalSegmenter::with_base_time(
            process_count,
            epsilon,
            config.segment_length,
            config.base_time,
        )
        .with_policy(config.fault_policy);
        let metrics = RuntimeMetrics::new(config.telemetry, config.flight_capacity);
        StreamMonitor {
            config,
            segmenter,
            arena: Interner::new(),
            worker_arenas: Vec::new(),
            worker_memos: Vec::new(),
            pool: WorkerPool::default(),
            queries: Vec::new(),
            queue: VecDeque::new(),
            segments_processed: 0,
            since_gc: 0,
            gc_runs: 0,
            stats: SolverStats::default(),
            rejected: 0,
            worker_panics: 0,
            backpressure_stalls: 0,
            checkpoint_failures: 0,
            last_checkpoint_error: None,
            checkpoints_written: 0,
            events_observed: 0,
            heartbeats: 0,
            queue_depth_peak: 0,
            closed_at: HashMap::new(),
            metrics,
            scratch: SegmentScratch::default(),
        }
    }

    /// Registers a query. A query added before monitoring starts is anchored
    /// at the stream's base time; a query added *after* segments have closed
    /// is re-anchored at the current watermark boundary — the base of the
    /// segment currently open — and participates in every segment from that
    /// boundary on (its timing intervals are measured from the boundary, and
    /// events before it are invisible to it). Closed-but-unprocessed
    /// segments in the queue always predate the boundary, so a late query is
    /// never progressed through a segment it did not observe.
    pub fn add_query(&mut self, phi: &Formula) -> QueryId {
        let anchored_at = self.segmenter.open_base();
        let root = self.arena.intern(phi);
        let root = self.arena.normalize(root);
        self.metrics.register_query();
        self.queries.push(QueryState {
            root: phi.clone(),
            pending: BTreeSet::from([root]),
            anchored_at,
            faults: FaultCounters::default(),
            panics: 0,
            lost: BTreeSet::new(),
        });
        QueryId(self.queries.len() - 1)
    }

    /// Sets the carried-over initial local state of a process — the state it
    /// had established before the stream began (see
    /// [`IncrementalSegmenter::initial_state`]; the batch monitor picks the
    /// same information up from
    /// [`rvmtl_distrib::ComputationBuilder::initial_state`]).
    ///
    /// # Panics
    ///
    /// Panics if the process is unknown or the stream has already started.
    pub fn initial_state(&mut self, process: usize, state: State) {
        self.segmenter.initial_state(process, state);
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// The specification a query was registered with.
    pub fn query(&self, id: QueryId) -> &Formula {
        &self.queries[id.0].root
    }

    /// Number of processes the monitor ingests from (fixed at
    /// construction). Together with [`StreamMonitor::epsilon`] and
    /// [`StreamMonitor::fault_policy`] this is the configuration a wire
    /// `Hello` handshake must match.
    pub fn process_count(&self) -> usize {
        self.segmenter.process_count()
    }

    /// The clock-skew bound ε the watermark segmentation assumes.
    pub fn epsilon(&self) -> u64 {
        self.segmenter.epsilon()
    }

    /// The ingestion fault policy in force (see
    /// [`StreamConfig::fault_policy`]).
    pub fn fault_policy(&self) -> FaultPolicy {
        self.segmenter.policy()
    }

    /// Ingests one event of `process` at local `time` establishing `state`,
    /// processing any segments this closes (subject to the configured flush
    /// depth).
    ///
    /// # Errors
    ///
    /// See [`StreamError`]; a rejected event leaves the monitor unchanged.
    /// What counts as rejectable depends on the configured [`FaultPolicy`] —
    /// under the default `Strict` policy a duplicate observation is an
    /// error, under `Dedup` it is absorbed (and the affected queries'
    /// verdicts are integrity-tagged):
    ///
    /// ```
    /// use rvmtl_mtl::{parse, state};
    /// use rvmtl_runtime::{StreamConfig, StreamMonitor};
    ///
    /// let mut monitor = StreamMonitor::new(1, 0, StreamConfig::new(10));
    /// monitor.add_query(&parse("G[0,5) p").unwrap());
    /// monitor.observe(0, 1, state!["p"]).unwrap();
    /// // Same (process, time) again: Strict rejects, monitor unchanged.
    /// assert!(monitor.observe(0, 1, state!["p"]).is_err());
    /// let report = monitor.finish();
    /// assert!(report.integrity.iter().all(|i| i.is_exact()));
    /// ```
    pub fn observe(&mut self, process: usize, time: u64, state: State) -> Result<(), StreamError> {
        let before = self.segmenter.fault_counters();
        let closed = match self.segmenter.observe(process, time, state) {
            Ok(closed) => closed,
            Err(e) => {
                self.rejected += 1;
                return Err(e);
            }
        };
        // A fault the policy absorbed in this call degrades the evidence of
        // every query that observes the event's window — those anchored at or
        // before the event's time. (Queries anchored later never see the
        // window, absorbed or not, so their verdicts stay exact.)
        let delta = self.segmenter.fault_counters().delta_since(&before);
        if !delta.is_zero() {
            for query in &mut self.queries {
                if time >= query.anchored_at {
                    query.faults.absorb(&delta);
                }
            }
        }
        self.events_observed += 1;
        self.metrics.flight.record(FlightKind::EventObserved {
            process: u32::try_from(process).unwrap_or(u32::MAX),
            time,
        });
        self.enqueue(closed);
        Ok(())
    }

    /// Advances a process's local clock without an event (drives the
    /// watermark through idle processes).
    ///
    /// # Errors
    ///
    /// See [`StreamError`].
    pub fn heartbeat(&mut self, process: usize, time: u64) -> Result<(), StreamError> {
        // Heartbeats carry no observation, so an absorbed stale heartbeat
        // (best-effort policy) degrades nothing and is not counted.
        let closed = match self.segmenter.heartbeat(process, time) {
            Ok(closed) => closed,
            Err(e) => {
                self.rejected += 1;
                return Err(e);
            }
        };
        self.heartbeats += 1;
        self.metrics.flight.record(FlightKind::Heartbeat {
            process: u32::try_from(process).unwrap_or(u32::MAX),
            time,
        });
        self.enqueue(closed);
        Ok(())
    }

    /// Queues one closed segment, recording its lifecycle events (close
    /// instant, queue depth) for the telemetry surfaces.
    fn push_segment(&mut self, comp: DistributedComputation, next_anchor: u64) {
        let base = comp.base_time();
        self.metrics.flight.record(FlightKind::SegmentClosed {
            base,
            end: comp.horizon().unwrap_or(next_anchor),
        });
        if self.metrics.is_enabled() {
            self.closed_at.insert(base, Instant::now());
        }
        self.queue.push_back(QueuedSegment { comp, next_anchor });
        self.metrics.flight.record(FlightKind::SegmentQueued {
            base,
            depth: self.queue.len() as u64,
        });
        self.queue_depth_peak = self.queue_depth_peak.max(self.queue.len());
    }

    fn enqueue(&mut self, closed: Vec<DistributedComputation>) {
        for comp in closed {
            // A watermark-closed segment is never final: its residuals are
            // anchored at the next segment's base, which is its own horizon.
            let Some(next_anchor) = comp.horizon() else {
                unreachable!("watermark-closed segments carry their end boundary");
            };
            self.push_segment(comp, next_anchor);
        }
        let over_bound = self
            .config
            .max_queued_segments
            .is_some_and(|bound| self.queue.len() >= bound);
        if over_bound && self.queue.len() < self.config.flush_depth {
            // The backpressure bound forced this flush before the configured
            // depth was reached: the ingestion call stalls on the drain.
            self.backpressure_stalls += 1;
        }
        if self.queue.len() >= self.config.flush_depth || over_bound {
            self.process_queue();
        }
    }

    /// Processes every queued closed segment now, regardless of the flush
    /// depth (useful before reading [`StreamMonitor::current_verdicts`]).
    pub fn drain(&mut self) {
        self.process_queue();
    }

    /// Number of segments processed so far.
    pub fn segments_processed(&self) -> usize {
        self.segments_processed
    }

    /// Number of closed segments waiting to be processed.
    pub fn segments_queued(&self) -> usize {
        self.queue.len()
    }

    /// The segmenter's current watermark (see
    /// [`IncrementalSegmenter::watermark`]).
    pub fn watermark(&self) -> Option<u64> {
        self.segmenter.watermark()
    }

    /// Aggregated solver statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Footprint of the query-spanning arena (the quantity the GC bounds).
    pub fn memory(&self) -> ArenaMemory {
        self.arena.memory()
    }

    /// Number of GC epochs that have run.
    pub fn gc_runs(&self) -> usize {
        self.gc_runs
    }

    /// The runtime health counters so far (see [`RuntimeHealth`]): every
    /// deviation from the exact fault-free path, counted once.
    pub fn health(&self) -> RuntimeHealth {
        let faults = self.segmenter.fault_counters();
        RuntimeHealth {
            rejected: self.rejected,
            deduped: faults.deduped,
            dropped: faults.dropped,
            late_beyond_epsilon: faults.late_beyond_epsilon,
            worker_panics: self.worker_panics,
            backpressure_stalls: self.backpressure_stalls,
            checkpoint_failures: self.checkpoint_failures,
            checkpoints_written: self.checkpoints_written,
        }
    }

    /// A point-in-time telemetry snapshot: every registry-resident timing
    /// instrument (empty unless [`StreamConfig::with_telemetry`] was set)
    /// plus the count-shape metrics bridged from always-on monitor state —
    /// those are exact whether or not telemetry is enabled, and being
    /// state-derived they are deterministic across execution paths (the
    /// bench pin suite pins them). Instruments are sorted by name so the
    /// text exposition groups each metric family under one `# TYPE` line.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.metrics.registry.snapshot();
        let faults = self.segmenter.fault_counters();
        snap.push_counter("rvmtl_events_observed_total", "", self.events_observed);
        snap.push_counter("rvmtl_heartbeats_total", "", self.heartbeats);
        snap.push_counter(
            "rvmtl_segments_processed_total",
            "",
            self.segments_processed as u64,
        );
        snap.push_counter("rvmtl_gc_epochs_total", "", self.gc_runs as u64);
        snap.push_counter("rvmtl_events_rejected_total", "", self.rejected);
        snap.push_counter("rvmtl_events_deduped_total", "", faults.deduped);
        snap.push_counter("rvmtl_events_dropped_total", "", faults.dropped);
        snap.push_counter("rvmtl_events_late_total", "", faults.late_beyond_epsilon);
        snap.push_counter("rvmtl_worker_panics_total", "", self.worker_panics);
        snap.push_counter(
            "rvmtl_backpressure_stalls_total",
            "",
            self.backpressure_stalls,
        );
        snap.push_counter(
            "rvmtl_checkpoints_written_total",
            "",
            self.checkpoints_written,
        );
        snap.push_counter(
            "rvmtl_checkpoint_failures_total",
            "",
            self.checkpoint_failures,
        );
        // Field-list driven (SolverStats::for_each_field), so a counter added
        // to the solver — e.g. the batch-shape counters `frontier_batches` /
        // `batched_probe_ticks` — is bridged here without further plumbing.
        self.stats.for_each_field(|name, value| {
            snap.push_counter(format!("rvmtl_solver_{name}_total"), "", value as u64);
        });
        // The `worker` series sum over the pipelined path's worker arenas.
        let arenas = [
            ("query", std::slice::from_ref(&self.arena)),
            ("worker", self.worker_arenas.as_slice()),
        ];
        for (arena, members) in arenas {
            let labels = format!("arena=\"{arena}\"");
            let tally = |field: fn(&CacheStats) -> u64| {
                members.iter().map(|a| field(&a.cache_stats())).sum::<u64>()
            };
            snap.push_counter("rvmtl_one_cache_hits_total", &labels, tally(|s| s.one_hits));
            snap.push_counter(
                "rvmtl_one_cache_misses_total",
                &labels,
                tally(|s| s.one_misses),
            );
            snap.push_counter("rvmtl_gap_cache_hits_total", &labels, tally(|s| s.gap_hits));
            snap.push_counter(
                "rvmtl_gap_cache_misses_total",
                &labels,
                tally(|s| s.gap_misses),
            );
        }
        snap.push_counter(
            "rvmtl_flight_events_recorded_total",
            "",
            self.metrics.flight.recorded(),
        );
        snap.push_gauge("rvmtl_queue_depth", "", self.queue.len() as i64);
        snap.push_gauge("rvmtl_queue_depth_peak", "", self.queue_depth_peak as i64);
        snap.push_gauge(
            "rvmtl_watermark_lag",
            "",
            i64::try_from(self.segmenter.watermark_lag()).unwrap_or(i64::MAX),
        );
        snap.push_gauge(
            "rvmtl_open_segment_span",
            "",
            i64::try_from(self.segmenter.open_span()).unwrap_or(i64::MAX),
        );
        for (arena, members) in arenas {
            let labels = format!("arena=\"{arena}\"");
            let size = |field: fn(&ArenaMemory) -> usize| {
                members.iter().map(|a| field(&a.memory())).sum::<usize>() as i64
            };
            snap.push_gauge("rvmtl_arena_nodes", &labels, size(|m| m.nodes));
            snap.push_gauge("rvmtl_arena_states", &labels, size(|m| m.states));
            snap.push_gauge(
                "rvmtl_arena_one_cache_entries",
                &labels,
                size(|m| m.one_cache_entries),
            );
            snap.push_gauge(
                "rvmtl_arena_gap_cache_entries",
                &labels,
                size(|m| m.gap_cache_entries),
            );
        }
        for (index, query) in self.queries.iter().enumerate() {
            snap.push_gauge(
                "rvmtl_pending_obligations",
                format!("query=\"{index}\""),
                query.pending.len() as i64,
            );
        }
        snap.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.gauges
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.histograms
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap
    }

    /// The current telemetry as Prometheus-style text exposition (see
    /// [`TelemetrySnapshot::to_prometheus`]; validated by
    /// [`rvmtl_obs::parse_exposition`]).
    pub fn telemetry_text(&self) -> String {
        self.telemetry().to_prometheus()
    }

    /// The lifecycle flight recorder (a no-op recorder with an empty window
    /// unless [`StreamConfig::with_telemetry`] was set).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.metrics.flight
    }

    /// The flight recorder's retained window as JSON Lines (empty when
    /// telemetry is off).
    pub fn flight_jsonl(&self) -> String {
        self.metrics.flight.dump_jsonl()
    }

    /// The error behind the most recent automatic checkpoint failure, if any
    /// (the count is in [`RuntimeHealth::checkpoint_failures`]).
    pub fn last_checkpoint_error(&self) -> Option<&CheckpointError> {
        self.last_checkpoint_error.as_ref()
    }

    /// The integrity tag of a query's verdicts over the processed prefix:
    /// [`Integrity::Exact`] unless a fault was absorbed (or a work item lost
    /// to a panic) in a window the query observes.
    pub fn current_integrity(&self, id: QueryId) -> Integrity {
        self.queries[id.0].integrity()
    }

    /// Number of open obligations of a query (over the *processed* prefix of
    /// the stream).
    pub fn pending_count(&self, id: QueryId) -> usize {
        self.queries[id.0].pending.len()
    }

    /// The current verdict set of a query over the processed prefix:
    /// conclusive verdicts for formulas that have collapsed to a constant,
    /// inconclusive entries (with the remaining obligation) otherwise. Call
    /// [`StreamMonitor::drain`] first to fold in queued segments.
    pub fn current_verdicts(&self, id: QueryId) -> VerdictSet {
        let query = &self.queries[id.0];
        let resolved: BTreeSet<Formula> = query
            .pending
            .iter()
            .map(|&s| self.arena.resolve_shifted(s))
            .collect();
        let mut verdicts = VerdictSet::from_formulas(resolved.iter());
        // An obligation lost to a panic can never collapse to a constant: it
        // stays visibly inconclusive (and the integrity tag says why).
        for phi in &query.lost {
            verdicts.insert(Verdict::Inconclusive(phi.clone()));
        }
        verdicts
    }

    /// Ends the stream: remaining buffered events are segmented out, every
    /// queued segment is processed, and each query's remaining obligations
    /// are closed against the empty future.
    pub fn finish(mut self) -> StreamReport {
        let mut tail = self.segmenter.finish();
        let final_anchor = self.segmenter.max_event_time() + self.segmenter.epsilon();
        if let Some(last) = tail.pop() {
            for comp in tail {
                let Some(next_anchor) = comp.horizon() else {
                    unreachable!("non-final segments carry their end boundary");
                };
                self.push_segment(comp, next_anchor);
            }
            self.push_segment(last, final_anchor);
        }
        self.process_queue();
        self.metrics.flight.record(FlightKind::StreamFinished);
        // `eval_empty` resolves through the shift for free: translation
        // moves interval anchors, never operator kinds, and the empty-future
        // verdict depends only on the kinds. An obligation lost to a panic is
        // *not* closed against the empty future — nothing was solved for it,
        // so it stays inconclusive in the final report.
        let verdicts = self
            .queries
            .iter()
            .map(|q| {
                let mut set =
                    VerdictSet::from_bools(q.pending.iter().map(|&s| self.arena.eval_empty(s.id)));
                for phi in &q.lost {
                    set.insert(Verdict::Inconclusive(phi.clone()));
                }
                set
            })
            .collect();
        let pending = self
            .queries
            .iter()
            .map(|q| {
                q.pending
                    .iter()
                    .map(|&s| self.arena.resolve_shifted(s))
                    .collect()
            })
            .collect();
        let integrity = self.queries.iter().map(QueryState::integrity).collect();
        let health = self.health();
        let telemetry = self.telemetry();
        let last_checkpoint_error = self.last_checkpoint_error.as_ref().map(|e| e.to_string());
        StreamReport {
            verdicts,
            pending,
            segments: self.segments_processed,
            stats: self.stats,
            memory: self.arena.memory(),
            gc_runs: self.gc_runs,
            integrity,
            health,
            telemetry,
            last_checkpoint_error,
        }
    }

    fn process_queue(&mut self) {
        if self.queue.is_empty() || self.queries.is_empty() {
            self.segments_processed += self.queue.len();
            for queued in &self.queue {
                // No query observes these segments; drop their close
                // instants so the latency map stays bounded.
                self.closed_at.remove(&queued.comp.base_time());
            }
            self.queue.clear();
            return;
        }
        let batch: Vec<QueuedSegment> = self.queue.drain(..).collect();
        let processed = batch.len();
        let bases: Vec<u64> = batch.iter().map(|s| s.comp.base_time()).collect();
        // Flight events are recorded here, from the monitor's thread, in
        // batch order — never from workers — so the kind sequence is
        // identical across the sequential and pipelined paths.
        for &base in &bases {
            self.metrics.flight.record(FlightKind::SolveStart { base });
        }
        let enabled = self.metrics.is_enabled();
        let batch_timer = enabled.then(Stopwatch::start);
        let workers = self.config.effective_workers();
        if self.config.pipeline && workers > 1 {
            self.process_pipelined(batch, workers);
        } else {
            self.process_sequential(batch);
        }
        let closes: Vec<(u64, Option<Instant>)> = bases
            .iter()
            .map(|base| (*base, self.closed_at.remove(base)))
            .collect();
        let done = enabled.then(Instant::now);
        for &(base, closed) in &closes {
            self.metrics
                .flight
                .record(FlightKind::SegmentSolved { base });
            if let (Some(done), Some(closed)) = (done, closed) {
                self.metrics
                    .event_to_verdict
                    .record_duration(done.duration_since(closed));
            }
        }
        if let Some(done) = done {
            // Per-query verdict latency: close of the newest batch segment
            // the query observed → its pending set updated (now).
            for (index, query) in self.queries.iter().enumerate() {
                let newest = closes
                    .iter()
                    .rev()
                    .find(|(base, at)| *base >= query.anchored_at && at.is_some())
                    .and_then(|(_, at)| *at);
                if let (Some(closed), Some(histogram)) =
                    (newest, self.metrics.verdict_latency.get(index))
                {
                    histogram.record_duration(done.duration_since(closed));
                }
            }
        }
        if let Some(timer) = batch_timer {
            self.metrics.batch_solve.record(timer.elapsed_nanos());
        }
        self.segments_processed += processed;
        self.since_gc += processed;
        if self.config.gc_interval > 0 && self.since_gc >= self.config.gc_interval {
            self.collect_garbage();
        }
    }

    /// Sequential stage execution: one [`solve_segment`] step per segment,
    /// one solve per *distinct* pending obligation of the queries observing
    /// it — shift-normal pendings make a shared obligation one
    /// [`ShiftedId`], so queries carrying it (and every settled query's
    /// ⊤/⊥) cost one progress call between them. Results fan back to the
    /// queries; a query whose every obligation maps onto itself keeps its
    /// pending set as it is. Queries anchored after a segment's base skip
    /// it.
    fn process_sequential(&mut self, batch: Vec<QueuedSegment>) {
        let enabled = self.metrics.is_enabled();
        for QueuedSegment { comp, next_anchor } in batch {
            let segment_timer = enabled.then(Stopwatch::start);
            let base = comp.base_time();
            let scratch = &mut self.scratch;
            scratch.clear();
            for query in self.queries.iter().filter(|q| base >= q.anchored_at) {
                for &s in &query.pending {
                    let next = scratch.distinct.len();
                    let slot = *scratch.index.entry(s).or_insert(next);
                    if slot == next {
                        scratch.distinct.push(s);
                    }
                    scratch.slots.push(slot);
                }
            }
            // Materialise the distinct obligations (first-seen order, so a
            // single query solves in its own pending order) before the
            // solver borrows the arena exclusively.
            for &s in &scratch.distinct {
                let psi = self.arena.materialize(s);
                scratch.seeds.push(psi);
            }
            // A panicking obligation is lost (for every query holding it,
            // reported inconclusive) while every other obligation proceeds.
            solve_segment(
                &mut self.arena,
                (&comp, next_anchor),
                self.config.max_solutions_per_segment,
                &scratch.seeds,
                &mut self.stats,
                &self.metrics.work_item,
                |solved| {
                    let range = solved.map(|formulas| {
                        let start = scratch.rewrites.len();
                        let plain = formulas.into_iter().map(ShiftedId::unshifted);
                        scratch.rewrites.extend(plain);
                        start..scratch.rewrites.len()
                    });
                    scratch.solved.push(range);
                },
            );
            if let Some(timer) = segment_timer {
                self.metrics.segment_solve.record(timer.elapsed_nanos());
            }
            // Normalise once the solver has released the arena.
            for rewrite in &mut scratch.rewrites {
                *rewrite = self.arena.normalize(rewrite.id);
            }
            let mut cursor = 0;
            for query in self.queries.iter_mut().filter(|q| base >= q.anchored_at) {
                let mine = &scratch.slots[cursor..cursor + query.pending.len()];
                cursor += mine.len();
                let unchanged = mine.iter().zip(&query.pending).all(|(&k, s)| {
                    scratch.solved[k]
                        .clone()
                        .is_some_and(|r| scratch.rewrites[r] == [*s])
                });
                if unchanged {
                    continue;
                }
                let mut pending = BTreeSet::new();
                for &k in mine {
                    match scratch.solved[k].clone() {
                        Some(r) => pending.extend(scratch.rewrites[r].iter().copied()),
                        None => {
                            // Resolve the lost obligation to a plain formula
                            // now, while its id is still valid (GC may
                            // renumber the arena later).
                            let psi = scratch.seeds[k];
                            query.lost.insert(self.arena.resolve(psi));
                            query.panics += 1;
                            self.worker_panics += 1;
                        }
                    }
                }
                query.pending = pending;
            }
        }
    }

    /// Pipelined stage execution on private worker arenas. A *unit* is one
    /// distinct `(entry segment, pending obligation)` pair of the queries
    /// observing the batch, in first-seen order (query order, then pending
    /// order); a query anchored mid-batch enters at the first segment of its
    /// boundary, and a query anchored after the batch is left out of it.
    /// Units are dealt round-robin to `min(workers, units)` workers, each
    /// advancing its share through the batch in its own [`Interner`] (see
    /// [`crate::pipeline::run_worker`]): worker 0 on this thread, the others
    /// on the monitor's [`WorkerPool`]. Seeds and results cross between the
    /// query arena and a worker's arena through that worker's [`RemapMemo`],
    /// so only what the GC epoch has not seen yet is resolved and
    /// re-interned. A query's new pending set is the union of its units'
    /// results.
    fn process_pipelined(&mut self, batch: Vec<QueuedSegment>, workers: usize) {
        let segments: Arc<[(DistributedComputation, u64)]> =
            batch.into_iter().map(|s| (s.comp, s.next_anchor)).collect();
        let mut index: FxHashMap<(usize, ShiftedId), usize> = FxHashMap::default();
        let mut units: Vec<(usize, ShiftedId)> = Vec::new();
        // Per observing query in order, the unit of each pending obligation.
        let mut slots: Vec<usize> = Vec::new();
        let mut observing: Vec<bool> = Vec::with_capacity(self.queries.len());
        for query in &self.queries {
            let entry = segments
                .iter()
                .position(|(comp, _)| comp.base_time() >= query.anchored_at);
            observing.push(entry.is_some());
            let Some(entry) = entry else {
                continue;
            };
            for &s in &query.pending {
                let next = units.len();
                let slot = *index.entry((entry, s)).or_insert(next);
                if slot == next {
                    units.push((entry, s));
                }
                slots.push(slot);
            }
        }
        let dealt = workers.min(units.len());
        if dealt == 0 {
            return; // Every observing query has lost all its obligations.
        }
        if self.worker_arenas.len() < dealt {
            self.worker_arenas.resize_with(dealt, Interner::new);
            self.worker_memos.resize_with(dealt, RemapMemo::default);
        }
        // Unit `u` goes to worker `u % dealt`. A seed its worker's memo lacks
        // is resolved out of the query arena here, on the monitor thread: an
        // `Interner` is `!Sync`, so workers never see the query arena.
        let mut shares: Vec<Vec<(usize, FormulaId)>> = vec![Vec::new(); dealt];
        for (u, &(entry, s)) in units.iter().enumerate() {
            let arena = &mut self.worker_arenas[u % dealt];
            let seed = *self.worker_memos[u % dealt]
                .seeds
                .entry(s)
                .or_insert_with(|| arena.intern(&self.arena.resolve_shifted(s)));
            shares[u % dealt].push((entry, seed));
        }
        let jobs: Vec<Job> = shares
            .into_iter()
            .zip(&mut self.worker_arenas)
            .map(|(units, arena)| Job {
                arena: std::mem::take(arena),
                segments: Arc::clone(&segments),
                units,
                limit: self.config.max_solutions_per_segment,
                work_item: self.metrics.work_item.clone(),
            })
            .collect();
        let wall_timer = self.metrics.is_enabled().then(Stopwatch::start);
        let results = self.pool.run(jobs);
        if let Some(timer) = wall_timer {
            self.metrics.pipeline_wall.add(timer.elapsed_nanos());
        }
        // Every arena is back in its slot before a panic is re-raised; a
        // worker whose run panicked starts over from an empty arena.
        let mut outcomes: Vec<WorkerOutcome> = Vec::with_capacity(dealt);
        let mut panic = None;
        for (k, result) in results.into_iter().enumerate() {
            match result {
                Ok((arena, outcome)) => {
                    self.worker_arenas[k] = arena;
                    outcomes.push(outcome);
                }
                Err(payload) => {
                    self.worker_arenas[k] = Interner::new();
                    self.worker_memos[k].clear();
                    panic.get_or_insert(payload);
                }
            }
        }
        // Solve panics are caught inside the worker; a panic here is a defect
        // of the worker loop itself, re-raised rather than silently dropping
        // the worker's obligations.
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        let mut outs: Vec<BTreeSet<ShiftedId>> = vec![BTreeSet::new(); units.len()];
        let mut lost: Vec<Vec<(usize, Formula)>> = vec![Vec::new(); units.len()];
        for (k, outcome) in outcomes.into_iter().enumerate() {
            self.stats.absorb(&outcome.stats);
            self.metrics.pipeline_busy.add(outcome.busy);
            let arena = &self.worker_arenas[k];
            let to_query = &mut self.worker_memos[k].results;
            for (j, (out, gone)) in outcome.outs.into_iter().zip(outcome.lost).enumerate() {
                let u = j * dealt + k;
                outs[u] = out
                    .into_iter()
                    .map(|psi| {
                        *to_query.entry(psi).or_insert_with(|| {
                            let id = self.arena.intern(&arena.resolve(psi));
                            self.arena.normalize(id)
                        })
                    })
                    .collect();
                // Resolved now: the next GC epoch empties the worker arena.
                lost[u] = gone
                    .into_iter()
                    .map(|(segment, psi)| (segment, arena.resolve(psi)))
                    .collect();
            }
        }
        let mut cursor = 0;
        for (query, _) in self.queries.iter_mut().zip(observing).filter(|(_, o)| *o) {
            let mine = &slots[cursor..cursor + query.pending.len()];
            cursor += mine.len();
            let mut pending = BTreeSet::new();
            // A formula lost at one segment by several of the query's units
            // is one lost obligation of the query.
            let mut gone: BTreeSet<&(usize, Formula)> = BTreeSet::new();
            for &u in mine {
                pending.extend(outs[u].iter().copied());
                gone.extend(&lost[u]);
            }
            for (_, phi) in &gone {
                query.lost.insert(phi.clone());
            }
            query.panics += gone.len() as u64;
            self.worker_panics += gone.len() as u64;
            query.pending = pending;
        }
    }

    /// One GC epoch: mark-and-renumber the query-spanning arena over the live
    /// pending sets, empty the worker arenas (no pending obligation lives in
    /// one; their caches re-warm on the next batch, and their hit/miss
    /// tallies keep accumulating) and clear their remap memos, whose ids
    /// the compactions invalidate.
    fn collect_garbage(&mut self) {
        // Shift-normal pendings root the GC at canonical residuals only:
        // translates of one obligation cost one root, and the materialised
        // translate nodes of past segments are reclaimed here.
        let roots: Vec<FormulaId> = self
            .queries
            .iter()
            .flat_map(|q| q.pending.iter().map(|s| s.id))
            .collect();
        let gc_timer = self.metrics.is_enabled().then(Stopwatch::start);
        let remap = self.arena.compact(roots);
        for query in &mut self.queries {
            query.pending = query
                .pending
                .iter()
                .map(|&s| ShiftedId {
                    shift: s.shift,
                    // Every pending id was a compaction root above, so it
                    // survived by construction.
                    id: remap.remap_unchecked(s.id),
                })
                .collect();
        }
        for (arena, memo) in self.worker_arenas.iter_mut().zip(&mut self.worker_memos) {
            arena.compact(std::iter::empty());
            memo.clear();
        }
        self.since_gc = 0;
        self.gc_runs += 1;
        if self.metrics.flight.is_enabled() {
            self.metrics.flight.record(FlightKind::GcEpoch {
                retained: remap.retained() as u64,
            });
        }
        if let Some(timer) = gc_timer {
            self.metrics.gc_pause.record(timer.elapsed_nanos());
        }
        self.maybe_checkpoint();
    }

    /// Writes the automatic epoch checkpoint when the config asks for one at
    /// this GC epoch. Failures are absorbed into the health counters: a
    /// monitor that cannot checkpoint keeps monitoring (the previous epoch
    /// remains the recovery point).
    fn maybe_checkpoint(&mut self) {
        let Some(dir) = self.config.checkpoint_dir.clone() else {
            return;
        };
        if self.config.checkpoint_interval == 0
            || !self.gc_runs.is_multiple_of(self.config.checkpoint_interval)
        {
            return;
        }
        // The queue is empty here: automatic checkpoints fire from
        // `collect_garbage`, which `process_queue` reaches only after
        // draining the whole batch (the drain-before-snapshot invariant).
        debug_assert!(self.queue.is_empty());
        let timer = self.metrics.is_enabled().then(Stopwatch::start);
        let bytes = self.encode_checkpoint();
        match write_epoch(&dir, self.segments_processed as u64, &bytes) {
            Ok(_) => self.record_checkpoint_written(bytes.len(), timer),
            Err(e) => {
                self.checkpoint_failures += 1;
                self.last_checkpoint_error = Some(e);
                self.metrics.flight.record(FlightKind::CheckpointFailed);
            }
        }
    }

    /// Accounts one durably written checkpoint (serialize + write + fsync
    /// span in `timer`, snapshot size in `bytes`).
    fn record_checkpoint_written(&mut self, bytes: usize, timer: Option<Stopwatch>) {
        self.checkpoints_written += 1;
        self.metrics.flight.record(FlightKind::CheckpointWritten {
            epoch: self.segments_processed as u64,
            bytes: bytes as u64,
        });
        if let Some(timer) = timer {
            self.metrics.checkpoint_write.record(timer.elapsed_nanos());
        }
    }

    /// Serializes the monitor's full state as a sealed checkpoint, draining
    /// the segment queue first (a queued segment is ingestion work, not
    /// state: snapshots are taken at processing boundaries only).
    pub fn checkpoint_bytes(&mut self) -> Vec<u8> {
        self.process_queue();
        self.encode_checkpoint()
    }

    /// Crash-safely writes the current state as an epoch checkpoint in
    /// `dir` (see [`crate::checkpoint`] semantics: temp file + fsync +
    /// atomic rename, previous epoch retained), returning the path written.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the filesystem refuses.
    pub fn write_checkpoint(&mut self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        let timer = self.metrics.is_enabled().then(Stopwatch::start);
        let bytes = self.checkpoint_bytes();
        let written = write_epoch(dir, self.segments_processed as u64, &bytes)?;
        self.record_checkpoint_written(bytes.len(), timer);
        Ok(written)
    }

    /// Restores a monitor from checkpoint bytes, validating the container
    /// (magic, version, CRC) and every payload invariant. The restored
    /// monitor continues the stream exactly where the snapshot left it:
    /// feed it the events after the snapshot's watermark and it produces
    /// verdicts identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] except `Io`/`NoCheckpoint`; in particular
    /// [`CheckpointError::ConfigMismatch`] when `config` disagrees with the
    /// snapshot on segment length or fault policy (replaying into such a
    /// monitor would change verdicts).
    pub fn restore_from_bytes(bytes: &[u8], config: StreamConfig) -> Result<Self, CheckpointError> {
        let image = decode_monitor(bytes)?;
        Self::from_image(image, config)
    }

    /// Restores from the newest readable epoch in `dir`, falling back to
    /// older retained epochs when the newest is truncated or corrupt (a
    /// crash mid-write leaves exactly that shape behind).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoCheckpoint`] if the directory holds no epoch
    /// files; otherwise the error of the last (oldest) restore attempt.
    pub fn restore_latest(dir: &Path, config: StreamConfig) -> Result<Self, CheckpointError> {
        let epochs = epochs_newest_first(dir)?;
        let mut last_err = CheckpointError::NoCheckpoint;
        for epoch in epochs {
            let path = crate::checkpoint::epoch_path(dir, epoch);
            let attempt = std::fs::read(&path)
                .map_err(CheckpointError::from)
                .and_then(|bytes| Self::restore_from_bytes(&bytes, config.clone()));
            match attempt {
                Ok(monitor) => return Ok(monitor),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn encode_checkpoint(&self) -> Vec<u8> {
        let queries: Vec<QueryImage> = self
            .queries
            .iter()
            .map(|q| QueryImage {
                root: q.root.clone(),
                pending: q
                    .pending
                    .iter()
                    .map(|s| (s.shift, s.id.index() as u32))
                    .collect(),
                anchored_at: q.anchored_at,
                faults: q.faults,
                panics: q.panics,
                lost: q.lost.iter().cloned().collect(),
            })
            .collect();
        let counters = MonitorCounters {
            segments_processed: self.segments_processed as u64,
            gc_runs: self.gc_runs as u64,
            rejected: self.rejected,
            worker_panics: self.worker_panics,
            backpressure_stalls: self.backpressure_stalls,
            checkpoint_failures: self.checkpoint_failures,
            stats: self.stats,
        };
        encode_monitor(
            &self.segmenter.export_state(),
            &self.arena,
            &queries,
            &counters,
        )
    }

    fn from_image(image: MonitorImage, config: StreamConfig) -> Result<Self, CheckpointError> {
        if config.segment_length != image.segmenter.segment_length {
            return Err(CheckpointError::ConfigMismatch(format!(
                "snapshot segments are {} time units, config asks for {}",
                image.segmenter.segment_length, config.segment_length
            )));
        }
        if config.fault_policy != image.segmenter.policy {
            return Err(CheckpointError::ConfigMismatch(format!(
                "snapshot used fault policy {:?}, config asks for {:?}",
                image.segmenter.policy, config.fault_policy
            )));
        }
        let segmenter = IncrementalSegmenter::from_state(image.segmenter)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let arena = image.arena;
        let node_map = image.node_map;
        let mut queries = Vec::with_capacity(image.queries.len());
        for q in image.queries {
            let mut pending = BTreeSet::new();
            for (shift, index) in q.pending {
                let id = node_map.get(index as usize).copied().ok_or_else(|| {
                    CheckpointError::Malformed(format!(
                        "pending obligation refers to node {index} beyond the snapshot arena"
                    ))
                })?;
                pending.insert(ShiftedId { shift, id });
            }
            queries.push(QueryState {
                root: q.root,
                pending,
                anchored_at: q.anchored_at,
                faults: q.faults,
                panics: q.panics,
                lost: q.lost.into_iter().collect(),
            });
        }
        let counters = image.counters;
        let as_usize = |v: u64, what: &str| {
            usize::try_from(v)
                .map_err(|_| CheckpointError::Malformed(format!("{what} {v} exceeds usize")))
        };
        // Telemetry is runtime state, not stream state: a restored monitor
        // starts fresh instruments (and a fresh flight window) under the
        // *restoring* configuration.
        let mut metrics = RuntimeMetrics::new(config.telemetry, config.flight_capacity);
        for _ in 0..queries.len() {
            metrics.register_query();
        }
        Ok(StreamMonitor {
            config,
            segmenter,
            arena,
            // Worker arenas and their memos are warmth, not state: a
            // restore starts without them (and without pool threads).
            worker_arenas: Vec::new(),
            worker_memos: Vec::new(),
            pool: WorkerPool::default(),
            queries,
            queue: VecDeque::new(),
            segments_processed: as_usize(counters.segments_processed, "segment count")?,
            since_gc: 0,
            gc_runs: as_usize(counters.gc_runs, "GC epoch count")?,
            stats: counters.stats,
            rejected: counters.rejected,
            worker_panics: counters.worker_panics,
            backpressure_stalls: counters.backpressure_stalls,
            checkpoint_failures: counters.checkpoint_failures,
            last_checkpoint_error: None,
            // Deliberately not checkpointed (see the field's docs): the
            // restored monitor counts snapshots from its restore point.
            checkpoints_written: 0,
            events_observed: 0,
            heartbeats: 0,
            queue_depth_peak: 0,
            closed_at: HashMap::new(),
            metrics,
            scratch: SegmentScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvmtl_mtl::{parse, state};

    #[test]
    fn stream_monitor_is_send() {
        // A service moves its monitor into an ingestion thread.
        fn assert_send<T: Send>() {}
        assert_send::<StreamMonitor>();
    }

    #[test]
    fn single_query_single_segment_stream() {
        let mut monitor = StreamMonitor::new(1, 1, StreamConfig::new(100));
        let q = monitor.add_query(&parse("req -> F[0,5) cs").unwrap());
        monitor.observe(0, 1, state!["req"]).unwrap();
        monitor.observe(0, 3, state!["cs"]).unwrap();
        let report = monitor.finish();
        assert!(report.verdicts[q.index()].definitely_satisfied());
        assert_eq!(report.segments, 1);
    }

    #[test]
    fn verdicts_visible_as_segments_close() {
        let mut monitor = StreamMonitor::new(1, 0, StreamConfig::new(4));
        let q = monitor.add_query(&parse("F[0,20) done").unwrap());
        monitor.observe(0, 1, state!["work"]).unwrap();
        monitor.observe(0, 6, state!["work"]).unwrap();
        assert!(monitor.segments_processed() >= 1);
        let midway = monitor.current_verdicts(q);
        assert!(!midway.pending_formulas().is_empty(), "{midway}");
        monitor.observe(0, 9, state!["done"]).unwrap();
        let report = monitor.finish();
        assert!(report.verdicts[q.index()].definitely_satisfied());
    }

    #[test]
    fn multi_query_shares_the_stream() {
        let mut monitor = StreamMonitor::new(2, 1, StreamConfig::new(5));
        let q_live = monitor.add_query(&parse("F[0,12) b.ack").unwrap());
        let q_safe = monitor.add_query(&parse("G[0,12) !a.err").unwrap());
        monitor.observe(0, 2, state!["a.req"]).unwrap();
        monitor.observe(1, 4, state!["b.ack"]).unwrap();
        monitor.observe(0, 11, state!["a.done"]).unwrap();
        monitor.heartbeat(1, 11).unwrap();
        let report = monitor.finish();
        assert!(report.verdicts[q_live.index()].definitely_satisfied());
        assert!(report.verdicts[q_safe.index()].definitely_satisfied());
        assert_eq!(report.verdicts.len(), 2);
    }

    #[test]
    fn late_query_is_reanchored_at_the_watermark_boundary() {
        // Register a second query after a segment has closed: it must behave
        // exactly like the same query on a fresh stream anchored at the
        // boundary and fed the events from the boundary on.
        let mut monitor = StreamMonitor::new(1, 0, StreamConfig::new(4));
        let q_early = monitor.add_query(&parse("F[0,20) done").unwrap());
        monitor.observe(0, 1, state!["work"]).unwrap();
        monitor.observe(0, 7, state!["work"]).unwrap();
        assert!(monitor.segments_processed() >= 1);
        let q_late = monitor.add_query(&parse("F[0,10) done").unwrap());
        monitor.observe(0, 9, state!["work"]).unwrap();
        monitor.observe(0, 11, state!["done"]).unwrap();
        let report = monitor.finish();

        let mut config = StreamConfig::new(4);
        config.base_time = 4; // the boundary the late query was anchored at
        let mut reference = StreamMonitor::new(1, 0, config);
        let q_ref = reference.add_query(&parse("F[0,10) done").unwrap());
        for (t, s) in [(7, "work"), (9, "work"), (11, "done")] {
            reference.observe(0, t, state![s]).unwrap();
        }
        let expected = reference.finish();
        assert_eq!(
            report.verdicts[q_late.index()],
            expected.verdicts[q_ref.index()]
        );
        assert!(report.verdicts[q_early.index()].definitely_satisfied());
    }

    #[test]
    fn late_query_skips_queued_pre_registration_segments() {
        // With a deep flush buffer, segments closed *before* the late
        // registration are still queued when the query arrives; they must
        // not be fed to it, on either execution path. A late copy of an
        // early query holds the same pending set when the queue drains but
        // enters at a later segment, so the two must not share a solve.
        let run = |config: StreamConfig| {
            let mut monitor = StreamMonitor::new(1, 0, config);
            let q_early = monitor.add_query(&parse("G[0,inf) (a -> F[0,6) b)").unwrap());
            let q_first = monitor.add_query(&parse("F[0,10) b").unwrap());
            for t in [1u64, 3, 5, 9] {
                let label = if t % 2 == 1 { "a" } else { "b" };
                monitor.observe(0, t, state![label]).unwrap();
            }
            let q_late = monitor.add_query(&parse("F[0,30) b").unwrap());
            let q_copy = monitor.add_query(&parse("F[0,10) b").unwrap());
            for t in [11u64, 13, 15, 17, 19, 21] {
                let label = if t == 15 { "b" } else { "a" };
                monitor.observe(0, t, state![label]).unwrap();
            }
            let report = monitor.finish();
            [q_early, q_late, q_first, q_copy].map(|q| report.verdicts[q.index()].clone())
        };
        let sequential = run(StreamConfig::new(3).flush_depth(64));
        let pipelined = run(StreamConfig::new(3).pipelined(Some(3)).flush_depth(64));
        assert_eq!(sequential, pipelined);
        assert!(sequential[1].definitely_satisfied(), "{sequential:?}");
        assert!(sequential[2].definitely_violated(), "{sequential:?}");
        assert!(sequential[3].definitely_satisfied(), "{sequential:?}");
    }

    #[test]
    fn queued_segments_are_bounded_by_backpressure() {
        // A flush depth far above the bound: the queue must drain through
        // the backpressure bound instead.
        let mut config = StreamConfig::new(2).flush_depth(1_000_000);
        config = config.max_queued_segments(2);
        let mut monitor = StreamMonitor::new(1, 0, config);
        let q = monitor.add_query(&parse("G[0,inf) (tick -> F[0,4) tock)").unwrap());
        for round in 0..40u64 {
            let label = if round % 2 == 0 { "tick" } else { "tock" };
            monitor.observe(0, 1 + round * 2, state![label]).unwrap();
            assert!(
                monitor.segments_queued() <= 2,
                "queue exceeded the bound at round {round}: {}",
                monitor.segments_queued()
            );
        }
        assert!(monitor.segments_processed() > 10);
        let report = monitor.finish();
        assert!(!report.verdicts[q.index()].is_empty());
    }

    #[test]
    fn gc_epochs_bound_arena_memory() {
        let mut config = StreamConfig::new(3).gc_interval(4);
        config.flush_depth = 1;
        let mut monitor = StreamMonitor::new(1, 0, config);
        let q = monitor.add_query(&parse("G[0,inf) (tick -> F[0,6) tock)").unwrap());
        let mut no_gc_peak = 0usize;
        for round in 0..120u64 {
            let t = 1 + round * 2;
            let label = if round % 2 == 0 { "tick" } else { "tock" };
            monitor.observe(0, t, state![label]).unwrap();
            no_gc_peak = no_gc_peak.max(monitor.memory().total_entries());
        }
        assert!(monitor.gc_runs() > 10, "GC must have cycled");
        let report = monitor.finish();
        assert!(
            report.memory.total_entries() < 100,
            "post-GC arena footprint must stay small: {:?}",
            report.memory
        );
        assert!(!report.verdicts[q.index()].is_empty());
    }

    #[test]
    fn pipelined_matches_sequential_midstream() {
        let events: Vec<(usize, u64, rvmtl_mtl::State)> = (0..30u64)
            .map(|k| {
                let label = if k % 3 == 0 { "a" } else { "b" };
                ((k % 2) as usize, 1 + k, state![label])
            })
            .collect();
        let phi = parse("G[0,inf) (a -> F[0,4) b)").unwrap();
        let run = |config: StreamConfig| {
            let mut monitor = StreamMonitor::new(2, 1, config);
            let q = monitor.add_query(&phi);
            for (p, t, s) in &events {
                monitor.observe(*p, *t, s.clone()).unwrap();
            }
            let report = monitor.finish();
            report.verdicts[q.index()].clone()
        };
        let sequential = run(StreamConfig::new(4));
        let pipelined = run(StreamConfig::new(4).pipelined(Some(3)).flush_depth(4));
        assert_eq!(sequential, pipelined);
    }

    #[test]
    fn pipelined_runs_repeat_exactly_under_a_solution_limit() {
        // A solution limit keeps the first rewrites a search finds, so the
        // kept representatives depend on each worker's solve order and
        // arena state; both are functions of the feed alone.
        let specs = [
            "G[0,inf) (a -> F[0,4) b)",
            "F[0,10) b",
            "a U[0,8) b",
            "G[0,6) !c",
            "F[2,9) (a & F[0,3) c)",
        ];
        let run = |config: StreamConfig| {
            let mut monitor = StreamMonitor::new(3, 2, config);
            for spec in &specs[..3] {
                monitor.add_query(&parse(spec).unwrap());
            }
            for k in 0..48u64 {
                if k == 20 {
                    for spec in &specs[3..] {
                        monitor.add_query(&parse(spec).unwrap());
                    }
                }
                let label = ["a", "b", "c"][(k % 3) as usize];
                monitor
                    .observe((k % 3) as usize, 1 + k, state![label])
                    .unwrap();
            }
            monitor.finish()
        };
        let config = StreamConfig::new(4)
            .pipelined(Some(3))
            .flush_depth(4)
            .max_solutions(1);
        let first = run(config.clone());
        let second = run(config);
        assert_eq!(first.verdicts, second.verdicts);
        assert_eq!(first.pending, second.pending);
        assert_eq!(first.integrity, second.integrity);
        assert_eq!(first.stats, second.stats);
        // The limit bites: some solve dropped a rewrite it would have kept.
        let unlimited = run(StreamConfig::new(4).pipelined(Some(3)).flush_depth(4));
        assert_ne!(first.pending, unlimited.pending);
    }
}
