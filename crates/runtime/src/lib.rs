//! Streaming monitoring runtime: online verification of live per-process
//! event streams, at production cadence.
//!
//! The paper's monitor (Sec. V-C) consumes a *complete* distributed
//! computation. Its target deployment — live cross-chain protocols — instead
//! delivers one event stream per process under an ε-skew bound, and a
//! monitoring service watches many specifications at once, indefinitely.
//! This crate turns the batch monitor into that service. Architecture, in
//! stream order:
//!
//! # 1. Incremental segmentation (the watermark rule)
//!
//! Events enter a [`rvmtl_distrib::IncrementalSegmenter`]: per-process
//! streams in non-decreasing local-time order, interleaved arbitrarily
//! across processes. The *watermark* is `min_p clock_p − ε` over the largest
//! local time heard from each process (events or
//! [`StreamMonitor::heartbeat`] beacons). A segment `[lo, hi)` closes — is
//! guaranteed to never receive another event — once the watermark passes
//! `hi`; it is then materialised with exactly the batch segmenter's boundary
//! rules (base time `lo`, horizon `hi`, carried per-process frontier
//! states), so the stream-produced partition is byte-for-byte the partition
//! [`rvmtl_distrib::segment_at_boundaries`] would produce, and the verdicts
//! are *identical* to batch monitoring — the differential suite in
//! `tests/differential.rs` pins this on the synthetic corpus and the
//! protocol drivers.
//!
//! # 2. Segment stages: one solve per distinct obligation
//!
//! A long-running service accumulates queries whose verdicts settled long
//! ago (a pending set of ⊤ or ⊥), and queries that carry the same
//! obligation. Per-segment work is therefore proportional to the *distinct
//! live obligations*, not to the registered queries, on both execution
//! paths. The sequential path collects the distinct pending
//! [`rvmtl_mtl::ShiftedId`]s of the queries observing a segment (in
//! first-seen order, so a single query progresses in its own pending
//! order), progresses each once through the segment's
//! [`rvmtl_solver::SegmentSolver`], and fans the results back; a query whose
//! every obligation maps onto itself — every settled query — keeps its
//! pending set untouched.
//!
//! The pipelined path buffers closed segments up to the configured flush
//! depth and processes them as one batch across `workers` workers: the
//! calling thread and `workers − 1` pool threads the monitor owns. A pool
//! thread is spawned by the first batch that deals its worker a share, is
//! fed one job per batch over a channel and is joined when the monitor
//! drops; constructing or restoring a monitor spawns none. The paper
//! progresses every pending formula independently — the next pending set
//! is the union of each obligation's rewrites — so a batch splits into
//! *units* that share nothing: one unit
//! is a distinct `(entry segment, pending obligation)` pair of the queries
//! observing the batch, taken in first-seen order. The units are dealt
//! round-robin to `min(workers, units)` workers. Each worker advances its
//! units segment by segment through the step the sequential path runs —
//! one solver per segment with the solution limit, one panic-isolated solve
//! per distinct formula of its units — and returns one pending set per
//! unit; a query's new pending set is the union of its units' results. The
//! parallelism is across units, not across segments: a segment's work is
//! spread over the workers holding obligations that observe it. A query
//! registered mid-stream ([`StreamMonitor::add_query`] after segments
//! closed) is re-anchored at the current watermark boundary, and its units
//! enter at that boundary's segment.
//!
//! Both paths are deterministic. A worker's solve order and arena state
//! are functions of its units and its own history, so pipelined verdicts,
//! pending sets, solver counters and cache tallies repeat exactly from run
//! to run, also under a solution limit. Pipelined solver counters need not
//! equal sequential ones, though: formulas of units dealt to different
//! workers may meet, and each worker then solves its own copy.
//!
//! On both paths the solver explores with the data-oriented work-stack
//! engine ([`rvmtl_solver::ExploreEngine::WorkStack`], the default): an
//! explicit frontier over flat batches with batched one/gap cache probes
//! and staged memo slots. The reference recursion
//! ([`rvmtl_solver::ExploreEngine::Reference`]) is kept in the solver as
//! the oracle of its `engine_differential` suite, which pins that both
//! engines execute the identical search; the runtime never selects it.
//!
//! # 3. Arenas: one for the queries, one per worker
//!
//! Pending sets live in the query-spanning [`rvmtl_mtl::Interner`] for the
//! monitor's lifetime, and the sequential path solves in it directly. The
//! pipelined path gives each worker a private `Interner` (an `Interner` is
//! `!Sync`, and a private arena needs no locks). The worker arenas live in
//! the monitor across batches, so their nodes and their
//! `one_cache`/`gap_cache` progression memos carry over from batch to
//! batch; a job carries its worker's arena to the pool thread by value and
//! hands it back with the result. Seeds are resolved out of the query arena
//! on the monitor thread and re-interned into their worker's arena, and
//! each worker's distinct results come back into the query arena
//! (structural re-interning: both arenas hash-cons, so this is a lookup per
//! node). Both directions are memoised per worker for one GC epoch — query
//! obligation → worker seed, worker result → normalised query obligation —
//! since both arenas keep their ids until the next compaction: an
//! obligation that recurs batch after batch crosses by one hash lookup.
//!
//! Pending sets are held in *shift-normal form*
//! ([`rvmtl_mtl::ShiftedId`]): an obligation is stored as its canonical
//! residual plus a time offset, so obligations that are exact
//! time-translates of each other — across segments and across queries —
//! share one arena node, and the solver's zone-canonical memoisation fires
//! across the whole stream. Finalisation resolves through the shift
//! (empty-future verdicts depend only on operator kinds, which translation
//! preserves).
//!
//! # 4. GC epochs (bounded memory forever)
//!
//! Every `gc_interval` processed segments the runtime runs
//! [`rvmtl_mtl::Interner::compact`]: a mark-and-renumber pass over the dense
//! `u32` formula ids rooted at the *canonical residuals* of the live pending
//! sets (their materialised translates are rebuilt on demand). Dead nodes,
//! dead observation states and progression-cache entries with a dead
//! endpoint are reclaimed; surviving entries keep their warmth. The worker
//! arenas are emptied on the same epochs (compacted over no roots, which
//! keeps their cumulative cache tallies), and their remap memos are
//! cleared with them. Long-running monitoring therefore holds a bounded
//! arena regardless of stream length — pinned by the GC tests.
//! Backpressure on the closed-segment queue
//! ([`StreamConfig::max_queued_segments`]) bounds the ingestion side the
//! same way.
//!
//! # 5. Fault policies and degradation semantics
//!
//! Live feeds misbehave: retried deliveries duplicate events, reorderings
//! surface events late, crashed relayers replay history. The
//! [`FaultPolicy`] configured via [`StreamConfig::fault_policy`] defines
//! what ingestion does with each fault class — and every deviation from the
//! exact path is *counted*, never silent:
//!
//! | Fault at ingestion                        | `Strict` (default)      | `Dedup`                  | `BestEffort`                     |
//! |-------------------------------------------|-------------------------|--------------------------|----------------------------------|
//! | Exact duplicate of a buffered event       | error (`Duplicate`)     | absorbed, counted        | absorbed, counted                |
//! | Same process and time, *different* state  | accepted (simultaneity) | error (`ConflictingState`) | error (`ConflictingState`)     |
//! | Out of order (behind the process frontier)| error (`OutOfOrder`)    | error (`OutOfOrder`)     | dropped, counted                 |
//! | Before the closed segment boundary        | error (`BeyondClosedBoundary`) | error (`BeyondClosedBoundary`) | dropped, counted (`late_beyond_epsilon`) |
//! | Unknown process / finished stream         | error                   | error                    | error                            |
//!
//! A rejected call leaves the monitor unchanged (and increments
//! [`RuntimeHealth::rejected`]); an absorbed fault leaves the *stream state*
//! unchanged but degrades the evidence behind the verdicts of every query
//! observing that window. The per-query [`Integrity`] tag
//! ([`StreamReport::integrity`], [`StreamMonitor::current_integrity`]) makes
//! that explicit: `Exact` unless something was absorbed or lost, `Degraded`
//! with the exact counters otherwise. Under `Dedup`, a duplicated stream
//! produces verdicts *identical* to the clean stream; under `BestEffort`,
//! verdicts equal those of the surviving sub-stream — both pinned by the
//! fault-injection differential suite in `tests/faults.rs`, driven by the
//! deterministic seeded [`FaultInjector`].
//!
//! Solver stages are *panic-isolated*: each solve runs under `catch_unwind`
//! on both execution paths, so a panicking obligation is lost alone — for
//! every query holding it, it is reported as an inconclusive verdict and
//! the query is tagged `Degraded { worker_panics, .. }` (one panic counted
//! per query and obligation); every other obligation and query proceeds
//! exactly. The global [`RuntimeHealth`] surface
//! ([`StreamMonitor::health`]) counts rejections, absorptions, lost items
//! and backpressure stalls in one place.
//!
//! # 6. Checkpoint format & recovery semantics
//!
//! A monitor is a single point of total state loss: without snapshots, a
//! crash forces replaying the entire stream. Epoch checkpoints bound
//! recovery independently of stream length. At GC boundaries — where the
//! segment queue is drained and the arena freshly compacted — the monitor
//! can serialize its complete state ([`StreamMonitor::checkpoint_bytes`],
//! [`StreamMonitor::write_checkpoint`], or automatically via
//! [`StreamConfig::checkpoint`]): the segmenter image (per-process clocks,
//! carried frontier states, buffered open-window events, watermark inputs,
//! fault policy and counters), the query-spanning arena (node table, fused
//! metadata, `ever_shifted` watermark), each query's shift-normal pending
//! set with its anchor and fault provenance, and the runtime counters.
//!
//! The format is a hand-rolled length-prefixed little-endian encoding
//! ([`rvmtl_mtl::snapshot`]) inside a checksummed container:
//! `magic | version | payload length | CRC-32 | payload` — versioned so it
//! can seed the fleet wire format later. **Epoch layout**: files are named
//! `epoch-NNNNNNNNNNNN.ckpt` (zero-padded segment count, so lexicographic
//! and numeric order agree) and the newest two epochs are retained.
//! **Atomicity**: writes go to a temp file, fsync, then atomically rename —
//! a crash mid-write leaves the previous epoch set intact, never a
//! half-written visible file. **Restores are paranoid**: magic/version/CRC
//! validation, every length prefix bounds-checked, arena nodes re-interned
//! through the canonicalising constructors and cross-checked against the
//! stored metadata (*remap on restore* — pending ids translate through the
//! snapshot-index → fresh-id table), segmenter invariants revalidated. A
//! damaged snapshot yields a [`CheckpointError`], never a panic, and
//! [`StreamMonitor::restore_latest`] falls back to the previous epoch.
//! **Replay bound**: a restored monitor resumes at the snapshot's
//! watermark; only events after the per-process clocks it carries need to
//! be re-fed (at most one open segment plus `ε` of history per process),
//! and the restart-differential suite in `tests/checkpoint.rs` pins
//! restored runs verdict-identical to uninterrupted ones across both
//! execution paths and all three fault policies.
//!
//! # 7. Observability (telemetry, flight recorder, exposition)
//!
//! A monitoring service is itself a production system, so the runtime
//! carries its own instrument panel ([`rvmtl_obs`] — dependency-free, built
//! for this workspace). Two kinds of signal, deliberately separated:
//!
//! * **Count-shape metrics** — events observed, segments processed, GC
//!   epochs, checkpoints written, solver work counters, progression-cache
//!   hit/miss tallies, arena populations, pending obligations per query.
//!   These are bridged from always-on monitor state at snapshot time by
//!   [`StreamMonitor::telemetry`]: they cost nothing extra, work whether or
//!   not telemetry is enabled, and are **deterministic** — they repeat
//!   exactly across runs of the same stream on either execution path, and
//!   the stream-level ones (events, segments, GC epochs, checkpoints,
//!   pending obligations) are identical across the two paths and across
//!   checkpoint/restore, so the bench pin suite pins them like any other
//!   search-shape figure. The `arena="worker"` series sum over the
//!   pipelined path's worker arenas.
//! * **Timing instruments** — log2-bucketed histograms (p50/p90/p99) of
//!   segment solve time, batch solve time, event-to-verdict latency,
//!   per-query verdict latency, GC pause, checkpoint write time and
//!   per-solve wall time (`rvmtl_work_item_nanos`: one sample per distinct
//!   obligation a segment step progresses, however many queries hold it),
//!   plus two pipeline counters: `rvmtl_pipeline_busy_nanos_total` sums
//!   the solve time of every worker's share, the calling thread's
//!   included, and `rvmtl_pipeline_wall_nanos_total` spans each batch from
//!   its first dispatch to its last result. These exist only under
//!   [`StreamConfig::with_telemetry`]; disabled, every instrument is a
//!   no-op handle and each call site costs one never-taken branch. Enabled, the cost is measured rather than budgeted: perfbench's
//!   `obs.tracing_overhead_pct` (telemetry on plus the benchmark's own
//!   per-call spans, against interleaved untraced passes) read −2.6 to
//!   8.0 % on `fischer_timed` and 5.2 to 13.0 % on `swap_fleet` over four
//!   traced runs each on a 2-vCPU VM; single runs move by several points.
//!   Timing values are wall-clock and are never pinned.
//!
//! The **flight recorder** ([`StreamMonitor::flight_recorder`]) retains the
//! last `flight_capacity` lifecycle events — event observed → segment
//! closed → queued → solve start → solved → GC epoch → checkpoint written —
//! in a ring allocated once and never reallocated. Events are recorded only
//! from the monitor's own thread at deterministic points, so the *kind
//! sequence* is identical across execution paths (timestamps differ);
//! [`FlightRecorder::dump_jsonl`] dumps the window as JSON Lines and
//! [`FlightRecorder::segment_latencies_micros`] derives per-segment
//! close→solved latency from it.
//!
//! Everything exports: [`StreamMonitor::telemetry`] returns a typed
//! [`TelemetrySnapshot`], [`StreamMonitor::telemetry_text`] renders
//! Prometheus-style text exposition (`name{labels} value`, round-trips
//! through [`parse_exposition`]), and the final snapshot rides on
//! [`StreamReport::telemetry`].
//!
//! # Multi-query front end
//!
//! [`StreamMonitor::add_query`] multiplexes any number of formulas over one
//! stream: segmentation, the solves of each segment's distinct obligations
//! (see section 2), the worker arenas (pipelined path) and GC epochs are
//! all shared; pending sets, verdicts and integrity tags stay per-query. A
//! query whose pending set shares every obligation with another costs no
//! solver work of its own, so its solver counters are not counted twice
//! either: on either path, [`StreamReport::stats`] of K identical queries
//! equals that of one.
//!
//! # Wire ingestion
//!
//! [`StreamMonitor::observe`] / [`StreamMonitor::heartbeat`] are plain
//! function calls; the `rvmtl-wire` crate gives the same ingestion surface
//! a byte representation — a versioned, CRC-protected frame stream (format
//! spec: `docs/PROTOCOL.md`) whose `WireSource` adapter drains any
//! `std::io::Read` into a monitor after validating a `Hello` configuration
//! handshake against [`StreamMonitor::process_count`],
//! [`StreamMonitor::epsilon`] and [`StreamMonitor::fault_policy`]. Wire
//! replay is differentially pinned verdict-identical to direct calls;
//! `examples/wire_replay.rs` shows the file-capture round trip.
//!
//! # Example
//!
//! ```
//! use rvmtl_mtl::{parse, state};
//! use rvmtl_runtime::{StreamConfig, StreamMonitor};
//!
//! let mut monitor = StreamMonitor::new(2, 1, StreamConfig::new(5));
//! let q = monitor.add_query(&parse("!apr.redeem(bob) U[0,8) ban.redeem(alice)")?);
//! monitor.observe(0, 1, state!["apr.escrow(alice)"])?;
//! monitor.observe(1, 2, state!["ban.escrow(bob)"])?;
//! monitor.observe(1, 5, state!["ban.redeem(alice)"])?;
//! monitor.observe(0, 6, state!["apr.redeem(bob)"])?;
//! let report = monitor.finish();
//! assert!(report.verdicts[q.index()].may_be_satisfied());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Every invariant in non-test runtime code must state its recovery story
// instead of unwrapping: panics are supposed to be *contained* here, not
// propagated (see section 5 of the crate docs).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
mod config;
mod health;
mod monitor;
mod pipeline;
mod telemetry;

pub use checkpoint::CheckpointError;
pub use config::StreamConfig;
pub use health::RuntimeHealth;
pub use monitor::{QueryId, StreamMonitor, StreamReport};
pub use rvmtl_distrib::{
    FaultConfig, FaultCounters, FaultInjector, FaultPolicy, StreamError, StreamEvent,
};
pub use rvmtl_monitor::Integrity;
pub use rvmtl_obs::{
    parse_exposition, CounterSnapshot, ExpositionSample, FlightEvent, FlightKind, FlightRecorder,
    GaugeSnapshot, HistogramSnapshot, TelemetrySnapshot,
};
