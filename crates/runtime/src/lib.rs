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
//! depth and processes them as one batch on a pool of scoped worker threads
//! (`std::thread::scope`). Queries with the same entry segment and pending
//! set form one *class*; the pipeline progresses classes and the monitor
//! fans each class's result back to its queries, re-interning each
//! distinct obligation into the worker arena, and each distinct result back
//! into the query arena, once per batch. The unit of work is one `(class,
//! segment, pending formula)` triple, but workers *drain and solve in
//! same-segment batches*: a worker pops an item and takes every queued item
//! of the same segment along with it (capped to a fair share under
//! contention), progressing the whole batch through **one** solver — the
//! segment's cache slot is taken and merged back once per batch, and the
//! solver's pooled work-stack frames and probe scratch stay warm across it.
//! Each distinct rewritten formula is enqueued immediately as a work item
//! for the next segment, so segment `k + 1` starts progressing a formula
//! **as soon as stage `k` emits it** — there is no barrier between
//! segments, and idle cores pick up whatever stage has work.
//! Per-`(segment, class)` dedup sets keep the pending-set semantics
//! identical to the sequential union; a per-segment result cache collapses
//! the obligations that different classes share, and the solver's
//! per-segment memo/feasibility caches ([`rvmtl_solver::SegmentCaches`])
//! live in one slot per segment, taken and merged back per batch instead of
//! rebuilt per formula. A query registered mid-stream
//! ([`StreamMonitor::add_query`] after segments closed) is re-anchored at
//! the current watermark boundary and enters at that boundary's segment.
//!
//! Inside each batch the solver explores with the data-oriented work-stack
//! engine ([`rvmtl_solver::ExploreEngine::WorkStack`], the default): an
//! explicit frontier over flat batches with batched one/gap cache probes
//! and staged memo slots. The reference recursion
//! ([`rvmtl_solver::ExploreEngine::Reference`]) is kept in the solver as
//! the oracle of its `engine_differential` suite, which pins that both
//! engines execute the identical search; the runtime never selects it.
//!
//! # 3. One arena, shared — ids remapped at stage boundaries
//!
//! Workers intern rewritten formulas into one
//! [`rvmtl_mtl::ShardedInterner`] — the arena is split into hash-addressed
//! shards, each behind its own lock, so worker threads intern and hit the
//! `one_cache`/`gap_cache` progression memos concurrently instead of
//! rebuilding a throwaway interner per formula (the pre-runtime parallel
//! path's design, deleted with this crate). Between batches the pending ids
//! are remapped into the exclusive query-spanning [`rvmtl_mtl::Interner`]
//! (structural re-interning; both arenas hash-cons, so this is a lookup per
//! node) where they live between stages and across the monitor's lifetime.
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
//! arena is reset on the same epochs. Long-running monitoring therefore
//! holds a bounded arena regardless of stream length — pinned by the GC
//! tests. Backpressure on the closed-segment queue
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
//! exactly. Shared-state locks recover
//! from poisoning (the guarded structures are consistent at every panic
//! point); the global [`RuntimeHealth`] surface
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
//!   not telemetry is enabled, and are **deterministic** — identical across
//!   the sequential and pipelined execution paths and across
//!   checkpoint/restore of the same stream, so the bench pin suite pins
//!   them like any other search-shape figure.
//! * **Timing instruments** — log2-bucketed histograms (p50/p90/p99) of
//!   segment solve time, batch solve time, event-to-verdict latency,
//!   per-query verdict latency, GC pause, checkpoint write time and
//!   per-solve wall time (`rvmtl_work_item_nanos`: one sample per distinct
//!   obligation progressed through a segment, however many queries hold
//!   it), plus pipeline busy/wall counters. These exist
//!   only under [`StreamConfig::with_telemetry`]; disabled, every
//!   instrument is a no-op handle and each call site costs one never-taken
//!   branch. Enabled, the cost is measured rather than budgeted: perfbench's
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
//! (see section 2), the shared worker arena (pipelined path) and GC epochs
//! are all shared; pending sets, verdicts and integrity tags stay
//! per-query. A query whose pending set shares every obligation with
//! another costs no solver work of its own, so its solver counters are not
//! counted twice either: on the sequential path, [`StreamReport::stats`] of
//! K identical queries equals that of one.
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
// Every lock acquisition and invariant in non-test runtime code must state
// its recovery story instead of unwrapping: panics are supposed to be
// *contained* here, not propagated (see section 5 of the crate docs).
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
