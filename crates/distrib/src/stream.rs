//! Incremental segmentation of live per-process event streams.
//!
//! The batch segmenter ([`crate::segment`]) chops a *complete* computation at
//! a list of boundary points. Online monitoring sees the computation arrive
//! as per-process streams instead: each process delivers its events in
//! non-decreasing local-time order, but the streams interleave arbitrarily at
//! the monitor (any *skew-legal* interleaving). [`IncrementalSegmenter`]
//! reproduces the batch partition one segment at a time:
//!
//! * **Watermark rule.** The watermark is `min_p clock_p − ε`, where
//!   `clock_p` is the largest local time heard from process `p` (through an
//!   event or an explicit [`IncrementalSegmenter::heartbeat`]) and `ε` is the
//!   skew bound. A segment `[lo, hi)` is *closed* — it can never receive
//!   another event — once the watermark reaches `hi`: per-process order
//!   guarantees no process can still produce an event before its own clock,
//!   so `min_p clock_p ≥ hi` already seals the segment, and the additional
//!   `− ε` margin keeps every event that could still be *concurrent* with the
//!   segment's boundary inside the open window (the same `ε`-margin the
//!   paper's overlapping `seg_j` windows re-examine). A process that has
//!   never reported holds the watermark at the base time — use heartbeats to
//!   drive segmentation forward through idle processes.
//! * **Boundary rules.** Closed segments are built exactly as
//!   [`crate::segment_at_boundaries`] builds them: base time `lo`, horizon
//!   `hi` for non-final segments (disjoint mode), carried per-process initial
//!   states from the last event before `lo`, parent `ε`. The differential
//!   test in this module pins byte-for-byte agreement with the batch
//!   segmenter on the same boundary list.
//!
//! Only [`SegmentationMode::Disjoint`] partitions are produced (the monitor's
//! default; overlap mode re-examines events of a *known* complete
//! computation, which has no streaming counterpart). Message edges are not
//! part of the streaming interface: the protocols the runtime monitors
//! communicate through on-chain events, and the `± ε` windows already order
//! everything the specifications observe.
//!
//! Real delivery is not always well-behaved: a [`FaultPolicy`] selects what
//! the segmenter does with duplicated, conflicting, out-of-order, or
//! late-beyond-ε observations — reject ([`FaultPolicy::Strict`]), absorb
//! exact duplicates ([`FaultPolicy::Dedup`]), or additionally drop late and
//! reordered events ([`FaultPolicy::BestEffort`]) — and every absorbed fault
//! is counted on [`FaultCounters`] so callers can label the degradation.

use crate::{ComputationBuilder, DistributedComputation, ProcessId, SegmentationMode};
use rvmtl_mtl::State;
use std::fmt;

/// Error produced when a stream observation is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamError {
    /// An event's local time is lower than an earlier local time of the same
    /// process (per-process streams must be non-decreasing).
    OutOfOrder {
        /// The offending process.
        process: ProcessId,
        /// The largest local time heard from the process so far.
        previous: u64,
        /// The offending event's local time.
        time: u64,
    },
    /// A process index at or beyond the declared process count.
    UnknownProcess(ProcessId),
    /// The stream was already finished.
    Finished,
    /// An exact redelivery: the same process already has a buffered event at
    /// this local time with this state. Rejected under
    /// [`FaultPolicy::Strict`], absorbed (and counted) by the other policies.
    Duplicate {
        /// The redelivering process.
        process: ProcessId,
        /// The redelivered event's local time.
        time: u64,
    },
    /// The same process and local time as an already-ingested event but a
    /// *different* state — corrupted redelivery, never absorbed by any
    /// fault-tolerant policy.
    ConflictingState {
        /// The offending process.
        process: ProcessId,
        /// The contested local time.
        time: u64,
    },
    /// The event predates the base of the currently open segment: the window
    /// it belonged to was already sealed by the watermark, so it is late
    /// beyond the `ε` margin and cannot be placed anywhere.
    BeyondClosedBoundary {
        /// The offending process.
        process: ProcessId,
        /// The offending event's local time.
        time: u64,
        /// The base of the open segment (the last closed boundary).
        boundary: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::OutOfOrder {
                process,
                previous,
                time,
            } => write!(
                f,
                "{process} must deliver events in non-decreasing local-time order ({time} after {previous})"
            ),
            StreamError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            StreamError::Finished => write!(f, "stream already finished"),
            StreamError::Duplicate { process, time } => {
                write!(f, "exact duplicate of {process}'s event at time {time}")
            }
            StreamError::ConflictingState { process, time } => write!(
                f,
                "conflicting state for {process} at time {time} (same instant, different state)"
            ),
            StreamError::BeyondClosedBoundary {
                process,
                time,
                boundary,
            } => write!(
                f,
                "{process}'s event at time {time} predates the closed boundary {boundary}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// How a segmenter treats faulty observations — duplicated, conflicting,
/// out-of-order, or late-beyond-the-closed-boundary events.
///
/// See the fault-semantics table in the `rvmtl-runtime` crate documentation
/// for the full policy × fault matrix. Whatever a policy absorbs instead of
/// rejecting is counted on [`FaultCounters`], so degradation is always
/// visible to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Every fault is rejected with the matching [`StreamError`] and leaves
    /// the segmenter unchanged (the default). Same-instant events with
    /// *different* states remain legal simultaneity, exactly as the batch
    /// [`ComputationBuilder`] accepts them.
    #[default]
    Strict,
    /// Exact duplicates (same process, local time, and state as a buffered
    /// event) are absorbed silently and counted; a same-instant event with a
    /// different state is rejected as [`StreamError::ConflictingState`];
    /// everything else behaves as [`FaultPolicy::Strict`].
    Dedup,
    /// [`FaultPolicy::Dedup`], plus events behind the per-process frontier
    /// are dropped and counted instead of erroring, and events beyond the
    /// closed watermark boundary are dropped and counted as late beyond `ε`.
    /// Conflicting states are still always an error.
    BestEffort,
}

/// Counts of faults a segmenter absorbed (rather than rejected) under its
/// [`FaultPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Exact duplicates absorbed under `Dedup` / `BestEffort`.
    pub deduped: u64,
    /// Events behind the per-process frontier dropped under `BestEffort`.
    pub dropped: u64,
    /// Events beyond the closed watermark boundary dropped under
    /// `BestEffort`.
    pub late_beyond_epsilon: u64,
}

impl FaultCounters {
    /// Total number of absorbed faults.
    pub fn total(&self) -> u64 {
        self.deduped + self.dropped + self.late_beyond_epsilon
    }

    /// Returns `true` if no fault has been absorbed.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }

    /// The counters accumulated since `before` was captured.
    pub fn delta_since(&self, before: &FaultCounters) -> FaultCounters {
        FaultCounters {
            deduped: self.deduped - before.deduped,
            dropped: self.dropped - before.dropped,
            late_beyond_epsilon: self.late_beyond_epsilon - before.late_beyond_epsilon,
        }
    }

    /// Adds `delta` into these counters.
    pub fn absorb(&mut self, delta: &FaultCounters) {
        self.deduped += delta.deduped;
        self.dropped += delta.dropped;
        self.late_beyond_epsilon += delta.late_beyond_epsilon;
    }
}

/// Watermark-driven incremental segmentation; see the module documentation.
#[derive(Debug, Clone)]
pub struct IncrementalSegmenter {
    process_count: usize,
    epsilon: u64,
    segment_length: u64,
    /// Base time of the currently open segment (the last closed boundary).
    open_base: u64,
    /// Largest local time heard per process (`None` until it first reports).
    clocks: Vec<Option<u64>>,
    /// Carried initial state per process: the state established by its last
    /// event strictly before `open_base`.
    carried: Vec<State>,
    /// Buffered events of the open window, per process in arrival order.
    buffered: Vec<Vec<(u64, State)>>,
    /// Largest event local time seen anywhere.
    max_event_time: u64,
    any_event: bool,
    finished: bool,
    policy: FaultPolicy,
    faults: FaultCounters,
}

/// A plain-data image of an [`IncrementalSegmenter`], produced by
/// [`IncrementalSegmenter::export_state`] and consumed by
/// [`IncrementalSegmenter::from_state`].
///
/// Every field is public so checkpoint layers can serialize it with their
/// own codec; re-import revalidates all invariants, so a corrupted image is
/// rejected with [`InvalidSegmenterState`] instead of corrupting the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmenterState {
    /// Number of processes of the stream.
    pub process_count: usize,
    /// The skew bound `ε`.
    pub epsilon: u64,
    /// Segment length (must be ≥ 1).
    pub segment_length: u64,
    /// Base time of the currently open segment.
    pub open_base: u64,
    /// Largest local time heard per process.
    pub clocks: Vec<Option<u64>>,
    /// Carried initial state per process.
    pub carried: Vec<State>,
    /// Buffered open-window events, per process in arrival order.
    pub buffered: Vec<Vec<(u64, State)>>,
    /// Largest event local time seen anywhere.
    pub max_event_time: u64,
    /// Whether any event has been observed.
    pub any_event: bool,
    /// Whether the stream has been finished.
    pub finished: bool,
    /// The active fault policy.
    pub policy: FaultPolicy,
    /// Faults absorbed so far under the policy.
    pub faults: FaultCounters,
}

/// Error rejecting a [`SegmenterState`] whose fields violate the segmenter's
/// invariants (inconsistent lengths, non-monotone buffers, clock/watermark
/// disagreements).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct InvalidSegmenterState {
    /// Human-readable description of the violated invariant.
    pub reason: String,
}

impl fmt::Display for InvalidSegmenterState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid segmenter state: {}", self.reason)
    }
}

impl std::error::Error for InvalidSegmenterState {}

/// Outcome of admission control for one observation.
enum Admission {
    /// Buffer the event / advance the clock.
    Accept,
    /// The policy absorbed a fault; the observation is a no-op (only the
    /// fault counters advanced).
    Absorb,
}

impl IncrementalSegmenter {
    /// Starts segmenting a stream over `process_count` processes with skew
    /// bound `epsilon`, chopping at multiples of `segment_length` from time 0.
    ///
    /// # Panics
    ///
    /// Panics if `segment_length` is 0 or `process_count` is 0.
    pub fn new(process_count: usize, epsilon: u64, segment_length: u64) -> Self {
        Self::with_base_time(process_count, epsilon, segment_length, 0)
    }

    /// [`IncrementalSegmenter::new`] with segment boundaries anchored at
    /// `base_time` instead of 0.
    pub fn with_base_time(
        process_count: usize,
        epsilon: u64,
        segment_length: u64,
        base_time: u64,
    ) -> Self {
        assert!(segment_length > 0, "segment length must be at least 1");
        assert!(process_count > 0, "at least one process is required");
        IncrementalSegmenter {
            process_count,
            epsilon,
            segment_length,
            open_base: base_time,
            clocks: vec![None; process_count],
            carried: vec![State::empty(); process_count],
            buffered: vec![Vec::new(); process_count],
            max_event_time: base_time,
            any_event: false,
            finished: false,
            policy: FaultPolicy::Strict,
            faults: FaultCounters::default(),
        }
    }

    /// Selects the [`FaultPolicy`] for faulty observations (the default is
    /// [`FaultPolicy::Strict`]).
    pub fn with_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active fault policy.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Counters of the faults this segmenter has absorbed under its policy.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// Number of processes of the stream.
    pub fn process_count(&self) -> usize {
        self.process_count
    }

    /// The skew bound `ε`.
    pub fn epsilon(&self) -> u64 {
        self.epsilon
    }

    /// Base time of the currently open segment.
    pub fn open_base(&self) -> u64 {
        self.open_base
    }

    /// Sets the carried-over initial local state of a process — the state it
    /// had established before the stream began (the streaming counterpart of
    /// [`ComputationBuilder::initial_state`], threaded into every segment's
    /// carried frontier until the process's first event replaces it).
    ///
    /// # Panics
    ///
    /// Panics if the process is unknown or the stream has already started
    /// (any event or heartbeat heard): initial states are part of the
    /// stream's starting frontier, not something to rewrite mid-flight.
    pub fn initial_state(&mut self, process: usize, state: State) {
        assert!(
            process < self.process_count,
            "unknown process {process} (stream has {} processes)",
            self.process_count
        );
        assert!(
            self.clocks.iter().all(Option::is_none) && !self.finished,
            "initial states must be set before the stream starts"
        );
        self.carried[process] = state;
    }

    /// Largest event local time seen so far (or the base time).
    pub fn max_event_time(&self) -> u64 {
        self.max_event_time
    }

    /// The current watermark `min_p clock_p − ε`, or `None` while some
    /// process has never reported.
    pub fn watermark(&self) -> Option<u64> {
        self.clocks
            .iter()
            .map(|c| c.map(|t| t.saturating_sub(self.epsilon)))
            .min()
            .flatten()
    }

    /// How far the watermark trails the stream's frontier:
    /// `max_event_time − watermark`, or the full distance from the open base
    /// while some process has never reported (no watermark yet). This is the
    /// telemetry figure for "how much of the stream is still provisional":
    /// a straggler process shows up here as a growing lag even while events
    /// keep arriving.
    pub fn watermark_lag(&self) -> u64 {
        let frontier = self.max_event_time;
        match self.watermark() {
            Some(w) => frontier.saturating_sub(w),
            None => frontier.saturating_sub(self.open_base),
        }
    }

    /// Width of the currently open (not yet closeable) span of local time:
    /// `max_event_time − open_base`. Grows while events accumulate in the
    /// open segment and snaps back when the watermark closes it.
    pub fn open_span(&self) -> u64 {
        self.max_event_time.saturating_sub(self.open_base)
    }

    /// Exports a plain-data image of this segmenter for checkpointing.
    pub fn export_state(&self) -> SegmenterState {
        SegmenterState {
            process_count: self.process_count,
            epsilon: self.epsilon,
            segment_length: self.segment_length,
            open_base: self.open_base,
            clocks: self.clocks.clone(),
            carried: self.carried.clone(),
            buffered: self.buffered.clone(),
            max_event_time: self.max_event_time,
            any_event: self.any_event,
            finished: self.finished,
            policy: self.policy,
            faults: self.faults,
        }
    }

    /// Rebuilds a segmenter from an exported image, revalidating every
    /// invariant admission control normally maintains. A tampered or
    /// corrupted image is rejected with [`InvalidSegmenterState`]; a state
    /// accepted here behaves exactly as the segmenter that exported it.
    pub fn from_state(state: SegmenterState) -> Result<Self, InvalidSegmenterState> {
        fn bad(reason: impl Into<String>) -> InvalidSegmenterState {
            InvalidSegmenterState {
                reason: reason.into(),
            }
        }
        if state.process_count == 0 {
            return Err(bad("at least one process is required"));
        }
        if state.segment_length == 0 {
            return Err(bad("segment length must be at least 1"));
        }
        if state.clocks.len() != state.process_count
            || state.carried.len() != state.process_count
            || state.buffered.len() != state.process_count
        {
            return Err(bad(format!(
                "per-process tables sized {}/{}/{} for {} processes",
                state.clocks.len(),
                state.carried.len(),
                state.buffered.len(),
                state.process_count
            )));
        }
        // Admission sets the event's process clock to the event's time and
        // clocks never move back, so the newest event is never ahead of every
        // clock. (It may well precede `open_base`: heartbeats carry the
        // watermark past the last event, and `finish` handles that.)
        if state.any_event
            && state
                .clocks
                .iter()
                .flatten()
                .max()
                .is_none_or(|&clock| state.max_event_time > clock)
        {
            return Err(bad("max_event_time is ahead of every process clock"));
        }
        let mut saw_event = false;
        for (p, buf) in state.buffered.iter().enumerate() {
            let mut prev = None;
            for &(t, _) in buf {
                if t < state.open_base {
                    return Err(bad(format!(
                        "process {p} buffers an event at {t} before open_base {}",
                        state.open_base
                    )));
                }
                if prev.is_some_and(|prev| t < prev) {
                    return Err(bad(format!("process {p} buffer is out of order at {t}")));
                }
                if t > state.max_event_time {
                    return Err(bad(format!(
                        "process {p} buffers an event at {t} past max_event_time {}",
                        state.max_event_time
                    )));
                }
                match state.clocks[p] {
                    Some(clock) if t <= clock => {}
                    _ => {
                        return Err(bad(format!(
                            "process {p} buffers an event at {t} ahead of its clock"
                        )))
                    }
                }
                prev = Some(t);
                saw_event = true;
            }
        }
        if saw_event && !state.any_event {
            return Err(bad("buffered events contradict any_event = false"));
        }
        let segmenter = IncrementalSegmenter {
            process_count: state.process_count,
            epsilon: state.epsilon,
            segment_length: state.segment_length,
            open_base: state.open_base,
            clocks: state.clocks,
            carried: state.carried,
            buffered: state.buffered,
            max_event_time: state.max_event_time,
            any_event: state.any_event,
            finished: state.finished,
            policy: state.policy,
            faults: state.faults,
        };
        // The drain invariant: the open segment always reaches the watermark
        // (drain_closed restores it after every observation, so a consistent
        // image satisfies it too).
        if let Some(watermark) = segmenter.watermark() {
            if segmenter.open_base.saturating_add(segmenter.segment_length) < watermark {
                return Err(bad("open segment lags the watermark"));
            }
        }
        Ok(segmenter)
    }

    /// The admission checks shared by events and heartbeats: stream liveness
    /// and process bounds.
    fn admit_common(&self, process: usize) -> Result<ProcessId, StreamError> {
        if self.finished {
            return Err(StreamError::Finished);
        }
        let p = ProcessId(process);
        if process >= self.process_count {
            return Err(StreamError::UnknownProcess(p));
        }
        Ok(p)
    }

    /// Admission control for one event under the active policy.
    fn admit_event(
        &mut self,
        process: usize,
        time: u64,
        state: &State,
    ) -> Result<Admission, StreamError> {
        let p = self.admit_common(process)?;
        if time < self.open_base {
            // The window the event belonged to was sealed by the watermark:
            // it is late beyond the ε margin and cannot be placed anywhere.
            return if self.policy == FaultPolicy::BestEffort {
                self.faults.late_beyond_epsilon += 1;
                Ok(Admission::Absorb)
            } else {
                Err(StreamError::BeyondClosedBoundary {
                    process: p,
                    time,
                    boundary: self.open_base,
                })
            };
        }
        let Some(previous) = self.clocks[process] else {
            return Ok(Admission::Accept);
        };
        if time > previous {
            return Ok(Admission::Accept);
        }
        // The replay regime (`time ≤ previous`) is the only place duplicates,
        // conflicts, and reordering can hide, so the clean fast path above
        // never pays for the buffer scan. The buffer holds the open window's
        // events in non-decreasing time order; everything at `time` sits in
        // one contiguous run.
        let events = &self.buffered[process];
        let start = events.partition_point(|&(t, _)| t < time);
        let at_time = &events[start..][..events[start..]
            .iter()
            .take_while(|&&(t, _)| t == time)
            .count()];
        if at_time.iter().any(|(_, s)| s == state) {
            return if self.policy == FaultPolicy::Strict {
                Err(StreamError::Duplicate { process: p, time })
            } else {
                self.faults.deduped += 1;
                Ok(Admission::Absorb)
            };
        }
        if time == previous {
            // Same-instant, different state. `Strict` trusts the stream —
            // two distinct facts at one instant are legal simultaneity,
            // exactly as the batch builder accepts them; the fault-absorbing
            // policies treat a distinct state at an already-seen instant as
            // corrupted redelivery (never absorbed).
            return if self.policy == FaultPolicy::Strict || at_time.is_empty() {
                Ok(Admission::Accept)
            } else {
                Err(StreamError::ConflictingState { process: p, time })
            };
        }
        // time < previous: behind the process frontier.
        if !at_time.is_empty() && self.policy != FaultPolicy::Strict {
            return Err(StreamError::ConflictingState { process: p, time });
        }
        if self.policy == FaultPolicy::BestEffort {
            self.faults.dropped += 1;
            Ok(Admission::Absorb)
        } else {
            Err(StreamError::OutOfOrder {
                process: p,
                previous,
                time,
            })
        }
    }

    /// Admission control for one heartbeat under the active policy.
    fn admit_heartbeat(&mut self, process: usize, time: u64) -> Result<Admission, StreamError> {
        let p = self.admit_common(process)?;
        if let Some(previous) = self.clocks[process] {
            if time < previous {
                // A stale liveness beacon carries no state: `BestEffort`
                // ignores it without touching the fault counters (nothing
                // observable was lost), the other policies reject it.
                return if self.policy == FaultPolicy::BestEffort {
                    Ok(Admission::Absorb)
                } else {
                    Err(StreamError::OutOfOrder {
                        process: p,
                        previous,
                        time,
                    })
                };
            }
        }
        Ok(Admission::Accept)
    }

    /// Ingests one event: `process` established local state `state` at local
    /// time `time`. Returns the segments this observation closed (usually
    /// none, occasionally one or more when the watermark jumps).
    ///
    /// # Errors
    ///
    /// See [`StreamError`]; a rejected observation leaves the segmenter
    /// unchanged. Under a fault-absorbing [`FaultPolicy`] an absorbed fault
    /// also leaves the stream state unchanged and only advances
    /// [`IncrementalSegmenter::fault_counters`].
    pub fn observe(
        &mut self,
        process: usize,
        time: u64,
        state: State,
    ) -> Result<Vec<DistributedComputation>, StreamError> {
        match self.admit_event(process, time, &state)? {
            Admission::Absorb => Ok(Vec::new()),
            Admission::Accept => {
                self.clocks[process] = Some(time);
                self.buffered[process].push((time, state));
                self.max_event_time = self.max_event_time.max(time);
                self.any_event = true;
                Ok(self.drain_closed())
            }
        }
    }

    /// Advances a process's local clock without an event (a liveness beacon:
    /// silent processes otherwise pin the watermark forever).
    ///
    /// # Errors
    ///
    /// See [`StreamError`].
    pub fn heartbeat(
        &mut self,
        process: usize,
        time: u64,
    ) -> Result<Vec<DistributedComputation>, StreamError> {
        match self.admit_heartbeat(process, time)? {
            Admission::Absorb => Ok(Vec::new()),
            Admission::Accept => {
                self.clocks[process] = Some(time);
                Ok(self.drain_closed())
            }
        }
    }

    /// Closes every segment the current watermark seals.
    fn drain_closed(&mut self) -> Vec<DistributedComputation> {
        let Some(watermark) = self.watermark() else {
            return Vec::new();
        };
        let mut closed = Vec::new();
        // Strictly below the watermark: when the watermark lands exactly on a
        // boundary the window stays open, so a stream that ends right there
        // still produces the batch segmenter's closed-right final segment.
        while self.open_base + self.segment_length < watermark {
            let hi = self.open_base + self.segment_length;
            closed.push(self.close_segment(hi, false));
        }
        closed
    }

    /// Ends the stream: the remaining buffered events are chopped at the
    /// remaining scheduled boundaries — non-final segments while a full
    /// window fits strictly before the last event — and the tail becomes the
    /// final segment (closed on the right, no horizon), mirroring the batch
    /// segmenter's final-segment rule. The segmenter rejects further input
    /// afterwards.
    pub fn finish(&mut self) -> Vec<DistributedComputation> {
        if self.finished {
            return Vec::new();
        }
        self.finished = true;
        let end = self.max_event_time.max(self.open_base);
        let mut out = Vec::new();
        while self.open_base + self.segment_length < end {
            let hi = self.open_base + self.segment_length;
            out.push(self.close_segment(hi, false));
        }
        out.push(self.close_segment(end, true));
        out
    }

    /// Builds the segment `[self.open_base, hi)` (`[.., hi]` when `last`)
    /// with the batch segmenter's boundary rules and advances the window.
    // Admission already rejected out-of-order observations, so the builder
    // revalidation cannot fail.
    #[allow(clippy::expect_used)]
    fn close_segment(&mut self, hi: u64, last: bool) -> DistributedComputation {
        let lo = self.open_base;
        let mut builder = ComputationBuilder::new(self.process_count, self.epsilon);
        builder.base_time(lo);
        if !last {
            // Disjoint mode: a non-final segment's events cannot be scheduled
            // past the point at which the next segment takes over.
            builder.horizon(hi);
        }
        for p in 0..self.process_count {
            builder.initial_state(p, self.carried[p].clone());
        }
        let in_segment = |t: u64| if last { t <= hi } else { t < hi };
        for p in 0..self.process_count {
            let events = std::mem::take(&mut self.buffered[p]);
            let mut keep = Vec::with_capacity(events.len());
            for (t, state) in events {
                if in_segment(t) {
                    // The carried state for the *next* segment is the last
                    // local state established strictly before its base `hi`.
                    if t < hi {
                        self.carried[p] = state.clone();
                    }
                    builder.event(p, t, state);
                } else {
                    keep.push((t, state));
                }
            }
            self.buffered[p] = keep;
        }
        self.open_base = hi;
        builder
            .build()
            .expect("per-process order was validated on ingestion")
    }

    /// The segmentation mode this segmenter reproduces.
    pub fn mode(&self) -> SegmentationMode {
        SegmentationMode::Disjoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{segment_at_boundaries, EventId};
    use rvmtl_mtl::state;

    /// Structural equality of computations through their public accessors
    /// (the type deliberately does not implement `PartialEq`).
    fn assert_same(a: &DistributedComputation, b: &DistributedComputation, context: &str) {
        assert_eq!(a.process_count(), b.process_count(), "{context}: processes");
        assert_eq!(a.epsilon(), b.epsilon(), "{context}: epsilon");
        assert_eq!(a.base_time(), b.base_time(), "{context}: base time");
        assert_eq!(a.horizon(), b.horizon(), "{context}: horizon");
        assert_eq!(a.event_count(), b.event_count(), "{context}: event count");
        for p in 0..a.process_count() {
            let pa = a.events_of(ProcessId(p));
            let pb = b.events_of(ProcessId(p));
            assert_eq!(pa.len(), pb.len(), "{context}: events of process {p}");
            for (&ea, &eb) in pa.iter().zip(pb) {
                assert_eq!(
                    a.event(ea).local_time,
                    b.event(eb).local_time,
                    "{context}: event times of process {p}"
                );
                assert_eq!(
                    a.event(ea).state,
                    b.event(eb).state,
                    "{context}: event states of process {p}"
                );
            }
            assert_eq!(
                a.initial_state(ProcessId(p)),
                b.initial_state(ProcessId(p)),
                "{context}: carried state of process {p}"
            );
        }
    }

    fn feed_batch(
        comp: &DistributedComputation,
        segment_length: u64,
    ) -> Vec<DistributedComputation> {
        let mut segmenter =
            IncrementalSegmenter::new(comp.process_count(), comp.epsilon(), segment_length);
        // Deliver in global local-time order (a skew-legal interleaving).
        let mut events: Vec<EventId> = (0..comp.event_count()).map(EventId).collect();
        events.sort_by_key(|&id| (comp.event(id).local_time, comp.event(id).process.0));
        let mut out = Vec::new();
        for id in events {
            let e = comp.event(id);
            out.extend(
                segmenter
                    .observe(e.process.0, e.local_time, e.state.clone())
                    .expect("valid stream"),
            );
        }
        out.extend(segmenter.finish());
        out
    }

    fn expected_boundaries(comp: &DistributedComputation, segment_length: u64) -> Vec<u64> {
        let end = comp.max_local_time().max(comp.base_time());
        let mut boundaries = vec![comp.base_time()];
        let mut b = comp.base_time();
        while b + segment_length < end {
            b += segment_length;
            boundaries.push(b);
        }
        boundaries.push(end);
        boundaries
    }

    fn sample(epsilon: u64) -> DistributedComputation {
        let mut b = ComputationBuilder::new(2, epsilon);
        for t in 1..=10u64 {
            b.event(0, t, state![format!("a{t}").as_str()]);
            b.event(1, t, state![format!("b{t}").as_str()]);
        }
        b.build().unwrap()
    }

    #[test]
    fn streaming_partition_matches_batch_segmenter() {
        for epsilon in [0u64, 1, 2, 3] {
            for segment_length in [2u64, 3, 4, 7, 20] {
                let comp = sample(epsilon);
                let streamed = feed_batch(&comp, segment_length);
                let boundaries = expected_boundaries(&comp, segment_length);
                let batch = segment_at_boundaries(&comp, &boundaries, SegmentationMode::Disjoint);
                assert_eq!(
                    streamed.len(),
                    batch.len(),
                    "ε = {epsilon}, L = {segment_length}"
                );
                for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
                    assert_same(
                        s,
                        b,
                        &format!("ε = {epsilon}, L = {segment_length}, segment {i}"),
                    );
                }
            }
        }
    }

    #[test]
    fn watermark_respects_epsilon_and_silent_processes() {
        let mut seg = IncrementalSegmenter::new(2, 2, 5);
        assert_eq!(seg.watermark(), None);
        seg.observe(0, 10, state!["x"]).unwrap();
        // Process 1 has not reported: nothing closes.
        assert_eq!(seg.watermark(), None);
        let closed = seg.heartbeat(1, 9).unwrap();
        // Watermark = min(10, 9) − ε = 7: the first window [0, 5) is sealed.
        assert_eq!(seg.watermark(), Some(7));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].base_time(), 0);
        assert_eq!(closed[0].horizon(), Some(5));
        assert_eq!(closed[0].event_count(), 0);
        assert_eq!(seg.open_base(), 5);
    }

    #[test]
    fn closed_segments_never_receive_events() {
        let mut seg = IncrementalSegmenter::new(2, 1, 4);
        seg.observe(0, 3, state!["a"]).unwrap();
        let closed = seg.observe(1, 6, state!["b"]).unwrap();
        assert_eq!(closed.len(), 0); // watermark = 3 - 1 = 2 < 4
        let closed = seg.observe(0, 8, state!["c"]).unwrap();
        // Watermark = min(8, 6) − 1 = 5 ≥ 4: [0, 4) closes with the event at 3.
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].event_count(), 1);
        // A later event of process 1 at time 5 is still legal (≥ its clock 6
        // would be required... so 5 is out of order) — but an event at 6 in
        // the open window is accepted.
        assert!(matches!(
            seg.observe(1, 5, state!["late"]),
            Err(StreamError::OutOfOrder { .. })
        ));
        seg.observe(1, 6, state!["ok"]).unwrap();
    }

    #[test]
    fn carried_states_cross_boundaries() {
        let mut seg = IncrementalSegmenter::new(1, 0, 5);
        seg.observe(0, 1, state!["first"]).unwrap();
        seg.observe(0, 4, state!["second"]).unwrap();
        let mut segs = seg.observe(0, 12, state!["third"]).unwrap();
        segs.extend(seg.finish());
        assert_eq!(segs.len(), 3); // [0,5), [5,10), [10,12]
        assert!(segs[1].initial_state(ProcessId(0)).holds("second"));
        assert!(segs[2].initial_state(ProcessId(0)).holds("second"));
        assert_eq!(segs[2].horizon(), None);
        assert_eq!(segs[2].event_count(), 1);
    }

    #[test]
    fn rejects_bad_input_and_finish_is_terminal() {
        let mut seg = IncrementalSegmenter::new(1, 1, 5);
        assert!(matches!(
            seg.observe(3, 1, state![]),
            Err(StreamError::UnknownProcess(_))
        ));
        seg.observe(0, 4, state!["x"]).unwrap();
        let tail = seg.finish();
        assert_eq!(tail.len(), 1);
        assert!(seg.finish().is_empty());
        assert!(matches!(
            seg.observe(0, 9, state![]),
            Err(StreamError::Finished)
        ));
    }

    #[test]
    #[should_panic(expected = "segment length")]
    fn zero_segment_length_panics() {
        let _ = IncrementalSegmenter::new(1, 1, 0);
    }

    #[test]
    fn stream_error_display_covers_every_variant() {
        let cases: Vec<(StreamError, &[&str])> = vec![
            (
                StreamError::OutOfOrder {
                    process: ProcessId(1),
                    previous: 9,
                    time: 4,
                },
                &["non-decreasing", "4", "9"],
            ),
            (
                StreamError::UnknownProcess(ProcessId(7)),
                &["unknown process"],
            ),
            (StreamError::Finished, &["finished"]),
            (
                StreamError::Duplicate {
                    process: ProcessId(0),
                    time: 6,
                },
                &["duplicate", "6"],
            ),
            (
                StreamError::ConflictingState {
                    process: ProcessId(2),
                    time: 5,
                },
                &["conflicting state", "5"],
            ),
            (
                StreamError::BeyondClosedBoundary {
                    process: ProcessId(1),
                    time: 3,
                    boundary: 8,
                },
                &["closed boundary", "3", "8"],
            ),
        ];
        for (error, needles) in cases {
            let rendered = error.to_string();
            for needle in needles {
                assert!(
                    rendered.contains(needle),
                    "{error:?} must render {needle:?}, got {rendered:?}"
                );
            }
            // The Error impl round-trips through the Display text.
            let boxed: Box<dyn std::error::Error> = Box::new(error);
            assert_eq!(boxed.to_string(), rendered);
        }
    }

    #[test]
    fn heartbeat_rejects_unknown_process_and_finished_stream() {
        let mut seg = IncrementalSegmenter::new(2, 0, 5);
        assert!(matches!(
            seg.heartbeat(5, 1),
            Err(StreamError::UnknownProcess(ProcessId(5)))
        ));
        seg.observe(0, 2, state!["x"]).unwrap();
        seg.finish();
        assert!(matches!(seg.heartbeat(0, 3), Err(StreamError::Finished)));
        assert!(matches!(
            seg.observe(0, 3, state!["x"]),
            Err(StreamError::Finished)
        ));
    }

    #[test]
    fn strict_rejects_duplicates_and_beyond_boundary_with_dedicated_errors() {
        let mut seg = IncrementalSegmenter::new(2, 1, 4);
        seg.observe(0, 3, state!["a"]).unwrap();
        // Exact redelivery of the buffered event.
        assert_eq!(
            seg.observe(0, 3, state!["a"]).unwrap_err(),
            StreamError::Duplicate {
                process: ProcessId(0),
                time: 3
            }
        );
        // Same instant, different state: legal simultaneity under Strict.
        seg.observe(0, 3, state!["also"]).unwrap();
        // Close [0, 4) so the boundary check has something to guard.
        seg.observe(0, 8, state!["b"]).unwrap();
        let closed = seg.observe(1, 6, state!["c"]).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(seg.open_base(), 4);
        assert_eq!(
            seg.observe(1, 2, state!["late"]).unwrap_err(),
            StreamError::BeyondClosedBoundary {
                process: ProcessId(1),
                time: 2,
                boundary: 4
            }
        );
        // Strict absorbed nothing.
        assert!(seg.fault_counters().is_zero());
    }

    #[test]
    fn dedup_absorbs_exact_duplicates_and_rejects_conflicts() {
        let mut seg = IncrementalSegmenter::new(1, 0, 10).with_policy(FaultPolicy::Dedup);
        assert_eq!(seg.policy(), FaultPolicy::Dedup);
        seg.observe(0, 2, state!["a"]).unwrap();
        seg.observe(0, 5, state!["b"]).unwrap();
        // Exact duplicates — of the frontier event and of an older buffered
        // event — are absorbed silently and counted.
        assert!(seg.observe(0, 5, state!["b"]).unwrap().is_empty());
        assert!(seg.observe(0, 2, state!["a"]).unwrap().is_empty());
        assert_eq!(seg.fault_counters().deduped, 2);
        // A different state at an already-seen instant is corruption.
        assert_eq!(
            seg.observe(0, 5, state!["x"]).unwrap_err(),
            StreamError::ConflictingState {
                process: ProcessId(0),
                time: 5
            }
        );
        // Reordering (no duplicate involved) still errors under Dedup.
        assert!(matches!(
            seg.observe(0, 4, state!["y"]),
            Err(StreamError::OutOfOrder { .. })
        ));
        assert_eq!(seg.fault_counters().total(), 2);
    }

    #[test]
    fn best_effort_drops_and_counts_instead_of_erroring() {
        let mut seg = IncrementalSegmenter::new(2, 1, 4).with_policy(FaultPolicy::BestEffort);
        seg.observe(0, 3, state!["a"]).unwrap();
        seg.observe(0, 8, state!["b"]).unwrap();
        let closed = seg.observe(1, 6, state!["c"]).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(seg.open_base(), 4);
        // Behind the frontier but inside the open window: dropped.
        assert!(seg.observe(1, 5, state!["reordered"]).unwrap().is_empty());
        // Beyond the closed boundary: dropped as late beyond ε.
        assert!(seg.observe(1, 2, state!["late"]).unwrap().is_empty());
        // Exact duplicate: absorbed.
        assert!(seg.observe(0, 8, state!["b"]).unwrap().is_empty());
        // Conflicting state is never absorbed.
        assert_eq!(
            seg.observe(0, 8, state!["x"]).unwrap_err(),
            StreamError::ConflictingState {
                process: ProcessId(0),
                time: 8
            }
        );
        let counters = seg.fault_counters();
        assert_eq!(counters.dropped, 1);
        assert_eq!(counters.late_beyond_epsilon, 1);
        assert_eq!(counters.deduped, 1);
        assert_eq!(counters.total(), 3);
        // Absorbed faults left the stream state untouched: the segments the
        // survivors produce are exactly those of the clean sub-stream.
        let mut clean = IncrementalSegmenter::new(2, 1, 4);
        clean.observe(0, 3, state!["a"]).unwrap();
        clean.observe(0, 8, state!["b"]).unwrap();
        clean.observe(1, 6, state!["c"]).unwrap();
        assert_eq!(seg.finish().len(), clean.finish().len());
    }

    #[test]
    fn best_effort_ignores_stale_heartbeats_without_counting() {
        let mut seg = IncrementalSegmenter::new(1, 0, 5).with_policy(FaultPolicy::BestEffort);
        seg.heartbeat(0, 9).unwrap();
        assert!(seg.heartbeat(0, 4).unwrap().is_empty());
        assert_eq!(seg.watermark(), Some(9));
        assert!(seg.fault_counters().is_zero());
        // The same stale beacon is an error under the rejecting policies.
        let mut strict = IncrementalSegmenter::new(1, 0, 5);
        strict.heartbeat(0, 9).unwrap();
        assert!(matches!(
            strict.heartbeat(0, 4),
            Err(StreamError::OutOfOrder { .. })
        ));
    }

    /// Exports, re-imports, and checks the copy closes the same tail as the
    /// original.
    fn assert_roundtrips(mut seg: IncrementalSegmenter, context: &str) {
        let image = seg.export_state();
        let mut restored = IncrementalSegmenter::from_state(image.clone())
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(restored.export_state(), image, "{context}");
        let (a, b) = (seg.finish(), restored.finish());
        assert_eq!(a.len(), b.len(), "{context}: tail segments");
        for (x, y) in a.iter().zip(&b) {
            assert_same(x, y, context);
        }
    }

    #[test]
    fn heartbeats_past_the_last_event_export_and_restore() {
        for policy in [
            FaultPolicy::Strict,
            FaultPolicy::Dedup,
            FaultPolicy::BestEffort,
        ] {
            let mut seg = IncrementalSegmenter::new(2, 1, 5).with_policy(policy);
            seg.observe(0, 1, state!["a"]).unwrap();
            seg.observe(1, 2, state!["b"]).unwrap();
            for t in [10, 30, 50] {
                seg.heartbeat(0, t).unwrap();
                seg.heartbeat(1, t).unwrap();
            }
            assert!(seg.open_base() > seg.max_event_time(), "{policy:?}");
            assert_roundtrips(seg, &format!("{policy:?}"));
        }
        // BestEffort absorbs a late and a reordered event: neither moves a
        // clock or `max_event_time`, so the image stays importable.
        let mut seg = IncrementalSegmenter::new(2, 1, 5).with_policy(FaultPolicy::BestEffort);
        seg.observe(0, 1, state!["a"]).unwrap();
        seg.observe(1, 8, state!["b"]).unwrap();
        seg.heartbeat(0, 50).unwrap();
        seg.heartbeat(1, 50).unwrap();
        assert!(seg.observe(0, 3, state!["late"]).unwrap().is_empty());
        seg.observe(1, 52, state!["c"]).unwrap();
        assert!(seg.observe(1, 51, state!["reordered"]).unwrap().is_empty());
        assert_eq!(seg.fault_counters().total(), 2);
        assert_roundtrips(seg, "BestEffort after absorbed events");
    }

    #[test]
    fn from_state_rejects_an_event_ahead_of_every_clock() {
        let mut seg = IncrementalSegmenter::new(2, 1, 5);
        seg.observe(0, 1, state!["a"]).unwrap();
        seg.heartbeat(1, 3).unwrap();
        let mut image = seg.export_state();
        image.max_event_time = 4;
        let err = IncrementalSegmenter::from_state(image).unwrap_err();
        assert!(
            err.to_string().contains("ahead of every process clock"),
            "{err}"
        );
    }
}
