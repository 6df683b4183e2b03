//! Frame-by-frame replay of a capture through the public ingestion API,
//! timed from the outside.
//!
//! One pass decodes every frame with `FrameReader::next_frame`, hands it to
//! `StreamMonitor::observe` or `StreamMonitor::heartbeat`, registers the
//! queries scheduled after it with `StreamMonitor::add_query`, and ends with
//! `StreamMonitor::finish` on the `End` frame. Each frame's service time is
//! the wall time from the end of the previous frame's work to the end of its
//! own; the segment counters the monitor exposes say how many segments each
//! call closed and how many it published.

use crate::workload::Job;
use rvmtl_runtime::{StreamConfig, StreamMonitor, StreamReport};
use rvmtl_wire::{Frame, FrameReader, WireError};
use std::time::Instant;

/// What one replay pass measured.
pub struct Pass {
    /// Service time of each body frame, then of the final `End` frame
    /// (which runs `finish`), in nanoseconds.
    pub service_ns: Vec<u64>,
    /// Segments each frame's call closed.
    pub closed: Vec<u32>,
    /// Segments each frame's call published (processed).
    pub published: Vec<u32>,
    /// Frames the monitor rejected (counted, replay continues).
    pub rejected: u64,
    /// The monitor's final report.
    pub report: StreamReport,
    /// Wall time from the first body frame to the end of `finish`.
    pub wall_ns: u64,
}

/// A failure that ends a pass early.
#[derive(Debug)]
pub enum ReplayError {
    /// The capture did not decode.
    Wire(WireError),
    /// The capture decoded but broke the protocol (handshake, frame kinds).
    Protocol(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Wire(e) => write!(f, "wire: {e}"),
            ReplayError::Protocol(reason) => write!(f, "protocol: {reason}"),
        }
    }
}

impl From<WireError> for ReplayError {
    fn from(e: WireError) -> Self {
        ReplayError::Wire(e)
    }
}

/// The public calls a pass makes, as span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `FrameReader::next_frame`.
    Decode,
    /// `StreamMonitor::observe`.
    Observe,
    /// `StreamMonitor::heartbeat`.
    Heartbeat,
    /// `StreamMonitor::add_query`.
    AddQuery,
    /// `StreamMonitor::finish`.
    Finish,
}

impl Call {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Call::Decode => "wire.next_frame",
            Call::Observe => "runtime.observe",
            Call::Heartbeat => "runtime.heartbeat",
            Call::AddQuery => "runtime.add_query",
            Call::Finish => "runtime.finish",
        }
    }
}

/// Observes the calls of a pass. The untraced pass uses [`NoSpans`], which
/// compiles to nothing.
pub trait Spans {
    /// Whether call boundaries are timed at all.
    const ENABLED: bool;
    /// Records one call of frame `frame` between `start` and `end`.
    fn call(&mut self, frame: u32, call: Call, start: Instant, end: Instant);
    /// Records frame `frame`'s whole service interval, the parent of its
    /// calls.
    fn frame(&mut self, frame: u32, start: Instant, end: Instant);
}

/// No spans: the end-to-end measurement.
pub struct NoSpans;

impl Spans for NoSpans {
    const ENABLED: bool = false;
    fn call(&mut self, _: u32, _: Call, _: Instant, _: Instant) {}
    fn frame(&mut self, _: u32, _: Instant, _: Instant) {}
}

/// Times `f` as one call when spans are enabled.
#[inline(always)]
fn span<S: Spans, T>(spans: &mut S, frame: u32, call: Call, f: impl FnOnce() -> T) -> T {
    if S::ENABLED {
        let start = Instant::now();
        let out = f();
        spans.call(frame, call, start, Instant::now());
        out
    } else {
        f()
    }
}

/// Sets up a monitor for `job` and reads the capture's handshake: the work
/// `setup_s` measures.
pub fn set_up<'a>(
    job: &Job,
    bytes: &'a [u8],
    config: StreamConfig,
) -> Result<(StreamMonitor, FrameReader<&'a [u8]>), ReplayError> {
    let mut monitor = StreamMonitor::new(job.profile.processes, job.profile.epsilon, config);
    for phi in &job.initial_queries {
        monitor.add_query(phi);
    }
    let mut reader = FrameReader::new(bytes)?;
    match reader.next_frame()? {
        Some(Frame::Hello(hello))
            if hello.processes == monitor.process_count()
                && hello.epsilon == monitor.epsilon()
                && hello.fault_policy == monitor.fault_policy() => {}
        Some(Frame::Hello(hello)) => {
            return Err(ReplayError::Protocol(format!(
                "handshake {hello:?} does not match the monitor"
            )))
        }
        other => {
            return Err(ReplayError::Protocol(format!(
                "first frame is {:?}, not hello",
                other.map(|f| f.kind())
            )))
        }
    }
    Ok((monitor, reader))
}

/// Replays `bytes` (the capture of `job`) through a fresh monitor.
/// `frames_hint` sizes the per-frame records.
pub fn replay<S: Spans>(
    job: &Job,
    bytes: &[u8],
    config: StreamConfig,
    frames_hint: usize,
    spans: &mut S,
) -> Result<Pass, ReplayError> {
    let (mut monitor, mut reader) = set_up(job, bytes, config)?;
    let mut service_ns = Vec::with_capacity(frames_hint + 1);
    let mut closed = Vec::with_capacity(frames_hint + 1);
    let mut published = Vec::with_capacity(frames_hint + 1);
    let mut late = job.late_queries.iter().peekable();
    let mut rejected = 0u64;
    let (mut seen, mut processed) = (0usize, 0usize);
    let started = Instant::now();
    let mut previous = started;
    let mut index = 0usize;
    let report = loop {
        let seq = index as u32;
        let frame = span(spans, seq, Call::Decode, || reader.next_frame())?;
        let accepted = match frame {
            Some(Frame::Event(e)) => span(spans, seq, Call::Observe, || {
                monitor.observe(e.process, e.time, e.state)
            })
            .is_ok(),
            Some(Frame::Heartbeat { process, time }) => span(spans, seq, Call::Heartbeat, || {
                monitor.heartbeat(process, time)
            })
            .is_ok(),
            Some(Frame::End) => break span(spans, seq, Call::Finish, || monitor.finish()),
            other => {
                return Err(ReplayError::Protocol(format!(
                    "body frame {index} is {:?}",
                    other.map(|f| f.kind())
                )))
            }
        };
        rejected += u64::from(!accepted);
        while let Some((_, queries)) = late.next_if(|(after, _)| *after == index) {
            span(spans, seq, Call::AddQuery, || {
                for phi in queries {
                    monitor.add_query(phi);
                }
            });
        }
        let now = Instant::now();
        spans.frame(seq, previous, now);
        service_ns.push(nanos(now - previous));
        previous = now;
        let now_processed = monitor.segments_processed();
        let now_seen = now_processed + monitor.segments_queued();
        closed.push((now_seen - seen) as u32);
        published.push((now_processed - processed) as u32);
        (seen, processed) = (now_seen, now_processed);
        index += 1;
    };
    let now = Instant::now();
    spans.frame(index as u32, previous, now);
    service_ns.push(nanos(now - previous));
    closed.push((report.segments - seen) as u32);
    published.push((report.segments - processed) as u32);
    Ok(Pass {
        service_ns,
        closed,
        published,
        rejected,
        report,
        wall_ns: nanos(now - started),
    })
}

/// A duration in whole nanoseconds.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
