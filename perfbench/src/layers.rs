//! The traced run: benchmark-side spans around every public call, the
//! program's own timing instruments, and the per-layer table built from
//! both.

use crate::replay::{nanos, Call, Pass, Spans};
use crate::verify::Restores;
use rvmtl_runtime::TelemetrySnapshot;
use std::fmt::Write as _;
use std::time::Instant;

/// How far the layer shares may sum from 1: the traced wall time outside
/// every call span (the replay loop and the timestamps themselves) must stay
/// below this share of it.
pub const SHARE_TOLERANCE: f64 = 0.05;

/// One recorded span. Every span of a frame carries the frame's sequence
/// number; a call span's parent is its frame's `frame` span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The frame's sequence number (0 = first body frame).
    pub frame: u32,
    /// The call, or `None` for the frame span itself.
    pub call: Option<Call>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Keeps spans in memory for writing at exit.
pub struct Recorder {
    base: Instant,
    /// Spans in completion order.
    pub spans: Vec<SpanRecord>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            base: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, frame: u32, call: Option<Call>, start: Instant, end: Instant) {
        self.spans.push(SpanRecord {
            frame,
            call,
            start_ns: nanos(start.saturating_duration_since(self.base)),
            end_ns: nanos(end.saturating_duration_since(self.base)),
        });
    }

    /// The spans as JSON Lines: `id` (frame sequence number), `name`,
    /// `parent`, `start_ns`, `end_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            let (name, parent) = match span.call {
                Some(call) => (call.name(), "\"frame\""),
                None => ("frame", "null"),
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{name}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.frame, span.start_ns, span.end_ns
            );
        }
        out
    }
}

impl Spans for Recorder {
    const ENABLED: bool = true;
    fn call(&mut self, frame: u32, call: Call, start: Instant, end: Instant) {
        self.push(frame, Some(call), start, end);
    }
    fn frame(&mut self, frame: u32, start: Instant, end: Instant) {
        self.push(frame, None, start, end);
    }
}

/// Everything the per-layer table is computed from.
pub struct Inputs<'a> {
    /// The traced pass (telemetry on) whose spans were recorded.
    pub pass: &'a Pass,
    /// Its spans.
    pub recorder: &'a Recorder,
    /// Event frames in the stream.
    pub events: usize,
    /// Size of the capture in bytes.
    pub wire_bytes: usize,
    /// Pipeline workers (0 on the sequential path).
    pub workers: usize,
    /// Standalone segmenter pass: nanoseconds per frame.
    pub segment_ns_per_frame: f64,
    /// Standalone segmenter pass: segments it closed.
    pub segmenter_segments: usize,
    /// Median wall time of the untraced passes (ns).
    pub untraced_wall_ns: f64,
    /// Median wall time of the traced passes (ns).
    pub traced_wall_ns: f64,
    /// Median wall time of sequential replays of a pipelined job (ns).
    pub sequential_wall_ns: Option<f64>,
    /// The reference run's checkpoint restores.
    pub restores: &'a Restores,
}

/// One per-layer metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The per-layer metrics plus the share check.
pub struct Table {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// The layer shares' sum (1 when the call spans cover the wall time).
    pub share_sum: f64,
    /// The human-readable table.
    pub text: String,
}

fn hist(snapshot: &TelemetrySnapshot, name: &str) -> (f64, f64) {
    snapshot
        .histogram(name)
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds the per-layer table of one traced pass.
pub fn table(inputs: &Inputs<'_>) -> Table {
    let pass = inputs.pass;
    let report = &pass.report;
    let telemetry = &report.telemetry;
    let wall = pass.wall_ns as f64;
    let frames = pass.service_ns.len() as f64;

    // Sum the call spans per class. A runtime call belongs to processing
    // when its frame published at least one segment.
    let (mut decode, mut ingest, mut process) = (0.0, 0.0, 0.0);
    let mut ingest_calls = 0.0;
    for span in &inputs.recorder.spans {
        let took = span.end_ns.saturating_sub(span.start_ns) as f64;
        match span.call {
            None => {}
            Some(Call::Decode) => decode += took,
            Some(_)
                if pass
                    .published
                    .get(span.frame as usize)
                    .copied()
                    .unwrap_or(0)
                    > 0 =>
            {
                process += took
            }
            Some(_) => {
                ingest += took;
                ingest_calls += 1.0;
            }
        }
    }
    let segments = report.segments as f64;
    let (segment_solve, _) = hist(telemetry, "rvmtl_segment_solve_nanos");
    let (gc, gc_epochs) = hist(telemetry, "rvmtl_gc_pause_nanos");
    let (checkpoint, checkpoints) = hist(telemetry, "rvmtl_checkpoint_write_nanos");
    let (_, work_items) = hist(telemetry, "rvmtl_work_item_nanos");
    let busy = telemetry.counter_total("rvmtl_pipeline_busy_nanos_total") as f64;
    let pipeline_wall = telemetry.counter_total("rvmtl_pipeline_wall_nanos_total") as f64;
    // The caller blocks in the solver for the segment-solve spans on the
    // sequential path and for the whole worker-pool run on the pipelined
    // one; per-state cost is CPU time (worker busy time when pipelined).
    let (solver_blocking, solver_cpu) = if inputs.workers > 0 {
        (pipeline_wall, busy)
    } else {
        (segment_solve, segment_solve)
    };
    let overhead = process - solver_blocking - gc - checkpoint;
    let explored = report.stats.explored_states as f64;
    let memo = report.stats.memo_hits as f64;
    let one_hits = telemetry.counter_total("rvmtl_one_cache_hits_total") as f64;
    let one_misses = telemetry.counter_total("rvmtl_one_cache_misses_total") as f64;
    let gap_hits = telemetry.counter_total("rvmtl_gap_cache_hits_total") as f64;
    let gap_misses = telemetry.counter_total("rvmtl_gap_cache_misses_total") as f64;
    let restore_ms = crate::queue::median(&inputs.restores.millis);

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("wire.decode_ns_per_frame", ratio(decode, frames), "ns"),
        metric("wire.decode_share", ratio(decode, wall), "share"),
        metric(
            "wire.bytes_per_event",
            ratio(inputs.wire_bytes as f64, inputs.events as f64),
            "bytes",
        ),
        metric(
            "distrib.segment_ns_per_frame",
            inputs.segment_ns_per_frame,
            "ns",
        ),
        metric(
            "distrib.events_per_segment",
            ratio(inputs.events as f64, inputs.segmenter_segments as f64),
            "events",
        ),
        metric(
            "runtime.ingest_ns_per_frame",
            ratio(ingest, ingest_calls),
            "ns",
        ),
        metric("runtime.ingest_share", ratio(ingest, wall), "share"),
        metric(
            "runtime.process_us_per_segment",
            ratio(process, segments) / 1e3,
            "us",
        ),
        metric("runtime.overhead_share", ratio(overhead, wall), "share"),
        metric(
            "runtime.work_items_per_segment",
            ratio(work_items, segments),
            "count",
        ),
        metric(
            "runtime.pipeline_utilization",
            ratio(busy, pipeline_wall * inputs.workers as f64),
            "share",
        ),
        metric(
            "runtime.pipeline_speedup",
            inputs
                .sequential_wall_ns
                .map_or(1.0, |seq| ratio(seq, inputs.untraced_wall_ns)),
            "x",
        ),
        metric("runtime.checkpoint_share", ratio(checkpoint, wall), "share"),
        metric(
            "runtime.checkpoint_ms_per_write",
            ratio(checkpoint, checkpoints) / 1e6,
            "ms",
        ),
        metric(
            "runtime.checkpoint_bytes",
            inputs.restores.newest_bytes as f64,
            "bytes",
        ),
        metric("runtime.restore_ms", restore_ms, "ms"),
        metric("solver.share", ratio(solver_blocking, wall), "share"),
        metric("solver.ns_per_state", ratio(solver_cpu, explored), "ns"),
        metric(
            "solver.states_per_event",
            ratio(explored, inputs.events as f64),
            "count",
        ),
        metric(
            "solver.memo_hit_ratio",
            ratio(memo, memo + explored),
            "ratio",
        ),
        metric(
            "mtl.one_cache_hit_ratio",
            ratio(one_hits, one_hits + one_misses),
            "ratio",
        ),
        metric(
            "mtl.gap_cache_hit_ratio",
            ratio(gap_hits, gap_hits + gap_misses),
            "ratio",
        ),
        metric("mtl.gc_share", ratio(gc, wall), "share"),
        metric("mtl.gc_ms_per_epoch", ratio(gc, gc_epochs) / 1e6, "ms"),
        metric("mtl.arena_nodes", report.memory.nodes as f64, "count"),
        metric("mtl.arena_states", report.memory.states as f64, "count"),
        metric(
            "obs.tracing_overhead_pct",
            (ratio(inputs.traced_wall_ns, inputs.untraced_wall_ns) - 1.0) * 100.0,
            "%",
        ),
    ];

    let shares = [
        ("wire decode", ratio(decode, wall)),
        (
            "runtime ingest (calls publishing nothing)",
            ratio(ingest, wall),
        ),
        ("solver (blocking)", ratio(solver_blocking, wall)),
        ("mtl GC", ratio(gc, wall)),
        ("runtime checkpoint", ratio(checkpoint, wall)),
        (
            "runtime overhead (rest of processing calls)",
            ratio(overhead, wall),
        ),
    ];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "traced wall {:.1} ms over {} frames; layer shares:",
        wall / 1e6,
        frames
    );
    let share_sum: f64 = shares.iter().map(|(_, share)| share).sum();
    for (name, share) in shares {
        let _ = writeln!(text, "  {name:<45} {:>7.2} %", share * 100.0);
    }
    let _ = writeln!(
        text,
        "  {:<45} {:>7.2} % (tolerance {:.0} %)",
        "sum of layers",
        share_sum * 100.0,
        SHARE_TOLERANCE * 100.0
    );
    let _ = writeln!(text, "per-layer metrics:");
    for m in &metrics {
        let _ = writeln!(text, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Table {
        metrics,
        share_sum,
        text,
    }
}
