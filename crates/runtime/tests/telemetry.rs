//! Telemetry determinism suite (the observability contract of the crate
//! docs): count-shape metrics and the flight recorder's kind sequence are
//! pure functions of the stream — identical across repeated runs, across
//! the sequential and pipelined execution paths, and (for checkpointed
//! state) across serialize/restore — while timing values are asserted only
//! monotone/nonzero, never for specific values.

use rvmtl_runtime::{
    parse_exposition, FlightKind, FlightRecorder, StreamConfig, StreamMonitor, StreamReport,
    TelemetrySnapshot,
};

/// A deterministic 2-process event feed long enough to close many segments
/// and cycle GC a few times.
fn feed() -> Vec<(usize, u64, rvmtl_mtl::State)> {
    use rvmtl_mtl::state;
    (0..60u64)
        .map(|k| {
            let label = if k % 3 == 0 { "a" } else { "b" };
            ((k % 2) as usize, 1 + k, state![label])
        })
        .collect()
}

/// Streams the canonical feed under `config`, returning the report and the
/// full flight kind sequence (the recorder handle shares the ring, so the
/// sequence includes the tail segments and the stream-finished marker).
fn run(config: StreamConfig) -> (StreamReport, Vec<FlightKind>) {
    let mut monitor = StreamMonitor::new(2, 1, config);
    monitor.add_query(&rvmtl_mtl::parse("G[0,inf) (a -> F[0,4) b)").unwrap());
    monitor.add_query(&rvmtl_mtl::parse("F[0,50) a").unwrap());
    for (p, t, s) in feed() {
        monitor.observe(p, t, s).unwrap();
    }
    let flight = monitor.flight_recorder().clone();
    let report = monitor.finish();
    (report, flight.kinds())
}

/// The path-invariant counter subset: every bridged count metric that is a
/// pure function of the *stream* (not of which arena did the solving).
fn invariant_counters(snap: &TelemetrySnapshot) -> Vec<(String, u64)> {
    const INVARIANT: &[&str] = &[
        "rvmtl_events_observed_total",
        "rvmtl_heartbeats_total",
        "rvmtl_segments_processed_total",
        "rvmtl_gc_epochs_total",
        "rvmtl_events_rejected_total",
        "rvmtl_events_deduped_total",
        "rvmtl_events_dropped_total",
        "rvmtl_events_late_total",
        "rvmtl_worker_panics_total",
        "rvmtl_checkpoints_written_total",
        "rvmtl_checkpoint_failures_total",
        "rvmtl_flight_events_recorded_total",
    ];
    snap.counters
        .iter()
        .filter(|c| INVARIANT.contains(&c.name.as_str()))
        .map(|c| (format!("{}{{{}}}", c.name, c.labels), c.value))
        .collect()
}

#[test]
fn count_metrics_and_flight_sequence_match_across_paths() {
    // Same flush depth on both paths: batching shape is configuration, and
    // with it held fixed the kind sequence must not depend on which
    // execution path solved the batches.
    let sequential = run(StreamConfig::new(5)
        .gc_interval(3)
        .flush_depth(4)
        .with_telemetry());
    let pipelined = run(StreamConfig::new(5)
        .gc_interval(3)
        .pipelined(Some(3))
        .flush_depth(4)
        .with_telemetry());
    // Flight events are recorded only from the monitor's thread at
    // deterministic points, so the kind sequence is identical even though
    // the pipelined path fans the work items out to workers.
    assert_eq!(sequential.1, pipelined.1);
    assert!(!sequential.1.is_empty());
    assert_eq!(
        invariant_counters(&sequential.0.telemetry),
        invariant_counters(&pipelined.0.telemetry)
    );
    // Per-query pending-obligation gauges are stream state, path-invariant.
    let pending = |snap: &TelemetrySnapshot| -> Vec<(String, i64)> {
        snap.gauges
            .iter()
            .filter(|g| g.name == "rvmtl_pending_obligations")
            .map(|g| (g.labels.clone(), g.value))
            .collect()
    };
    assert_eq!(
        pending(&sequential.0.telemetry),
        pending(&pipelined.0.telemetry)
    );
    assert_eq!(sequential.0.verdicts, pipelined.0.verdicts);
}

#[test]
fn cache_and_solver_counters_repeat_exactly_on_the_same_path() {
    // Within one execution path *every* count-shape metric is deterministic,
    // including the progression-cache hit/miss tallies and solver counters
    // the cross-path test must exclude — on the pipelined path too, whose
    // workers own private arenas.
    let strip_timing = |snap: &TelemetrySnapshot| -> Vec<(String, u64)> {
        snap.counters
            .iter()
            .filter(|c| !c.name.contains("_nanos"))
            .map(|c| (format!("{}{{{}}}", c.name, c.labels), c.value))
            .collect()
    };
    let gauges = |snap: &TelemetrySnapshot| snap.gauges.clone();
    for config in [
        StreamConfig::new(5).gc_interval(3).with_telemetry(),
        StreamConfig::new(5)
            .gc_interval(3)
            .pipelined(Some(3))
            .flush_depth(4)
            .with_telemetry(),
    ] {
        let a = run(config.clone());
        let b = run(config);
        assert_eq!(strip_timing(&a.0.telemetry), strip_timing(&b.0.telemetry));
        assert_eq!(a.0.stats, b.0.stats);
        assert!(a
            .0
            .telemetry
            .counter("rvmtl_one_cache_hits_total")
            .is_some());
        assert_eq!(gauges(&a.0.telemetry), gauges(&b.0.telemetry));
    }
}

#[test]
fn worker_cache_tallies_stay_monotone_across_gc() {
    // GC empties the worker arenas every batch here; their cumulative
    // hit/miss tallies must survive it, as the query arena's do.
    const COUNTERS: [&str; 4] = [
        "rvmtl_one_cache_hits_total",
        "rvmtl_one_cache_misses_total",
        "rvmtl_gap_cache_hits_total",
        "rvmtl_gap_cache_misses_total",
    ];
    let worker_tallies = |monitor: &StreamMonitor| -> Vec<u64> {
        let snap = monitor.telemetry();
        COUNTERS
            .iter()
            .map(|name| {
                snap.counters
                    .iter()
                    .find(|c| c.name == *name && c.labels == "arena=\"worker\"")
                    .unwrap_or_else(|| panic!("{name}{{arena=\"worker\"}} must be bridged"))
                    .value
            })
            .collect()
    };
    let config = StreamConfig::new(5)
        .gc_interval(1)
        .pipelined(Some(2))
        .flush_depth(2);
    let mut monitor = StreamMonitor::new(2, 1, config);
    monitor.add_query(&rvmtl_mtl::parse("G[0,inf) (a -> F[0,4) b)").unwrap());
    monitor.add_query(&rvmtl_mtl::parse("F[0,50) a").unwrap());
    let mut last = worker_tallies(&monitor);
    let mut batches = 0;
    for (p, t, s) in feed() {
        let processed = monitor.segments_processed();
        monitor.observe(p, t, s).unwrap();
        if monitor.segments_processed() == processed {
            continue;
        }
        batches += 1;
        let now = worker_tallies(&monitor);
        for (name, (before, after)) in COUNTERS.iter().zip(last.iter().zip(&now)) {
            assert!(after >= before, "{name} fell from {before} to {after}");
        }
        last = now;
    }
    assert!(monitor.gc_runs() > 3, "GC must have cycled");
    assert!(batches > 3, "the feed must drain several batches");
    assert!(
        last.iter().all(|&tally| tally > 0),
        "every worker cache must have been probed: {last:?}"
    );
}

#[test]
fn checkpointed_counters_survive_restore() {
    let config = StreamConfig::new(5).gc_interval(3).with_telemetry();
    let events = feed();
    let phi = rvmtl_mtl::parse("G[0,inf) (a -> F[0,4) b)").unwrap();

    let mut reference = StreamMonitor::new(2, 1, config.clone());
    reference.add_query(&phi);
    for (p, t, s) in &events {
        reference.observe(*p, *t, s.clone()).unwrap();
    }
    let uninterrupted = reference.finish();

    // Serialize and restore at a GC boundary (snapshots are epoch-aligned:
    // `since_gc` is deliberately not checkpointed), then continue.
    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    monitor.add_query(&phi);
    let mut restarted = false;
    for (p, t, s) in &events {
        monitor.observe(*p, *t, s.clone()).unwrap();
        if !restarted && monitor.gc_runs() == 2 {
            let bytes = monitor.checkpoint_bytes();
            monitor = StreamMonitor::restore_from_bytes(&bytes, config.clone()).unwrap();
            restarted = true;
        }
    }
    assert!(restarted, "the feed must cross two GC epochs");
    let restored = monitor.finish();

    // Checkpointed counters continue exactly; verdicts stay identical.
    for name in [
        "rvmtl_segments_processed_total",
        "rvmtl_gc_epochs_total",
        "rvmtl_events_rejected_total",
        "rvmtl_worker_panics_total",
    ] {
        assert_eq!(
            uninterrupted.telemetry.counter(name),
            restored.telemetry.counter(name),
            "{name} diverged across restore"
        );
    }
    assert_eq!(uninterrupted.verdicts, restored.verdicts);
}

#[test]
fn timing_instruments_are_monotone_and_nonzero_when_enabled() {
    let sequential = StreamConfig::new(5).gc_interval(3).with_telemetry();
    let pipelined = sequential.clone().pipelined(Some(3)).flush_depth(4);
    for config in [sequential, pipelined] {
        let (report, _) = run(config.clone());
        let snap = &report.telemetry;
        let mut names = vec![
            "rvmtl_batch_solve_nanos",
            "rvmtl_work_item_nanos",
            "rvmtl_event_to_verdict_nanos",
            "rvmtl_gc_pause_nanos",
        ];
        // The pipelined path times batches, not single segments.
        if !config.pipeline {
            names.push("rvmtl_segment_solve_nanos");
        }
        for name in names {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} must be registered"));
            assert!(h.count > 0, "{name} recorded no samples");
            assert!(h.p50 <= h.p90 && h.p90 <= h.p99, "{name} quantile order");
            assert!(h.p99 <= h.max, "{name} p99 above max");
            assert!(h.max > 0, "{name} samples are all zero");
            assert!(h.sum >= h.max, "{name} sum below max");
        }
        if config.pipeline {
            // Every share's solves, the caller's included, fall inside the
            // wall window from first dispatch to last result.
            let busy = snap.counter("rvmtl_pipeline_busy_nanos_total").unwrap();
            let wall = snap.counter("rvmtl_pipeline_wall_nanos_total").unwrap();
            assert!(busy > 0, "pipeline busy time is zero");
            assert!(busy <= wall * 3, "busy {busy} ns above 3 × wall {wall} ns");
        }
        // One verdict-latency family member per registered query.
        let latency: Vec<_> = snap
            .histograms
            .iter()
            .filter(|h| h.name == "rvmtl_verdict_latency_nanos")
            .collect();
        assert_eq!(latency.len(), 2);
        assert!(latency.iter().all(|h| h.count > 0));
    }
}

#[test]
fn disabled_telemetry_still_bridges_count_metrics() {
    let enabled = run(StreamConfig::new(5).gc_interval(3).with_telemetry());
    let disabled = run(StreamConfig::new(5).gc_interval(3));
    // No registry instruments, no flight events …
    assert!(disabled.0.telemetry.histograms.is_empty());
    assert!(disabled.1.is_empty());
    assert_eq!(
        disabled
            .0
            .telemetry
            .counter("rvmtl_flight_events_recorded_total"),
        Some(0)
    );
    // … but the state-derived counters are exact and match the enabled run.
    for name in [
        "rvmtl_events_observed_total",
        "rvmtl_segments_processed_total",
        "rvmtl_gc_epochs_total",
    ] {
        assert_eq!(
            disabled.0.telemetry.counter(name),
            enabled.0.telemetry.counter(name),
            "{name}"
        );
        assert!(disabled.0.telemetry.counter(name).unwrap() > 0, "{name}");
    }
}

#[test]
fn exposition_round_trips_and_groups_types() {
    let (report, _) = run(StreamConfig::new(5).gc_interval(3).with_telemetry());
    let text = report.telemetry.to_prometheus();
    let samples = parse_exposition(&text).expect("exposition must parse");
    assert!(samples.len() > 30, "{}", samples.len());
    // Sorted snapshots mean each family gets exactly one # TYPE line.
    let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
    let mut deduped = type_lines.clone();
    deduped.dedup();
    assert_eq!(type_lines, deduped, "a family was split across TYPE lines");
}

#[test]
fn flight_ring_never_reallocates_and_wraps_coherently() {
    // Fuzz-style sweep over awkward capacities and overwrite volumes: the
    // backing buffer must keep its original allocation and the retained
    // window must always be the contiguous newest-`capacity` suffix.
    for capacity in [1usize, 2, 3, 5, 8, 13, 64, 1000] {
        let recorder = FlightRecorder::with_capacity(capacity);
        let allocated = recorder.allocated_capacity();
        assert!(allocated >= capacity);
        let total = capacity * 7 + 3;
        for i in 0..total {
            recorder.record(FlightKind::SolveStart { base: i as u64 });
            assert_eq!(
                recorder.allocated_capacity(),
                allocated,
                "ring reallocated at capacity {capacity}, event {i}"
            );
        }
        let events = recorder.events();
        assert_eq!(events.len(), capacity);
        assert_eq!(recorder.recorded(), total as u64);
        // Sequence numbers are the contiguous suffix [total - capacity, total).
        assert_eq!(events[0].seq, (total - capacity) as u64);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        // Payloads rode along with their sequence numbers.
        assert!(events
            .iter()
            .all(|e| e.kind == FlightKind::SolveStart { base: e.seq }));
    }
}
