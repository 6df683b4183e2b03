//! Epoch checkpoint/restore: the restart-differential and corruption suite.
//!
//! Pins the recovery semantics of the crate docs' "Checkpoint format &
//! recovery semantics" section:
//!
//! * a run restarted from a checkpoint at *every* processing and GC
//!   boundary is verdict-identical (and pending/integrity/health-identical)
//!   to the uninterrupted run, across the sequential, pipelined and
//!   gc-every-segment paths × Strict/Dedup/BestEffort — including restores
//!   that start the pipelined path without worker arenas;
//! * a snapshot truncated or bit-flipped at any byte never panics the
//!   restore — it always fails with a [`CheckpointError`];
//! * on disk, a corrupt newest epoch falls back to the retained previous
//!   one, and config/snapshot disagreements are refused.

use rvmtl_mtl::{parse, state, Formula};
use rvmtl_runtime::{
    CheckpointError, FaultConfig, FaultInjector, FaultPolicy, Integrity, StreamConfig, StreamEvent,
    StreamMonitor, StreamReport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// A two-process stream with interleaved request/acknowledge activity —
/// enough segments to exercise the pipeline, GC epochs, and checkpoints.
fn alternating_events(n: u64) -> Vec<StreamEvent> {
    (0..n)
        .map(|k| StreamEvent {
            process: (k % 2) as usize,
            time: 1 + k,
            state: state![if k % 3 == 0 { "a" } else { "b" }],
        })
        .collect()
}

fn queries() -> Vec<Formula> {
    vec![
        parse("G[0,inf) (a -> F[0,4) b)").unwrap(),
        parse("F[0,20) b").unwrap(),
    ]
}

/// The three execution paths every differential must hold on.
fn configs() -> Vec<(&'static str, StreamConfig)> {
    vec![
        ("sequential", StreamConfig::new(4)),
        (
            "pipelined",
            StreamConfig::new(4).pipelined(Some(3)).flush_depth(4),
        ),
        ("gc-every-segment", StreamConfig::new(4).gc_interval(1)),
    ]
}

/// The delivered schedule per policy: clean for Strict, duplicated for
/// Dedup, dropped-and-delayed for BestEffort — so each policy's absorption
/// machinery is live while restarts happen.
fn schedules() -> Vec<(FaultPolicy, Vec<StreamEvent>)> {
    let clean = alternating_events(30);
    let duplicated = FaultInjector::new(0xC4EC4, FaultConfig::duplicates(0.35))
        .inject(&clean)
        .events()
        .cloned()
        .collect();
    let shed_config = FaultConfig {
        drop_rate: 0.2,
        duplicate_rate: 0.0,
        delay_rate: 0.25,
        max_delay_slots: 4,
    };
    let shedding = FaultInjector::new(0xC4EC5, shed_config)
        .inject(&clean)
        .events()
        .cloned()
        .collect();
    vec![
        (FaultPolicy::Strict, clean),
        (FaultPolicy::Dedup, duplicated),
        (FaultPolicy::BestEffort, shedding),
    ]
}

/// Runs `events` straight through a fresh monitor (the uninterrupted
/// reference). Every observation must be accepted under the policy.
fn run_uninterrupted(events: &[StreamEvent], config: StreamConfig) -> StreamReport {
    let mut monitor = StreamMonitor::new(2, 1, config);
    for phi in &queries() {
        monitor.add_query(phi);
    }
    for e in events {
        monitor
            .observe(e.process, e.time, e.state.clone())
            .unwrap_or_else(|err| panic!("policy must accept ({}, {}): {err}", e.process, e.time));
    }
    monitor.finish()
}

/// Runs `events` through a monitor that is serialized and restored from its
/// own checkpoint bytes at every processing / GC boundary (and once more at
/// the very start and right before `finish`). Each restore rebuilds a fresh
/// query-spanning arena via the remap table and starts without worker
/// arenas.
fn run_with_restarts(events: &[StreamEvent], config: StreamConfig) -> (StreamReport, usize) {
    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    for phi in &queries() {
        monitor.add_query(phi);
    }
    let restore = |m: &mut StreamMonitor| {
        let bytes = m.checkpoint_bytes();
        StreamMonitor::restore_from_bytes(&bytes, config.clone())
            .expect("a freshly written checkpoint must restore")
    };
    let mut restarts = 0usize;
    monitor = restore(&mut monitor);
    restarts += 1;
    let mut last_boundary = (0usize, 0usize);
    for e in events {
        monitor
            .observe(e.process, e.time, e.state.clone())
            .unwrap_or_else(|err| panic!("policy must accept ({}, {}): {err}", e.process, e.time));
        let boundary = (monitor.segments_processed(), monitor.gc_runs());
        if boundary != last_boundary {
            monitor = restore(&mut monitor);
            restarts += 1;
            last_boundary = (monitor.segments_processed(), monitor.gc_runs());
        }
    }
    monitor = restore(&mut monitor);
    restarts += 1;
    (monitor.finish(), restarts)
}

#[test]
fn restart_at_every_boundary_is_verdict_identical() {
    for (policy, delivered) in schedules() {
        for (name, base_config) in configs() {
            let config = base_config.fault_policy(policy);
            let reference = run_uninterrupted(&delivered, config.clone());
            let (report, restarts) = run_with_restarts(&delivered, config);
            assert!(
                restarts > 2,
                "[{name}/{policy:?}] the fixture must restart mid-stream"
            );
            assert_eq!(
                report.verdicts, reference.verdicts,
                "[{name}/{policy:?}] restarted verdicts must match the uninterrupted run"
            );
            assert_eq!(
                report.pending, reference.pending,
                "[{name}/{policy:?}] restarted pending sets must match"
            );
            assert_eq!(
                report.integrity, reference.integrity,
                "[{name}/{policy:?}] degradation provenance must survive restarts"
            );
            assert_eq!(
                report.health, reference.health,
                "[{name}/{policy:?}] health counters must survive restarts"
            );
            assert_eq!(report.segments, reference.segments, "[{name}/{policy:?}]");
        }
    }
}

#[test]
fn degraded_integrity_survives_a_restart() {
    // A BestEffort stream that sheds events: after a mid-stream restore the
    // monitor must still report Degraded with the same counters — provenance
    // must not silently reset to Exact.
    let (_, delivered) = schedules()
        .into_iter()
        .find(|(p, _)| *p == FaultPolicy::BestEffort)
        .unwrap();
    let config = StreamConfig::new(4).fault_policy(FaultPolicy::BestEffort);
    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    for phi in &queries() {
        monitor.add_query(phi);
    }
    let (head, tail) = delivered.split_at(delivered.len() / 2);
    for e in head {
        monitor.observe(e.process, e.time, e.state.clone()).unwrap();
    }
    let health_before = monitor.health();
    let bytes = monitor.checkpoint_bytes();
    let mut restored = StreamMonitor::restore_from_bytes(&bytes, config.clone()).unwrap();
    assert_eq!(
        restored.health(),
        health_before,
        "health counters must round-trip"
    );
    for e in tail {
        restored
            .observe(e.process, e.time, e.state.clone())
            .unwrap();
    }
    let report = restored.finish();
    let reference = run_uninterrupted(&delivered, config);
    assert_eq!(report.integrity, reference.integrity);
    assert!(
        report
            .integrity
            .iter()
            .any(|tag| !tag.is_exact() && matches!(tag, Integrity::Degraded { .. })),
        "the fixture must actually degrade: {:?}",
        report.integrity
    );
    assert_eq!(report.verdicts, reference.verdicts);
}

#[test]
fn restore_after_heartbeats_passed_the_last_event() {
    // Heartbeats carry the watermark, and with it the open segment's base,
    // past the newest event. A snapshot taken there must restore, and the
    // restored monitor must continue the stream exactly.
    // (process, time, event label or `None` for a heartbeat)
    let head = [
        (0, 1, Some("a")),
        (1, 2, Some("b")),
        (0, 50, None),
        (1, 50, None),
    ];
    let tail = [
        (0, 51, Some("a")),
        (1, 53, Some("b")),
        (0, 56, Some("a")),
        (1, 70, None),
        (0, 71, Some("b")),
    ];
    let feed = |monitor: &mut StreamMonitor, steps: &[(usize, u64, Option<&str>)]| {
        for &(process, time, label) in steps {
            match label {
                Some(label) => monitor.observe(process, time, state![label]),
                None => monitor.heartbeat(process, time),
            }
            .unwrap_or_else(|err| panic!("({process}, {time}) must be accepted: {err}"));
        }
    };
    for (name, config) in configs() {
        let fresh = || {
            let mut monitor = StreamMonitor::new(2, 1, config.clone());
            for phi in &queries() {
                monitor.add_query(phi);
            }
            monitor
        };
        let mut reference = fresh();
        feed(&mut reference, &head);
        feed(&mut reference, &tail);
        let reference = reference.finish();

        let mut monitor = fresh();
        feed(&mut monitor, &head);
        assert!(monitor.segments_processed() > 0, "[{name}]");
        let bytes = monitor.checkpoint_bytes();
        let mut restored = StreamMonitor::restore_from_bytes(&bytes, config.clone())
            .unwrap_or_else(|err| panic!("[{name}] the snapshot must restore: {err}"));
        feed(&mut restored, &tail);
        let report = restored.finish();
        assert_eq!(report.verdicts, reference.verdicts, "[{name}]");
        assert_eq!(report.pending, reference.pending, "[{name}]");
        assert_eq!(report.integrity, reference.integrity, "[{name}]");
        assert_eq!(report.segments, reference.segments, "[{name}]");
    }
}

/// A small but non-trivial snapshot: mid-stream, shift-normal pendings,
/// non-empty segmenter buffers.
fn small_snapshot(config: &StreamConfig) -> Vec<u8> {
    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    for phi in &queries() {
        monitor.add_query(phi);
    }
    for e in alternating_events(13) {
        monitor.observe(e.process, e.time, e.state).unwrap();
    }
    monitor.checkpoint_bytes()
}

#[test]
fn truncated_and_bit_flipped_snapshots_never_panic() {
    let config = StreamConfig::new(4);
    let pristine = small_snapshot(&config);
    assert!(
        StreamMonitor::restore_from_bytes(&pristine, config.clone()).is_ok(),
        "the pristine snapshot must restore"
    );
    // Crash mid-write: every truncation prefix must fail cleanly.
    for cut in 0..pristine.len() {
        let prefix = &pristine[..cut];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            StreamMonitor::restore_from_bytes(prefix, config.clone()).err()
        }));
        match outcome {
            Ok(Some(_)) => {}
            Ok(None) => panic!("truncation at {cut} restored"),
            Err(_) => panic!("truncation at {cut} panicked"),
        }
    }
    // Bit rot: every single-bit flip must fail cleanly (the envelope CRC
    // covers the payload; the header fields are each validated).
    for i in 0..pristine.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut corrupt = pristine.clone();
            corrupt[i] ^= bit;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                StreamMonitor::restore_from_bytes(&corrupt, config.clone()).err()
            }));
            match outcome {
                Ok(Some(_)) => {}
                Ok(None) => panic!("bit flip {bit:#04x} at {i} restored"),
                Err(_) => panic!("bit flip {bit:#04x} at {i} panicked"),
            }
        }
    }
}

#[test]
fn config_disagreements_are_refused() {
    let config = StreamConfig::new(4);
    let bytes = small_snapshot(&config);
    let err = StreamMonitor::restore_from_bytes(&bytes, StreamConfig::new(5))
        .err()
        .expect("wrong segment length must be refused");
    assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "{err}");
    let err = StreamMonitor::restore_from_bytes(
        &bytes,
        StreamConfig::new(4).fault_policy(FaultPolicy::BestEffort),
    )
    .err()
    .expect("wrong fault policy must be refused");
    assert!(matches!(err, CheckpointError::ConfigMismatch(_)), "{err}");
}

/// Self-cleaning scratch directory (no tempfile crate offline).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("rvmtl-checkpoint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ckpt_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    names.sort();
    names
}

#[test]
fn disk_roundtrip_continues_the_stream() {
    let tmp = TempDir::new("roundtrip");
    let config = StreamConfig::new(4);
    let events = alternating_events(30);
    let (head, tail) = events.split_at(events.len() / 2);

    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    for phi in &queries() {
        monitor.add_query(phi);
    }
    for e in head {
        monitor.observe(e.process, e.time, e.state.clone()).unwrap();
    }
    let path = monitor.write_checkpoint(tmp.path()).unwrap();
    assert!(path.exists(), "{path:?}");
    drop(monitor); // the "kill" — everything lives in the file now

    let mut restored = StreamMonitor::restore_latest(tmp.path(), config.clone()).unwrap();
    for e in tail {
        restored
            .observe(e.process, e.time, e.state.clone())
            .unwrap();
    }
    let report = restored.finish();
    let reference = run_uninterrupted(&events, config);
    assert_eq!(report.verdicts, reference.verdicts);
    assert_eq!(report.pending, reference.pending);
    assert_eq!(report.health, reference.health);
}

#[test]
fn corrupt_newest_epoch_falls_back_to_the_previous() {
    let tmp = TempDir::new("fallback");
    let config = StreamConfig::new(4);
    let events = alternating_events(30);

    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    for phi in &queries() {
        monitor.add_query(phi);
    }
    let mut iter = events.iter();
    for e in iter.by_ref().take(10) {
        monitor.observe(e.process, e.time, e.state.clone()).unwrap();
    }
    let early_path = monitor.write_checkpoint(tmp.path()).unwrap();
    let early_segments = monitor.segments_processed();
    for e in iter {
        monitor.observe(e.process, e.time, e.state.clone()).unwrap();
    }
    let late_path = monitor.write_checkpoint(tmp.path()).unwrap();
    assert_ne!(early_path, late_path);
    assert!(monitor.segments_processed() > early_segments);
    assert_eq!(ckpt_files(tmp.path()).len(), 2, "both epochs retained");

    // Crash mid-write of the newest epoch: truncate it.
    let bytes = std::fs::read(&late_path).unwrap();
    std::fs::write(&late_path, &bytes[..bytes.len() / 2]).unwrap();
    let restored = StreamMonitor::restore_latest(tmp.path(), config.clone()).unwrap();
    assert_eq!(
        restored.segments_processed(),
        early_segments,
        "the fallback must be the earlier epoch"
    );

    // With the fallback gone too, the damage surfaces.
    std::fs::remove_file(early_path).unwrap();
    let err = StreamMonitor::restore_latest(tmp.path(), config.clone())
        .err()
        .expect("only a damaged epoch remains");
    assert!(
        !matches!(err, CheckpointError::NoCheckpoint),
        "the damaged file's own error must surface: {err}"
    );

    // An empty directory reports NoCheckpoint.
    std::fs::remove_file(&late_path).unwrap();
    let err = StreamMonitor::restore_latest(tmp.path(), config)
        .err()
        .expect("nothing to restore");
    assert!(matches!(err, CheckpointError::NoCheckpoint), "{err}");
}

#[test]
fn automatic_checkpoints_write_prune_and_recover() {
    let tmp = TempDir::new("auto");
    let config = StreamConfig::new(4)
        .gc_interval(1)
        .checkpoint(tmp.path(), 1);
    let events = alternating_events(30);
    let split = 20;

    let mut monitor = StreamMonitor::new(2, 1, config.clone());
    for phi in &queries() {
        monitor.add_query(phi);
    }
    for e in &events[..split] {
        monitor.observe(e.process, e.time, e.state.clone()).unwrap();
    }
    assert!(monitor.gc_runs() > 2, "the fixture must cycle GC epochs");
    assert_eq!(monitor.health().checkpoint_failures, 0);
    assert!(monitor.last_checkpoint_error().is_none());
    let files = ckpt_files(tmp.path());
    assert!(
        !files.is_empty() && files.len() <= 2,
        "epochs written and pruned to the retention bound: {files:?}"
    );
    drop(monitor); // kill

    // Recover and replay. The newest epoch was written mid-ingestion at a GC
    // boundary, so the snapshot misses a bounded suffix of the stream (at
    // most one open segment + ε per process). A crashed ingester replays
    // from its last acknowledged position; here the harness simply re-feeds
    // the whole schedule — every event the snapshot already covers is
    // rejected (`Duplicate`/`OutOfOrder`/`BeyondClosedBoundary`) with the
    // monitor state unchanged, and only the genuinely unseen suffix lands.
    let mut restored = StreamMonitor::restore_latest(tmp.path(), config.clone()).unwrap();
    assert!(restored.watermark().is_some());
    let mut replayed = 0usize;
    for e in &events {
        if restored.observe(e.process, e.time, e.state.clone()).is_ok() {
            replayed += 1;
        }
    }
    assert!(replayed > 0, "some suffix must need replay");
    assert!(
        replayed < events.len(),
        "the snapshot must already cover a prefix"
    );
    let report = restored.finish();
    let reference = run_uninterrupted(&events, StreamConfig::new(4).gc_interval(1));
    assert_eq!(report.verdicts, reference.verdicts);
    assert_eq!(report.pending, reference.pending);
}

#[test]
fn checkpoint_failures_are_counted_not_fatal() {
    // A checkpoint directory that cannot be created: the monitor keeps
    // monitoring and counts the failures.
    let tmp = TempDir::new("failures");
    let blocker = tmp.path().join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let config = StreamConfig::new(4)
        .gc_interval(1)
        .checkpoint(blocker.join("nested"), 1);
    let mut monitor = StreamMonitor::new(2, 1, config);
    for phi in &queries() {
        monitor.add_query(phi);
    }
    for e in alternating_events(30) {
        monitor.observe(e.process, e.time, e.state).unwrap();
    }
    assert!(monitor.gc_runs() > 2);
    let health = monitor.health();
    assert!(
        health.checkpoint_failures > 0,
        "failed writes must be counted: {health}"
    );
    assert!(matches!(
        monitor.last_checkpoint_error(),
        Some(CheckpointError::Io(_))
    ));
    let report = monitor.finish();
    let reference = run_uninterrupted(&alternating_events(30), StreamConfig::new(4).gc_interval(1));
    assert_eq!(
        report.verdicts, reference.verdicts,
        "checkpoint failures must not perturb verdicts"
    );
}
