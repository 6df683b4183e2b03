//! Differential suite: wire-replayed ingestion must be indistinguishable
//! from direct in-memory ingestion. For every fault policy (clean `Strict`,
//! duplicate-heavy `Dedup`, lossy `BestEffort`) and both execution paths
//! (sequential and pipelined), the same delivered schedule is fed once
//! through direct [`StreamMonitor::observe`] calls and once through a
//! captured byte stream drained by [`WireSource`] — and the two reports
//! must agree on verdicts, pending obligations, integrity tags, segment
//! count, solver statistics and health counters. This is the property that
//! makes the wire layer a transport, not a semantics change.

use rvmtl_distrib::{FaultConfig, FaultInjector, FaultPolicy, StreamEvent};
use rvmtl_runtime::{StreamConfig, StreamMonitor, StreamReport};
use rvmtl_ta::{generate, specs, Model, TraceConfig};
use rvmtl_wire::{capture_events, Hello, WireSource};

const EPSILON_MS: u64 = 2;
const PROCESSES: usize = 2;
const SEGMENTS: u64 = 15;

struct Case {
    name: &'static str,
    policy: FaultPolicy,
    faults: FaultConfig,
    seed: u64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "clean_strict",
            policy: FaultPolicy::Strict,
            faults: FaultConfig::none(),
            seed: 0xD1F1,
        },
        Case {
            name: "dup_dedup",
            policy: FaultPolicy::Dedup,
            faults: FaultConfig::duplicates(0.3),
            seed: 0xD1F2,
        },
        Case {
            name: "lossy_best_effort",
            policy: FaultPolicy::BestEffort,
            faults: FaultConfig {
                drop_rate: 0.1,
                duplicate_rate: 0.1,
                delay_rate: 0.2,
                max_delay_slots: 3,
            },
            seed: 0xD1F3,
        },
    ]
}

/// The fixed workload: the Fischer/ϕ₄ synthetic trace, one query.
fn workload() -> (Vec<StreamEvent>, rvmtl_mtl::Formula, u64) {
    let cfg = TraceConfig {
        processes: PROCESSES,
        duration_ms: 120,
        event_rate: 50.0,
        epsilon_ms: EPSILON_MS,
        seed: 2022,
    };
    let comp = generate(Model::Fischer, &cfg);
    let phi = specs::by_index(4, PROCESSES, 60);
    let segment_length = (comp.duration().max(1) / SEGMENTS).max(1);
    (StreamEvent::schedule_of(&comp), phi, segment_length)
}

fn monitor(case: &Case, segment_length: u64, pipelined: bool) -> StreamMonitor {
    let mut config = StreamConfig::new(segment_length).fault_policy(case.policy);
    if pipelined {
        config = config.pipelined(Some(2));
    }
    let (_, phi, _) = workload();
    let mut m = StreamMonitor::new(PROCESSES, EPSILON_MS, config);
    m.add_query(&phi);
    m
}

/// Direct path: in-memory observe calls, rejections counted by the monitor
/// itself (the established feed idiom for faulted schedules).
fn run_direct(
    case: &Case,
    events: &[StreamEvent],
    segment_length: u64,
    pipelined: bool,
) -> StreamReport {
    let mut m = monitor(case, segment_length, pipelined);
    for e in events {
        let _ = m.observe(e.process, e.time, e.state.clone());
    }
    m.finish()
}

/// Wire path: the same schedule captured to bytes, then drained through
/// `WireSource` into an identically configured monitor.
fn run_wire(
    case: &Case,
    events: &[StreamEvent],
    segment_length: u64,
    pipelined: bool,
) -> (StreamReport, rvmtl_wire::WireStats) {
    let hello = Hello {
        epsilon: EPSILON_MS,
        processes: PROCESSES,
        fault_policy: case.policy,
    };
    let bytes = capture_events(Vec::new(), &hello, events).expect("capture");
    let mut m = monitor(case, segment_length, pipelined);
    let mut source = WireSource::new(&bytes[..]).expect("header");
    source.run(&mut m).expect("replay");
    (m.finish(), *source.stats())
}

fn assert_reports_identical(name: &str, path: &str, direct: &StreamReport, wire: &StreamReport) {
    assert_eq!(direct.verdicts, wire.verdicts, "{name}/{path}: verdicts");
    assert_eq!(direct.pending, wire.pending, "{name}/{path}: pending");
    assert_eq!(direct.integrity, wire.integrity, "{name}/{path}: integrity");
    assert_eq!(direct.segments, wire.segments, "{name}/{path}: segments");
    assert_eq!(direct.health, wire.health, "{name}/{path}: health");
    assert_eq!(direct.gc_runs, wire.gc_runs, "{name}/{path}: GC epochs");
    // Both execution paths are deterministic: the wire replay must
    // reproduce every solver counter exactly.
    assert_eq!(direct.stats, wire.stats, "{name}/{path}: solver stats");
}

#[test]
fn wire_replay_is_identical_to_direct_ingestion() {
    let (clean, _, segment_length) = workload();
    for case in cases() {
        let faulted = FaultInjector::new(case.seed, case.faults).inject(&clean);
        let events: Vec<StreamEvent> = faulted.events().cloned().collect();
        for pipelined in [false, true] {
            let path = if pipelined { "pipelined" } else { "sequential" };
            let direct = run_direct(&case, &events, segment_length, pipelined);
            let (wire, stats) = run_wire(&case, &events, segment_length, pipelined);
            assert_reports_identical(case.name, path, &direct, &wire);
            assert_eq!(
                stats.event_frames as usize,
                events.len(),
                "{}/{path}: every event framed",
                case.name
            );
            assert_eq!(stats.decode_errors, 0, "{}/{path}", case.name);
            assert_eq!(stats.hello_frames, 1, "{}/{path}", case.name);
            assert_eq!(stats.end_frames, 1, "{}/{path}", case.name);
        }
    }
}

/// The wire path must also round-trip the *rejection* behaviour: under
/// `Strict` a duplicated schedule rejects at the monitor in both paths, and
/// the wire source's `rejected` counter matches the monitor's own health
/// accounting.
#[test]
fn rejection_counts_survive_the_wire() {
    let (clean, _, segment_length) = workload();
    let case = Case {
        name: "dup_strict",
        policy: FaultPolicy::Strict,
        faults: FaultConfig::duplicates(0.5),
        seed: 0xD1F4,
    };
    let faulted = FaultInjector::new(case.seed, case.faults).inject(&clean);
    let events: Vec<StreamEvent> = faulted.events().cloned().collect();
    let direct = run_direct(&case, &events, segment_length, false);
    let (wire, stats) = run_wire(&case, &events, segment_length, false);
    assert_reports_identical(case.name, "sequential", &direct, &wire);
    assert!(stats.rejected > 0, "a 0.5 duplicate rate must reject");
    assert_eq!(stats.rejected, wire.health.rejected);
}
