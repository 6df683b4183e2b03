//! Shared harness for regenerating every figure of the paper's evaluation
//! (Fig. 5a–5f and Fig. 6, plus the Δ-vs-ε observation of Sec. VI-B-3).
//!
//! Absolute runtimes are not comparable to the paper's (their testbed is a
//! 2×Xeon-8180 machine driving Z3; ours is a laptop-scale pure-Rust engine),
//! so every experiment reports the *series shape*: which configuration is
//! slower, by roughly what factor, and where the curves bend. Time-valued
//! parameters are expressed in a coarser unit (1 unit ≈ 10 ms of the paper's
//! wall clock) to keep the per-segment search spaces laptop-sized; the ratios
//! between ε, the event spacing and the formula deadlines match the paper's.

use rvmtl_chain::{
    Auction, AuctionScenario, ThreePartyScenario, ThreePartySwap, TwoPartyScenario, TwoPartySwap,
};
use rvmtl_distrib::{
    ComputationBuilder, DistributedComputation, FaultConfig, FaultInjector, FaultPolicy,
    FaultedStream, StreamEvent,
};
use rvmtl_monitor::{Monitor, MonitorConfig, VerdictSet};
use rvmtl_mtl::{state, Formula};
use rvmtl_runtime::{StreamConfig, StreamMonitor, StreamReport};
use rvmtl_ta::{generate, specs, Model, TraceConfig};
use std::time::{Duration, Instant};

pub mod pins;

/// One measured point of an experiment series.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Name of the series the point belongs to (e.g. `phi4, |P|=2`).
    pub series: String,
    /// The swept parameter value (ε, segment frequency, event count, …).
    pub x: f64,
    /// Wall-clock monitoring time.
    pub runtime: Duration,
    /// Number of solver search states explored (a machine-independent proxy
    /// for the runtime).
    pub explored_states: usize,
    /// The verdicts obtained.
    pub verdicts: VerdictSet,
}

impl Sample {
    /// Formats the sample as an aligned table row.
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>10.2} {:>12.3} {:>12} {:>10}",
            self.series,
            self.x,
            self.runtime.as_secs_f64() * 1000.0,
            self.explored_states,
            self.verdicts.to_string()
        )
    }
}

/// Prints the standard table header matching [`Sample::row`].
pub fn print_header(x_label: &str) {
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10}",
        "series", x_label, "runtime[ms]", "states", "verdicts"
    );
    println!("{}", "-".repeat(78));
}

/// The synthetic-workload defaults used across the Fig. 5 experiments
/// (the paper's ε = 15 ms, |P| = 2, l = 2 s, 10 events/s, g = 15, expressed in
/// the coarser time unit).
pub fn default_trace_config() -> TraceConfig {
    TraceConfig {
        processes: 2,
        duration_ms: 200,
        event_rate: 50.0,
        epsilon_ms: 2,
        seed: 2022,
    }
}

/// The default deadline (in coarse time units) used for the timed formulas
/// ϕ₄ and ϕ₅.
pub const DEFAULT_BOUND: u64 = 60;

/// The default segment count (the paper's g = 15).
pub const DEFAULT_SEGMENTS: usize = 15;

/// Runs `f` `samples` times and prints the min/median wall time — the
/// `criterion`-shaped measurement loop used by the `harness = false` bench
/// targets (the offline build has no criterion crate). Returns the per-sample
/// durations for callers that post-process them.
pub fn bench_case<R>(label: &str, samples: usize, mut f: impl FnMut() -> R) -> Vec<Duration> {
    // One warm-up iteration so allocator and cache effects do not land on the
    // first sample.
    let _ = f();
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let started = Instant::now();
            let _ = f();
            started.elapsed()
        })
        .collect();
    times.sort();
    println!(
        "  {:<40} min {:>10.3} ms   median {:>10.3} ms   ({} samples)",
        label,
        times[0].as_secs_f64() * 1000.0,
        times[times.len() / 2].as_secs_f64() * 1000.0,
        times.len()
    );
    times
}

/// Runs the monitor over a computation and packages the measurement.
pub fn measure(
    series: impl Into<String>,
    x: f64,
    comp: &DistributedComputation,
    phi: &Formula,
    segments: usize,
) -> Sample {
    let monitor = sweep_monitor(segments);
    let started = Instant::now();
    let report = monitor.run(comp, phi);
    Sample {
        series: series.into(),
        x,
        runtime: started.elapsed(),
        explored_states: report.explored_states(),
        verdicts: report.verdicts,
    }
}

/// Generates the synthetic computation used by a Fig. 5 series: the model is
/// chosen to match the formula (train-gate for ϕ₁/ϕ₂, Fischer for ϕ₃/ϕ₄,
/// gossip for ϕ₅/ϕ₆).
pub fn synthetic_computation(formula_index: usize, config: &TraceConfig) -> DistributedComputation {
    let model = match formula_index {
        1 | 2 => Model::TrainGate,
        3 | 4 => Model::Fischer,
        _ => Model::Gossip,
    };
    generate(model, config)
}

/// The formula ϕ_i instantiated for the given process count and the default
/// deadline.
pub fn formula(index: usize, processes: usize) -> Formula {
    specs::by_index(index, processes, DEFAULT_BOUND)
}

/// Builds the cross-chain computations of Fig. 6. Returns
/// `(label, segments, computation, formula)` tuples of increasing event
/// count, one per protocol, using the conforming scenario plus a handful of
/// deviating ones.
pub fn blockchain_workloads(
    delta: u64,
    epsilon: u64,
) -> Vec<(String, usize, DistributedComputation, Formula)> {
    use rvmtl_chain::specs as chain_specs;
    let mut out = Vec::new();

    let two_party = TwoPartySwap::new(delta);
    for (label, scenario) in [
        ("2-party conforming", TwoPartyScenario::conforming()),
        ("2-party partial", TwoPartyScenario::from_encoding(2, 3, 0)),
        (
            "2-party late",
            TwoPartyScenario::from_encoding(3, 3, 0b001001),
        ),
    ] {
        let exec = two_party.execute(&scenario);
        out.push((
            format!("{label} ({} events)", exec.event_count()),
            1,
            exec.to_computation(epsilon),
            chain_specs::two_party::liveness(delta),
        ));
    }

    let three_party = ThreePartySwap::new(delta);
    for (label, scenario) in [
        ("3-party conforming", ThreePartyScenario::conforming()),
        (
            "3-party partial",
            ThreePartyScenario {
                progress: [3, 2, 1],
                late_bits: 0,
            },
        ),
    ] {
        let exec = three_party.execute(&scenario);
        out.push((
            format!("{label} ({} events)", exec.event_count()),
            2,
            exec.to_computation(epsilon),
            chain_specs::three_party::liveness(delta),
        ));
    }

    let auction = Auction::new(delta);
    for (label, scenario) in [
        ("auction conforming", AuctionScenario::conforming()),
        ("auction cheating", {
            let mut s = AuctionScenario::conforming();
            s.release_both_secrets = true;
            s.actions[3] = rvmtl_chain::ActionChoice::OnTime;
            s
        }),
    ] {
        let exec = auction.execute(&scenario);
        out.push((
            format!("{label} ({} events)", exec.event_count()),
            2,
            exec.to_computation(epsilon),
            chain_specs::auction::liveness(delta),
        ));
    }
    out
}

/// The formula indices of the Fig. 5a series. Shared by
/// `bench_snapshot --sweeps` and the `BENCH_PINS.json` counter collection so
/// the timing sweep and the CI gate cannot drift apart (the same applies to
/// every grid constant below).
pub const FIG5A_INDICES: [usize; 4] = [1, 3, 4, 6];

/// The ε grid of the Fig. 5b sweep (phi4).
pub const EPSILON_SWEEP_GRID: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// The segment count of the Fig. 5b sweep.
pub const EPSILON_SWEEP_SEGMENTS: usize = 7;

/// The ε grid of the saturation sweep (Fig. 3 fixture, `a U[0,6) b`).
pub const SATURATION_GRID: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The ε grid of the dense delayed-window sweep (`a U[6,12) b`).
pub const DENSE_GRID: [u64; 12] = [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 32, 64];

/// The duration grid of the Fig. 5d length sweep.
pub const LENGTH_GRID: [u64; 5] = [100, 200, 300, 400, 500];

/// The trace config of the Fig. 5a series: the defaults with the duration
/// doubled, so the measurement rises well above scheduler noise.
pub fn fig5a_config() -> TraceConfig {
    let mut cfg = default_trace_config();
    cfg.duration_ms *= 2;
    cfg
}

/// One sweep point of the deterministic benchmark suite: sweep name, point
/// name, the swept parameter value, the workload, and the segment count.
pub struct SweepPoint {
    /// Sweep the point belongs to (`fig5a`, `epsilon_sweep`, …).
    pub sweep: &'static str,
    /// Point name within the sweep (`phi4`, `eps3`, `len200`, …).
    pub point: String,
    /// The swept parameter value (formula index, ε, duration).
    pub x: u64,
    /// The computation to monitor.
    pub comp: DistributedComputation,
    /// The formula to monitor.
    pub phi: Formula,
    /// Segment count for the monitor.
    pub segments: usize,
}

/// Every point of the deterministic sweeps (`fig5a`, `epsilon_sweep`,
/// `epsilon_saturation`, `epsilon_dense`, `length_sweep`, `shift_free`) in
/// sweep-then-grid order. This is the **single source of sweep membership**:
/// `bench_snapshot --sweeps` times exactly these points and `pins::pin_rows`
/// pins exactly these points (plus the separately shared
/// [`blockchain_workloads`]), so a sweep added here is automatically both
/// measured and gated — it cannot join one side and silently skip the other.
/// The wall-clock-only pipeline sweep is not a deterministic point and stays
/// in `bench_snapshot`.
pub fn sweep_points() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    let cfg = fig5a_config();
    for index in FIG5A_INDICES {
        out.push(SweepPoint {
            sweep: "fig5a",
            point: format!("phi{index}"),
            x: index as u64,
            comp: synthetic_computation(index, &cfg),
            phi: formula(index, cfg.processes),
            segments: DEFAULT_SEGMENTS,
        });
    }
    for epsilon in EPSILON_SWEEP_GRID {
        let mut cfg = default_trace_config();
        cfg.epsilon_ms = epsilon;
        out.push(SweepPoint {
            sweep: "epsilon_sweep",
            point: format!("eps{epsilon}"),
            x: epsilon,
            comp: synthetic_computation(4, &cfg),
            phi: formula(4, 2),
            segments: EPSILON_SWEEP_SEGMENTS,
        });
    }
    for epsilon in SATURATION_GRID {
        out.push(SweepPoint {
            sweep: "epsilon_saturation",
            point: format!("eps{epsilon}"),
            x: epsilon,
            comp: saturation_computation(epsilon),
            phi: rvmtl_mtl::parse("a U[0,6) b").expect("fixed formula parses"),
            segments: 1,
        });
    }
    for epsilon in DENSE_GRID {
        out.push(SweepPoint {
            sweep: "epsilon_dense",
            point: format!("eps{epsilon}"),
            x: epsilon,
            comp: dense_computation(epsilon),
            phi: rvmtl_mtl::parse("a U[6,12) b").expect("fixed formula parses"),
            segments: 1,
        });
    }
    for length in LENGTH_GRID {
        let mut cfg = default_trace_config();
        cfg.duration_ms = length;
        out.push(SweepPoint {
            sweep: "length_sweep",
            point: format!("len{length}"),
            x: length,
            comp: synthetic_computation(4, &cfg),
            phi: formula(4, 2),
            segments: DEFAULT_SEGMENTS,
        });
    }
    for (name, comp, phi, segments) in shift_free_workloads() {
        out.push(SweepPoint {
            sweep: "shift_free",
            point: name.to_string(),
            x: 0,
            comp,
            phi,
            segments,
        });
    }
    out
}

/// The monitor used by every sweep measurement and counter collection: one
/// construction rule shared by `bench_snapshot` and `pins`, so the two can
/// never run the same workload under different segmentation.
pub fn sweep_monitor(segments: usize) -> Monitor {
    Monitor::new(if segments <= 1 {
        MonitorConfig::unsegmented()
    } else {
        MonitorConfig::with_segments(segments)
    })
}

/// The Fig. 3-style fixture behind the ε-saturation sweep and the solver's
/// regression pins: two processes, four events, configurable skew bound.
/// Shared by `bench_snapshot --sweeps` and the `BENCH_PINS.json` counter
/// collection so the timing sweep and the CI gate cannot drift apart.
pub fn saturation_computation(epsilon: u64) -> DistributedComputation {
    let mut b = ComputationBuilder::new(2, epsilon);
    b.event(0, 1, state!["a"]);
    b.event(0, 4, state![]);
    b.event(1, 2, state!["a"]);
    b.event(1, 5, state!["b"]);
    b.build().expect("fixed computation is valid")
}

/// The dense two-process delayed-window fixture of the `epsilon_dense` sweep
/// (one event every tick, clustered at the `a U[6,12) b` window). Shared by
/// the snapshot harness and the pins collection.
pub fn dense_computation(epsilon: u64) -> DistributedComputation {
    let mut b = ComputationBuilder::new(2, epsilon);
    b.event(0, 6, state!["a"]);
    b.event(0, 8, state!["a"]);
    b.event(0, 10, state!["a"]);
    b.event(1, 7, state!["a"]);
    b.event(1, 9, state!["a"]);
    b.event(1, 11, state!["b"]);
    b.build().expect("fixed computation is valid")
}

/// The shift-free tax workloads: specifications whose windows all start at
/// zero, so the arena's shift watermark never trips and the whole zone
/// machinery must cost nothing. Each returns
/// `(name, computation, formula, segments)`; the ε values are raised above
/// the defaults so the solver explores enough states for a stable per-state
/// cost figure.
pub fn shift_free_workloads() -> Vec<(&'static str, DistributedComputation, Formula, usize)> {
    let mut out = Vec::new();
    let mut cfg = default_trace_config();
    cfg.epsilon_ms = 3;
    out.push((
        "phi4_eps3",
        synthetic_computation(4, &cfg),
        formula(4, cfg.processes),
        DEFAULT_SEGMENTS,
    ));
    out.push((
        "phi1_eps3",
        synthetic_computation(1, &cfg),
        formula(1, cfg.processes),
        DEFAULT_SEGMENTS,
    ));
    out.push((
        "until_eps16",
        saturation_computation(16),
        rvmtl_mtl::parse("a U[0,6) b").expect("fixed formula parses"),
        1,
    ));
    out.push((
        "always_eps16",
        saturation_computation(16),
        rvmtl_mtl::parse("G[0,10) (a | b)").expect("fixed formula parses"),
        1,
    ));
    out
}

/// The Δ used for the blockchain experiments, expressed in the coarse time
/// unit (the paper's Δ = 500 ms).
pub const BLOCKCHAIN_DELTA: u64 = 50;
/// Default clock skew bound for the blockchain experiments.
pub const BLOCKCHAIN_EPSILON: u64 = 3;

/// One scenario of the `fault_storm` sweep: a fault mix, the ingestion
/// policy it is absorbed under, and the injection seed. Membership is shared
/// by `bench_snapshot --sweeps` (wall clock) and [`pins::fault_entries`]
/// (counter gate), like every other sweep.
pub struct FaultStormCase {
    /// Pin-key / row name of the case.
    pub name: &'static str,
    /// The ingestion policy the monitor runs under.
    pub policy: FaultPolicy,
    /// The injected fault mix.
    pub faults: FaultConfig,
    /// Seed of the deterministic injection.
    pub seed: u64,
}

/// The fault-storm scenario grid: the clean baseline under `Strict`, a
/// duplicate-heavy feed under `Dedup`, a lossy reordered feed under
/// `BestEffort`, and the full storm under both `Strict` (reject-and-count)
/// and `BestEffort` (shed-and-count).
pub fn fault_storm_cases() -> Vec<FaultStormCase> {
    vec![
        FaultStormCase {
            name: "clean_strict",
            policy: FaultPolicy::Strict,
            faults: FaultConfig::none(),
            seed: 0xFA01,
        },
        FaultStormCase {
            name: "dup_dedup",
            policy: FaultPolicy::Dedup,
            faults: FaultConfig::duplicates(0.3),
            seed: 0xFA02,
        },
        FaultStormCase {
            name: "lossy_best_effort",
            policy: FaultPolicy::BestEffort,
            faults: FaultConfig {
                drop_rate: 0.15,
                duplicate_rate: 0.0,
                delay_rate: 0.2,
                max_delay_slots: 4,
            },
            seed: 0xFA03,
        },
        FaultStormCase {
            name: "storm_strict",
            policy: FaultPolicy::Strict,
            faults: FaultConfig::storm(),
            seed: 0xFA04,
        },
        FaultStormCase {
            name: "storm_best_effort",
            policy: FaultPolicy::BestEffort,
            faults: FaultConfig::storm(),
            seed: 0xFA04,
        },
    ]
}

/// The workload every fault-storm case streams: the phi4/Fischer synthetic
/// trace at a fault-sweep-sized duration, one query.
pub fn fault_storm_workload() -> (DistributedComputation, Formula) {
    let mut cfg = default_trace_config();
    cfg.duration_ms = 120;
    (synthetic_computation(4, &cfg), formula(4, cfg.processes))
}

/// Runs one fault-storm case on the sequential streaming path: injects the
/// case's faults into the canonical clean schedule and feeds every arrival,
/// counting rejections instead of stopping on them (under `Strict` a faulted
/// arrival *should* error; the deterministic reject-and-continue feed is the
/// scenario being measured). Returns the stream report and the injection
/// record — both pure functions of the case, which is what makes the
/// `fault_storm` pins machine-independent.
pub fn run_fault_storm_case(case: &FaultStormCase) -> (StreamReport, FaultedStream) {
    let (comp, phi) = fault_storm_workload();
    let clean = StreamEvent::schedule_of(&comp);
    let faulted = FaultInjector::new(case.seed, case.faults).inject(&clean);
    let segment_length = (comp.duration().max(1) / DEFAULT_SEGMENTS as u64).max(1);
    let mut monitor = StreamMonitor::new(
        comp.process_count(),
        comp.epsilon(),
        StreamConfig::new(segment_length).fault_policy(case.policy),
    );
    monitor.add_query(&phi);
    for e in faulted.events() {
        // Rejections are part of the scenario (counted in the report's
        // health); acceptance is asserted only for the policies that promise
        // it, by the runtime's own differential suite.
        let _ = monitor.observe(e.process, e.time, e.state.clone());
    }
    (monitor.finish(), faulted)
}

/// One scenario of the `checkpoint` sweep: a delivered schedule (fault mix +
/// policy + seed, same grammar as [`FaultStormCase`]) streamed with GC every
/// segment, serializing and restoring the monitor from its own snapshot
/// every `restart_every` GC epochs. Membership is shared by
/// `bench_snapshot --sweeps` / `--checkpoint-smoke` (wall clock + recovery
/// gate) and [`pins::checkpoint_entries`] (counter gate).
pub struct CheckpointCase {
    /// Pin-key / row name of the case.
    pub name: &'static str,
    /// The ingestion policy the monitor runs under.
    pub policy: FaultPolicy,
    /// The injected fault mix.
    pub faults: FaultConfig,
    /// Seed of the deterministic injection.
    pub seed: u64,
    /// Serialize + restore every this many GC epochs.
    pub restart_every: usize,
}

/// The checkpoint scenario grid: a clean `Strict` stream restarted at every
/// epoch, a duplicate-heavy `Dedup` feed restarted every other epoch, and a
/// lossy `BestEffort` feed restarted at every epoch — so recovery is
/// exercised with exact, absorbed and degraded state in the snapshot.
pub fn checkpoint_cases() -> Vec<CheckpointCase> {
    vec![
        CheckpointCase {
            name: "clean_strict_every_epoch",
            policy: FaultPolicy::Strict,
            faults: FaultConfig::none(),
            seed: 0xCB01,
            restart_every: 1,
        },
        CheckpointCase {
            name: "dup_dedup_every_2",
            policy: FaultPolicy::Dedup,
            faults: FaultConfig::duplicates(0.3),
            seed: 0xCB02,
            restart_every: 2,
        },
        CheckpointCase {
            name: "lossy_best_effort_every_epoch",
            policy: FaultPolicy::BestEffort,
            faults: FaultConfig {
                drop_rate: 0.15,
                duplicate_rate: 0.0,
                delay_rate: 0.2,
                max_delay_slots: 4,
            },
            seed: 0xCB03,
            restart_every: 1,
        },
    ]
}

/// Outcome of one checkpoint case: the restarted run, its uninterrupted
/// reference on the same delivered schedule, and the recovery counters.
pub struct CheckpointRun {
    /// Report of the run that was serialized/restored at every boundary.
    pub report: StreamReport,
    /// Report of the uninterrupted reference run.
    pub reference: StreamReport,
    /// Number of serialize + restore round trips performed.
    pub restarts: u64,
    /// Size in bytes of the last snapshot taken (a deterministic function of
    /// the workload on the sequential path — pinned, so unintended format or
    /// state-footprint growth shows up as counter drift).
    pub snapshot_bytes: u64,
}

impl CheckpointRun {
    /// `true` when the restarted run is observably identical to the
    /// uninterrupted one: same verdicts, pending sets and integrity tags.
    pub fn recovered_identical(&self) -> bool {
        self.report.verdicts == self.reference.verdicts
            && self.report.pending == self.reference.pending
            && self.report.integrity == self.reference.integrity
    }
}

/// Runs one checkpoint case on the sequential streaming path (GC every
/// segment): feeds the case's faulted schedule twice — once uninterrupted,
/// once serializing the monitor to bytes and restoring it into a fresh one
/// every `restart_every` GC epochs. Pure function of the case, like
/// [`run_fault_storm_case`].
pub fn run_checkpoint_case(case: &CheckpointCase) -> CheckpointRun {
    let (comp, phi) = fault_storm_workload();
    let clean = StreamEvent::schedule_of(&comp);
    let faulted = FaultInjector::new(case.seed, case.faults).inject(&clean);
    let delivered: Vec<StreamEvent> = faulted.events().cloned().collect();
    let segment_length = (comp.duration().max(1) / DEFAULT_SEGMENTS as u64).max(1);
    let config = StreamConfig::new(segment_length)
        .gc_interval(1)
        .fault_policy(case.policy);

    let mut reference = StreamMonitor::new(comp.process_count(), comp.epsilon(), config.clone());
    reference.add_query(&phi);
    for e in &delivered {
        let _ = reference.observe(e.process, e.time, e.state.clone());
    }
    let reference = reference.finish();

    let mut monitor = StreamMonitor::new(comp.process_count(), comp.epsilon(), config.clone());
    monitor.add_query(&phi);
    let mut restarts = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut last_restart_gc = 0usize;
    for e in &delivered {
        let _ = monitor.observe(e.process, e.time, e.state.clone());
        if monitor.gc_runs() >= last_restart_gc + case.restart_every {
            let bytes = monitor.checkpoint_bytes();
            snapshot_bytes = bytes.len() as u64;
            monitor = StreamMonitor::restore_from_bytes(&bytes, config.clone())
                .expect("a freshly written snapshot restores");
            restarts += 1;
            last_restart_gc = monitor.gc_runs();
        }
    }
    CheckpointRun {
        report: monitor.finish(),
        reference,
        restarts,
        snapshot_bytes,
    }
}

/// One scenario of the `wire_replay` smoke: the fault-storm workload's
/// delivered schedule fed once through direct in-memory calls and once
/// through a `.rvw` wire capture file (header, then `Hello`, per-event
/// frames, and `End`) drained by [`rvmtl_wire::WireSource`] — across fault
/// policies and both execution paths. Membership is shared by
/// `bench_snapshot --wire-smoke` (the CI gate) and the library test.
pub struct WireReplayCase {
    /// Row name of the case.
    pub name: &'static str,
    /// The ingestion policy both monitors run under (also the `Hello`
    /// handshake's declared policy).
    pub policy: FaultPolicy,
    /// The injected fault mix of the delivered schedule.
    pub faults: FaultConfig,
    /// Seed of the deterministic injection.
    pub seed: u64,
    /// Replay on the pipelined path (2 workers) instead of sequentially.
    pub pipelined: bool,
}

/// The wire-replay scenario grid: each fault policy exercised on both
/// execution paths, so the smoke covers exact, absorbed and degraded
/// evidence over the framed transport.
pub fn wire_replay_cases() -> Vec<WireReplayCase> {
    let policies = [
        (
            "clean_strict",
            FaultPolicy::Strict,
            FaultConfig::none(),
            0xE1A1u64,
        ),
        (
            "dup_dedup",
            FaultPolicy::Dedup,
            FaultConfig::duplicates(0.3),
            0xE1A2,
        ),
        (
            "lossy_best_effort",
            FaultPolicy::BestEffort,
            FaultConfig {
                drop_rate: 0.1,
                duplicate_rate: 0.1,
                delay_rate: 0.2,
                max_delay_slots: 3,
            },
            0xE1A3,
        ),
    ];
    let mut cases = Vec::new();
    for (name, policy, faults, seed) in policies {
        for pipelined in [false, true] {
            cases.push(WireReplayCase {
                name,
                policy,
                faults,
                seed,
                pipelined,
            });
        }
    }
    cases
}

/// The outcome of one wire-replay case: the direct-ingestion report, the
/// wire-replayed report, and the transport-level accounting.
pub struct WireReplayRun {
    /// Report of the monitor fed through direct `observe` calls.
    pub direct: StreamReport,
    /// Report of the monitor fed through the `.rvw` capture.
    pub replayed: StreamReport,
    /// Size of the capture file in bytes.
    pub wire_bytes: u64,
    /// The wire source's frame counters.
    pub stats: rvmtl_wire::WireStats,
    /// Whether the case ran pipelined.
    pub pipelined: bool,
}

impl WireReplayRun {
    /// `true` if the wire-replayed run is indistinguishable from direct
    /// ingestion: verdicts, pending obligations, integrity tags, segment
    /// count, health and exact [`SolverStats`] equality, on either
    /// execution path (both are deterministic).
    ///
    /// [`SolverStats`]: rvmtl_solver::SolverStats
    pub fn replay_identical(&self) -> bool {
        self.replayed.verdicts == self.direct.verdicts
            && self.replayed.pending == self.direct.pending
            && self.replayed.integrity == self.direct.integrity
            && self.replayed.segments == self.direct.segments
            && self.replayed.health == self.direct.health
            && self.replayed.stats == self.direct.stats
    }
}

/// Runs one wire-replay case: injects the case's faults into the canonical
/// clean schedule, feeds the delivered arrivals directly into one monitor,
/// captures the identical arrivals to a `.rvw` file, and drains that file
/// through [`rvmtl_wire::WireSource`] into a second, identically configured
/// monitor.
///
/// # Panics
///
/// Panics if the capture file cannot be written or read back, or if the
/// capture fails the wire handshake against its own configuration — both
/// are harness defects, not scenario outcomes.
pub fn run_wire_replay_case(case: &WireReplayCase) -> WireReplayRun {
    use rvmtl_wire::{capture_events, Hello, WireSource};

    let (comp, phi) = fault_storm_workload();
    let clean = StreamEvent::schedule_of(&comp);
    let faulted = FaultInjector::new(case.seed, case.faults).inject(&clean);
    let delivered: Vec<StreamEvent> = faulted.events().cloned().collect();
    let segment_length = (comp.duration().max(1) / DEFAULT_SEGMENTS as u64).max(1);
    let mut config = StreamConfig::new(segment_length).fault_policy(case.policy);
    if case.pipelined {
        config = config.pipelined(Some(2));
    }

    let mut direct = StreamMonitor::new(comp.process_count(), comp.epsilon(), config.clone());
    direct.add_query(&phi);
    for e in &delivered {
        let _ = direct.observe(e.process, e.time, e.state.clone());
    }
    let direct = direct.finish();

    let hello = Hello {
        epsilon: comp.epsilon(),
        processes: comp.process_count(),
        fault_policy: case.policy,
    };
    let path = std::env::temp_dir().join(format!(
        "rvmtl_wire_smoke_{}_{}.rvw",
        case.name,
        if case.pipelined {
            "pipelined"
        } else {
            "sequential"
        }
    ));
    let file = std::fs::File::create(&path).expect("create .rvw capture");
    capture_events(std::io::BufWriter::new(file), &hello, &delivered).expect("write capture");
    let wire_bytes = std::fs::metadata(&path).expect("stat capture").len();

    let mut replayed = StreamMonitor::new(comp.process_count(), comp.epsilon(), config);
    replayed.add_query(&phi);
    let reader = std::io::BufReader::new(std::fs::File::open(&path).expect("open capture"));
    let mut source = WireSource::new(reader).expect("wire header");
    source.run(&mut replayed).expect("replay capture");
    let stats = *source.stats();
    let _ = std::fs::remove_file(&path);

    WireReplayRun {
        direct,
        replayed: replayed.finish(),
        wire_bytes,
        stats,
        pipelined: case.pipelined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_replay_cases_are_replay_identical() {
        for case in wire_replay_cases() {
            let run = run_wire_replay_case(&case);
            assert!(run.wire_bytes > 0, "{}: empty capture", case.name);
            assert_eq!(run.stats.decode_errors, 0, "{}", case.name);
            assert!(
                run.replay_identical(),
                "{} ({}): wire replay diverged from direct ingestion",
                case.name,
                if case.pipelined {
                    "pipelined"
                } else {
                    "sequential"
                }
            );
        }
    }

    #[test]
    fn checkpoint_cases_restart_and_recover_identically() {
        for case in checkpoint_cases() {
            let run = run_checkpoint_case(&case);
            assert!(run.restarts > 0, "{}: the fixture must restart", case.name);
            assert!(run.snapshot_bytes > 0, "{}", case.name);
            assert!(
                run.recovered_identical(),
                "{}: restarted run diverged from the uninterrupted reference",
                case.name
            );
        }
    }

    #[test]
    fn synthetic_workloads_are_monitorable() {
        let mut cfg = default_trace_config();
        cfg.duration_ms = 60;
        for index in [1, 3, 4, 6] {
            let comp = synthetic_computation(index, &cfg);
            let phi = formula(index, cfg.processes);
            let sample = measure(format!("phi{index}"), 0.0, &comp, &phi, 4);
            assert!(
                !sample.verdicts.is_empty(),
                "phi{index} produced no verdict"
            );
        }
    }

    #[test]
    fn blockchain_workloads_cover_all_three_protocols() {
        let workloads = blockchain_workloads(BLOCKCHAIN_DELTA, BLOCKCHAIN_EPSILON);
        assert_eq!(workloads.len(), 7);
        assert!(workloads.iter().any(|(l, ..)| l.starts_with("2-party")));
        assert!(workloads.iter().any(|(l, ..)| l.starts_with("3-party")));
        assert!(workloads.iter().any(|(l, ..)| l.starts_with("auction")));
        // Event counts vary across the workloads (the x-axis of Fig. 6).
        let counts: std::collections::BTreeSet<usize> = workloads
            .iter()
            .map(|(_, _, c, _)| c.event_count())
            .collect();
        assert!(counts.len() >= 4);
    }

    #[test]
    fn conforming_two_party_liveness_is_satisfied() {
        let workloads = blockchain_workloads(BLOCKCHAIN_DELTA, BLOCKCHAIN_EPSILON);
        let (label, segments, comp, phi) = &workloads[0];
        assert!(label.contains("conforming"));
        let sample = measure(label.clone(), 0.0, comp, phi, *segments);
        assert!(sample.verdicts.may_be_satisfied());
    }

    #[test]
    fn shift_free_workloads_never_trip_the_watermark() {
        for (name, _comp, phi, _segments) in shift_free_workloads() {
            let mut interner = rvmtl_mtl::Interner::new();
            let _ = interner.intern(&phi);
            assert!(
                !interner.ever_shifted(),
                "{name}: a shift-free workload must not trip the arena watermark"
            );
        }
    }

    #[test]
    fn sample_row_is_aligned() {
        let cfg = TraceConfig {
            duration_ms: 40,
            ..default_trace_config()
        };
        let comp = synthetic_computation(4, &cfg);
        let sample = measure("phi4", 2.0, &comp, &formula(4, 2), 2);
        let row = sample.row();
        assert!(row.contains("phi4"));
        print_header("epsilon");
        println!("{row}");
    }
}
