//! Streaming ≡ batch: the acceptance suite of the streaming runtime.
//!
//! A [`StreamMonitor`] fed a computation's events one at a time — in global
//! time order, process-major order, or random skew-legal interleavings — must
//! produce verdict sets (and pending rewrite sets) identical to the batch
//! [`Monitor::run`] over the completed computation, provided the two use the
//! same segment boundaries. Boundary alignment: the batch monitor splits a
//! duration-`D` computation into `g` segments at `j·D/g`, so whenever
//! `g | D`, a stream with segment length `D/g` is boundary-identical. The
//! suite runs the synthetic testgen corpus and all three cross-chain
//! protocol drivers through the sequential, the pipelined, and the
//! GC-every-segment streaming paths. For a single query the sequential
//! stream must also do the batch monitor's solver work: its
//! [`SolverStats`] equal the sum of the batch run's per-segment stats
//! (pipelined counters are not compared with the batch run's: obligations
//! dealt to different workers may each solve a formula the sequential
//! path solves once).

use rvmtl_chain::{
    specs, Auction, AuctionScenario, StepChoice, ThreePartyScenario, ThreePartySwap,
    TwoPartyScenario, TwoPartySwap,
};
use rvmtl_distrib::testgen::gen_computation;
use rvmtl_distrib::{DistributedComputation, EventId};
use rvmtl_monitor::{Monitor, MonitorConfig};
use rvmtl_mtl::testgen::{gen_formula, GenConfig};
use rvmtl_mtl::Formula;
use rvmtl_prng::StdRng;
use rvmtl_runtime::{StreamConfig, StreamMonitor};
use rvmtl_solver::SolverStats;
use std::collections::BTreeSet;

/// Per-query `(verdicts, pending)` of a run, and the run's solver work.
type Outcome = (
    Vec<(rvmtl_monitor::VerdictSet, BTreeSet<Formula>)>,
    SolverStats,
);

/// Delivery orders for the same computation's events.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// Global (local-time, process) order — the canonical merge.
    Time,
    /// All of process 0, then process 1, … — the most skewed legal order.
    ProcessMajor,
    /// A random skew-legal interleaving of the per-process queues.
    Random(u64),
}

/// The events of `comp` as a stream in the given delivery order (per-process
/// order is preserved in all of them, which is all the monitor requires).
fn stream_order(comp: &DistributedComputation, order: Order) -> Vec<EventId> {
    let mut per_process: Vec<Vec<EventId>> = (0..comp.process_count())
        .map(|p| comp.events_of(p.into()).to_vec())
        .collect();
    match order {
        Order::Time => {
            let mut ids: Vec<EventId> = (0..comp.event_count()).map(EventId).collect();
            ids.sort_by_key(|&id| (comp.event(id).local_time, comp.event(id).process.0));
            ids
        }
        Order::ProcessMajor => per_process.concat(),
        Order::Random(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(comp.event_count());
            for queue in &mut per_process {
                queue.reverse(); // pop from the front via pop()
            }
            while out.len() < comp.event_count() {
                let alive: Vec<usize> = (0..per_process.len())
                    .filter(|&p| !per_process[p].is_empty())
                    .collect();
                let p = alive[rng.gen_range(0..alive.len() as u64) as usize];
                out.push(per_process[p].pop().expect("non-empty queue"));
            }
            out
        }
    }
}

/// Streams `comp` through a [`StreamMonitor`] with the given config and
/// delivery order.
fn stream_run(
    comp: &DistributedComputation,
    formulas: &[Formula],
    config: StreamConfig,
    order: Order,
) -> Outcome {
    let mut monitor = StreamMonitor::new(comp.process_count(), comp.epsilon(), config);
    for p in 0..comp.process_count() {
        monitor.initial_state(p, comp.initial_state(p.into()).clone());
    }
    let ids: Vec<_> = formulas.iter().map(|phi| monitor.add_query(phi)).collect();
    for id in stream_order(comp, order) {
        let e = comp.event(id);
        monitor
            .observe(e.process.0, e.local_time, e.state.clone())
            .expect("corpus events are stream-legal");
    }
    let report = monitor.finish();
    let per_query = ids
        .iter()
        .map(|q| {
            (
                report.verdicts[q.index()].clone(),
                report.pending[q.index()].clone(),
            )
        })
        .collect();
    (per_query, report.stats)
}

/// Batch reference: [`Monitor::run`] per formula, solver work summed over
/// formulas and segments.
fn batch_run(
    comp: &DistributedComputation,
    formulas: &[Formula],
    config: MonitorConfig,
) -> Outcome {
    let mut stats = SolverStats::default();
    let per_query = formulas
        .iter()
        .map(|phi| {
            let report = Monitor::new(config.clone()).run(comp, phi);
            for segment in &report.segments {
                stats.absorb(&segment.solver_stats);
            }
            (report.verdicts, report.pending)
        })
        .collect();
    (per_query, stats)
}

/// A `(g, L)` pair with `g · L = duration` (batch boundaries = multiples of
/// `L`), preferring more segments.
fn aligned_segmentation(comp: &DistributedComputation) -> Option<(usize, u64)> {
    let duration = comp.duration();
    if duration == 0 {
        return None;
    }
    (2..=6u64)
        .rev()
        .find(|&g| duration.is_multiple_of(g) && duration / g >= 1)
        .map(|g| (g as usize, duration / g))
}

/// Checks streaming (several paths and delivery orders) against the batch
/// monitor for one computation and query set.
fn assert_stream_equals_batch(comp: &DistributedComputation, formulas: &[Formula], label: &str) {
    // Solver work is per distinct obligation on the stream, per query in
    // the batch monitor, so it is comparable for one query only.
    let same_work = |streamed: &Outcome, batch: &Outcome, context: &str| {
        assert_eq!(streamed.0, batch.0, "{label}: {context}");
        if formulas.len() == 1 {
            assert_eq!(streamed.1, batch.1, "{label}: {context}: solver stats");
        }
    };

    // Unsegmented: one stream segment spanning everything.
    let whole_length = comp.duration().max(1) + 1;
    let batch = batch_run(comp, formulas, MonitorConfig::unsegmented());
    for order in [Order::Time, Order::ProcessMajor, Order::Random(7)] {
        let streamed = stream_run(comp, formulas, StreamConfig::new(whole_length), order);
        same_work(&streamed, &batch, &format!("unsegmented, {order:?}"));
    }

    // Boundary-aligned segmentation, when one exists.
    let Some((g, length)) = aligned_segmentation(comp) else {
        return;
    };
    let batch = batch_run(comp, formulas, MonitorConfig::with_segments(g));
    for order in [Order::Time, Order::ProcessMajor, Order::Random(23)] {
        let streamed = stream_run(comp, formulas, StreamConfig::new(length), order);
        same_work(&streamed, &batch, &format!("g = {g}, {order:?}"));
    }
    // Pipelined path (forced workers — the container may have one core) and
    // GC-every-segment path must agree too.
    let pipelined = stream_run(
        comp,
        formulas,
        StreamConfig::new(length).pipelined(Some(3)).flush_depth(g),
        Order::Time,
    )
    .0;
    assert_eq!(pipelined, batch.0, "{label}: pipelined, g = {g}");
    let gc_heavy = stream_run(
        comp,
        formulas,
        StreamConfig::new(length).gc_interval(1),
        Order::Time,
    )
    .0;
    assert_eq!(gc_heavy, batch.0, "{label}: gc_interval = 1, g = {g}");
}

#[test]
fn synthetic_corpus_streaming_equals_batch() {
    let mut rng = StdRng::seed_from_u64(0x57E4);
    let cfg = GenConfig {
        max_depth: 2,
        interval_start_max: 4,
        interval_len_max: 8,
        unbounded_intervals: false,
    };
    let mut checked = 0;
    while checked < 40 {
        let comp = gen_computation(&mut rng);
        let phi = gen_formula(&mut rng, &cfg);
        if comp.event_count() > 6 {
            continue;
        }
        checked += 1;
        assert_stream_equals_batch(&comp, &[phi], &format!("case {checked}"));
    }
}

#[test]
fn synthetic_corpus_multi_query_streaming_equals_batch() {
    let mut rng = StdRng::seed_from_u64(0x3A11);
    let cfg = GenConfig {
        max_depth: 2,
        interval_start_max: 3,
        interval_len_max: 6,
        unbounded_intervals: false,
    };
    let mut checked = 0;
    while checked < 12 {
        let comp = gen_computation(&mut rng);
        if comp.event_count() > 5 {
            continue;
        }
        checked += 1;
        let formulas: Vec<Formula> = (0..3).map(|_| gen_formula(&mut rng, &cfg)).collect();
        assert_stream_equals_batch(&comp, &formulas, &format!("multi-query case {checked}"));
    }
}

/// Non-empty carried-over initial states must flow into the streaming
/// frontier exactly as the batch segmenter's carried states do (a `G` over a
/// proposition only the *initial* state establishes distinguishes them).
#[test]
fn initial_states_streaming_equals_batch() {
    use rvmtl_distrib::ComputationBuilder;
    use rvmtl_mtl::{parse, state};
    let mut b = ComputationBuilder::new(2, 2);
    b.initial_state(0, state!["locked"]);
    b.initial_state(1, state!["idle"]);
    b.event(0, 4, state!["locked"]);
    b.event(1, 6, state!["busy"]);
    b.event(0, 9, state!["unlocked"]);
    b.event(1, 12, state!["idle"]);
    let comp = b.build().unwrap();
    let formulas = [
        parse("G[0,6) locked").unwrap(),
        parse("idle U[0,8) busy").unwrap(),
        parse("F[0,3) unlocked").unwrap(),
    ];
    assert_stream_equals_batch(&comp, &formulas, "carried initial states");
}

/// A segment whose pending set holds several obligations that meet in one
/// search state: the batch monitor and the sequential stream each share one
/// solver across the segment's obligations (a memo hit here), so their
/// solver work stays equal. A solver per obligation would explore the
/// meeting state twice.
#[test]
fn pending_obligations_share_one_solver_per_segment() {
    use rvmtl_distrib::ComputationBuilder;
    use rvmtl_mtl::{parse, state};
    let mut b = ComputationBuilder::new(1, 2);
    b.event(0, 3, state!["p", "r"]);
    b.event(0, 5, state!["p", "q"]);
    b.event(0, 8, state!["q"]);
    let comp = b.build().unwrap();
    let phi = parse("G[2,5) (true U[2,3) p)").unwrap();
    assert_eq!(aligned_segmentation(&comp), Some((4, 2)));
    let formulas = [phi];
    let (_, stats) = batch_run(&comp, &formulas, MonitorConfig::with_segments(4));
    assert!(stats.memo_hits > 0, "the obligations must meet: {stats:?}");
    assert_stream_equals_batch(&comp, &formulas, "obligations meeting in one state");
}

const DELTA: u64 = 50;
const EPSILON: u64 = 3;

#[test]
fn two_party_protocol_streaming_equals_batch() {
    let driver = TwoPartySwap::new(DELTA);
    let mut late = [StepChoice::on_time(); 6];
    late[3] = StepChoice::late();
    for (label, scenario) in [
        ("conforming", TwoPartyScenario::conforming()),
        ("late escrow", TwoPartyScenario { steps: late }),
    ] {
        let comp = driver.execute(&scenario).to_computation(EPSILON);
        let formulas = [
            specs::two_party::liveness(DELTA),
            specs::two_party::alice_conform(DELTA),
            specs::two_party::bob_conform(DELTA),
        ];
        assert_stream_equals_batch(&comp, &formulas, &format!("two-party {label}"));
        // One spec at a time, so the solver work is compared too.
        for (i, phi) in formulas.iter().enumerate() {
            let context = format!("two-party {label}, spec {i}");
            assert_stream_equals_batch(&comp, std::slice::from_ref(phi), &context);
        }
    }
}

#[test]
fn three_party_protocol_streaming_equals_batch() {
    let comp = ThreePartySwap::new(DELTA)
        .execute(&ThreePartyScenario::conforming())
        .to_computation(EPSILON);
    let formulas = [
        specs::three_party::liveness(DELTA),
        specs::three_party::alice_conform(DELTA),
    ];
    assert_stream_equals_batch(&comp, &formulas, "three-party conforming");
}

#[test]
fn auction_protocol_streaming_equals_batch() {
    let comp = Auction::new(DELTA)
        .execute(&AuctionScenario::conforming())
        .to_computation(EPSILON);
    let formulas = [
        specs::auction::liveness(DELTA),
        specs::auction::bob_conform(DELTA),
    ];
    assert_stream_equals_batch(&comp, &formulas, "auction conforming");
}

/// Delayed-window formulas — the regime where shift-normal pendings carry
/// nonzero shifts and the engine's zone canonicalisation fires — through
/// every streaming path (sequential, pipelined, GC-every-segment) and
/// delivery order. The GC path in particular pins that compaction keeps the
/// canonical residuals of shifted pendings alive and remaps their
/// decompositions soundly mid-stream.
#[test]
fn delayed_window_streaming_equals_batch() {
    use rvmtl_distrib::ComputationBuilder;
    use rvmtl_mtl::{parse, state};
    let mut b = ComputationBuilder::new(2, 2);
    b.event(0, 6, state!["a"]);
    b.event(0, 8, state!["a"]);
    b.event(0, 10, state!["a"]);
    b.event(1, 7, state!["a"]);
    b.event(1, 9, state!["a"]);
    b.event(1, 12, state!["b"]);
    let comp = b.build().unwrap();
    let formulas = [
        parse("a U[6,12) b").unwrap(),
        parse("F[4,10) b").unwrap(),
        parse("(F[2,6) a) & (F[5,11) b)").unwrap(),
        parse("G[3,9) (a | b)").unwrap(),
    ];
    assert_stream_equals_batch(&comp, &formulas, "delayed windows");
}

/// One step of a stream: an event of `process` at `time`, or a heartbeat
/// when `state` is `None`.
struct Step {
    process: usize,
    time: u64,
    state: Option<rvmtl_mtl::State>,
}

fn feed(monitor: &mut StreamMonitor, step: &Step) {
    match &step.state {
        Some(state) => monitor.observe(step.process, step.time, state.clone()),
        None => monitor.heartbeat(step.process, step.time),
    }
    .unwrap_or_else(|err| panic!("({}, {}) must be accepted: {err}", step.process, step.time));
}

/// Back-to-back two-party swap sessions, each shifted past the previous one,
/// with a heartbeat round after every session and a long heartbeat tail.
/// Returns the process count, the steps, and the step index at which each
/// session starts.
fn back_to_back_swaps() -> (usize, Vec<Step>, Vec<usize>) {
    let driver = TwoPartySwap::new(DELTA);
    let mut late = [StepChoice::on_time(); 6];
    late[3] = StepChoice::late();
    let sessions = [
        TwoPartyScenario::conforming(),
        TwoPartyScenario { steps: late },
        TwoPartyScenario::conforming(),
    ];
    let mut steps = Vec::new();
    let mut starts = Vec::new();
    let mut offset = 0;
    let mut processes = 0;
    for scenario in &sessions {
        let comp = driver.execute(scenario).to_computation(EPSILON);
        processes = comp.process_count();
        starts.push(steps.len());
        for e in rvmtl_runtime::StreamEvent::schedule_of(&comp) {
            steps.push(Step {
                process: e.process,
                time: offset + e.time,
                state: Some(e.state),
            });
        }
        offset += comp.duration() + 2 * DELTA;
        for process in 0..processes {
            steps.push(Step {
                process,
                time: offset - DELTA,
                state: None,
            });
        }
    }
    for round in 1..=20 {
        for process in 0..processes {
            steps.push(Step {
                process,
                time: offset + round * DELTA,
                state: None,
            });
        }
    }
    (processes, steps, starts)
}

/// Runs `steps`, registering each `(step index, formula)` query right before
/// that step, and returns each query's verdicts, pending set and integrity,
/// in the order of `registrations`.
fn tenant_run(
    processes: usize,
    steps: &[Step],
    registrations: &[(usize, Formula)],
    config: StreamConfig,
) -> Vec<(
    rvmtl_monitor::VerdictSet,
    std::collections::BTreeSet<Formula>,
    rvmtl_runtime::Integrity,
)> {
    let mut monitor = StreamMonitor::new(processes, EPSILON, config);
    let mut ids = vec![None; registrations.len()];
    for (index, step) in steps.iter().enumerate() {
        for (id, (at, phi)) in ids.iter_mut().zip(registrations) {
            if *at == index {
                *id = Some(monitor.add_query(phi));
            }
        }
        feed(&mut monitor, step);
    }
    let report = monitor.finish();
    ids.into_iter()
        .map(|q| q.expect("every registration point is a step of the stream"))
        .map(|q| {
            (
                report.verdicts[q.index()].clone(),
                report.pending[q.index()].clone(),
                report.integrity[q.index()],
            )
        })
        .collect()
}

/// Many tenants, few distinct obligations: K copies of each Fig. 6 spec,
/// registered at several points of the stream (mid-stream `add_query`), so
/// early copies settle while many segments follow. Every query must end
/// exactly as a monitor running it alone from the same registration point,
/// on the sequential and the pipelined path.
#[test]
fn multi_tenant_copies_equal_solo_runs() {
    const COPIES: usize = 3;
    let (processes, steps, starts) = back_to_back_swaps();
    let specs = [
        specs::two_party::liveness(DELTA),
        specs::two_party::alice_conform(DELTA),
        specs::two_party::bob_conform(DELTA),
    ];
    // Registration points: the start and the middle of every session, and
    // the heartbeat tail (with flush depth 4 some land mid-batch).
    let mut points = starts.clone();
    points.extend(starts.windows(2).map(|pair| (pair[0] + pair[1]) / 2));
    points.push(steps.len() - 30);
    let mut registrations = Vec::new();
    for &start in &points {
        for _ in 0..COPIES {
            for phi in &specs {
                registrations.push((start, phi.clone()));
            }
        }
    }
    let length = 25;
    let solo: Vec<_> = registrations
        .iter()
        .map(|registration| {
            let alone = std::slice::from_ref(registration);
            tenant_run(processes, &steps, alone, StreamConfig::new(length)).remove(0)
        })
        .collect();
    assert!(
        solo.iter()
            .any(|(_, pending, _)| pending.iter().all(Formula::is_constant)),
        "some copies must settle before the stream ends"
    );
    for (name, config) in [
        ("sequential", StreamConfig::new(length)),
        (
            "pipelined",
            StreamConfig::new(length).pipelined(Some(3)).flush_depth(4),
        ),
    ] {
        let together = tenant_run(processes, &steps, &registrations, config);
        assert_eq!(together.len(), solo.len());
        for (q, (got, want)) in together.iter().zip(&solo).enumerate() {
            assert_eq!(got, want, "[{name}] query {q}");
        }
    }
}

/// Identical queries solve as one: on either path, K copies of a query cost
/// exactly the solver work of one copy.
#[test]
fn identical_queries_cost_one_query() {
    let comp = TwoPartySwap::new(DELTA)
        .execute(&TwoPartyScenario::conforming())
        .to_computation(EPSILON);
    let phi = specs::two_party::liveness(DELTA);
    let stats = |copies: usize, config: StreamConfig| {
        let mut monitor = StreamMonitor::new(comp.process_count(), EPSILON, config);
        for _ in 0..copies {
            monitor.add_query(&phi);
        }
        for e in rvmtl_runtime::StreamEvent::schedule_of(&comp) {
            monitor.observe(e.process, e.time, e.state).unwrap();
        }
        monitor.finish().stats
    };
    for config in [
        StreamConfig::new(25),
        StreamConfig::new(25).pipelined(Some(3)).flush_depth(4),
    ] {
        let one = stats(1, config.clone());
        assert!(one.explored_states > 0);
        for copies in [2, 5] {
            assert_eq!(stats(copies, config.clone()), one, "{copies} copies");
        }
    }
}
