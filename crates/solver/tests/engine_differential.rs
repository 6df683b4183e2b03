//! Engine differential suite: the data-oriented work-stack explorer and the
//! retained reference recursion must be *observationally identical* — same
//! rewritten-formula sets, same verdicts, and bit-identical [`SolverStats`]
//! (including the batch counters, which both engines account at the same
//! program points) — on every input. The suites sweep the whole ε axis
//! (1..=8), the delayed-window regime where the shift-normal zone machinery
//! fires, the shift-free class and the ε = 16 saturation fixtures.

use rvmtl_distrib::{ComputationBuilder, DistributedComputation};
use rvmtl_mtl::testgen::{gen_formula, GenConfig, PROPS};
use rvmtl_mtl::{parse, state, ArenaOps, Formula, Interner};
use rvmtl_prng::StdRng;
use rvmtl_solver::{ExploreEngine, SegmentSolver, SolverStats};
use std::collections::BTreeSet;

/// Runs `phi` through a fresh solver over `arena` under the given engine.
/// Returns the full stats, the rewritten-formula ids (order-preserving, so
/// comparisons also pin emission order), and the verdict set.
fn solve(
    arena: &mut impl ArenaOps,
    comp: &DistributedComputation,
    phi: &Formula,
    engine: ExploreEngine,
    limit: Option<usize>,
) -> (SolverStats, Vec<rvmtl_mtl::FormulaId>, BTreeSet<bool>) {
    let anchor = comp.max_local_time() + comp.epsilon();
    let psi = arena.intern(phi);
    let mut solver = SegmentSolver::new(comp, anchor, arena).with_engine(engine);
    if let Some(l) = limit {
        solver = solver.with_limit(l);
    }
    let result = solver.progress(psi);
    let verdicts = result
        .formulas
        .iter()
        .map(|&id| arena.eval_empty(id))
        .collect();
    (
        result.stats,
        result.formulas.iter().copied().collect(),
        verdicts,
    )
}

/// Asserts both engines agree on a plain sequential arena (fresh arena per
/// engine, so the memo economies are compared cold-for-cold) and returns the
/// work-stack stats for suite-level accumulation.
fn assert_engines_agree(
    comp: &DistributedComputation,
    phi: &Formula,
    limit: Option<usize>,
    context: &str,
) -> SolverStats {
    let mut reference_arena = Interner::new();
    let reference = solve(
        &mut reference_arena,
        comp,
        phi,
        ExploreEngine::Reference,
        limit,
    );
    let mut stack_arena = Interner::new();
    let stack = solve(&mut stack_arena, comp, phi, ExploreEngine::WorkStack, limit);
    assert_eq!(
        reference.0, stack.0,
        "{context}: SolverStats must be bit-identical across engines"
    );
    assert_eq!(
        reference.1, stack.1,
        "{context}: rewritten-formula sets must be identical across engines"
    );
    assert_eq!(reference.2, stack.2, "{context}: verdicts must agree");
    stack.0
}

/// A small skew-heavy computation generator (shared shape with the
/// brute-force differential suite; kept local so this suite stays
/// self-contained about what it sweeps).
fn gen_comp(rng: &mut StdRng, epsilon: u64) -> DistributedComputation {
    let processes = rng.gen_range(1usize..3);
    let mut b = ComputationBuilder::new(processes, epsilon);
    for p in 0..processes {
        let events = rng.gen_range(0usize..4);
        let mut t = 0;
        for _ in 0..events {
            t += 1 + rng.gen_range(0u64..3);
            let state: rvmtl_mtl::State =
                PROPS.iter().filter(|_| rng.gen_bool()).copied().collect();
            b.event(p, t, state);
        }
    }
    b.build().expect("generated computations are valid")
}

/// The Fig. 3 computation (`saturation_computation` of `rvmtl-bench`) under
/// skew bound `epsilon`.
fn fig3(epsilon: u64) -> DistributedComputation {
    let mut b = ComputationBuilder::new(2, epsilon);
    b.event(0, 1, state!["a"]);
    b.event(0, 4, state![]);
    b.event(1, 2, state!["a"]);
    b.event(1, 5, state!["b"]);
    b.build().expect("fixture is valid")
}

fn gen_phi(rng: &mut StdRng) -> Formula {
    let cfg = GenConfig {
        max_depth: 2,
        interval_start_max: 4,
        interval_len_max: 8,
        ..GenConfig::default()
    };
    gen_formula(rng, &cfg)
}

/// Random formulas over random computations across the whole ε axis: the
/// regime sweep of the brute-force differential suite, replayed as an
/// engine-vs-engine comparison. The suite must also actually exercise the
/// batched probe path (accumulated batch counters > 0), or engine agreement
/// would be vacuous.
#[test]
fn engines_agree_across_epsilon_sweep() {
    let mut rng = StdRng::seed_from_u64(0xE9D1);
    let mut batches = 0usize;
    let mut probe_ticks = 0usize;
    for epsilon in 1u64..=8 {
        for case in 0..12 {
            let comp = gen_comp(&mut rng, epsilon);
            let phi = gen_phi(&mut rng);
            let stats = assert_engines_agree(
                &comp,
                &phi,
                None,
                &format!("ε = {epsilon}, case {case}, formula {phi}"),
            );
            batches += stats.frontier_batches;
            probe_ticks += stats.batched_probe_ticks;
        }
    }
    assert!(batches > 0, "the sweep never formed a frontier batch");
    assert!(
        probe_ticks > 0,
        "the sweep never walked the batched probe path"
    );
}

/// Delayed-window formulas (every live window translated strictly above the
/// anchor) across the ε axis: the regime where the shift-normal zone
/// machinery — translated-range collapse inside the batched splitter,
/// shift-relative memo keys — actually fires, asserted via the accumulated
/// `shift_normalized_nodes` counter.
#[test]
fn engines_agree_on_delayed_window_suite() {
    let mut rng = StdRng::seed_from_u64(0xE9D2);
    let mut normalized = 0usize;
    for epsilon in 1u64..=8 {
        for case in 0..10 {
            let comp = gen_comp(&mut rng, epsilon);
            let cfg = GenConfig {
                max_depth: 2,
                interval_start_max: 3,
                interval_len_max: 6,
                unbounded_intervals: false,
            };
            let base = gen_formula(&mut rng, &cfg);
            let shift = rng.gen_range(1u64..8);
            let mut scratch = Interner::new();
            let id = scratch.intern(&base);
            let shifted = ArenaOps::translate_up(&mut scratch, id, shift);
            let phi = ArenaOps::resolve(&scratch, shifted);
            let stats = assert_engines_agree(
                &comp,
                &phi,
                None,
                &format!("ε = {epsilon}, case {case}, formula {phi}"),
            );
            normalized += stats.shift_normalized_nodes;
        }
    }
    assert!(
        normalized > 0,
        "the suite never exercised the shift-normal canonicalisation"
    );
}

/// PRNG-generated shift-free specifications (window starts all at zero; the
/// arena watermark must stay down) on the Fig. 3-shaped fixture: full stats
/// and id-level rewrites per engine.
#[test]
fn engines_agree_on_shift_free_suite() {
    let mut rng = StdRng::seed_from_u64(0xE9D3);
    let cfg = GenConfig::default();
    let mut formulas = Vec::new();
    while formulas.len() < 24 {
        let phi = gen_formula(&mut rng, &cfg);
        let mut scratch = Interner::new();
        let _ = scratch.intern(&phi);
        if !scratch.ever_shifted() {
            formulas.push(phi);
        }
    }
    for epsilon in [1u64, 2, 4, 8] {
        let mut b = ComputationBuilder::new(2, epsilon);
        b.event(0, 1, state!["a"]);
        b.event(0, 4, state!["p"]);
        b.event(1, 2, state!["a", "q"]);
        b.event(1, 5, state!["b"]);
        let comp = b.build().expect("fixture is valid");
        for phi in &formulas {
            assert_engines_agree(&comp, phi, None, &format!("ε = {epsilon}, formula {phi}"));
        }
    }
}

/// The shift-free saturation fixtures the two engines were timed on
/// (`BENCH_9.json`): Fig. 3 at ε = 16, where the time-interval abstraction
/// saturates, unsegmented.
#[test]
fn engines_agree_on_saturation_fixtures() {
    let comp = fig3(16);
    for text in ["a U[0,6) b", "G[0,10) (a | b)"] {
        let phi = parse(text).expect("fixed formula parses");
        assert_engines_agree(&comp, &phi, None, text);
    }
}

/// Solution limits stop both engines at the same point: the limit interacts
/// with emission order (a premature stop under a different order would leak
/// through verdict sets), so agreement here pins that the work-stack driver
/// replays the recursion's unwind path exactly.
#[test]
fn engines_agree_under_limits_across_epsilon() {
    let mut rng = StdRng::seed_from_u64(0xE9D4);
    for epsilon in 1u64..=8 {
        for case in 0..6 {
            let comp = gen_comp(&mut rng, epsilon);
            let phi = gen_phi(&mut rng);
            for limit in 1..=3usize {
                assert_engines_agree(
                    &comp,
                    &phi,
                    Some(limit),
                    &format!("ε = {epsilon}, case {case}, limit {limit}, formula {phi}"),
                );
            }
        }
    }
}

/// The delayed-window tripwire of the shift-free suite, cross-checked per
/// engine: forcing the zone path with an unrelated delayed-window node must
/// leave both engines' stats and verdicts unchanged (the watermark is an
/// economy, not a semantics, under either driver).
#[test]
fn watermark_trip_is_invisible_under_both_engines() {
    let phi = parse("a U[0,6) b").expect("fixed formula parses");
    let comp = fig3(3);
    for engine in [ExploreEngine::WorkStack, ExploreEngine::Reference] {
        let mut plain = Interner::new();
        let down = solve(&mut plain, &comp, &phi, engine, None);
        assert!(!plain.ever_shifted());

        let mut tripped = Interner::new();
        let _ = tripped.intern(&parse("F[6,12) zz_tripwire").expect("tripwire parses"));
        assert!(tripped.ever_shifted());
        let up = solve(&mut tripped, &comp, &phi, engine, None);

        assert_eq!(down.0, up.0, "{engine:?}: stats across watermark states");
        assert_eq!(down.2, up.2, "{engine:?}: verdicts across watermark states");
    }
}
