//! The shift-free fast path is *observationally invisible*: an arena whose
//! shift watermark never trips (`ever_shifted() == false`) and the same
//! formulas forced through the full zone path (watermark tripped by an
//! unrelated delayed-window node) must produce bit-identical [`SolverStats`]
//! and verdict sets. This pins the tentpole claim of the NodeMeta/watermark
//! optimisation — it removes the shift-normal tax, it does not change the
//! search — for the [`Interner`], on PRNG-generated shift-free
//! specifications.

use rvmtl_distrib::{ComputationBuilder, DistributedComputation};
use rvmtl_mtl::testgen::{gen_formula, GenConfig};
use rvmtl_mtl::{parse, state, ArenaOps, Formula, Interner};
use rvmtl_prng::StdRng;
use rvmtl_solver::{SegmentSolver, SolverStats};
use std::collections::BTreeSet;

/// A small skew-heavy computation (the Fig. 3 shape at a configurable ε).
fn fixture(epsilon: u64) -> DistributedComputation {
    let mut b = ComputationBuilder::new(2, epsilon);
    b.event(0, 1, state!["a"]);
    b.event(0, 4, state!["p"]);
    b.event(1, 2, state!["a", "q"]);
    b.event(1, 5, state!["b"]);
    b.build().unwrap()
}

/// PRNG-generated formulas filtered to the shift-free class: interning one
/// into a fresh arena must leave the watermark down. (The generator produces
/// arbitrary window starts, so delayed-window draws are simply skipped.)
fn shift_free_formulas(count: usize, seed: u64) -> Vec<Formula> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = GenConfig::default();
    let mut out = Vec::new();
    while out.len() < count {
        let phi = gen_formula(&mut rng, &config);
        let mut scratch = Interner::new();
        let _ = scratch.intern(&phi);
        if !scratch.ever_shifted() {
            out.push(phi);
        }
    }
    out
}

/// Runs `phi` through a `SegmentSolver` over `arena`, returning the stats of
/// the query and the verdict set of its rewritten formulas.
fn solve<A: ArenaOps>(
    arena: &mut A,
    comp: &DistributedComputation,
    phi: &Formula,
) -> (SolverStats, BTreeSet<bool>) {
    let anchor = comp.max_local_time() + comp.epsilon();
    let psi = arena.intern(phi);
    let mut solver = SegmentSolver::new(comp, anchor, arena);
    let result = solver.progress(psi);
    let verdicts = result
        .formulas
        .iter()
        .map(|&id| solver_eval(arena, id))
        .collect();
    (result.stats, verdicts)
}

fn solver_eval<A: ArenaOps>(arena: &A, id: rvmtl_mtl::FormulaId) -> bool {
    arena.eval_empty(id)
}

/// Trips the watermark of an arena with a delayed-window node that shares no
/// structure with the monitored formulas (fresh proposition), forcing every
/// subsequent query through the per-node zone checks.
fn trip<A: ArenaOps>(arena: &mut A) {
    let tripwire = parse("F[6,12) zz_tripwire").unwrap();
    let _ = arena.intern(&tripwire);
    assert!(arena.ever_shifted(), "tripwire must raise the watermark");
}

/// Sequential arena: watermark down vs forced zone path — identical
/// `SolverStats` (explored states, memo hits, splits, merges, zone rewrites)
/// and identical verdicts, formula by formula.
#[test]
fn shift_free_fast_path_is_observationally_invisible_sequential() {
    let formulas = shift_free_formulas(48, 0x5F4E);
    for epsilon in [1u64, 2, 4] {
        let comp = fixture(epsilon);
        for phi in &formulas {
            let mut plain = Interner::new();
            let fast = solve(&mut plain, &comp, phi);
            assert!(
                !plain.ever_shifted(),
                "phi = {phi}: a shift-free query must not trip the watermark"
            );

            let mut forced = Interner::new();
            trip(&mut forced);
            let slow = solve(&mut forced, &comp, phi);

            assert_eq!(
                fast.0, slow.0,
                "phi = {phi}, eps = {epsilon}: SolverStats must be bit-identical"
            );
            assert_eq!(
                fast.1, slow.1,
                "phi = {phi}, eps = {epsilon}: verdicts must agree"
            );
        }
    }
}

/// The watermark story end-to-end in one arena: a shift-free query runs with
/// the watermark down; interning the first nonzero-slack node flips it; the
/// same shift-free query re-run through the now-tripped arena reports the
/// same stats and verdicts; and `Interner::compact` dropping the shifted
/// node re-arms the fast path with the query *still* unchanged.
#[test]
fn watermark_flip_and_compact_leave_queries_unchanged() {
    let comp = fixture(3);
    let phi = parse("a U[0,6) b").unwrap();

    let mut arena = Interner::new();
    let (stats_down, verdicts_down) = solve(&mut arena, &comp, &phi);
    assert!(!arena.ever_shifted());

    trip(&mut arena);
    let (stats_up, verdicts_up) = solve(&mut arena, &comp, &phi);
    // A fresh arena with the watermark up must also agree (no cache-carry
    // effects hiding a divergence).
    let mut fresh_up = Interner::new();
    trip(&mut fresh_up);
    let (stats_fresh, verdicts_fresh) = solve(&mut fresh_up, &comp, &phi);
    assert_eq!(stats_down, stats_fresh);
    assert_eq!(verdicts_down, verdicts_fresh);
    assert_eq!(verdicts_down, verdicts_up);
    // The warmed arena run may only differ in memo economy, never in shape:
    // explored states and zone rewrites are cache-independent.
    assert_eq!(stats_down.explored_states, stats_up.explored_states);
    assert_eq!(
        stats_down.shift_normalized_nodes,
        stats_up.shift_normalized_nodes
    );

    // GC away the tripwire: the watermark drops and the query still runs
    // identically on the re-armed fast path.
    let root = arena.intern(&phi);
    let remap = arena.compact([root]);
    assert!(
        !arena.ever_shifted(),
        "compact must re-arm the shift-free fast path"
    );
    let _ = remap;
    let (stats_rearmed, verdicts_rearmed) = solve(&mut arena, &comp, &phi);
    assert_eq!(stats_down.explored_states, stats_rearmed.explored_states);
    assert_eq!(verdicts_down, verdicts_rearmed);
}
