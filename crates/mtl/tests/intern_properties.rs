//! Property tests for the hash-consed formula interner (seeded local PRNG,
//! shared case generators in [`rvmtl_mtl::testgen`]): interning must preserve
//! the structural equality, ordering and semantics of [`Formula`], and the
//! arena must actually cons — structurally equal formulas share one id.

use rvmtl_mtl::testgen::{gen_formula, gen_state, gen_trace, GenConfig};
use rvmtl_mtl::{evaluate, simplify, ArenaOps, Formula, Interner, TimedTrace};
use rvmtl_prng::StdRng;

const CASES: usize = 256;

fn gen_phi(rng: &mut StdRng) -> Formula {
    gen_formula(rng, &GenConfig::default())
}

/// Intern → resolve is exactly `simplify`: the canonical tree survives the
/// round trip syntactically.
#[test]
fn intern_resolve_roundtrips_to_simplify() {
    let mut rng = StdRng::seed_from_u64(0x1067);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let id = interner.intern(&phi);
        assert_eq!(interner.resolve(id), simplify(&phi), "phi = {phi}");
    }
}

/// Id equality coincides with structural equality of the canonical forms:
/// `intern(φ) == intern(ψ)` iff `simplify(φ) == simplify(ψ)`.
#[test]
fn id_equality_is_structural_equality() {
    let mut rng = StdRng::seed_from_u64(0xEC41);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let psi = gen_phi(&mut rng);
        let phi_id = interner.intern(&phi);
        let psi_id = interner.intern(&psi);
        assert_eq!(
            phi_id == psi_id,
            simplify(&phi) == simplify(&psi),
            "phi = {phi}, psi = {psi}"
        );
        // Hash-consing: re-interning an already canonical formula is a no-op
        // on the arena and yields the same id.
        let before = interner.len();
        assert_eq!(interner.intern(&phi), phi_id);
        assert_eq!(interner.len(), before);
    }
}

/// Resolving a set of interned formulas reproduces the structural ordering of
/// the simplified originals — the solver's `BTreeSet<Formula>` results are
/// ordered identically whether or not the engine interned along the way.
#[test]
fn resolution_preserves_structural_ordering() {
    let mut rng = StdRng::seed_from_u64(0x04D3);
    for _ in 0..CASES / 8 {
        let mut interner = Interner::new();
        let formulas: Vec<Formula> = (0..8).map(|_| gen_phi(&mut rng)).collect();
        let ids: Vec<_> = formulas.iter().map(|phi| interner.intern(phi)).collect();
        let via_interner: std::collections::BTreeSet<Formula> =
            ids.iter().map(|&id| interner.resolve(id)).collect();
        let via_simplify: std::collections::BTreeSet<Formula> =
            formulas.iter().map(simplify).collect();
        assert_eq!(via_interner, via_simplify);
        // Pairwise comparisons agree as well (ordering, not just set shape).
        let resolved: Vec<Formula> = formulas
            .iter()
            .map(|phi| {
                let id = interner.intern(phi);
                interner.resolve(id)
            })
            .collect();
        for i in 0..formulas.len() {
            for j in 0..formulas.len() {
                assert_eq!(
                    resolved[i].cmp(&resolved[j]),
                    simplify(&formulas[i]).cmp(&simplify(&formulas[j])),
                    "i = {}, j = {}",
                    formulas[i],
                    formulas[j]
                );
            }
        }
    }
}

/// Canonicalisation through the interner never changes the finite-trace
/// semantics.
#[test]
fn interning_preserves_semantics() {
    let mut rng = StdRng::seed_from_u64(0x5E4A);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let trace = gen_trace(&mut rng, 8);
        let id = interner.intern(&phi);
        let resolved = interner.resolve(id);
        assert_eq!(
            evaluate(&trace, &phi),
            evaluate(&trace, &resolved),
            "phi = {phi}, resolved = {resolved}"
        );
    }
}

/// The interned single-observation progression agrees with the general
/// segment progression on one-element traces for random formulas.
#[test]
fn progress_one_agrees_with_progress() {
    let mut rng = StdRng::seed_from_u64(0x9407);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let state = gen_state(&mut rng);
        let time = rng.gen_range(0u64..6);
        let next = time + rng.gen_range(0u64..8);
        let id = interner.intern(&phi);
        let one = interner.progress_one(&state, time, id, next);
        let trace = TimedTrace::new(vec![state.clone()], vec![time]).unwrap();
        let full = interner.progress(&trace, id, next);
        assert_eq!(
            one, full,
            "phi = {phi}, state = {state}, t = {time}, next = {next}"
        );
    }
}

/// The memoised progressions (per-node caches keyed by
/// `(state, formula, min(elapsed, temporal_horizon))`) agree with the
/// uncached walks for random formulas — i.e. the horizon clamp and the
/// recursion-level memoisation never change a result, only its cost.
#[test]
fn cached_progressions_agree_with_uncached() {
    let mut rng = StdRng::seed_from_u64(0xCAC4);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let state = gen_state(&mut rng);
        let elapsed = rng.gen_range(0u64..24);
        let id = interner.intern(&phi);
        let key = interner.intern_state(&state);
        assert_eq!(
            interner.progress_one_cached(key, id, elapsed),
            interner.progress_one(&state, 0, id, elapsed),
            "phi = {phi}, state = {state}, elapsed = {elapsed}"
        );
        assert_eq!(
            interner.progress_gap_cached(id, elapsed),
            interner.progress_gap(id, elapsed),
            "phi = {phi}, elapsed = {elapsed}"
        );
    }
}

/// The interval-splitting progression tiles the window exactly, and every
/// point of every range progresses to the residual the range's kind asserts
/// for it — the range's own residual for `Uniform` ranges, its per-tick
/// downward translate for `Translated` ones (the contract the solver's range
/// collapse is built on) — for random formulas, states and windows.
#[test]
fn progress_one_over_tiles_windows_for_random_formulas() {
    let mut rng = StdRng::seed_from_u64(0x0E12);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let state = gen_state(&mut rng);
        let time = rng.gen_range(0u64..4);
        let lo = time + rng.gen_range(0u64..4);
        let hi = lo + rng.gen_range(0u64..30);
        let id = interner.intern(&phi);
        let splits = interner.progress_one_over(&state, time, id, lo, hi);
        let mut expected = lo;
        for r in &splits {
            assert_eq!(r.lo, expected, "phi = {phi}");
            assert!(r.hi >= r.lo && r.hi <= hi, "phi = {phi}");
            expected = r.hi + 1;
            for t in r.lo..=r.hi {
                let asserted = match r.kind {
                    rvmtl_mtl::RangeKind::Uniform => r.residual,
                    rvmtl_mtl::RangeKind::Translated => {
                        ArenaOps::translate_down(&mut interner, r.residual, t - r.lo)
                    }
                };
                assert_eq!(
                    interner.progress_one(&state, time, id, t),
                    asserted,
                    "phi = {phi}, state = {state}, time = {time}, t = {t}, {r:?}"
                );
            }
        }
        assert_eq!(expected, hi + 1, "phi = {phi}: ranges must tile [lo, hi]");
    }
}

/// Shift-normal decomposition properties on random formulas: materialize
/// inverts normalize, translates of a formula share its canonical residual,
/// translation commutes with gap progression inside the slack, and
/// `resolve_shifted` agrees with materialising then resolving.
#[test]
fn shift_normal_decomposition_roundtrips_for_random_formulas() {
    let mut rng = StdRng::seed_from_u64(0x5417);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let id = interner.intern(&phi);
        let s = interner.normalize(id);
        assert_eq!(
            ArenaOps::materialize(&mut interner, s),
            id,
            "phi = {phi}: materialize must invert normalize"
        );
        assert_eq!(
            interner.resolve_shifted(s),
            interner.resolve(id),
            "phi = {phi}"
        );
        assert_eq!(
            interner.eval_empty(s.id),
            interner.eval_empty(id),
            "phi = {phi}: eval_empty resolves through the shift"
        );
        let slack = interner.shift_slack(id);
        if slack > 0 && slack != u64::MAX {
            // The canonical residual is a gap progression by the slack, and
            // every shorter gap is the corresponding exact translate sharing
            // the same canonical residual.
            assert_eq!(
                interner.progress_gap(id, slack),
                s.id,
                "phi = {phi}: canon must equal the slack-length gap"
            );
            let delta = rng.gen_range(0u64..slack.min(8) + 1).min(slack);
            let translated = interner.progress_gap(id, delta);
            assert_eq!(
                ArenaOps::translate_down(&mut interner, id, delta),
                translated,
                "phi = {phi}, delta = {delta}"
            );
            if delta < slack {
                assert_eq!(
                    interner.shift_canon(translated),
                    s.id,
                    "phi = {phi}, delta = {delta}: translates share one canonical residual"
                );
                assert_eq!(
                    interner.shift_slack(translated),
                    slack - delta,
                    "phi = {phi}"
                );
            }
        }
    }
}

/// The interned gap progression agrees with the `Formula`-level one.
#[test]
fn progress_gap_agrees_with_formula_level() {
    let mut rng = StdRng::seed_from_u64(0x6A90);
    let mut interner = Interner::new();
    for _ in 0..CASES {
        let phi = gen_phi(&mut rng);
        let elapsed = rng.gen_range(0u64..12);
        let id = interner.intern(&phi);
        let interned = interner.progress_gap(id, elapsed);
        assert_eq!(
            interner.resolve(interned),
            rvmtl_mtl::progress_gap(&simplify(&phi), elapsed),
            "phi = {phi}, elapsed = {elapsed}"
        );
    }
}

/// Compaction under shift-normal decompositions: for random live sets, after
/// a `compact` (1) every live id's canonical residual survived and remapped
/// consistently (the canon of the remapped id is the remapped canon), (2)
/// shift-relative cache entries survived exactly when their canonical
/// endpoints did — warmed progressions replay identically through the
/// compacted arena, and (3) a shifted pending set roots the GC at canonical
/// residuals only and still materialises/resolves correctly afterwards.
#[test]
fn compact_is_sound_under_shift_decompositions() {
    let mut rng = StdRng::seed_from_u64(0xC04C);
    for _ in 0..CASES / 8 {
        let mut interner = Interner::new();
        // A mix of live and garbage formulas, biased toward delayed windows
        // so nontrivial (shift, canon) pairs arise.
        let live: Vec<rvmtl_mtl::FormulaId> = (0..6)
            .map(|_| {
                let phi = gen_phi(&mut rng);
                let shift = rng.gen_range(0u64..7);
                let id = interner.intern(&phi);
                // Translate up: a delayed-window variant of the formula.
                ArenaOps::translate_up(&mut interner, id, shift)
            })
            .collect();
        for _ in 0..6 {
            let garbage = gen_phi(&mut rng);
            let _ = interner.intern(&garbage);
        }
        // Warm the shift-relative caches.
        let state = gen_state(&mut rng);
        let key = interner.intern_state(&state);
        let warmed: Vec<(
            rvmtl_mtl::FormulaId,
            u64,
            rvmtl_mtl::FormulaId,
            rvmtl_mtl::FormulaId,
        )> = live
            .iter()
            .map(|&id| {
                let elapsed = rng.gen_range(0u64..16);
                let one = interner.progress_one_cached(key, id, elapsed);
                let gap = interner.progress_gap_cached(id, elapsed);
                (id, elapsed, one, gap)
            })
            .collect();
        // Root the GC the way the monitors do: canonical residuals of the
        // live decompositions plus the warmed results.
        let decomps: Vec<rvmtl_mtl::ShiftedId> =
            live.iter().map(|&id| interner.normalize(id)).collect();
        let mut roots: Vec<rvmtl_mtl::FormulaId> = decomps.iter().map(|s| s.id).collect();
        roots.extend(warmed.iter().flat_map(|&(_, _, one, gap)| [one, gap]));
        let remap = interner.compact(roots);
        for (s, &old_id) in decomps.iter().zip(&live) {
            let new_canon = remap.remap(s.id).unwrap();
            // Materialising the remapped decomposition reproduces the
            // formula, and its tables are consistent.
            let rebuilt = ArenaOps::materialize(
                &mut interner,
                rvmtl_mtl::ShiftedId {
                    shift: s.shift,
                    id: new_canon,
                },
            );
            assert_eq!(
                interner.resolve(rebuilt),
                interner.resolve_shifted(rvmtl_mtl::ShiftedId {
                    shift: s.shift,
                    id: new_canon,
                }),
            );
            assert_eq!(interner.shift_canon(rebuilt), new_canon);
            if let Some(new_id) = remap.get(old_id) {
                // If the translate itself survived, its canon remapped with
                // it — the decomposition tables never dangle.
                assert_eq!(interner.shift_canon(new_id), new_canon);
                assert_eq!(rebuilt, new_id);
            }
        }
        // Warmed progressions replay identically through the compacted
        // arena (surviving cache entries must agree with recomputation).
        let key2 = interner.intern_state(&state);
        for (old_id, elapsed, one, gap) in warmed {
            let Some(new_id) = remap.get(old_id) else {
                continue;
            };
            assert_eq!(
                interner.progress_one_cached(key2, new_id, elapsed),
                remap.remap(one).unwrap(),
                "elapsed = {elapsed}"
            );
            assert_eq!(
                interner.progress_gap_cached(new_id, elapsed),
                remap.remap(gap).unwrap(),
                "elapsed = {elapsed}"
            );
        }
    }
}

/// The arena-level shift watermark (`ever_shifted`): down on a fresh arena,
/// unmoved by shift-free interning (every window starting at zero — where
/// `normalize` must be the identity), raised by the *first* nonzero-slack
/// node, and recomputed soundly by `compact` — it stays up while a shifted
/// node survives and re-arms (drops) once GC collects the last one, after
/// which decomposition is the identity again.
#[test]
fn shift_watermark_flips_once_and_tracks_compaction() {
    let mut interner = Interner::new();
    assert!(!interner.ever_shifted(), "fresh arena");
    let shift_free = [
        "a U[0,8) b",
        "G[0,4) (a | b)",
        "F[0,6) (p & q)",
        "p -> (q U[0,3) r)",
        "G[0,inf) p",
        "!p & q",
    ];
    let mut free_ids = Vec::new();
    for text in shift_free {
        free_ids.push(interner.intern(&rvmtl_mtl::parse(text).unwrap()));
        assert!(
            !interner.ever_shifted(),
            "{text} must not trip the watermark"
        );
    }
    // While the watermark is down every decomposition is the identity.
    for &id in &free_ids {
        let s = interner.normalize(id);
        assert_eq!((s.shift, s.id), (0, id));
    }
    // The first delayed window flips it …
    let shifted = interner.intern(&rvmtl_mtl::parse("F[6,12) b").unwrap());
    assert!(interner.ever_shifted());
    let s = interner.normalize(shifted);
    assert_eq!(s.shift, 6);
    // … and it is monotone under further interning of either kind.
    let _ = interner.intern(&rvmtl_mtl::parse("x U[0,2) y").unwrap());
    assert!(interner.ever_shifted());

    // Compaction keeping the shifted node keeps the watermark up (its canon
    // survives with it and the decomposition still works).
    let remap = interner.compact([shifted, free_ids[0]]);
    assert!(interner.ever_shifted());
    let shifted2 = remap.remap(shifted).unwrap();
    let s2 = interner.normalize(shifted2);
    assert_eq!(s2.shift, 6);
    assert_eq!(
        interner.resolve_shifted(s2),
        rvmtl_mtl::parse("F[6,12) b").map(|f| simplify(&f)).unwrap()
    );

    // Compaction dropping every shifted node re-arms the fast path: the
    // watermark drops and normalisation is the identity again.
    let keep = remap.remap(free_ids[0]).unwrap();
    let remap2 = interner.compact([keep]);
    assert!(
        !interner.ever_shifted(),
        "GC collected the last shifted node"
    );
    let keep2 = remap2.remap(keep).unwrap();
    let s3 = interner.normalize(keep2);
    assert_eq!((s3.shift, s3.id), (0, keep2));
    // The re-armed arena still progresses correctly and can trip again.
    let key = interner.intern_state(&gen_state(&mut StdRng::seed_from_u64(7)));
    let _ = interner.progress_one_cached(key, keep2, 3);
    let again = interner.intern(&rvmtl_mtl::parse("G[2,9) z").unwrap());
    assert!(interner.ever_shifted());
    assert_eq!(interner.normalize(again).shift, 2);
}
