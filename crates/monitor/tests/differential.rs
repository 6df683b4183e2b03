//! Differential properties of the monitor (seeded local PRNG; case
//! generators shared via `rvmtl_mtl::testgen` / `rvmtl_distrib::testgen`):
//!
//! * the unsegmented monitor agrees exactly with the brute-force baseline;
//! * segmented monitoring only reports verdicts the whole computation can
//!   justify, and never reports nothing.

use rvmtl_distrib::testgen::gen_computation;
use rvmtl_monitor::{naive_verdicts, Monitor, MonitorConfig};
use rvmtl_mtl::testgen::{gen_formula, GenConfig};
use rvmtl_mtl::Formula;
use rvmtl_prng::StdRng;

const CASES: usize = 48;

/// Small, bounded intervals keep the brute-force baseline tractable.
fn gen_phi(rng: &mut StdRng) -> Formula {
    let cfg = GenConfig {
        max_depth: 2,
        interval_start_max: 4,
        interval_len_max: 8,
        unbounded_intervals: false,
    };
    gen_formula(rng, &cfg)
}

#[test]
fn unsegmented_monitor_equals_baseline() {
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let mut checked = 0;
    while checked < CASES {
        let comp = gen_computation(&mut rng);
        let phi = gen_phi(&mut rng);
        if comp.event_count() > 6 {
            continue;
        }
        checked += 1;
        let report = Monitor::with_defaults().run(&comp, &phi);
        assert_eq!(
            report.verdicts,
            naive_verdicts(&comp, &phi),
            "formula {phi}"
        );
    }
}

#[test]
fn segmented_monitor_is_sound_and_nonempty() {
    let mut rng = StdRng::seed_from_u64(0x5E61);
    let mut checked = 0;
    while checked < CASES {
        let comp = gen_computation(&mut rng);
        let phi = gen_phi(&mut rng);
        let g = rng.gen_range(2usize..5);
        if comp.event_count() > 6 {
            continue;
        }
        checked += 1;
        let whole = Monitor::with_defaults().run(&comp, &phi).verdicts;
        let segmented = Monitor::new(MonitorConfig::with_segments(g))
            .run(&comp, &phi)
            .verdicts;
        assert!(!segmented.is_empty(), "formula {phi}");
        for v in segmented.booleans() {
            assert!(
                whole.booleans().contains(&v),
                "formula {phi}, g = {g}: segmented verdict {v} not justified"
            );
        }
    }
}
