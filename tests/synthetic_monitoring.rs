//! Workspace-level integration tests: ta → distrib → monitor pipelines over
//! the UPPAAL-style benchmark models.

use rvmtl::monitor::{naive_verdicts_bounded, Monitor, MonitorConfig};
use rvmtl::ta::{generate, specs, Model, TraceConfig};

fn small_config(processes: usize, seed: u64) -> TraceConfig {
    TraceConfig {
        processes,
        duration_ms: 100,
        event_rate: 40.0,
        epsilon_ms: 2,
        seed,
    }
}

#[test]
fn fischer_mutual_exclusion_holds_for_every_interleaving() {
    for seed in [1, 2, 3] {
        let comp = generate(Model::Fischer, &small_config(3, seed));
        let report = Monitor::new(MonitorConfig::with_segments(8)).run(&comp, &specs::phi3(3));
        assert!(
            report.verdicts.definitely_satisfied(),
            "seed {seed}: {}",
            report.verdicts
        );
    }
}

#[test]
fn train_gate_never_hosts_two_trains_on_the_bridge() {
    let comp = generate(Model::TrainGate, &small_config(3, 11));
    // Pairwise "never both crossing" — the bridge analogue of phi3.
    let phi = rvmtl::mtl::parse(
        "G (!(Train[0].Cross & Train[1].Cross) & !(Train[0].Cross & Train[2].Cross) & !(Train[1].Cross & Train[2].Cross))",
    )
    .unwrap();
    let report = Monitor::new(MonitorConfig::with_segments(8)).run(&comp, &phi);
    assert!(
        report.verdicts.definitely_satisfied(),
        "{}",
        report.verdicts
    );
}

#[test]
fn segmented_monitor_agrees_with_bruteforce_on_small_traces() {
    let cfg = TraceConfig {
        processes: 2,
        duration_ms: 30,
        event_rate: 30.0,
        epsilon_ms: 2,
        seed: 5,
    };
    let comp = generate(Model::Fischer, &cfg);
    let phi = specs::phi4(2, 40);
    let symbolic = Monitor::with_defaults().run(&comp, &phi).verdicts;
    if let Ok(oracle) = naive_verdicts_bounded(&comp, &phi, 200_000) {
        assert_eq!(symbolic, oracle);
    }
}

#[test]
fn gossip_eventually_spreads_secrets_given_enough_time() {
    let cfg = TraceConfig {
        processes: 2,
        duration_ms: 300,
        event_rate: 40.0,
        epsilon_ms: 2,
        seed: 8,
    };
    let comp = generate(Model::Gossip, &cfg);
    let phi = specs::phi5(2, 300);
    let report = Monitor::new(MonitorConfig::with_segments(10)).run(&comp, &phi);
    assert!(
        report.verdicts.may_be_satisfied(),
        "secrets should spread within the horizon: {}",
        report.verdicts
    );
}
