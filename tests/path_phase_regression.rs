//! Regression tests for a deadlock class found by the Fig. 7 sweep:
//! a path-based worm whose planned route visits an intermediate stop
//! during its up* prefix could, under adaptive routing, reach that stop
//! via a minimal route that had already turned downward — stranding the
//! worm with no legal continuation (up-after-down is illegal). The fix
//! marks such stops `up_phase` and restricts their legs to up-only
//! routes.

use irrnet::prelude::*;

#[test]
fn path_plans_mark_up_prefix_stops() {
    // On sparse many-switch topologies, plans regularly climb through
    // host-bearing switches; those stops must carry the up_phase flag and
    // every up_phase stop must precede every non-up_phase stop (phases
    // are monotone along a legal route).
    let mut saw_up_phase_stop = false;
    for seed in 0..10u64 {
        let net = Network::analyze(
            gen::generate(&RandomTopologyConfig::with_switches(seed, 16)).unwrap(),
        )
        .unwrap();
        for source in [NodeId(0), NodeId(7)] {
            let mut dests = NodeMask::all(32);
            dests.remove(source);
            let plan = irrnet::mcast::plan_paths(
                &net,
                source,
                dests,
                irrnet::mcast::PathVariant::LessGreedy,
            );
            for w in &plan.worms {
                let mut seen_down = false;
                for stop in &w.stops {
                    if stop.up_phase {
                        saw_up_phase_stop = true;
                        assert!(!seen_down, "up-phase stop after a down-phase stop");
                    } else {
                        seen_down = true;
                    }
                }
            }
        }
    }
    assert!(saw_up_phase_stop, "test never exercised an up-phase stop");
}

#[test]
fn sixteen_and_thirtytwo_switch_sweeps_complete() {
    // The original failure: path-lg multicasts on 16-switch topologies
    // deadlocked mid-sweep (watchdog at 2M cycles). Run the same class of
    // workloads to completion.
    let cfg = SimConfig::paper_default();
    for switches in [16usize, 32] {
        for seed in 0..10u64 {
            let net = Network::analyze(
                gen::generate(&RandomTopologyConfig::with_switches(seed, switches)).unwrap(),
            )
            .unwrap();
            for degree in [8usize, 24, 31] {
                let lat = mean_single_latency(
                    &net,
                    &cfg,
                    SchemeId::PATH_LG,
                    degree,
                    128,
                    3,
                    0xBEEF ^ seed,
                )
                .unwrap_or_else(|e| panic!("switches={switches} seed={seed} degree={degree}: {e}"));
                assert!(lat > 0.0);
            }
        }
    }
}

#[test]
fn hybrid_path_scheme_also_survives_sparse_topologies() {
    let cfg = SimConfig::paper_default();
    for seed in 0..6u64 {
        let net = Network::analyze(
            gen::generate(&RandomTopologyConfig::with_switches(seed, 32)).unwrap(),
        )
        .unwrap();
        let lat =
            mean_single_latency(&net, &cfg, SchemeId::PATH_LG_NI, 24, 256, 2, seed).unwrap();
        assert!(lat > 0.0);
    }
}
