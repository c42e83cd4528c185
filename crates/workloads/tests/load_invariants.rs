//! Invariants of the load harness: accounting consistency, monotonicity
//! in the offered load, and distribution sanity.

use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::{gen, Network, RandomTopologyConfig};
use irrnet_workloads::{run_load, LoadConfig};

fn net() -> Network {
    Network::analyze(gen::generate(&RandomTopologyConfig::paper_default(2)).unwrap()).unwrap()
}

fn lc(load: f64) -> LoadConfig {
    LoadConfig {
        degree: 6,
        message_flits: 128,
        effective_load: load,
        warmup: 20_000,
        measure: 120_000,
        drain: 80_000,
        seed: 99,
        stream_stats: false,
    }
}

#[test]
fn accounting_is_consistent() {
    let net = net();
    let cfg = SimConfig::paper_default();
    let r = run_load(&net, &cfg, SchemeId::TREE, &lc(0.05)).unwrap();
    assert!(r.completed <= r.launched);
    assert!(r.launched > 0);
    let s = r.latency.expect("some completions");
    assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    if let Some(m) = r.mean_latency {
        // `mean_latency` (window mean) and the Summary mean agree: both
        // cover the same sample set.
        assert!((m - s.mean).abs() < 1e-6, "{m} vs {}", s.mean);
    }
}

#[test]
fn launched_count_scales_with_load() {
    let net = net();
    let cfg = SimConfig::paper_default();
    let a = run_load(&net, &cfg, SchemeId::TREE, &lc(0.02)).unwrap();
    let b = run_load(&net, &cfg, SchemeId::TREE, &lc(0.08)).unwrap();
    // 4x the offered load ⇒ roughly 4x the generated multicasts.
    let ratio = b.launched as f64 / a.launched.max(1) as f64;
    assert!((2.5..6.0).contains(&ratio), "ratio {ratio:.2}");
}

#[test]
fn same_seed_same_result() {
    let net = net();
    let cfg = SimConfig::paper_default();
    let a = run_load(&net, &cfg, SchemeId::PATH_LG, &lc(0.05)).unwrap();
    let b = run_load(&net, &cfg, SchemeId::PATH_LG, &lc(0.05)).unwrap();
    assert_eq!(a.launched, b.launched);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.mean_latency, b.mean_latency);
}

#[test]
fn degree_one_load_is_plain_unicast_traffic() {
    let net = net();
    let cfg = SimConfig::paper_default();
    let mut c = lc(0.02);
    c.degree = 1;
    let r = run_load(&net, &cfg, SchemeId::UBINOMIAL, &c).unwrap();
    assert!(!r.saturated);
    // A lone unicast at these parameters is ~2.3k cycles; light load must
    // be in that ballpark.
    let m = r.mean_latency.unwrap();
    assert!((2_000.0..6_000.0).contains(&m), "mean {m}");
}
