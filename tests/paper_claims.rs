//! Integration tests pinning the paper's stated findings (§4–§5) on the
//! reproduction's default parameters. Each test names the claim it
//! checks. All quantities are averaged over several random topologies to
//! smooth topology noise, exactly as the paper averages its figures.

use irrnet::prelude::*;

fn nets(count: usize, switches: usize) -> Vec<Network> {
    (0..count as u64)
        .map(|seed| {
            Network::analyze(
                gen::generate(&RandomTopologyConfig::with_switches(seed, switches)).unwrap(),
            )
            .unwrap()
        })
        .collect()
}

fn avg_latency(
    nets: &[Network],
    cfg: &SimConfig,
    scheme: SchemeId,
    degree: usize,
    msg: u32,
) -> f64 {
    let mut sum = 0.0;
    for (i, net) in nets.iter().enumerate() {
        sum += mean_single_latency(net, cfg, scheme, degree, msg, 3, 1000 + i as u64).unwrap();
    }
    sum / nets.len() as f64
}

/// §5: "we find that the tree-based multicasting scheme performs better
/// than the path-based and NI-based schemes" — across R values, degrees
/// and message lengths.
#[test]
fn claim_tree_based_wins_everywhere() {
    let nets = nets(4, 8);
    for r in [0.5, 1.0, 4.0] {
        let cfg = SimConfig::paper_default().with_r(r).unwrap();
        for degree in [4usize, 16] {
            let tree = avg_latency(&nets, &cfg, SchemeId::TREE, degree, 128);
            for other in [SchemeId::NI_FPFS, SchemeId::PATH_LG, SchemeId::UBINOMIAL] {
                let o = avg_latency(&nets, &cfg, other, degree, 128);
                assert!(
                    tree < o,
                    "R={r} degree={degree}: tree {tree:.0} not < {other} {o:.0}"
                );
            }
        }
    }
}

/// §4.2.1: "As the ratio R increases (O_ni shrinks relative to O_h), the
/// NI-based multicasting scheme begins to outperform the path-based
/// scheme."
#[test]
fn claim_r_crossover_between_ni_and_path() {
    let nets = nets(5, 8);
    let degree = 16;
    let gap = |r: f64| {
        let cfg = SimConfig::paper_default().with_r(r).unwrap();
        avg_latency(&nets, &cfg, SchemeId::NI_FPFS, degree, 128)
            - avg_latency(&nets, &cfg, SchemeId::PATH_LG, degree, 128)
    };
    // The NI-based scheme's disadvantage shrinks monotonically with R and
    // flips to an advantage by R = 4.
    let g_half = gap(0.5);
    let g_two = gap(2.0);
    let g_four = gap(4.0);
    assert!(g_half > g_four, "gap did not shrink: {g_half:.0} -> {g_four:.0}");
    assert!(g_two > g_four);
    assert!(g_four < 0.0, "NI-based should win at R=4 (gap {g_four:.0})");
}

/// §4.2.2: increasing the number of switches at fixed system size
/// degrades the path-based scheme (more worms, more phases) while the
/// NI-based and tree-based schemes remain largely unaffected.
#[test]
fn claim_more_switches_hurt_path_based_only() {
    let cfg = SimConfig::paper_default();
    let n8 = nets(4, 8);
    let n32 = nets(4, 32);
    let degree = 16;
    let path_8 = avg_latency(&n8, &cfg, SchemeId::PATH_LG, degree, 128);
    let path_32 = avg_latency(&n32, &cfg, SchemeId::PATH_LG, degree, 128);
    assert!(
        path_32 > 1.25 * path_8,
        "path-based should degrade noticeably: {path_8:.0} -> {path_32:.0}"
    );
    for stable in [SchemeId::NI_FPFS, SchemeId::TREE] {
        let a = avg_latency(&n8, &cfg, stable, degree, 128);
        let b = avg_latency(&n32, &cfg, stable, degree, 128);
        assert!(
            b < 1.25 * a,
            "{stable} should be largely unaffected: {a:.0} -> {b:.0}"
        );
    }
}

/// §4.2.3: message length favors the NI-based scheme over the path-based
/// scheme — FPFS forwards packet-by-packet while every path-based phase
/// store-and-forwards the whole message. In the paper the curves cross
/// beyond "2⟨…⟩" flits (digits lost to OCR); our MDP planner is a
/// DP-optimal reconstruction and therefore somewhat stronger than the
/// original heuristic, which pushes the crossover to ≈2× longer messages
/// (see EXPERIMENTS.md). The robust, parameter-independent part of the
/// claim is the *direction*: the NI:path latency ratio shrinks
/// monotonically toward (and below) parity as packets are added.
#[test]
fn claim_long_messages_favor_fpfs_over_path() {
    let cfg = SimConfig::paper_default();
    let nets = nets(5, 8);
    let degree = 16;
    let ratio = |msg: u32| {
        avg_latency(&nets, &cfg, SchemeId::NI_FPFS, degree, msg)
            / avg_latency(&nets, &cfg, SchemeId::PATH_LG, degree, msg)
    };
    let r8 = ratio(1024); // 8 packets
    let r32 = ratio(4096); // 32 packets
    assert!(r32 < r8, "NI:path ratio should shrink with length: {r8:.2} -> {r32:.2}");
    assert!(
        r32 < 1.2,
        "at 32 packets the two schemes should be at or past parity (ratio {r32:.2})"
    );
    // And the advantage must come from pipelining: the per-flit cost of
    // NI-based drops as messages grow.
    let ni_long = avg_latency(&nets, &cfg, SchemeId::NI_FPFS, degree, 2048);
    let ni_short = avg_latency(&nets, &cfg, SchemeId::NI_FPFS, degree, 128);
    assert!(ni_long / 16.0 < ni_short, "FPFS should amortize per-packet");
}

/// §3.1: the software binomial baseline needs ⌈log₂(d+1)⌉ communication
/// steps, which its latency reflects (roughly linear in the step count,
/// each step ≈ one full send+receive overhead chain).
#[test]
fn claim_binomial_step_scaling() {
    let cfg = SimConfig::paper_default();
    let nets = nets(3, 8);
    let l3 = avg_latency(&nets, &cfg, SchemeId::UBINOMIAL, 7, 128); // 3 steps
    let l5 = avg_latency(&nets, &cfg, SchemeId::UBINOMIAL, 31, 128); // 5 steps
    let ratio = l5 / l3;
    assert!(
        (1.3..2.3).contains(&ratio),
        "5-step vs 3-step binomial ratio {ratio:.2} outside plausible band"
    );
}

/// Load behavior (§4.3): at default parameters the tree-based scheme
/// sustains a strictly higher multicast load than both other schemes.
#[test]
fn claim_tree_based_saturates_last() {
    let cfg = SimConfig::paper_default();
    let net = Network::analyze(
        gen::generate(&RandomTopologyConfig::paper_default(0)).unwrap(),
    )
    .unwrap();
    // A load that saturates NI-based and path-based but not tree-based.
    let mut lc = LoadConfig::paper_default(8, 0.2);
    lc.warmup = 30_000;
    lc.measure = 200_000;
    lc.drain = 100_000;
    let tree = run_load(&net, &cfg, SchemeId::TREE, &lc).unwrap();
    let ni = run_load(&net, &cfg, SchemeId::NI_FPFS, &lc).unwrap();
    assert!(!tree.saturated, "{tree:?}");
    assert!(ni.saturated, "{ni:?}");
}
