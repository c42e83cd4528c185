//! Pinned planner outputs: the k-binomial fan-out `choose_k` picks and
//! digests of whole ni-fpfs, ubinomial, path-based and tree plans.
//!
//! The tables below were recorded from the HashMap-based FPFS estimator
//! and the allocate-per-switch path covering that preceded the
//! shape-only estimator and the O(|D|) covering; the tree digests from
//! the apex planner that ran a cover test on every switch. Any change to
//! a planner that moves one of these values changes simulated results,
//! so a mismatch here is a behaviour change, not a test to re-record.

use irrnet_core::rng::{fnv1a, SmallRng};
use irrnet_core::{
    build_k_binomial, choose_k, estimate_fpfs_completion, try_plan_multicast, McastPlan,
    SchemeRegistry,
};
use irrnet_sim::{SendSpec, SimConfig};
use irrnet_topology::{
    gen, ApexPlan, ExtraLinks, Network, NodeId, NodeMask, PortUse, RandomTopologyConfig, SwitchId,
};

const MESSAGE_FLITS: [u32; 4] = [16, 128, 129, 2048];
const R_RATIOS: [f64; 3] = [0.5, 1.0, 4.0];
const HOPS: [u32; 3] = [1, 3, 6];

/// `choose_k` for d = 1..=64 (one digit per d), one row per
/// (message flits, R, hop estimate) in loop order.
const CHOOSE_K: [&str; 36] = [
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1223232334333433333445333344453333333444444556333344444444555633",
    "1122222222222332222222233333332222333223333333333333333334444433",
    "1122222222222332222222233333332222333223333333333333333334444433",
    "1122222222222332222222233333332222333223333333333333333334444433",
    "1111222222222222222222222222222222222222222222222222222222222222",
    "1111222222222222222222222222222222222222222222222222222222222222",
    "1111222222222222222222222222222222222222222222222222222222222222",
    "1111111122222222222222222222222222222222222222222222222222222222",
    "1111111122222222222222222222222222222222222222222222222222222222",
    "1111111122222222222222222222222222222222222222222222222222222222",
];

fn choose_k_table() -> Vec<String> {
    let dests: Vec<NodeId> = (1..=64).map(NodeId).collect();
    let mut rows = Vec::new();
    for mf in MESSAGE_FLITS {
        for r in R_RATIOS {
            let cfg = SimConfig::paper_default().with_r(r).unwrap();
            for hops in HOPS {
                rows.push(
                    (1..=64)
                        .map(|d| {
                            let k = choose_k(&dests[..d], &cfg, mf, hops);
                            char::from_digit(k as u32, 10).expect("k is a single digit")
                        })
                        .collect(),
                );
            }
        }
    }
    rows
}

/// FNV-1a over every FPFS estimate behind [`CHOOSE_K`]: the k-binomial
/// tree for each d and each candidate k, estimated through the
/// `McastTree` entry point.
const FPFS_ESTIMATES: u64 = 0x7f5a095598019e91;

#[test]
fn fpfs_estimates_match_the_recorded_digest() {
    let dests: Vec<NodeId> = (1..=64).map(NodeId).collect();
    let mut text = String::new();
    for mf in MESSAGE_FLITS {
        for r in R_RATIOS {
            let cfg = SimConfig::paper_default().with_r(r).unwrap();
            for hops in HOPS {
                for d in 1..=64 {
                    for k in 1..=d.min(8) {
                        let tree = build_k_binomial(NodeId(0), &dests[..d], k);
                        text += &format!("{} ", estimate_fpfs_completion(&tree, &cfg, mf, hops));
                    }
                }
            }
        }
    }
    let got = fnv1a(text.as_bytes());
    assert_eq!(got, FPFS_ESTIMATES, "estimates changed; computed 0x{got:016x}");
}

#[test]
fn choose_k_matches_the_recorded_table() {
    let rows = choose_k_table();
    let mismatched: Vec<usize> = (0..rows.len()).filter(|&i| rows[i] != CHOOSE_K[i]).collect();
    assert!(
        mismatched.is_empty(),
        "rows {mismatched:?} differ; computed table:\n{}",
        rows.iter().map(|r| format!("    \"{r}\",")).collect::<Vec<_>>().join("\n")
    );
}

/// Schemes whose planners the digests cover.
const SCHEMES: [&str; 5] = ["ubinomial", "ni-fpfs", "path-g", "path-lg", "path-lg+ni"];

/// One canonical line per send: everything the engine reads from it.
fn send_text(s: &SendSpec) -> String {
    match s {
        SendSpec::Unicast { dest } => format!("u{}", dest.0),
        SendSpec::FpfsChildren { children } => format!("f{:?}", ids(children)),
        SendSpec::Tree { dests, .. } => format!("t{:?}", ids(&dests.iter().collect::<Vec<_>>())),
        SendSpec::Path { spec } => {
            let stops: Vec<String> = spec
                .stops
                .iter()
                .map(|st| {
                    format!(
                        "{}{}{:?}",
                        st.switch.0,
                        if st.up_phase { "^" } else { "v" },
                        ids(&st.drops)
                    )
                })
                .collect();
            format!("p[{}]", stops.join(" "))
        }
    }
}

fn ids(nodes: &[NodeId]) -> Vec<u16> {
    nodes.iter().map(|n| n.0).collect()
}

/// Canonical text of a plan: meta, sends, and every side table with its
/// keys sorted.
fn plan_text(p: &McastPlan) -> String {
    let mut out = format!(
        "{} {}>{:?} m{} w{} p{} k{}\n",
        p.scheme.name(),
        p.source.0,
        ids(&p.dests.iter().collect::<Vec<_>>()),
        p.message_flits,
        p.meta.worms,
        p.meta.phases,
        p.meta.k
    );
    let line = |sends: &[SendSpec]| sends.iter().map(send_text).collect::<Vec<_>>().join(",");
    out += &format!("init {}\n", line(&p.initial));
    let mut keys: Vec<&NodeId> = p.on_delivered.keys().collect();
    keys.sort();
    for n in keys {
        out += &format!("deliv {} {}\n", n.0, line(&p.on_delivered[n]));
    }
    let mut keys: Vec<&NodeId> = p.fpfs_children.keys().collect();
    keys.sort();
    for n in keys {
        out += &format!("fpfs {} {:?}\n", n.0, ids(&p.fpfs_children[n]));
    }
    let mut keys: Vec<&NodeId> = p.ni_path_forwards.keys().collect();
    keys.sort();
    for n in keys {
        let sends: Vec<SendSpec> = p.ni_path_forwards[n]
            .iter()
            .map(|spec| SendSpec::Path { spec: spec.clone() })
            .collect();
        out += &format!("nipath {} {}\n", n.0, line(&sends));
    }
    out
}

fn random_dests(rng: &mut SmallRng, n: usize, degree: usize, source: NodeId) -> NodeMask {
    let mut dests = NodeMask::EMPTY;
    while dests.len() < degree {
        let d = NodeId(rng.gen_range(0..n) as u16);
        if d != source {
            dests.insert(d);
        }
    }
    dests
}

/// Canonical text of a tree plan: meta, every send's destinations and,
/// for every switch a worm can reach from the source's switch by
/// following `up_ports`, that switch's apex guidance. Switches are
/// listed in breadth-first order from the source's switch.
fn tree_plan_text(net: &Network, p: &McastPlan) -> String {
    let mut out = format!(
        "{} {}>{:?} m{} w{} p{} k{}\n",
        p.scheme.name(),
        p.source.0,
        ids(&p.dests.iter().collect::<Vec<_>>()),
        p.message_flits,
        p.meta.worms,
        p.meta.phases,
        p.meta.k
    );
    for s in &p.initial {
        let SendSpec::Tree { dests, plan } = s else { panic!("tree plans send tree worms") };
        out += &format!("t{:?}\n", ids(&dests.iter().collect::<Vec<_>>()));
        out += &apex_text(net, plan, net.topo.host_switch(p.source));
    }
    out
}

/// One line per switch a worm climbs through from `from`.
fn apex_text(net: &Network, plan: &ApexPlan, from: SwitchId) -> String {
    let mut out = String::new();
    let mut seen = vec![false; net.topo.num_switches()];
    let mut queue = vec![from];
    seen[from.idx()] = true;
    let mut head = 0;
    while let Some(&s) = queue.get(head) {
        head += 1;
        let ports: Vec<u8> = plan.up_ports(s).iter().map(|p| p.0).collect();
        out += &format!(
            "  s{} c{} d{} {:?}\n",
            s.0,
            u8::from(plan.covered_at(s)),
            plan.up_distance(s),
            ports
        );
        for p in plan.up_ports(s) {
            let PortUse::Link { link, side } = net.topo.switch(s).ports[p.idx()] else {
                panic!("up port {p} of {s} is not a link")
            };
            let peer = net.topo.link(link).end(1 - side).0;
            if !seen[peer.idx()] {
                seen[peer.idx()] = true;
                queue.push(peer);
            }
        }
    }
    out
}

/// FNV-1a over the canonical text of every plan `scheme` makes for the
/// drawn multicasts, in draw order.
fn digest(nets: &[Network], scheme: &str, degrees: &[usize], per_net: usize, seed: u64) -> u64 {
    digest_with(nets, scheme, degrees, per_net, seed, |_, p| plan_text(p))
}

/// [`digest`] with the plan text produced by `text`.
fn digest_with(
    nets: &[Network],
    scheme: &str,
    degrees: &[usize],
    per_net: usize,
    seed: u64,
    text_of: impl Fn(&Network, &McastPlan) -> String,
) -> u64 {
    let id = SchemeRegistry::resolve(scheme).expect("builtin scheme");
    let mut text = String::new();
    for (ni, net) in nets.iter().enumerate() {
        let n = net.num_nodes();
        let mut rng = SmallRng::seed_from_u64(seed ^ ni as u64);
        for i in 0..per_net {
            let source = NodeId(rng.gen_range(0..n) as u16);
            let degree = degrees[i % degrees.len()].min(n - 1);
            let dests = random_dests(&mut rng, n, degree, source);
            let mf = MESSAGE_FLITS[i % MESSAGE_FLITS.len()];
            let cfg = SimConfig::paper_default().with_r(R_RATIOS[i % R_RATIOS.len()]).unwrap();
            let plan = try_plan_multicast(net, &cfg, id, source, dests, mf)
                .unwrap_or_else(|e| panic!("{scheme}: {e}"));
            text += &text_of(net, &plan);
        }
    }
    fnv1a(text.as_bytes())
}

fn check_digests(nets: &[Network], degrees: &[usize], per_net: usize, seed: u64, want: &[u64; 5]) {
    let got: Vec<u64> = SCHEMES.iter().map(|s| digest(nets, s, degrees, per_net, seed)).collect();
    assert_eq!(
        got,
        want.to_vec(),
        "plan digests for {SCHEMES:?} changed; computed: [{}]",
        got.iter().map(|d| format!("0x{d:016x}")).collect::<Vec<_>>().join(", ")
    );
}

/// Tree schemes whose plans and apex guidance the tree digests cover.
const TREE_SCHEMES: [&str; 2] = ["tree", "tree-cap4"];

fn check_tree_digests(
    nets: &[Network],
    degrees: &[usize],
    per_net: usize,
    seed: u64,
    want: &[u64; 2],
) {
    let got: Vec<u64> = TREE_SCHEMES
        .iter()
        .map(|s| digest_with(nets, s, degrees, per_net, seed, tree_plan_text))
        .collect();
    assert_eq!(
        got,
        want.to_vec(),
        "tree plan digests for {TREE_SCHEMES:?} changed; computed: [{}]",
        got.iter().map(|d| format!("0x{d:016x}")).collect::<Vec<_>>().join(", ")
    );
}

fn paper_default_nets() -> Vec<Network> {
    (0..6)
        .map(|seed| {
            let cfg = match seed % 3 {
                0 => RandomTopologyConfig::paper_default(seed),
                1 => RandomTopologyConfig::with_switches(seed, 16),
                _ => RandomTopologyConfig::with_switches(seed, 32),
            };
            Network::analyze(gen::generate(&cfg).unwrap()).unwrap()
        })
        .collect()
}

/// The 256-switch, 2,560-node fabric: destination sets hold ids past
/// 128, so `NodeMask` uses its heap representation.
fn fabric_256() -> Network {
    let cfg = RandomTopologyConfig {
        num_switches: 256,
        ports_per_switch: 16,
        num_hosts: 2560,
        extra_links: ExtraLinks::Fraction(0.5),
        seed: 7,
    };
    Network::analyze(gen::generate(&cfg).unwrap()).unwrap()
}

const PAPER_DEGREES: [usize; 9] = [1, 2, 3, 5, 8, 12, 16, 24, 31];
const FABRIC_DEGREES: [usize; 5] = [8, 64, 5, 200, 16];

#[test]
fn plans_on_paper_default_topologies_match_recorded_digests() {
    check_digests(
        &paper_default_nets(),
        &PAPER_DEGREES,
        40,
        0x9E37_79B9,
        &[
            0xb7b8cd634a80a82d,
            0x558870ad3f174fd9,
            0x6c077bffaee6a70c,
            0xf1c93a2f35c42d95,
            0x9c5a6074d9b180b5,
        ],
    );
}

#[test]
fn plans_on_a_256_switch_fabric_match_recorded_digests() {
    check_digests(
        &[fabric_256()],
        &FABRIC_DEGREES,
        10,
        0x5EED_0256,
        &[
            0xfec5990d839ba7b7,
            0x479a7f2525eadedb,
            0x56595f4a8a48162c,
            0xcac37fea96a1cbb1,
            0xf8ac84d719f9edbd,
        ],
    );
}

#[test]
fn tree_plans_on_paper_default_topologies_match_recorded_digests() {
    check_tree_digests(
        &paper_default_nets(),
        &PAPER_DEGREES,
        40,
        0x9E37_79B9,
        &[0x960804fea438ddae, 0xd1f35fa864925884],
    );
}

#[test]
fn tree_plans_on_a_256_switch_fabric_match_recorded_digests() {
    check_tree_digests(
        &[fabric_256()],
        &FABRIC_DEGREES,
        10,
        0x5EED_0256,
        &[0x134399d757373f3b, 0x7e304ee611608ceb],
    );
}
