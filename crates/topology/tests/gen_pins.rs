//! Pinned generator and reachability outputs: FNV-1a digests of every
//! port `gen::generate` hands out, over a grid of shapes, extra-link
//! counts and seeds, and of every reachability string on networks drawn
//! from the same grid, healthy and after a random fault plan's `degrade`.
//!
//! The values were recorded from a generator that rebuilt each step's
//! candidate list for every draw, and from a reachability build that
//! unioned and encoded one full bit string per set. Every experiment's
//! topology comes out of `generate` and tree worms steer by these
//! strings, so a mismatch here is a behaviour change, not a test to
//! re-record.

use irrnet_topology::{
    gen, ExtraLinks, FaultPlan, FaultStatus, Network, NodeMask, PortIdx, RandomFaultConfig,
    RandomTopologyConfig, ReachSet, Topology, TopologyError,
};

/// Streaming FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF29CE484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001B3);
        }
    }

    fn num(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn mask(&mut self, m: &NodeMask) {
        self.num(m.word_count());
        for i in 0..m.word_count() {
            self.bytes(&m.word(i).to_le_bytes());
        }
    }
}

/// Every link's endpoints and ports, then every host's switch and port,
/// in id order; an error by its `Debug` text.
fn topology_digest(h: &mut Fnv, result: &Result<Topology, TopologyError>) {
    match result {
        Ok(t) => {
            h.bytes(&[1]);
            h.num(t.num_links());
            for (_, l) in t.links() {
                for (s, p) in [l.a, l.b] {
                    h.bytes(&s.0.to_le_bytes());
                    h.bytes(&[p.0]);
                }
            }
            h.num(t.num_nodes());
            for (_, host) in t.hosts() {
                h.bytes(&host.switch.0.to_le_bytes());
                h.bytes(&[host.port.0]);
            }
        }
        Err(e) => {
            h.bytes(&[0]);
            h.bytes(format!("{e:?}").as_bytes());
        }
    }
}

/// Every port string's arm and contents in (switch, port) order, every
/// cover, then `resident_bytes` and `dense_equivalent_bytes`.
fn reach_digest(h: &mut Fnv, net: &Network) {
    let r = &net.reach;
    for (s, sw) in net.topo.switches() {
        for p in 0..sw.num_ports() {
            match r.port_set(s, PortIdx(p as u8)) {
                ReachSet::Dense(m) => {
                    h.bytes(&[0]);
                    h.mask(m);
                }
                ReachSet::Runs(runs) => {
                    h.bytes(&[1]);
                    h.num(runs.len());
                    for &(a, b) in runs.iter() {
                        h.bytes(&a.to_le_bytes());
                        h.bytes(&b.to_le_bytes());
                    }
                }
            }
        }
        h.mask(&r.cover(s));
    }
    h.num(r.resident_bytes());
    h.num(r.dense_equivalent_bytes());
}

fn config(
    (num_switches, ports_per_switch, num_hosts): (usize, u8, usize),
    extra_links: ExtraLinks,
    seed: u64,
) -> RandomTopologyConfig {
    RandomTopologyConfig { num_switches, ports_per_switch, num_hosts, extra_links, seed }
}

/// (switches, ports per switch, hosts) of the paper default,
/// `with_switches` 16 and 32, and the `ext_a` (system size), `ext_c`
/// and `ext_e` shapes the campaign generates.
const PAPER_SHAPES: [(usize, u8, usize); 9] = [
    (8, 8, 32),
    (16, 8, 32),
    (32, 8, 32),
    (4, 8, 16),
    (16, 8, 64),
    (16, 6, 32),
    (4, 12, 32),
    (2, 20, 32),
    (12, 8, 48),
];

/// `ext_h`'s scale family: 10 hosts per switch behind 16-port switches.
fn scale_shape(switches: usize) -> (usize, u8, usize) {
    (switches, 16, switches * 10)
}

/// The `giant-fabric` shape, generated with seed 42.
const GIANT: (usize, u8, usize) = (1000, 16, 10_000);

const SEEDS: std::ops::Range<u64> = 0..40;

/// The paper default, the scale family's half, no extra links, and two
/// counts that link every free port (one saturated by `as usize`).
const EXTRAS: [ExtraLinks; 5] = [
    ExtraLinks::Fraction(0.75),
    ExtraLinks::Fraction(0.5),
    ExtraLinks::Count(0),
    ExtraLinks::Count(usize::MAX),
    ExtraLinks::Fraction(1e30),
];

/// One digest of `generate` over every extra-link count and seed of a
/// shape.
fn shape_digest(shape: (usize, u8, usize), seeds: std::ops::Range<u64>) -> u64 {
    let mut h = Fnv::new();
    for extra in EXTRAS {
        for seed in seeds.clone() {
            topology_digest(&mut h, &gen::generate(&config(shape, extra, seed)));
        }
    }
    h.0
}

/// Compare `(label, digest)` pairs with the recorded ones, printing the
/// whole computed table on a mismatch.
fn check(what: &str, got: &[(String, u64)], want: &[u64]) {
    let computed: Vec<String> = got.iter().map(|(l, d)| format!("0x{d:016x}, // {l}")).collect();
    assert!(
        got.len() == want.len() && got.iter().zip(want).all(|((_, g), w)| g == w),
        "{what} changed; computed:\n{}",
        computed.join("\n")
    );
}

#[test]
fn paper_scale_generation_matches_recorded_digests() {
    let got: Vec<(String, u64)> = PAPER_SHAPES
        .iter()
        .map(|&shape| (format!("{shape:?}"), shape_digest(shape, SEEDS)))
        .collect();
    check(
        "paper-scale generation",
        &got,
        &[
            0x5f20c61a0a05d4a0, // (8, 8, 32)
            0x1c062ba70955a511, // (16, 8, 32)
            0x27248c5364bbdbd0, // (32, 8, 32)
            0x6c85a302d3f72893, // (4, 8, 16)
            0x0c71a38250381234, // (16, 8, 64)
            0xaac39eb5ef3beb47, // (16, 6, 32)
            0x9859bba479517758, // (4, 12, 32)
            0x42cc44847e8b641f, // (2, 20, 32)
            0xe50370a6aa8171b5, // (12, 8, 48)
        ],
    );
}

#[test]
fn large_scale_generation_matches_recorded_digests() {
    let mut got: Vec<(String, u64)> = [16, 64, 256, 1024]
        .iter()
        .map(|&s| (format!("{:?}", scale_shape(s)), shape_digest(scale_shape(s), SEEDS)))
        .collect();
    got.push((format!("{GIANT:?} seed 42"), shape_digest(GIANT, 42..43)));
    check(
        "large-scale generation",
        &got,
        &[
            0x7786a5f5d91596d5, // (16, 16, 160)
            0x6bde0ca2a90e85aa, // (64, 16, 640)
            0xbee4c0e0eca3b904, // (256, 16, 2560)
            0xa674b2b6f46bae64, // (1024, 16, 10240)
            0x07abe21f0cff4ec2, // (1000, 16, 10000) seed 42
        ],
    );
}

#[test]
fn failing_configs_match_recorded_digests() {
    let bad = [
        // The spanning tree alone needs more ports than there are.
        config((3, 1, 1), ExtraLinks::Count(0), 0),
        // The tree fits; the hosts do not.
        config((2, 4, 8), ExtraLinks::Count(0), 0),
        config((2, 4, 7), ExtraLinks::Fraction(0.75), 0),
        config((8, 8, 32), ExtraLinks::Fraction(f64::NAN), 0),
        config((8, 8, 32), ExtraLinks::Fraction(f64::INFINITY), 0),
        config((8, 8, 32), ExtraLinks::Fraction(-1.0), 0),
        config((0, 8, 32), ExtraLinks::Fraction(0.75), 0),
        config((8, 8, 0), ExtraLinks::Fraction(0.75), 0),
    ];
    let got: Vec<(String, u64)> = bad
        .iter()
        .map(|cfg| {
            let mut h = Fnv::new();
            let result = gen::generate(cfg);
            assert!(result.is_err(), "{cfg:?} generated a topology");
            topology_digest(&mut h, &result);
            (cfg.canonical_string(), h.0)
        })
        .collect();
    check(
        "failing configs",
        &got,
        &[
            0xc49e054548f06e82, // (3, 1, 1): the tree does not fit
            0xf6a59146f179fbe5, // (2, 4, 8): the hosts do not fit
            0x842b42f872ee52ab, // (2, 4, 7)
            0xf839a010eccf7eb1, // fraction NaN
            0x0feb70d5f446e4db, // fraction inf
            0x27ceff2de80840a0, // fraction -1
            0xed3b2e348ab4097c, // no switches
            0xed3b2e348ab4097c, // no hosts
        ],
    );
}

/// Reachability of the healthy network and of the one left after a
/// random fault plan (links and switches alternating); a `degrade` that
/// fails is digested by its error.
fn healthy_and_degraded_digest(cfg: &RandomTopologyConfig) -> u64 {
    let mut h = Fnv::new();
    let net = Network::analyze(gen::generate(cfg).unwrap()).unwrap();
    reach_digest(&mut h, &net);
    let plan = FaultPlan::random(
        &net.topo,
        &RandomFaultConfig {
            kills: 4,
            switch_every: 2,
            window: (0, 1000),
            seed: cfg.seed ^ 0xFA17,
            protect: Vec::new(),
        },
    );
    let mut status = FaultStatus::healthy(&net.topo);
    for ev in plan.events() {
        status.kill(&net.topo, ev.kind);
    }
    h.num(plan.events().len());
    match net.degrade(&status) {
        Ok(degraded) => reach_digest(&mut h, &degraded),
        Err(e) => h.bytes(format!("{e:?}").as_bytes()),
    }
    h.0
}

#[test]
fn paper_scale_reachability_matches_recorded_digests() {
    let got: Vec<(String, u64)> = PAPER_SHAPES
        .iter()
        .map(|&shape| {
            let mut h = Fnv::new();
            for extra in [ExtraLinks::Fraction(0.75), ExtraLinks::Count(usize::MAX)] {
                for seed in 0..3 {
                    h.num(healthy_and_degraded_digest(&config(shape, extra, seed)) as usize);
                }
            }
            (format!("{shape:?}"), h.0)
        })
        .collect();
    check(
        "paper-scale reachability",
        &got,
        &[
            0x2da96e6763e4d927, // (8, 8, 32)
            0x7fb0d53edca1b1a1, // (16, 8, 32)
            0xd294a281832c8872, // (32, 8, 32)
            0x00e316211d52e90d, // (4, 8, 16)
            0x20847db2a8234af4, // (16, 8, 64)
            0xaa6f89d802acc486, // (16, 6, 32)
            0xe758ae43c3a9dff4, // (4, 12, 32)
            0xddbbb671ece23c49, // (2, 20, 32)
            0x02e23807bab6e931, // (12, 8, 48)
        ],
    );
}

#[test]
fn large_scale_reachability_matches_recorded_digests() {
    let mut cfgs = Vec::new();
    for switches in [16, 64, 256, 1024] {
        for extra in [ExtraLinks::Fraction(0.5), ExtraLinks::Count(usize::MAX)] {
            for seed in 0..2 {
                cfgs.push(config(scale_shape(switches), extra, seed));
            }
        }
    }
    cfgs.push(config(GIANT, ExtraLinks::Fraction(0.5), 42));
    let got: Vec<(String, u64)> = cfgs
        .iter()
        .map(|cfg| (cfg.canonical_string(), healthy_and_degraded_digest(cfg)))
        .collect();
    check(
        "large-scale reachability",
        &got,
        &[
            0xc0b281464b8882f4, // 16 switches, fraction 0.5, seed 0
            0xd130484c713e30ba, // seed 1
            0x47fd5451ee21f0e7, // every free port linked, seed 0
            0x2e76a46434a875d9, // seed 1
            0x2b908d96544458f7, // 64 switches, fraction 0.5, seed 0
            0xdd19a3edb3e21177, // seed 1
            0x8eb928fe7f50d375, // every free port linked, seed 0
            0x2441f4e5011d2132, // seed 1
            0xbc4d07a5170a1d0a, // 256 switches, fraction 0.5, seed 0
            0x7e7e491df2ebbcfb, // seed 1
            0xa3763ac6689d6a0e, // every free port linked, seed 0
            0x90b8ef37f615525d, // seed 1
            0x1c00c3554444d6b4, // 1024 switches, fraction 0.5, seed 0
            0x7ed48fc986a8e2c6, // seed 1
            0xb210fdd38ec096f3, // every free port linked, seed 0
            0x7a848088256ad0e4, // seed 1
            0x0ed016768fb98fa9, // 1000 switches, fraction 0.5, seed 42
        ],
    );
}
