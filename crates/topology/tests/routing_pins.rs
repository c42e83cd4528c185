//! Pinned routing answers: digests of every distance and every next-hop
//! candidate list, and the diameter, on random topologies of 8 to 1000
//! switches, healthy and after a random fault plan's `degrade`.
//!
//! The values were recorded from all-pairs tables that computed every
//! distance and candidate list up front. Switch decode, path covering and
//! the contention model all read these answers, and the simulator's
//! adaptive arbitration depends on the candidate *order*, so a mismatch
//! here is a behaviour change, not a test to re-record.

use irrnet_topology::routing::Phase;
use irrnet_topology::{
    gen, ExtraLinks, FaultPlan, FaultStatus, Network, PortCandidate, RandomFaultConfig,
    RandomTopologyConfig, SwitchId,
};

/// Streaming FNV-1a, so a 1000-switch table needs no text buffer.
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

    fn hops(&mut self, hops: &[PortCandidate]) {
        self.bytes(&(hops.len() as u16).to_le_bytes());
        for h in hops {
            self.bytes(&[h.port.0]);
            self.bytes(&h.link.0.to_le_bytes());
            self.bytes(&h.next.0.to_le_bytes());
            self.bytes(&[matches!(h.next_phase, Phase::Down) as u8]);
        }
    }
}

/// What the routing tables answer: (distance digest, next-hop digest,
/// diameter). Destination-major; per pair the Up, Down and up-only
/// planes in that order.
fn routing_digest(net: &Network) -> (u64, u64, u16) {
    let n = net.num_switches();
    let rt = &net.routing;
    let (mut dist, mut hops) = (Fnv::new(), Fnv::new());
    for t in (0..n).map(|t| SwitchId(t as u16)) {
        for s in (0..n).map(|s| SwitchId(s as u16)) {
            dist.bytes(&rt.distance(s, Phase::Up, t).to_le_bytes());
            dist.bytes(&rt.distance(s, Phase::Down, t).to_le_bytes());
            dist.bytes(&rt.up_only_distance(s, t).to_le_bytes());
            hops.hops(&rt.next_hops(s, Phase::Up, t));
            hops.hops(&rt.next_hops(s, Phase::Down, t));
            hops.hops(&rt.up_only_next_hops(s, t));
        }
    }
    (dist.0, hops.0, rt.diameter())
}

/// The healthy network and the one left after every kill of a random
/// fault plan (links and switches alternating).
fn healthy_and_degraded(cfg: &RandomTopologyConfig, kills: usize) -> [Network; 2] {
    let net = Network::analyze(gen::generate(cfg).unwrap()).unwrap();
    let plan = FaultPlan::random(
        &net.topo,
        &RandomFaultConfig {
            kills,
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
    assert!(!status.is_healthy(), "the fault plan must kill something");
    let degraded = net.degrade(&status).unwrap();
    [net, degraded]
}

fn check(cfg: &RandomTopologyConfig, kills: usize, want: [(u64, u64, u16); 2]) {
    let got = healthy_and_degraded(cfg, kills).map(|net| routing_digest(&net));
    assert_eq!(
        got,
        want,
        "{} switches: routing changed; computed [{}]",
        cfg.num_switches,
        got.iter()
            .map(|(d, h, diam)| format!("(0x{d:016x}, 0x{h:016x}, {diam})"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn fabric(
    num_switches: usize,
    ports: u8,
    hosts: usize,
    extra: f64,
    seed: u64,
) -> RandomTopologyConfig {
    RandomTopologyConfig {
        num_switches,
        ports_per_switch: ports,
        num_hosts: hosts,
        extra_links: ExtraLinks::Fraction(extra),
        seed,
    }
}

#[test]
fn routing_on_8_switches_matches_recorded_digests() {
    check(
        &RandomTopologyConfig::paper_default(1),
        2,
        [
            (0xa3461a148b4d0511, 0x343053db89670365, 3),
            (0x8e8880af06b6fa99, 0x7a772802edfd3bc1, 3),
        ],
    );
}

#[test]
fn routing_on_16_switches_matches_recorded_digests() {
    check(
        &RandomTopologyConfig::with_switches(2, 16),
        3,
        [
            (0x6910aea91ec23d05, 0xdf7488a56306f74f, 6),
            (0x63331131d00d8a85, 0x95590126446483fa, 6),
        ],
    );
}

#[test]
fn routing_on_32_switches_matches_recorded_digests() {
    check(
        &RandomTopologyConfig::with_switches(3, 32),
        4,
        [
            (0x3ce39abb4027cb75, 0x1662f8e7b848d5b5, 6),
            (0x792f44b0ec8a0785, 0xfb396ec10e8ac548, 8),
        ],
    );
}

#[test]
fn routing_on_64_switches_matches_recorded_digests() {
    check(
        &fabric(64, 8, 128, 0.75, 4),
        4,
        [
            (0xb040446e5c0fbae5, 0xe687fe85ee526f84, 8),
            (0x5bfd9305b636d439, 0x1bab093076336b37, 10),
        ],
    );
}

#[test]
fn routing_on_256_switches_matches_recorded_digests() {
    check(
        &fabric(256, 16, 2560, 0.5, 7),
        4,
        [
            (0xa56f632c5a2390bd, 0x900d3849476a3cc9, 15),
            (0x9a37a40fa6516241, 0x4c0d3b6730610e45, 15),
        ],
    );
}

#[test]
fn routing_on_1000_switches_matches_recorded_digests() {
    check(
        &fabric(1000, 16, 10_000, 0.5, 42),
        4,
        [
            (0xbb6a3a5ea1055039, 0x39ba31930caa9ffe, 18),
            (0x98061baf2fab1551, 0x67f6cd37be07e6d1, 18),
        ],
    );
}
