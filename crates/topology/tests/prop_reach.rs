//! Property suite for the adaptive [`NodeMask`] representation and the
//! [`ReachSet`] interval/bitset codec, checked against a plain `Vec<bool>`
//! bitset oracle: random round-trips, set-algebra agreement, covering and
//! partition agreement on generated giant topologies, and the
//! inline/spilled crossover boundary.

use irrnet_topology::gen::{ExtraLinks, RandomTopologyConfig};
use irrnet_topology::reach::ReachSet;
use irrnet_topology::rng::SmallRng;
use irrnet_topology::{gen, Network, NodeId, NodeMask, PortIdx};

/// Draw a random set over `0..n` with roughly `density` fill, as both the
/// mask under test and the oracle.
fn random_set(rng: &mut SmallRng, n: usize, density_pct: u64) -> (NodeMask, Vec<bool>) {
    let mut oracle = vec![false; n];
    let mut mask = NodeMask::EMPTY;
    for (i, slot) in oracle.iter_mut().enumerate() {
        if rng.gen_range(0..100u64) < density_pct {
            *slot = true;
            mask.insert(NodeId(i as u16));
        }
    }
    (mask, oracle)
}

fn oracle_mask(oracle: &[bool]) -> NodeMask {
    NodeMask::from_nodes(
        oracle
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| NodeId(i as u16)),
    )
}

/// System sizes straddling the inline crossover plus giant-fabric scale.
const SIZES: [usize; 7] = [5, 64, 127, 128, 129, 1024, 10_000];

#[test]
fn mask_roundtrips_against_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for &n in &SIZES {
        for density in [0, 3, 50, 97] {
            let (mask, oracle) = random_set(&mut rng, n, density);
            assert_eq!(mask, oracle_mask(&oracle), "n={n} d={density}");
            assert_eq!(mask.len(), oracle.iter().filter(|&&b| b).count());
            for probe in [0usize, n / 2, n.saturating_sub(1)] {
                assert_eq!(mask.contains(NodeId(probe as u16)), oracle[probe]);
            }
            // Iteration yields exactly the oracle's members, ascending.
            let members: Vec<usize> = mask.iter().map(|x| x.idx()).collect();
            let expect: Vec<usize> = (0..n).filter(|&i| oracle[i]).collect();
            assert_eq!(members, expect);
        }
    }
}

#[test]
fn mask_algebra_agrees_with_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xA16B);
    for &n in &SIZES {
        let (a, oa) = random_set(&mut rng, n, 30);
        let (b, ob) = random_set(&mut rng, n, 30);
        let union: Vec<bool> = (0..n).map(|i| oa[i] || ob[i]).collect();
        let inter: Vec<bool> = (0..n).map(|i| oa[i] && ob[i]).collect();
        let diff: Vec<bool> = (0..n).map(|i| oa[i] && !ob[i]).collect();
        assert_eq!(a.union(&b), oracle_mask(&union), "n={n}");
        assert_eq!(a.intersection(&b), oracle_mask(&inter), "n={n}");
        assert_eq!(a.difference(&b), oracle_mask(&diff), "n={n}");
        assert_eq!(a.covers(&b), (0..n).all(|i| !ob[i] || oa[i]), "n={n}");
        assert_eq!(a.intersects(&b), (0..n).any(|i| oa[i] && ob[i]), "n={n}");
        assert!(a.union(&b).covers(&a) && a.union(&b).covers(&b));
        assert!(a.covers(a.intersection(&b)));
    }
}

#[test]
fn reachset_roundtrips_against_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xC0DEC);
    for &n in &SIZES {
        for density in [0, 2, 40, 95] {
            let (mask, oracle) = random_set(&mut rng, n, density);
            let rs = ReachSet::from_mask(&mask);
            assert_eq!(rs.to_mask(), mask, "n={n} d={density}");
            assert_eq!(rs.len(), mask.len());
            assert_eq!(rs.is_empty(), mask.is_empty());
            for (probe, &want) in oracle.iter().enumerate() {
                assert_eq!(rs.contains(NodeId(probe as u16)), want);
            }
            // covers / intersect against random query sets.
            for qd in [5, 60] {
                let (q, oq) = random_set(&mut rng, n, qd);
                assert_eq!(
                    rs.covers_mask(&q),
                    (0..n).all(|i| !oq[i] || oracle[i]),
                    "n={n} d={density} qd={qd}"
                );
                let inter: Vec<bool> = (0..n).map(|i| oracle[i] && oq[i]).collect();
                assert_eq!(rs.intersect_mask(&q), oracle_mask(&inter));
            }
        }
    }
}

#[test]
fn reachset_crossover_boundary() {
    // Runs of consecutive members around the 128-bit inline boundary:
    // whatever arm the codec picks, the set semantics must be exact.
    for range in [120..=127usize, 120..=128, 126..=130, 127..=127, 128..=128, 128..=135] {
        let mask = NodeMask::from_nodes(range.clone().map(|i| NodeId(i as u16)));
        let rs = ReachSet::from_mask(&mask);
        assert_eq!(rs.to_mask(), mask, "{range:?}");
        assert_eq!(rs.len(), range.clone().count());
        for probe in 110..140usize {
            assert_eq!(
                rs.contains(NodeId(probe as u16)),
                range.contains(&probe),
                "{range:?} probe {probe}"
            );
        }
        assert!(rs.covers_mask(&mask));
        assert_eq!(rs.intersect_mask(&NodeMask::all(200)), mask);
    }
    // Singleton just past the boundary: 4-byte run vs 17-word bitset.
    let lone = ReachSet::from_mask(&NodeMask::single(NodeId(1023)));
    assert!(matches!(lone, ReachSet::Runs(_)));
    assert_eq!(lone.heap_bytes(), 4);
}

/// A giant generated fabric (>128 hosts, spilled masks everywhere): the
/// reachability queries must agree with their materialized-mask oracles,
/// and the compressed strings must beat the dense layout.
#[test]
fn giant_topology_reach_agrees_with_dense_oracle() {
    let cfg = RandomTopologyConfig {
        num_switches: 200,
        ports_per_switch: 16,
        num_hosts: 2000,
        extra_links: ExtraLinks::Fraction(0.75),
        seed: 9,
    };
    let net = Network::analyze(gen::generate(&cfg).unwrap()).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xFA8);
    let n = net.topo.num_nodes();
    for (s, sw) in net.topo.switches() {
        // cover == union of port strings, via materialized masks.
        let mut union = NodeMask::EMPTY;
        for p in 0..sw.num_ports() {
            union = union.union(net.reach.port(s, PortIdx(p as u8)));
        }
        let cover = net.reach.cover(s);
        assert_eq!(union, cover);
        // covers / take_covered against random destination sets.
        let (q, _) = random_set(&mut rng, n, 10);
        assert_eq!(net.reach.covers(s, &q), cover.covers(&q));
        assert_eq!(net.reach.take_covered(s, &q), cover.intersection(&q));
        // partition: exact cover, disjoint, lowest-port-first.
        let dests = cover.intersection(&q);
        let parts = net.reach.partition(&net.topo, s, &dests);
        let mut seen = NodeMask::EMPTY;
        for (p, m) in &parts {
            assert!(!m.is_empty());
            assert!(seen.intersection(m).is_empty(), "duplicate delivery at {s}");
            assert!(net.reach.port(s, *p).covers(m));
            seen = seen.union(m);
        }
        assert_eq!(seen, dests, "partition must cover exactly at {s}");
    }
    // The whole point at scale: compressed strings are much smaller than
    // the dense bit-string layout.
    assert!(
        net.reach.resident_bytes() < net.reach.dense_equivalent_bytes() / 2,
        "resident {} vs dense {}",
        net.reach.resident_bytes(),
        net.reach.dense_equivalent_bytes()
    );
}
