//! Seeded random generation of connected irregular topologies.
//!
//! The paper evaluates on randomly generated irregular topologies
//! ("Using this method we generated ⟨several⟩ different topologies, and our
//! results are averaged over all these topologies", §4.1, citing the
//! authors' CSIM testbed paper). We reproduce the spirit of that method:
//!
//! 1. connect the switches with a uniformly random spanning tree
//!    (guaranteeing connectivity),
//! 2. scatter the hosts over the free ports as evenly as the random draw
//!    allows,
//! 3. add extra inter-switch links between random port-free switch pairs
//!    (parallel links allowed, self links not) on the ports left over.
//!
//! Everything is driven by a seeded [`SmallRng`] (the in-repo
//! deterministic xoshiro256** generator), so a `(config, seed)` pair
//! always yields the same topology.
//!
//! Each step keeps its list of candidate switches up to date as ports
//! are taken, instead of rescanning the switches for every draw, and
//! every draw sees the same ascending list, of the same length, that a
//! rescan would build. For `S` switches, `H` hosts and `A` extra-link
//! attempts:
//!
//! 1. the tree costs O(S): a child joins the list of attached switches
//!    with a free port, and a parent leaves it when it fills;
//! 2. each host costs one draw from the bucket of switches with the most
//!    free ports and a move of the pick to its sorted place one bucket
//!    down, two shifts of at most `S` two-byte ids: O(H·S) bytes moved,
//!    which is under a millisecond at 1024 switches and 10,240 hosts;
//! 3. the extra links cost O(S + A), plus one shift of the list for each
//!    switch that fills.

use crate::builder::TopologyBuilder;
use crate::error::TopologyError;
use crate::graph::Topology;
use crate::ids::SwitchId;
use crate::rng::SmallRng;

/// How many extra (non-spanning-tree) inter-switch links to add.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtraLinks {
    /// An absolute number of extra links.
    Count(usize),
    /// `fraction * (num_switches - 1)` extra links (rounded down). The
    /// default `0.75` gives the paper's default network (8 switches) a
    /// total of 7 + 5 = 12 inter-switch links, leaving a few ports open.
    Fraction(f64),
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomTopologyConfig {
    /// Number of switches.
    pub num_switches: usize,
    /// Ports per switch (the paper uses 8-port switches).
    pub ports_per_switch: u8,
    /// Number of hosts (processing nodes) to attach.
    pub num_hosts: usize,
    /// Extra links beyond the random spanning tree.
    pub extra_links: ExtraLinks,
    /// RNG seed; same seed + config = same topology.
    pub seed: u64,
}

impl RandomTopologyConfig {
    /// The paper's default system: 32 nodes, eight 8-port switches.
    pub fn paper_default(seed: u64) -> Self {
        RandomTopologyConfig {
            num_switches: 8,
            ports_per_switch: 8,
            num_hosts: 32,
            extra_links: ExtraLinks::Fraction(0.75),
            seed,
        }
    }

    /// The paper's Fig. 7 / Fig. 10 variants: same 32 nodes spread over
    /// more switches ("we increased the number of switches used while
    /// keeping the system size constant").
    pub fn with_switches(seed: u64, num_switches: usize) -> Self {
        RandomTopologyConfig { num_switches, ..Self::paper_default(seed) }
    }

    /// Resolve the extra-link knob to an absolute count.
    pub fn extra_link_count(&self) -> usize {
        match self.extra_links {
            ExtraLinks::Count(c) => c,
            ExtraLinks::Fraction(f) => ((self.num_switches.saturating_sub(1)) as f64 * f) as usize,
        }
    }

    /// Canonical one-line encoding of every field. Equal configs produce
    /// equal strings; this is the cache key and manifest serialization
    /// used by the experiment harness.
    pub fn canonical_string(&self) -> String {
        let extra = match self.extra_links {
            ExtraLinks::Count(c) => format!("count:{c}"),
            ExtraLinks::Fraction(f) => format!("frac:{f:?}"),
        };
        format!(
            "topo{{switches={},ports={},hosts={},extra={},seed={}}}",
            self.num_switches, self.ports_per_switch, self.num_hosts, extra, self.seed
        )
    }

    /// Stable 64-bit fingerprint of the config (FNV-1a over
    /// [`Self::canonical_string`]); identical across runs and platforms.
    pub fn stable_hash(&self) -> u64 {
        crate::rng::fnv1a(self.canonical_string().as_bytes())
    }
}

/// Generate a random connected irregular topology.
///
/// Fails if the port budget cannot fit the spanning tree plus hosts
/// (extra links are best-effort: they are dropped when no port-free pair
/// remains, so a huge count fills every free port), or if an extra-link
/// fraction is NaN, infinite or negative.
pub fn generate(cfg: &RandomTopologyConfig) -> Result<Topology, TopologyError> {
    if cfg.num_switches == 0 || cfg.num_hosts == 0 {
        return Err(TopologyError::Empty);
    }
    if cfg.num_switches > Topology::MAX_SWITCHES {
        return Err(TopologyError::TooManySwitches(cfg.num_switches));
    }
    if let ExtraLinks::Fraction(f) = cfg.extra_links {
        if !(f.is_finite() && f >= 0.0) {
            return Err(TopologyError::BadExtraLinks(format!("{f}")));
        }
    }
    let total_ports = cfg.num_switches * cfg.ports_per_switch as usize;
    let needed = cfg.num_hosts + 2 * (cfg.num_switches - 1);
    if needed > total_ports {
        return Err(TopologyError::InsufficientPorts { needed, available: total_ports });
    }

    let short = || TopologyError::InsufficientPorts { needed, available: total_ports };

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut b = TopologyBuilder::new();
    for _ in 0..cfg.num_switches {
        b.add_switch(cfg.ports_per_switch);
    }
    // Candidate lists hold switch ids as `u16`, the `SwitchId` space.
    let ids = || (0..cfg.num_switches).map(|s| s as u16);
    let free = |b: &TopologyBuilder, s: u16| b.free_ports(SwitchId(s));

    // 1. Random spanning tree: attach each switch (in random order) to a
    //    uniformly random already-attached switch that still has a free
    //    port (a pure uniform choice could exhaust one switch in
    //    star-shaped draws). `open` lists those switches in attach order.
    let mut order: Vec<u16> = ids().collect();
    shuffle(&mut order, &mut rng);
    let mut open: Vec<u16> = order[..1].iter().copied().filter(|&s| free(&b, s) > 0).collect();
    for &child in &order[1..] {
        let k = rng.gen_range(0..open.len().max(1));
        let parent = *open.get(k).ok_or_else(short)?;
        b.add_link(SwitchId(parent), SwitchId(child))?;
        if free(&b, parent) == 0 {
            open.remove(k);
        }
        if free(&b, child) > 0 {
            open.push(child);
        }
    }

    // 2. Hosts on random free ports, spread as evenly as possible: each
    //    round attaches one host to a random switch among those with the
    //    most free ports, which mirrors the roughly even node counts of
    //    the paper's figures while staying irregular. Hosts come before
    //    the extra links, which are best-effort. `by_free[f]` lists the
    //    switches with `f > 0` free ports in id order; a pick moves to
    //    its sorted place one bucket down, and a full switch leaves.
    let mut by_free: Vec<Vec<u16>> = vec![Vec::new(); cfg.ports_per_switch as usize + 1];
    for s in ids().filter(|&s| free(&b, s) > 0) {
        by_free[free(&b, s)].push(s);
    }
    let mut top = by_free.len() - 1;
    for _ in 0..cfg.num_hosts {
        while top > 0 && by_free[top].is_empty() {
            top -= 1;
        }
        if top == 0 {
            return Err(short());
        }
        let bucket = &mut by_free[top];
        let pick = bucket.remove(rng.gen_range(0..bucket.len()));
        b.add_host(SwitchId(pick))?;
        if top > 1 {
            let below = &mut by_free[top - 1];
            below.insert(below.partition_point(|&s| s < pick), pick);
        }
    }

    // 3. Extra links between random switch pairs with free ports. `open`
    //    lists those switches in id order; a full switch leaves.
    let mut open: Vec<u16> = ids().filter(|&s| free(&b, s) > 0).collect();
    let mut extra = cfg.extra_link_count();
    let mut attempts = 0usize;
    // The bound shrinks as links are placed; a saturated count (a huge
    // fraction) must not wrap it to 0.
    while extra > 0 && attempts < extra.saturating_add(1).saturating_mul(64) {
        attempts += 1;
        if open.len() < 2 {
            break;
        }
        let a = open[rng.gen_range(0..open.len())];
        let c = open[rng.gen_range(0..open.len())];
        if a == c {
            continue;
        }
        b.add_link(SwitchId(a), SwitchId(c))?;
        for s in [a, c] {
            if free(&b, s) == 0 {
                open.remove(open.partition_point(|&x| x < s));
            }
        }
        extra -= 1;
    }

    b.build()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updown::UpDown;

    #[test]
    fn paper_default_shape() {
        let t = generate(&RandomTopologyConfig::paper_default(0)).unwrap();
        assert_eq!(t.num_switches(), 8);
        assert_eq!(t.num_nodes(), 32);
        // 7 tree links + up to 5 extra
        assert!(t.num_links() >= 7 && t.num_links() <= 12, "{}", t.num_links());
        t.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&RandomTopologyConfig::paper_default(42)).unwrap();
        let b = generate(&RandomTopologyConfig::paper_default(42)).unwrap();
        assert_eq!(a.num_links(), b.num_links());
        for ((_, la), (_, lb)) in a.links().zip(b.links()) {
            assert_eq!(la, lb);
        }
        for ((_, ha), (_, hb)) in a.hosts().zip(b.hosts()) {
            assert_eq!(ha, hb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&RandomTopologyConfig::paper_default(1)).unwrap();
        let b = generate(&RandomTopologyConfig::paper_default(2)).unwrap();
        let same = a
            .links()
            .zip(b.links())
            .all(|((_, la), (_, lb))| la == lb)
            && a.num_links() == b.num_links();
        assert!(!same, "seeds 1 and 2 produced identical topologies");
    }

    #[test]
    fn many_switches_variant() {
        for s in [8, 16, 32] {
            let t = generate(&RandomTopologyConfig::with_switches(7, s)).unwrap();
            assert_eq!(t.num_switches(), s);
            assert_eq!(t.num_nodes(), 32);
            let ud = UpDown::compute(&t, SwitchId(0)).unwrap();
            ud.verify_acyclic(&t).unwrap();
        }
    }

    #[test]
    fn infeasible_config_rejected() {
        let cfg = RandomTopologyConfig {
            num_switches: 2,
            ports_per_switch: 4,
            num_hosts: 8,
            extra_links: ExtraLinks::Count(0),
            seed: 0,
        };
        assert!(matches!(
            generate(&cfg),
            Err(TopologyError::InsufficientPorts { .. })
        ));
    }

    #[test]
    fn switch_counts_past_the_switch_id_space_are_an_error() {
        let cfg = |num_switches| RandomTopologyConfig {
            num_switches,
            ports_per_switch: 4,
            num_hosts: 10,
            extra_links: ExtraLinks::Count(0),
            seed: 0,
        };
        let n = Topology::MAX_SWITCHES + 1;
        assert_eq!(generate(&cfg(n)).unwrap_err(), TopologyError::TooManySwitches(n));
        let msg = TopologyError::TooManySwitches(n).to_string();
        assert!(msg.contains("65537") && msg.contains("65536"), "{msg}");
    }

    #[test]
    fn extra_link_fractions_are_validated_and_saturate() {
        for f in [f64::NAN, f64::INFINITY, -1.0] {
            let cfg = RandomTopologyConfig {
                extra_links: ExtraLinks::Fraction(f),
                ..RandomTopologyConfig::paper_default(0)
            };
            assert!(matches!(generate(&cfg), Err(TopologyError::BadExtraLinks(_))), "{f}");
        }
        // A count that saturates usize fills every free port, exactly as
        // any count beyond the free ports does.
        let links = |f| {
            let cfg = RandomTopologyConfig {
                extra_links: ExtraLinks::Fraction(f),
                ..RandomTopologyConfig::paper_default(0)
            };
            generate(&cfg).unwrap().links().map(|(_, l)| *l).collect::<Vec<_>>()
        };
        assert_eq!(links(1e30), links(1e3));
        assert!(links(1e3).len() > links(0.75).len());
    }

    #[test]
    fn hosts_spread_roughly_evenly() {
        // Link ports consume a varying share of each switch, so perfect
        // evenness is impossible; every switch must still host at least
        // one node and the spread must stay narrow enough to keep the
        // "≈4 nodes per switch" shape of the paper's default system.
        let mut spread_sum = 0;
        for seed in 0..12 {
            let t = generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
            let counts: Vec<usize> = t.switches().map(|(s, _)| t.nodes_at(s).len()).collect();
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            assert!(*min >= 1 && max - min <= 4, "host spread too uneven: {counts:?}");
            spread_sum += max - min;
        }
        assert!(spread_sum <= 12 * 3, "typical spread too wide: {spread_sum}");
    }

    #[test]
    fn canonical_string_distinguishes_configs() {
        let a = RandomTopologyConfig::paper_default(0);
        let mut b = a.clone();
        assert_eq!(a.canonical_string(), b.clone().canonical_string());
        assert_eq!(a.stable_hash(), b.stable_hash());
        b.seed = 1;
        assert_ne!(a.canonical_string(), b.canonical_string());
        assert_ne!(a.stable_hash(), b.stable_hash());
        let c = RandomTopologyConfig { extra_links: ExtraLinks::Count(5), ..a.clone() };
        assert_ne!(a.stable_hash(), c.stable_hash());
    }

    #[test]
    fn all_seeds_analyzable() {
        for seed in 0..10 {
            let t = generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
            crate::Network::analyze(t).unwrap();
        }
    }
}
