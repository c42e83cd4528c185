//! Header encodings and architectural costs (§3.2.3–§3.3).
//!
//! The paper compares the three enhanced schemes qualitatively on header
//! size, encoding/decoding complexity, and per-switch state. This module
//! makes those costs computable so the `tab01_arch_costs` harness can
//! print them quantitatively for any system size.

use crate::plan::McastPlan;
use irrnet_sim::SendSpec;
use irrnet_topology::{Network, NodeMask};

/// Wire-format costs of one multicast under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderCosts {
    /// Total header bytes put on the wire at injection time, summed over
    /// every worm the plan transmits (1 byte = 1 flit).
    pub total_header_bytes: usize,
    /// Largest single worm header in bytes.
    pub max_header_bytes: usize,
    /// Worm count.
    pub worms: usize,
}

/// Compute the injected header bytes of a plan.
pub fn header_costs(net: &Network, plan: &McastPlan) -> HeaderCosts {
    let n = net.topo.num_nodes();
    let cfg = irrnet_sim::SimConfig::paper_default();
    let mut total = 0usize;
    let mut max = 0usize;
    let mut worms = 0usize;
    for spec in plan.initial.iter().chain(plan.on_delivered.values().flatten()) {
        let h = spec.header_flits(&cfg, n) as usize;
        let copies = spec.copies_per_packet();
        total += h * copies;
        max = max.max(h);
        worms += copies;
    }
    // FPFS-style interior forwarding: each interior node re-injects one
    // unicast copy per child. Capability-driven — the table is only
    // populated by schemes declaring `ni_forwarding`.
    if plan.scheme.caps().ni_forwarding {
        for kids in plan.fpfs_children.values() {
            let h = cfg.unicast_header_flits as usize;
            total += h * kids.len();
            worms += kids.len();
            max = max.max(h);
        }
    }
    // Hybrid NI+switch forwarding: leaders inject path worms at the NI.
    for specs in plan.ni_path_forwards.values() {
        for spec in specs {
            let h = cfg.path_header_flits(spec.stops.len()) as usize;
            total += h;
            worms += 1;
            max = max.max(h);
        }
    }
    // Software binomial forwarding copies are already in `on_delivered`.
    let _ = SendSpec::Unicast { dest: irrnet_topology::NodeId(0) }; // (type anchor)
    HeaderCosts { total_header_bytes: total, max_header_bytes: max, worms }
}

/// Per-switch decode state the tree-based scheme requires: reachability
/// strings on every downward port (§3.3 — "space is required at the
/// switches ... the cost of such logic may be significant"). Returned in
/// bits, summed over all switches.
pub fn tree_scheme_switch_state_bits(net: &Network) -> usize {
    let n = net.topo.num_nodes();
    net.topo
        .switches()
        .map(|(s, _)| net.reach.state_bits(&net.topo, &net.updown, s, n))
        .sum()
}

/// Per-switch decode state the path-based scheme requires: none beyond
/// the unicast routing table (§3.3 — "no necessity for maintaining
/// reachability strings"). Provided for symmetry in the cost table.
pub fn path_scheme_switch_state_bits(_net: &Network) -> usize {
    0
}

/// NI memory the NI-based scheme needs at one node, in packet-buffers:
/// a forwarding node must hold a packet until all replicas are injected.
/// The worst case is the maximum fan-out of the k-binomial tree.
pub fn fpfs_ni_buffer_packets(plan: &McastPlan) -> usize {
    plan.fpfs_children
        .values()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(plan.meta.k)
}

/// Bit-string header size in bytes for an `n`-node system (the encoding
/// cost that grows with system size, unlike the path-based encoding).
pub fn bitstring_bytes(n_nodes: usize) -> usize {
    NodeMask::header_bytes(n_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_plan_multicast, SchemeId};
    use irrnet_sim::SimConfig;
    use irrnet_topology::{zoo, Network, NodeId};

    fn setup() -> (Network, SimConfig, NodeMask) {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let dests = NodeMask::from_nodes((1..=15).map(NodeId));
        (net, cfg, dests)
    }

    #[test]
    fn tree_scheme_has_one_big_header() {
        let (net, cfg, dests) = setup();
        let p = try_plan_multicast(&net, &cfg, SchemeId::TREE, NodeId(0), dests, 128).unwrap();
        let c = header_costs(&net, &p);
        assert_eq!(c.worms, 1);
        assert_eq!(c.max_header_bytes, cfg.tree_header_flits(32) as usize);
    }

    #[test]
    fn fpfs_total_header_scales_with_destinations() {
        let (net, cfg, dests) = setup();
        let p = try_plan_multicast(&net, &cfg, SchemeId::NI_FPFS, NodeId(0), dests, 128).unwrap();
        let c = header_costs(&net, &p);
        assert_eq!(c.worms, 15, "one unicast worm per destination");
        assert_eq!(c.total_header_bytes, 15 * cfg.unicast_header_flits as usize);
    }

    #[test]
    fn switch_state_grows_with_system_size() {
        let (net, _, _) = setup();
        let bits = tree_scheme_switch_state_bits(&net);
        // 32-node system: every downward port carries 32 bits.
        assert!(bits > 0);
        assert_eq!(bits % 32, 0);
        assert_eq!(path_scheme_switch_state_bits(&net), 0);
    }

    #[test]
    fn fpfs_buffer_requirement_is_fanout() {
        let (net, cfg, dests) = setup();
        let p = try_plan_multicast(&net, &cfg, SchemeId::NI_FPFS, NodeId(0), dests, 128).unwrap();
        assert!(fpfs_ni_buffer_packets(&p) >= 1);
    }

    #[test]
    fn bitstring_grows_with_nodes() {
        assert_eq!(bitstring_bytes(32), 4);
        assert_eq!(bitstring_bytes(64), 8);
        assert_eq!(bitstring_bytes(65), 9);
    }
}
