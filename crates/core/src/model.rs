//! Closed-form latency models for idle-network (single-multicast)
//! conditions.
//!
//! The simulator is the ground truth; these models exist to (a) validate
//! it — the unicast model is *exact* on an idle network and is asserted
//! `==` against simulation in the test suite — and (b) give planners and
//! users instant estimates without running a simulation (the k-binomial
//! `choose_k` already uses the FPFS variant in
//! [`crate::kbinomial::estimate_fpfs_completion`]).
//!
//! Notation matches the engine: a message of `m` packets crosses
//! `O_{s,h}` → per-packet DMA → `O_{s,ni}` (first packet; light handling
//! after) → injection at one flit/cycle → per-switch pipeline of
//! (header re-accumulation + routing + crossbar + link) → `O_{r,ni}` →
//! DMA → `O_{r,h}`.

use irrnet_sim::SimConfig;
use irrnet_topology::{Network, NodeId, NodeMask, Phase};

/// Idle-network latency models.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel<'n> {
    net: &'n Network,
    cfg: &'n SimConfig,
}

impl<'n> LatencyModel<'n> {
    /// Bind a model to a network and configuration.
    pub fn new(net: &'n Network, cfg: &'n SimConfig) -> Self {
        LatencyModel { net, cfg }
    }

    /// **Exact** end-to-end latency of one unicast message on an idle
    /// network (matches the simulator cycle for cycle; asserted in
    /// tests).
    ///
    /// The model chains five pipelines exactly as the engine does:
    /// source I/O bus → source NI → injection link → per-switch
    /// cut-through (header re-accumulation + routing + crossbar + link)
    /// → destination NI / I/O bus / host CPU.
    pub fn unicast(&self, src: NodeId, dst: NodeId, message_flits: u32) -> u64 {
        let cfg = self.cfg;
        let m = cfg.packets_for(message_flits);
        let h = cfg.unicast_header_flits as u64;
        let hops = self
            .net
            .routing
            .distance(
                self.net.topo.host_switch(src),
                Phase::Up,
                self.net.topo.host_switch(dst),
            ) as u64
            + 1; // switches traversed = inter-switch hops + 1

        let payload = |pkt: u32| cfg.packet_payload(message_flits, pkt);
        let wire = |pkt: u32| h + payload(pkt) as u64;
        // Time from a packet's last flit leaving the source NI to its
        // last flit entering the destination NI: one injection-link hop,
        // then per switch the header re-accumulates ((h-1) flit-times),
        // pays routing, and the flit crosses crossbar+link.
        let tail = cfg.link_delay
            + hops * (h - 1 + cfg.routing_delay + cfg.crossbar_delay + cfg.link_delay);

        // Source side: bus → NI → injection link, all FIFO.
        let mut bus_done = cfg.o_send_host;
        let mut tx_done = 0u64;
        let mut inj_end = 0u64;
        // Destination side.
        let mut rx_done = 0u64;
        let mut dbus_done = 0u64;
        for pkt in 0..m {
            bus_done += cfg.dma_cycles(payload(pkt));
            let tx_cost = if pkt == 0 { cfg.o_send_ni } else { cfg.o_ni_per_packet() };
            tx_done = tx_done.max(bus_done) + tx_cost;
            inj_end = inj_end.max(tx_done) + wire(pkt);
            // `inj_end` is exclusive (one past the last flit's send
            // cycle), hence the −1.
            let arrival = inj_end + tail - 1;
            let rx_cost = if pkt == 0 { cfg.o_recv_ni } else { cfg.o_ni_per_packet() };
            rx_done = rx_done.max(arrival) + rx_cost;
            dbus_done = dbus_done.max(rx_done) + cfg.dma_cycles(payload(pkt));
        }
        dbus_done + cfg.o_recv_host
    }

    /// Approximate latency of a tree-based single-worm multicast: the
    /// slowest destination's pipeline, ignoring replication skew (each
    /// switch replicates in a single cycle per flit). Accurate to within
    /// a few header-times; asserted within 15% in tests.
    pub fn tree_worm(&self, src: NodeId, dests: NodeMask, message_flits: u32) -> u64 {
        let cfg = self.cfg;
        let n = self.net.topo.num_nodes();
        let h = cfg.tree_header_flits(n) as u64;
        let src_sw = self.net.topo.host_switch(src);
        let plan = irrnet_topology::ApexPlan::compute(
            &self.net.topo,
            &self.net.updown,
            &self.net.reach,
            src_sw,
            dests.clone(),
        );
        let up = plan.up_distance(src_sw) as u64;
        // Worst down distance from any covering switch at that height:
        // bound by the up*/down* distance from the source switch.
        let max_hops = dests
            .iter()
            .map(|d| {
                let t = self.net.topo.host_switch(d);
                self.net.routing.distance(src_sw, Phase::Up, t) as u64
            })
            .max()
            .unwrap_or(0)
            .max(up)
            + 1;
        let m = cfg.packets_for(message_flits);
        let payload = |pkt: u32| cfg.packet_payload(message_flits, pkt);
        let wire = |pkt: u32| h + payload(pkt) as u64;
        let tail = cfg.link_delay
            + max_hops * (h - 1 + cfg.routing_delay + cfg.crossbar_delay + cfg.link_delay);
        let mut bus_done = cfg.o_send_host;
        let mut tx_done = 0u64;
        let mut inj_end = 0u64;
        let mut rx_done = 0u64;
        let mut dbus_done = 0u64;
        for pkt in 0..m {
            bus_done += cfg.dma_cycles(payload(pkt));
            let tx_cost = if pkt == 0 { cfg.o_send_ni } else { cfg.o_ni_per_packet() };
            tx_done = tx_done.max(bus_done) + tx_cost;
            inj_end = inj_end.max(tx_done) + wire(pkt);
            let arrival = inj_end + tail - 1;
            let rx_cost = if pkt == 0 { cfg.o_recv_ni } else { cfg.o_ni_per_packet() };
            rx_done = rx_done.max(arrival) + rx_cost;
            dbus_done = dbus_done.max(rx_done) + cfg.dma_cycles(payload(pkt));
        }
        dbus_done + cfg.o_recv_host
    }

    /// Lower bound on any scheme's latency: the mandatory overhead chain
    /// plus the wire time of the whole message to the farthest
    /// destination. The receive-side NI/DMA work of the *last* packet is
    /// counted at its cheapest (overlapped) cost, so the bound holds for
    /// multi-packet pipelining too.
    pub fn lower_bound(&self, src: NodeId, dests: NodeMask, message_flits: u32) -> u64 {
        let cfg = self.cfg;
        let src_sw = self.net.topo.host_switch(src);
        let m = cfg.packets_for(message_flits);
        let hops = dests
            .iter()
            .map(|d| self.net.routing.distance(src_sw, Phase::Up, self.net.topo.host_switch(d)))
            .max()
            .unwrap_or(0) as u64
            + 1;
        let last_rx = if m == 1 { cfg.o_recv_ni } else { cfg.o_ni_per_packet() };
        cfg.o_send_host
            + cfg.dma_cycles(cfg.packet_payload(message_flits, 0))
            + cfg.o_send_ni
            + message_flits as u64
            + hops * cfg.hop_latency()
            + last_rx
            + cfg.dma_cycles(cfg.packet_payload(message_flits, m - 1))
            + cfg.o_recv_host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_plan_multicast, SchemeId, SchemeProtocol};
    use irrnet_sim::{McastId, Simulator};
    use irrnet_topology::{gen, zoo, RandomTopologyConfig};
    use std::sync::Arc;

    fn simulate(
        net: &Network,
        cfg: &SimConfig,
        scheme: SchemeId,
        src: NodeId,
        dests: NodeMask,
        msg: u32,
    ) -> u64 {
        let plan = try_plan_multicast(net, cfg, scheme, src, dests.clone(), msg).unwrap();
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(0), Arc::new(plan));
        let mut sim = Simulator::new(net, cfg.clone(), proto).unwrap();
        sim.schedule_multicast(0, McastId(0), dests, msg);
        sim.run_to_completion(100_000_000).unwrap();
        sim.stats().latency_of(McastId(0)).unwrap()
    }

    #[test]
    fn unicast_model_is_exact_on_chains() {
        let cfg = SimConfig::paper_default();
        for n in 2..=5 {
            let net = Network::analyze(zoo::chain(n).unwrap()).unwrap();
            let model = LatencyModel::new(&net, &cfg);
            for msg in [16u32, 128, 300, 512] {
                let dst = NodeId((n - 1) as u16);
                let predicted = model.unicast(NodeId(0), dst, msg);
                let single = NodeMask::single(dst);
                let measured = simulate(&net, &cfg, SchemeId::UBINOMIAL, NodeId(0), single, msg);
                assert_eq!(predicted, measured, "chain({n}) msg={msg}");
            }
        }
    }

    #[test]
    fn unicast_model_is_exact_on_random_topologies() {
        let cfg = SimConfig::paper_default();
        for seed in 0..5 {
            let net = Network::analyze(
                gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap(),
            )
            .unwrap();
            let model = LatencyModel::new(&net, &cfg);
            for (s, d) in [(0u16, 31u16), (5, 17), (30, 2)] {
                let predicted = model.unicast(NodeId(s), NodeId(d), 128);
                let measured = simulate(
                    &net,
                    &cfg,
                    SchemeId::UBINOMIAL,
                    NodeId(s),
                    NodeMask::single(NodeId(d)),
                    128,
                );
                assert_eq!(predicted, measured, "seed {seed} {s}->{d}");
            }
        }
    }

    #[test]
    fn tree_model_tracks_simulation_within_15_percent() {
        let cfg = SimConfig::paper_default();
        for seed in 0..5 {
            let net = Network::analyze(
                gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap(),
            )
            .unwrap();
            let model = LatencyModel::new(&net, &cfg);
            let dests = NodeMask::from_nodes((1..=16).map(NodeId));
            for msg in [128u32, 512] {
                let predicted = model.tree_worm(NodeId(0), dests.clone(), msg) as f64;
                let measured =
                    simulate(&net, &cfg, SchemeId::TREE, NodeId(0), dests.clone(), msg) as f64;
                let err = (predicted - measured).abs() / measured;
                assert!(
                    err < 0.15,
                    "seed {seed} msg {msg}: predicted {predicted} vs {measured} ({:.1}%)",
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn lower_bound_is_a_lower_bound() {
        let cfg = SimConfig::paper_default();
        let net = Network::analyze(
            gen::generate(&RandomTopologyConfig::paper_default(3)).unwrap(),
        )
        .unwrap();
        let model = LatencyModel::new(&net, &cfg);
        let dests = NodeMask::from_nodes((1..=12).map(NodeId));
        for scheme in SchemeId::BUILTIN {
            for msg in [128u32, 512] {
                let lb = model.lower_bound(NodeId(0), dests.clone(), msg);
                let measured = simulate(&net, &cfg, scheme, NodeId(0), dests.clone(), msg);
                assert!(
                    lb <= measured,
                    "{scheme} msg {msg}: bound {lb} > measured {measured}"
                );
            }
        }
    }
}
