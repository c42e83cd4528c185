//! A worm cut off mid-flight is purged from its own head onward.
//!
//! When a fault severs worm W on a channel while W's head is still on
//! the wire, the tail of the worm V ahead of it on that channel may be
//! on the wire too. V is intact: its tail must land, so V's frame (at a
//! switch input) or V's packet (at an NI) still completes.

use irrnet_sim::{McastId, SendSpec, SimConfig, Simulator, StaticProtocol, TraceEvent};
use irrnet_topology::{
    FaultEvent, FaultKind, FaultPlan, LinkId, Network, NodeId, NodeMask, TopologyBuilder,
};

const PAYLOAD: u32 = 32;
const LIMIT: u64 = 1_000_000;

/// Small packets and input buffers that hold exactly one worm, so the
/// second packet queues upstream of a stalled first one.
fn cfg() -> SimConfig {
    let mut c = SimConfig::paper_default();
    c.o_send_host = 10;
    c.o_recv_host = 10;
    c.o_send_ni = 10;
    c.o_recv_ni = 10;
    c.packet_payload_flits = PAYLOAD;
    c.input_buffer_flits = PAYLOAD + c.unicast_header_flits;
    c.adaptive = false;
    c.watchdog_cycles = 10_000;
    c
}

/// Message 0 sends two packets, V then W, back to back from `src` to
/// `dest` across `feed`, the link into switch S. Message 1 holds S's
/// output toward `dest` while V arrives, so V stalls at S with W queued
/// behind it: S then sends W's head the cycle after V's tail. With
/// `kill_at`, `feed` dies at that cycle. The auditor checks every sweep.
fn run(
    net: &Network,
    src: NodeId,
    contender: NodeId,
    dest: NodeId,
    feed: LinkId,
    kill_at: Option<u64>,
) -> Simulator<'_, StaticProtocol> {
    let mut proto = StaticProtocol::new();
    proto.set_launch(McastId(0), vec![(src, SendSpec::Unicast { dest })]);
    proto.set_launch(McastId(1), vec![(contender, SendSpec::Unicast { dest })]);
    let mut sim = Simulator::new(net, cfg(), proto).unwrap();
    sim.schedule_multicast(0, McastId(0), NodeMask::single(dest), 2 * PAYLOAD);
    sim.schedule_multicast(0, McastId(1), NodeMask::single(dest), PAYLOAD);
    if let Some(at) = kill_at {
        sim.install_faults(&FaultPlan::scheduled(vec![FaultEvent {
            at,
            kind: FaultKind::Link(feed),
        }]));
    }
    sim.enable_trace();
    sim.enable_audit();
    sim
}

/// Kill `feed` at every cycle in which V has landed whole at S and W has
/// not: the fault kills W's partial frame at S and severs W's copy
/// downstream. Every such run must drain without a deadlock or a
/// watchdog recovery, and V must reach `dest`'s NI.
fn kill_feed_while_w_streams(
    net: &Network,
    src: NodeId,
    contender: NodeId,
    dest: NodeId,
    feed: LinkId,
) {
    let worm = u64::from(PAYLOAD + cfg().unicast_header_flits);
    // Flits sent across `feed` by the end of each cycle, on a healthy run.
    let mut healthy = run(net, src, contender, dest, feed, None);
    let mut sent = Vec::new();
    while sent.last().is_none_or(|&s| s < 2 * worm) {
        let t = sent.len() as u64 + 1;
        healthy.run_until(t).unwrap();
        assert_eq!(healthy.now(), t, "the run drained before W crossed `feed`");
        let per_dir = &healthy.stats().link_flits_per_dir;
        sent.push(per_dir[2 * feed.idx()] + per_dir[2 * feed.idx() + 1]);
    }
    // A fault at cycle c keeps what landed by c - 1, that is, what was
    // sent by c - 3 (crossbar and link delays of one cycle each).
    let window: Vec<u64> = (3..sent.len() as u64)
        .filter(|&c| (worm..2 * worm).contains(&sent[c as usize - 3]))
        .collect();
    assert!(window.len() > 10, "W never streamed through S: {window:?}");
    for &c in &window {
        let mut sim = run(net, src, contender, dest, feed, Some(c));
        sim.run_until(LIMIT).unwrap_or_else(|e| panic!("kill at {c}: {e:?}"));
        let trace = sim.take_trace().unwrap();
        let v_landed = trace.events().iter().any(|(_, ev)| {
            matches!(ev, TraceEvent::PacketAtNi { mcast: McastId(0), pkt: 0, .. })
        });
        assert!(v_landed, "kill at {c}: packet 0 never reached its NI");
        assert_eq!(sim.stats().net.watchdog_recoveries, 0, "kill at {c}");
    }
}

/// S is the destination's switch: W is severed at the destination NI.
/// Switches A, S, B form a triangle, so losing A–S leaves A–B–S.
#[test]
fn severed_worm_at_an_ni_leaves_the_worm_ahead_whole() {
    let mut b = TopologyBuilder::new();
    let (a, s, bb) = (b.add_switch(4), b.add_switch(4), b.add_switch(4));
    let feed = b.add_link(a, s).unwrap();
    b.add_link(s, bb).unwrap();
    b.add_link(bb, a).unwrap();
    let src = b.add_host(a).unwrap();
    let dest = b.add_host(s).unwrap();
    let contender = b.add_host(s).unwrap();
    let net = Network::analyze(b.build().unwrap()).unwrap();
    kill_feed_while_w_streams(&net, src, contender, dest, feed);
}

/// S is an inner switch: W is severed at the input of the destination's
/// switch D. Switches A, S, D, C, B form a ring, so V routes A–S–D and
/// losing A–S leaves A–B–C–D.
#[test]
fn severed_worm_at_a_switch_input_leaves_the_worm_ahead_whole() {
    let mut b = TopologyBuilder::new();
    let sw: Vec<_> = (0..5).map(|_| b.add_switch(4)).collect();
    let feed = b.add_link(sw[0], sw[1]).unwrap();
    for i in 1..5 {
        b.add_link(sw[i], sw[(i + 1) % 5]).unwrap();
    }
    let src = b.add_host(sw[0]).unwrap();
    let dest = b.add_host(sw[2]).unwrap();
    let contender = b.add_host(sw[1]).unwrap();
    let net = Network::analyze(b.build().unwrap()).unwrap();
    kill_feed_while_w_streams(&net, src, contender, dest, feed);
}
