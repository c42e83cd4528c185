//! The event-driven engine must be an invisible optimization: parking
//! components on the wake heap and jumping the clock over dead cycles
//! has to produce exactly the run a full every-cycle/every-component
//! scan produces — under healthy traffic, under mid-run faults, under
//! retransmission backoff, and through watchdog recovery — and the
//! event-jump fast path must not interact badly with the deadlock
//! watchdog or skip over an invariant-violation window.

use irrnet_sim::{
    InvariantKind, LinkRetryPolicy, McastId, RetxPolicy, SendSpec, SimConfig, SimError,
    Simulator, StaticProtocol, TraceLog,
};
use irrnet_topology::{
    generate, zoo, ApexPlan, ErrorModel, FaultPlan, LinkId, Network, NodeId, NodeMask,
    RandomFaultConfig, RandomTopologyConfig,
};
use std::sync::Arc;

/// A seeded mixed workload on a random irregular network: staggered
/// unicasts plus tree-based multidestination worms, enough overlap to
/// exercise contention, blocked branches and queue growth.
fn mixed_sim(net: &Network, full_scan: bool) -> Simulator<'_, StaticProtocol> {
    mixed_sim_cfg(net, full_scan, SimConfig::paper_default())
}

fn mixed_sim_cfg(
    net: &Network,
    full_scan: bool,
    cfg: SimConfig,
) -> Simulator<'_, StaticProtocol> {
    let nh = net.topo.num_nodes();
    let mut proto = StaticProtocol::new();
    let mut schedule = Vec::new();
    for i in 0..24u32 {
        let id = McastId(u64::from(i));
        let src = NodeId(((i * 7) % nh as u32) as u16);
        let at = u64::from(i) * 97;
        if i % 3 == 0 {
            // Tree worm to a spread destination set.
            let mut dests = NodeMask::default();
            for k in 0..6u32 {
                let d = ((i * 5 + k * 11 + 1) % nh as u32) as u16;
                if NodeId(d) != src {
                    dests.insert(NodeId(d));
                }
            }
            let from = net.topo.host_switch(src);
            let plan = Arc::new(ApexPlan::compute(
                &net.topo,
                &net.updown,
                &net.reach,
                from,
                dests.clone(),
            ));
            proto.set_launch(id, vec![(src, SendSpec::Tree { dests: dests.clone(), plan })]);
            schedule.push((at, id, dests, 96u32));
        } else {
            let dest = NodeId(((i * 13 + 3) % nh as u32) as u16);
            if dest == src {
                continue;
            }
            proto.set_launch(id, vec![(src, SendSpec::Unicast { dest })]);
            schedule.push((at, id, NodeMask::single(dest), 96u32));
        }
    }
    let mut sim = Simulator::new(net, cfg, proto).unwrap();
    sim.set_full_scan(full_scan);
    for (at, id, dests, msg) in schedule {
        sim.schedule_multicast(at, id, dests, msg);
    }
    sim.enable_trace();
    sim
}

#[test]
fn active_lists_match_full_scan_for_10k_cycles() {
    let topo = generate(&RandomTopologyConfig::paper_default(42)).unwrap();
    let net = Network::analyze(topo).unwrap();

    let run = |full_scan: bool| -> (TraceLog, String, u64) {
        let mut sim = mixed_sim(&net, full_scan);
        sim.run_until(10_000).unwrap();
        let trace = sim.take_trace().unwrap();
        let stats = sim.stats();
        let sweeps = stats.sweeps_run;
        // Records in registration order plus the aggregate counters; the
        // interning map itself is excluded (HashMap debug order is not
        // stable between instances). `sweeps_run` is deliberately left
        // out: it is the one mode-dependent statistic.
        let rendered = format!(
            "{:?} {:?} {} {:?}",
            stats.mcasts.values().collect::<Vec<_>>(),
            stats.net,
            stats.cycles_run,
            stats.link_flits_per_dir,
        );
        (trace, rendered, sweeps)
    };

    let (trace_active, stats_active, sweeps_active) = run(false);
    let (trace_full, stats_full, sweeps_full) = run(true);

    // Same lifecycle events at the same cycles, and identical final
    // statistics (flit counts, buffer peaks, per-mcast deliveries...).
    assert_eq!(trace_active.events(), trace_full.events());
    assert_eq!(stats_active, stats_full);
    // The workload genuinely ran (not a vacuous comparison).
    assert!(!trace_active.events().is_empty());
    // The event scheduler only ever *skips* sweeps, never adds them.
    assert!(
        sweeps_active <= sweeps_full,
        "event mode executed {sweeps_active} sweeps, full scan {sweeps_full}"
    );
}

#[test]
fn host_overhead_gap_longer_than_watchdog_is_not_a_deadlock() {
    // The host-side send overhead dwarfs the watchdog window, so the
    // engine's clock reaches each injection through idle event-jumps.
    // `last_progress` must track those jumps: the post-gap network burst
    // would otherwise start with `now - last_progress` already past the
    // watchdog and a healthy run would be misreported as deadlocked.
    let topo = generate(&RandomTopologyConfig::paper_default(7)).unwrap();
    let net = Network::analyze(topo).unwrap();
    let nh = net.topo.num_nodes() as u32;
    let mut cfg = SimConfig::paper_default();
    cfg.o_send_host = 250_000; // ≫ watchdog
    cfg.watchdog_cycles = 5_000;

    let mut proto = StaticProtocol::new();
    let mut sim = {
        for i in 0..4u32 {
            let src = NodeId(((i * 9) % nh) as u16);
            let dest = NodeId(((i * 9 + 17) % nh) as u16);
            proto.set_launch(McastId(u64::from(i)), vec![(src, SendSpec::Unicast { dest })]);
        }
        Simulator::new(&net, cfg, proto).unwrap()
    };
    for i in 0..4u32 {
        let dest = NodeId(((i * 9 + 17) % nh) as u16);
        sim.schedule_multicast(u64::from(i) * 1_000, McastId(u64::from(i)), NodeMask::single(dest), 64);
    }
    let done = sim
        .run_to_completion(10_000_000)
        .expect("overhead gap misreported as deadlock");
    assert!(done > 250_000, "sends cannot complete before the host overhead elapses");
}

/// Render everything observable about a finished (or failed) run into
/// one comparable string: the outcome itself, every per-mcast record,
/// the aggregate counters, the simulated-cycle count, and the per-link
/// flit tallies. `sweeps_run` is excluded — it is the one deliberately
/// mode-dependent statistic.
fn outcome(sim: &mut Simulator<'_, StaticProtocol>, res: Result<(), SimError>) -> (TraceLog, String) {
    let trace = sim.take_trace().unwrap();
    let stats = sim.stats();
    let rendered = format!(
        "{:?} {:?} {:?} {} {:?}",
        res,
        stats.mcasts.values().collect::<Vec<_>>(),
        stats.net,
        stats.cycles_run,
        stats.link_flits_per_dir,
    );
    (trace, rendered)
}

/// Mid-run faults exercise every wake path the healthy test cannot:
/// worm kills with cascaded strand purges, credits released by drops,
/// switches emptied outside their own sweep (the arbitration catch-up
/// flush), and the post-fault re-arm of every parked component.
#[test]
fn fault_plan_run_matches_full_scan() {
    let topo = generate(&RandomTopologyConfig::paper_default(42)).unwrap();
    let net = Network::analyze(topo).unwrap();
    let plan = FaultPlan::random(
        &net.topo,
        &RandomFaultConfig {
            kills: 4,
            switch_every: 3,
            window: (300, 2_500),
            seed: 0xFA17,
            protect: Vec::new(),
        },
    );

    let run = |full_scan: bool| {
        let mut cfg = SimConfig::paper_default();
        cfg.watchdog_cycles = 5_000;
        cfg.watchdog_recovery_limit = 4;
        let mut sim = mixed_sim_cfg(&net, full_scan, cfg);
        sim.install_faults(&plan);
        let res = sim.run_until(30_000);
        outcome(&mut sim, res)
    };

    let (trace_active, out_active) = run(false);
    let (trace_full, out_full) = run(true);
    assert_eq!(trace_active.events(), trace_full.events());
    assert_eq!(out_active, out_full);
    assert!(!trace_active.events().is_empty());
}

/// Retransmission layers heap-scheduled timers (with exponential
/// backoff) on top of the fault run: the timer cycles are exactly where
/// an event-jumping clock would land early or late if the wake
/// scheduling were off by even one cycle.
#[test]
fn retransmission_backoff_run_matches_full_scan() {
    let topo = generate(&RandomTopologyConfig::paper_default(42)).unwrap();
    let net = Network::analyze(topo).unwrap();
    let plan = FaultPlan::random(
        &net.topo,
        &RandomFaultConfig {
            kills: 3,
            switch_every: 2,
            window: (300, 2_000),
            seed: 0xBEEF,
            protect: Vec::new(),
        },
    );

    let run = |full_scan: bool| {
        let mut cfg = SimConfig::paper_default();
        cfg.watchdog_cycles = 5_000;
        cfg.watchdog_recovery_limit = 4;
        let mut sim = mixed_sim_cfg(&net, full_scan, cfg);
        sim.install_faults(&plan);
        sim.enable_retransmission(RetxPolicy {
            timeout: 3_000,
            max_retries: 3,
            seed: 0x5eed,
        });
        let res = sim.run_until(60_000);
        outcome(&mut sim, res)
    };

    let (trace_active, out_active) = run(false);
    let (trace_full, out_full) = run(true);
    assert_eq!(trace_active.events(), trace_full.events());
    assert_eq!(out_active, out_full);
    // The faults actually provoked retransmissions (not a vacuous run).
    assert!(
        !out_active.contains("retransmissions: 0"),
        "fault plan never triggered a retransmission: {out_active}"
    );
}

/// Transient soft errors exercise the newest wake paths: seeded
/// stateless fate draws on every inter-switch transfer, end-of-sweep
/// downstream severs, end-to-end retransmission of the losses, and
/// (with link retry) output holds parked on the NACK turnaround. The
/// event scheduler must land on exactly the attempt cycles the full
/// per-cycle scan executes — the fate draw is keyed by (link, cycle),
/// so one skipped or extra attempt cycle diverges the whole run.
#[test]
fn transient_error_runs_match_full_scan() {
    let topo = generate(&RandomTopologyConfig::paper_default(42)).unwrap();
    let net = Network::analyze(topo).unwrap();

    let run = |full_scan: bool, link_retry: bool, retx: bool| {
        let mut cfg = SimConfig::paper_default();
        cfg.watchdog_cycles = 5_000;
        cfg.watchdog_recovery_limit = 4;
        let lr_policy = LinkRetryPolicy::default_for(&cfg);
        let mut sim = mixed_sim_cfg(&net, full_scan, cfg);
        sim.install_errors(&ErrorModel::uniform(4_000_000, 4_000_000, 0xE44));
        if link_retry {
            sim.enable_link_retry(lr_policy);
        }
        if retx {
            sim.enable_retransmission(RetxPolicy {
                timeout: 3_000,
                max_retries: 3,
                seed: 0x5eed,
            });
        }
        let res = sim.run_until(60_000);
        outcome(&mut sim, res)
    };

    for (lr, rx) in [(false, false), (true, false), (false, true), (true, true)] {
        let (trace_active, out_active) = run(false, lr, rx);
        let (trace_full, out_full) = run(true, lr, rx);
        assert_eq!(trace_active.events(), trace_full.events(), "link_retry={lr} retx={rx}");
        assert_eq!(out_active, out_full, "link_retry={lr} retx={rx}");
        // The error model genuinely fired (not a vacuous comparison).
        assert!(
            !out_active.contains("flits_corrupted: 0,"),
            "error model never corrupted a flit (link_retry={lr} retx={rx}): {out_active}"
        );
    }
}

/// The escalation rung under event-jumping: a drop-heavy model with a
/// tiny retry budget forces budget exhaustions, whose deferred worm
/// kills (and the purge/re-arm churn behind them) must leave identical
/// state in both scheduling modes.
#[test]
fn retry_exhaustion_escalation_matches_full_scan() {
    let topo = generate(&RandomTopologyConfig::paper_default(42)).unwrap();
    let net = Network::analyze(topo).unwrap();

    let run = |full_scan: bool| {
        let mut cfg = SimConfig::paper_default();
        cfg.watchdog_cycles = 5_000;
        cfg.watchdog_recovery_limit = 8;
        let mut sim = mixed_sim_cfg(&net, full_scan, cfg);
        sim.install_errors(&ErrorModel::uniform(0, 300_000_000, 0xE45));
        sim.enable_link_retry(LinkRetryPolicy {
            buffer_flits: 4,
            max_retries: 2,
            turnaround: 3,
        });
        sim.enable_retransmission(RetxPolicy { timeout: 3_000, max_retries: 3, seed: 0x5eed });
        let res = sim.run_until(120_000);
        outcome(&mut sim, res)
    };

    let (trace_active, out_active) = run(false);
    let (trace_full, out_full) = run(true);
    assert_eq!(trace_active.events(), trace_full.events());
    assert_eq!(out_active, out_full);
    assert!(
        !out_active.contains("retry_exhaustions: 0,"),
        "the retry budget was never exhausted: {out_active}"
    );
}

/// Watchdog recovery under event-jumping: with every component parked
/// and no wake in sight, the clock must still land on *exactly* the
/// cycle the stepping loop would fire the watchdog at, and the
/// kill/purge/re-arm recovery must leave identical state behind.
#[test]
fn watchdog_recovery_run_matches_full_scan() {
    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    let (s1, p1) = net.topo.link(LinkId(0)).end(1);

    let run = |full_scan: bool, recovery_limit: u32| {
        let mut cfg = SimConfig::paper_default();
        cfg.o_send_host = 10;
        cfg.o_recv_host = 10;
        cfg.o_send_ni = 10;
        cfg.o_recv_ni = 10;
        cfg.watchdog_cycles = 2_000;
        cfg.watchdog_recovery_limit = recovery_limit;
        let mut proto = StaticProtocol::new();
        proto.set_launch(McastId(0), vec![(NodeId(0), SendSpec::Unicast { dest: NodeId(1) })]);
        let mut sim = Simulator::new(&net, cfg, proto).unwrap();
        sim.set_full_scan(full_scan);
        sim.schedule_multicast(0, McastId(0), NodeMask::single(NodeId(1)), 64);
        sim.enable_trace();
        sim.jam_input(s1, p1);
        let res = sim.run_until(10_000_000);
        outcome(&mut sim, res)
    };

    // Recovery path: the stuck worm is sacrificed and the run drains.
    let (trace_active, out_active) = run(false, 2);
    let (trace_full, out_full) = run(true, 2);
    assert_eq!(trace_active.events(), trace_full.events());
    assert_eq!(out_active, out_full);
    assert!(out_active.contains("watchdog_recoveries: 1"), "{out_active}");

    // Abort path: out of budget — identical deadlock cycle and
    // diagnostics snapshot.
    let (_, abort_active) = run(false, 0);
    let (_, abort_full) = run(true, 0);
    assert_eq!(abort_active, abort_full);
    assert!(abort_active.contains("Deadlock"), "{abort_active}");
}

/// Property: every heap wake targets a cycle ≥ `now`. The engine
/// enforces this with debug assertions on every `schedule*` call (wakes
/// must even be strictly future); driving seeded workloads to
/// completion in a debug-assertions build is the property check — any
/// past-dated wake panics with its offending cycle. A release build has
/// no such assertions to trip, so the test exists only in debug builds.
#[cfg(debug_assertions)]
#[test]
fn heap_wakes_are_never_scheduled_in_the_past() {
    for seed in [1u64, 7, 13, 42, 99] {
        let topo = generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
        let net = Network::analyze(topo).unwrap();
        let mut sim = mixed_sim(&net, false);
        sim.run_until(200_000).unwrap();
        assert!(sim.stats().sweeps_run > 0, "seed {seed} never swept");
    }
}

/// A clock jump must not be able to skip over an invariant-violation
/// window: the auditor runs on both edges of every multi-cycle jump.
/// `backdate_next_arrival` emulates an off-by-one train (a run landing
/// one cycle before the cycle the landing calendar holds for it, which
/// the clock then jumps past). Every audit before the jump passes, and
/// the sweep at the jump target would count the flit in — only the
/// trailing-edge audit can catch it.
#[test]
fn jump_cannot_skip_an_invariant_violation_window() {
    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    let mut cfg = SimConfig::paper_default();
    cfg.o_send_host = 10;
    cfg.o_recv_host = 10;
    cfg.o_send_ni = 10;
    cfg.o_recv_ni = 10;
    cfg.link_delay = 512; // a long wire guarantees a multi-cycle jump
    cfg.watchdog_cycles = 100_000;
    let mut proto = StaticProtocol::new();
    proto.set_launch(McastId(0), vec![(NodeId(0), SendSpec::Unicast { dest: NodeId(1) })]);
    let mut sim = Simulator::new(&net, cfg, proto).unwrap();
    sim.schedule_multicast(0, McastId(0), NodeMask::single(NodeId(1)), 64);
    sim.enable_audit();

    // Step until the first flit is on the wire, then back-date it.
    let mut due = None;
    for c in 1..5_000 {
        sim.run_until(c).unwrap();
        if let Some(a) = sim.backdate_next_arrival() {
            due = Some(a);
            break;
        }
    }
    let due = due.expect("no flit ever injected");

    match sim.run_until(due + 10) {
        Err(SimError::InvariantViolation { at, violation }) => {
            assert_eq!(violation.kind, InvariantKind::StaleArrival, "{violation}");
            assert_eq!(
                at, due,
                "the trailing-edge audit must fire at the jump target"
            );
        }
        other => panic!(
            "the jump over the back-dated arrival went unaudited: {other:?}"
        ),
    }
}
