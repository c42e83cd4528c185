//! `giant-fabric`: the 1000-switch / 10k-host fabric. Generation,
//! analysis, 64-way planning for each scheme, isolated runs of those
//! plans, and a four-link degradation — planning and topology dominate,
//! the opposite balance to `paper-load`.

use crate::layers::{self, Counts, PLAN_SPANS, RUN_SPANS};
use crate::live::point::schemes as resolve_schemes;
use crate::measure::{peak_rss_mb, run_passes, Pieces, Tracer};
use crate::reference::Probe;
use crate::report::{Checks, WorkloadResult, SCHEMES};
use crate::{analyze, pins, Args};
use irrnet_core::rng::SmallRng;
use irrnet_core::{try_plan_multicast, McastPlan, SchemeId, SchemeProtocol};
use irrnet_sim::{McastId, SimConfig, Simulator};
use irrnet_topology::{
    gen, ExtraLinks, FaultPlan, FaultStatus, Network, NodeId, NodeMask, RandomFaultConfig,
    RandomTopologyConfig,
};
use irrnet_workloads::random_mcast;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MCASTS: usize = 8;
const DEGREE: usize = 64;
const MESSAGE_FLITS: u32 = 128;
const KILLS: usize = 4;
/// Draw seeds for seed 0; `--seed` is XORed in.
const DRAW_SEED: u64 = 0x46E9_5EED;
const FAULT_SEED: u64 = 0xFA17_5EED;
const RUN_LIMIT: u64 = 500_000_000;

fn fabric() -> RandomTopologyConfig {
    RandomTopologyConfig {
        num_switches: 1000,
        ports_per_switch: 16,
        num_hosts: 10_000,
        extra_links: ExtraLinks::Fraction(0.5),
        seed: 42,
    }
}

/// Paper defaults with an input buffer wide enough to absorb a whole
/// tree worm, whose bit-string header is n/8 + 1 flits at n nodes.
fn sim_config(nodes: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.input_buffer_flits = cfg
        .input_buffer_flits
        .max(cfg.packet_payload_flits + cfg.tree_header_flits(nodes) + 8);
    cfg
}

/// Timed pieces of a pass: generation, analysis, each plan, each run,
/// and the degradation.
fn piece_labels() -> Vec<String> {
    let mut v = vec!["generate".to_string(), "analyze".to_string()];
    for step in ["plan", "run"] {
        for s in SCHEMES {
            v.extend((0..MCASTS).map(|i| format!("{step} {s} #{i}")));
        }
    }
    v.push("degrade".into());
    v
}

type Record = BTreeMap<String, Vec<u64>>;

/// Run one plan on an idle network. Returns the setup time (simulator
/// construction and scheduling) and the checked results: latency,
/// cycles, sweeps, flit hops, replications.
fn run_plan(
    tr: &mut Tracer,
    net: &Network,
    cfg: &SimConfig,
    s: usize,
    (dests, plan): &(NodeMask, Arc<McastPlan>),
    full_scan: bool,
) -> Result<(Duration, Vec<u64>), String> {
    let t0 = Instant::now();
    let mut proto = SchemeProtocol::new();
    proto.add(McastId(0), plan.clone());
    let mut sim = tr
        .span("sim.build", |_| Simulator::new(net, cfg.clone(), proto))
        .map_err(|e| format!("build: {e}"))?;
    sim.set_full_scan(full_scan);
    tr.span("sim.schedule", |_| {
        sim.schedule_multicast(0, McastId(0), dests.clone(), MESSAGE_FLITS)
    });
    let setup = t0.elapsed();
    let done = tr
        .span(RUN_SPANS[s], |_| sim.run_to_completion(RUN_LIMIT))
        .map_err(|e| format!("run: {e}"))?;
    let st = sim.stats();
    let values = vec![
        done,
        st.cycles_run,
        st.sweeps_run,
        st.net.link_flits,
        st.net.replications,
    ];
    Ok((setup, values))
}

struct Kept {
    net: Network,
    plans: Vec<Vec<(NodeMask, Arc<McastPlan>)>>,
}

/// One pass: every piece once. Returns the pass's checked record.
fn pass(
    tr: &mut Tracer,
    pass: usize,
    times: &mut Pieces,
    schemes: &[SchemeId],
    draws: &[(NodeId, NodeMask)],
    seed: u64,
    keep: &mut Option<Kept>,
) -> Result<Record, String> {
    let mut rec = Record::new();
    let mut piece = 0;

    let (topo, d) = tr.piece(pass, piece, |tr| {
        tr.span("topology.generate", |_| gen::generate(&fabric()))
    });
    times.record(pass, piece, d, d);
    piece += 1;
    let topo = topo.map_err(|e| format!("generate: {e}"))?;

    let (net, d) = tr.piece(pass, piece, |tr| analyze(tr, topo));
    times.record(pass, piece, d, d);
    piece += 1;
    let net = net?;
    rec.insert(
        "reach/healthy".into(),
        vec![net.reach.resident_bytes() as u64],
    );

    let cfg = sim_config(net.num_nodes());
    let mut plans = Vec::new();
    for (s, &scheme) in schemes.iter().enumerate() {
        let mut batch = Vec::new();
        for (i, (src, dests)) in draws.iter().enumerate() {
            let (plan, d) = tr.piece(pass, piece, |tr| {
                tr.span(PLAN_SPANS[s], |_| {
                    try_plan_multicast(&net, &cfg, scheme, *src, dests.clone(), MESSAGE_FLITS)
                })
            });
            times.record(pass, piece, d, d);
            piece += 1;
            let plan = plan.map_err(|e| format!("plan {} #{i}: {e}", SCHEMES[s]))?;
            rec.insert(
                format!("plan/{}/{i}", SCHEMES[s]),
                vec![plan.meta.worms as u64, plan.meta.phases as u64],
            );
            batch.push((dests.clone(), Arc::new(plan)));
        }
        plans.push(batch);
    }

    for (s, batch) in plans.iter().enumerate() {
        for (i, p) in batch.iter().enumerate() {
            let (run, d) = tr.piece(pass, piece, |tr| run_plan(tr, &net, &cfg, s, p, false));
            let (setup, values) = run.map_err(|e| format!("{} #{i}: {e}", SCHEMES[s]))?;
            times.record(pass, piece, setup, d);
            piece += 1;
            rec.insert(format!("run/{}/{i}", SCHEMES[s]), values);
        }
    }

    let (degraded, d) = tr.piece(pass, piece, |tr| {
        let fault_cfg = RandomFaultConfig {
            kills: KILLS,
            switch_every: 0,
            window: (0, 1),
            seed: FAULT_SEED ^ seed,
            protect: Vec::new(),
        };
        let plan = tr.span("topology.fault_plan", |_| {
            FaultPlan::random(&net.topo, &fault_cfg)
        });
        let mut status = FaultStatus::healthy(&net.topo);
        for e in plan.events() {
            status.kill(&net.topo, e.kind);
        }
        let deg = tr.span("topology.degrade", |_| net.degrade(&status));
        deg.map(|d| (d.reach.resident_bytes() as u64, plan.events().len() as u64))
    });
    // Not set-up: degradation happens after the runs.
    times.record(pass, piece, Duration::ZERO, d);
    let degraded = degraded.map_err(|e| format!("degrade: {e}"))?;
    rec.insert("reach/degraded".into(), vec![degraded.0, degraded.1]);

    *keep = Some(Kept { net, plans });
    Ok(rec)
}

/// A run record without its sweep count, which depends on the engine mode.
fn sweepless(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v[2] = 0;
    v
}

fn draws(seed: u64) -> Vec<(NodeId, NodeMask)> {
    let cfg = fabric();
    let mut rng = SmallRng::seed_from_u64(DRAW_SEED ^ seed);
    (0..MCASTS)
        .map(|_| random_mcast(&mut rng, cfg.num_hosts, DEGREE))
        .collect()
}

pub fn run(args: &Args) -> Result<WorkloadResult, String> {
    let schemes = resolve_schemes()?;
    let draws = draws(args.seed);
    let labels = piece_labels();
    let mut plain = Pieces::new(labels.clone());
    let mut traced = Pieces::new(labels);
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let mut records: Vec<Record> = Vec::new();
    let mut traced_passes = Vec::new();
    let mut keep: Option<Kept> = None;
    let mut probe = Probe::new()?;

    let passes = run_passes(args.budget(), args.trace, |k, on| {
        tr.set_on(on);
        if on {
            traced_passes.push(k);
        }
        keep = None;
        // The twin's probe brackets the untraced passes, which give the
        // end-to-end metrics.
        if !on {
            probe.run_before(k, &mut checks);
        }
        let times = if on { &mut traced } else { &mut plain };
        match pass(&mut tr, k, times, &schemes, &draws, args.seed, &mut keep) {
            Ok(r) => records.push(r),
            Err(e) => checks.error(e),
        }
        if !on {
            probe.run_after(k, &mut checks);
        }
    });
    let rss = peak_rss_mb();
    let checked_from = Instant::now();

    // Seed 0: every pass against the pinned values. Other seeds: every
    // pass against the first, and the runs against the full-scan engine.
    let reference: Record = if args.seed == 0 {
        pins::giant_fabric()?
    } else {
        let first = records.first().cloned().unwrap_or_default();
        if let Some(kept) = &keep {
            let cfg = sim_config(kept.net.num_nodes());
            let mut off = Tracer::new();
            let mut full = Record::new();
            for (s, batch) in kept.plans.iter().enumerate() {
                for (i, p) in batch.iter().enumerate() {
                    match run_plan(&mut off, &kept.net, &cfg, s, p, true) {
                        Ok((_, values)) => {
                            full.insert(format!("run/{}/{i}", SCHEMES[s]), values);
                        }
                        Err(e) => {
                            checks.error(format!("full-scan reference {} #{i}: {e}", SCHEMES[s]))
                        }
                    }
                }
            }
            for (k, v) in &full {
                let got = first.get(k).map(|f| sweepless(f));
                checks.expect(&format!("{k} vs full scan"), &got, &Some(sweepless(v)));
            }
        }
        first
    };
    for rec in &records {
        for (k, want) in &reference {
            checks.expect(k, &rec.get(k), &Some(want));
        }
        if rec.len() != reference.len() {
            checks.error(format!(
                "{} results, {} reference values",
                rec.len(),
                reference.len()
            ));
        }
    }
    drop(keep);

    let mut counts = Counts::default();
    if let Some(r) = records.first() {
        for (k, v) in r {
            if k.starts_with("plan/") {
                counts.plans += 1;
                counts.worms += v[0];
            } else if k.starts_with("run/") {
                counts.cycles += v[1];
                counts.sweeps += v[2];
                counts.flit_hops += v[3];
                counts.replications += v[4];
                counts.completed += 1;
            } else if k == "reach/healthy" {
                counts.reach_bytes = v[0];
            }
        }
    }
    let mut lines = vec![format!("giant-fabric: seed {}, {passes} passes", args.seed)];
    lines.push(format!(
        "checks took {:.1} s",
        checked_from.elapsed().as_secs_f64()
    ));
    layers::pass_lines("untraced", &plain, &mut lines);
    layers::group_lines(&plain, &mut lines);
    let mut layers_out = Default::default();
    if args.trace {
        layers::pass_lines("traced", &traced, &mut lines);
        layers_out = layers::span_layers(&tr, &traced_passes, &plain, &traced, &counts, &mut lines);
        crate::write_trace(args, &tr)?;
    }
    let slow = probe.slowdown();
    layers::slowdown_report(&plain, &probe.pieces, &slow, &mut lines, &mut layers_out);
    let end_to_end = layers::end_to_end(&plain, &slow, rss);
    Ok(WorkloadResult {
        checks,
        end_to_end,
        layers: layers_out,
        lines,
    })
}

/// Pin lines for seed 0.
pub fn emit_pins() -> Result<String, String> {
    let schemes = resolve_schemes()?;
    let mut off = Tracer::new();
    let mut pieces = Pieces::new(piece_labels());
    let mut keep = None;
    let rec = pass(&mut off, 0, &mut pieces, &schemes, &draws(0), 0, &mut keep)?;
    Ok(rec
        .iter()
        .map(|(k, v)| {
            let vs: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("{k} {}\n", vs.join(" "))
        })
        .collect())
}
