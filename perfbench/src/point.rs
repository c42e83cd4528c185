//! The `paper-load` pipeline: one open-loop load point, driven call by
//! call. This file is compiled twice, once against the live crates
//! (`crate::live`) and once against the frozen reference twin
//! (`crate::twin`); `super` names the crate set.

use super::{icore, isim, itopo};
use crate::layers::{PLAN_SPANS, RUN_SPANS};
use crate::measure::Tracer;
use crate::report::SCHEMES;
use icore::rng::{hash2, SmallRng};
use icore::{try_plan_multicast, SchemeId, SchemeProtocol, SchemeRegistry};
use isim::{Cycle, McastId, SimConfig, Simulator};
use itopo::{gen, Network, NodeId, NodeMask, RandomTopologyConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TOPO_SEEDS: [u64; 2] = [0, 1];
const DEGREES: [usize; 2] = [8, 16];
/// 0.1 is below every scheme's saturation point; 0.25 is past that of
/// `ni-fpfs` and `path-lg`.
const LOADS: [f64; 2] = [0.1, 0.25];
pub const MESSAGE_FLITS: u32 = 128;
/// The campaign's quick windows (`CampaignOptions::quick().load_config`).
pub const WARMUP: Cycle = 30_000;
pub const MEASURE: Cycle = 150_000;
pub const DRAIN: Cycle = 100_000;
/// Base of the arrival seeds, as `load_panel_units` uses it.
const ARRIVAL_BASE: u64 = 0xF00D;

/// One load point on one topology: the unit a pass times.
#[derive(Clone, Copy)]
pub struct Point {
    pub topo: usize,
    pub scheme: usize,
    pub degree: usize,
    pub load: f64,
}

impl Point {
    pub fn label(&self) -> String {
        format!(
            "t{}/{}/d{}/l{}",
            self.topo, SCHEMES[self.scheme], self.degree, self.load
        )
    }

    /// `--seed` picks the arrival streams; seed 0 reproduces the arrivals
    /// the load figures use.
    pub fn arrival_seed(&self, seed: u64) -> u64 {
        hash2(ARRIVAL_BASE.wrapping_add(seed), self.topo as u64)
    }

    /// Multicasts per cycle per node, as `LoadConfig` computes it.
    fn rate(&self) -> f64 {
        self.load / (self.degree as f64 * MESSAGE_FLITS as f64)
    }
}

pub fn points() -> Vec<Point> {
    let mut v = Vec::new();
    for topo in 0..TOPO_SEEDS.len() {
        for scheme in 0..SCHEMES.len() {
            for &degree in &DEGREES {
                for &load in &LOADS {
                    v.push(Point {
                        topo,
                        scheme,
                        degree,
                        load,
                    });
                }
            }
        }
    }
    v
}

/// [`SCHEMES`] through the scheme registry.
pub fn schemes() -> Result<Vec<SchemeId>, String> {
    SCHEMES
        .iter()
        .map(|n| SchemeRegistry::resolve(n).ok_or_else(|| format!("unknown scheme {n}")))
        .collect()
}

/// A paper-default topology, generated and analyzed.
pub fn network(seed: u64) -> Result<Network, String> {
    gen::generate(&RandomTopologyConfig::paper_default(seed))
        .and_then(Network::analyze)
        .map_err(|e| e.to_string())
}

/// The checked results of one load point. Latency is compared bit for
/// bit; `sweeps` depends on the engine mode, so the full-scan reference
/// leaves it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub launched: u64,
    pub completed: u64,
    pub mean_latency_bits: u64,
    pub cycles: u64,
    pub sweeps: u64,
    pub flit_hops: u64,
    pub replications: u64,
    pub worms: u64,
    pub completed_all: u64,
    /// Multicasts planned and scheduled (the whole run, not the window).
    pub mcasts: u64,
}

impl Outcome {
    pub fn mode_free(mut self) -> Self {
        self.sweeps = 0;
        self
    }
}

/// `random_dests` of the workloads crate: `degree` distinct destinations
/// other than `source`.
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

/// Arrivals and destination sets, drawn exactly as `run_load` draws them.
fn arrivals(net: &Network, p: &Point, seed: u64) -> Vec<(Cycle, NodeId, NodeMask)> {
    let n = net.topo.num_nodes();
    let rate = p.rate();
    let horizon = (WARMUP + MEASURE) as f64;
    let mut rng = SmallRng::seed_from_u64(p.arrival_seed(seed));
    let mut times: Vec<(Cycle, NodeId)> = Vec::new();
    for node in 0..n {
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= horizon {
                break;
            }
            times.push((t as Cycle, NodeId(node as u16)));
        }
    }
    times.sort_unstable_by_key(|&(t, n)| (t, n.0));
    times
        .into_iter()
        .map(|(t, src)| (t, src, random_dests(&mut rng, n, p.degree, src)))
        .collect()
}

/// Run one load point; returns its outcome and the setup duration
/// (arrivals, planning, simulator construction and scheduling).
pub fn run_point(
    tr: &mut Tracer,
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    p: &Point,
    seed: u64,
    full_scan: bool,
) -> Result<(Outcome, Duration), String> {
    let t0 = Instant::now();
    let launches = tr.span("bench.inputs", |_| arrivals(net, p, seed));
    let mut proto = SchemeProtocol::new();
    let mut worms = 0u64;
    for (i, (_, src, dests)) in launches.iter().enumerate() {
        let plan = tr
            .span(PLAN_SPANS[p.scheme], |_| {
                try_plan_multicast(net, cfg, scheme, *src, dests.clone(), MESSAGE_FLITS)
            })
            .map_err(|e| format!("{}: plan: {e}", p.label()))?;
        worms += plan.meta.worms as u64;
        proto.add(McastId(i as u64), Arc::new(plan));
    }
    let mut sim = tr
        .span("sim.build", |_| Simulator::new(net, cfg.clone(), proto))
        .map_err(|e| format!("{}: build: {e}", p.label()))?;
    sim.set_full_scan(full_scan);
    for (i, (t, _, dests)) in launches.into_iter().enumerate() {
        tr.span("sim.schedule", |_| {
            sim.schedule_multicast(t, McastId(i as u64), dests, MESSAGE_FLITS)
        });
    }
    let setup = t0.elapsed();
    let horizon = WARMUP + MEASURE;
    tr.span(RUN_SPANS[p.scheme], |_| sim.run_until(horizon + DRAIN))
        .map_err(|e| format!("{}: run: {e}", p.label()))?;
    let stats = sim.stats();
    let (mut launched, mut completed) = (0u64, 0u64);
    for r in stats.mcasts.values() {
        if r.launched >= WARMUP && r.launched < horizon {
            launched += 1;
            completed += r.completed.is_some() as u64;
        }
    }
    let mean = stats.mean_latency_in_window(WARMUP, horizon);
    Ok((
        Outcome {
            launched,
            completed,
            mean_latency_bits: mean.map_or(u64::MAX, f64::to_bits),
            cycles: stats.cycles_run,
            sweeps: stats.sweeps_run,
            flit_hops: stats.net.link_flits,
            replications: stats.net.replications,
            worms,
            completed_all: stats.completed_count() as u64,
            mcasts: stats.mcasts.len() as u64,
        },
        setup,
    ))
}

/// The networks and configuration a crate set runs load points on.
pub struct Fixture {
    pub nets: Vec<Network>,
    pub cfg: SimConfig,
    pub schemes: Vec<SchemeId>,
}

impl Fixture {
    pub fn new() -> Result<Self, String> {
        Ok(Fixture {
            nets: TOPO_SEEDS
                .iter()
                .map(|&s| network(s))
                .collect::<Result<_, _>>()?,
            cfg: SimConfig::paper_default(),
            schemes: schemes()?,
        })
    }

    /// Run load point `p` untraced on the engine's normal mode; returns
    /// its outcome, set-up time and total time.
    pub fn run(&self, p: &Point, seed: u64) -> Result<(Outcome, Duration, Duration), String> {
        let t0 = Instant::now();
        let mut off = Tracer::new();
        let (o, setup) = run_point(
            &mut off,
            &self.nets[p.topo],
            &self.cfg,
            self.schemes[p.scheme],
            p,
            seed,
            false,
        )?;
        Ok((o, setup, t0.elapsed()))
    }
}
