//! `paper-load`: the paper's §4.3 open-loop multicast load experiment at
//! the campaign's quick windows, driven call by call so each layer can be
//! timed from outside. Every piece also runs on the reference twin, right
//! before or after the live run, and the live host times are divided by
//! the twin's slowdown.

use crate::layers::{self, Counts};
use crate::live::point::{network, points, run_point, schemes, Outcome, Point, TOPO_SEEDS};
use crate::live::point::{DRAIN, MEASURE, WARMUP};
use crate::measure::{peak_rss_mb, run_passes, Pieces, Tracer};
use crate::reference::{self, Slowdown};
use crate::report::{Checks, WorkloadResult};
use crate::{analyze, pins, twin, Args};
use irrnet_sim::SimConfig;
use irrnet_topology::{gen, Network, RandomTopologyConfig};
use irrnet_workloads::{run_load, LoadConfig};
use std::time::Instant;

/// The `run_load` configuration of load point `p`, for cross-checking the
/// pipeline when pins are emitted.
fn load_config(p: &Point, seed: u64) -> LoadConfig {
    let mut lc = LoadConfig::paper_default(p.degree, p.load);
    lc.warmup = WARMUP;
    lc.measure = MEASURE;
    lc.drain = DRAIN;
    lc.seed = p.arrival_seed(seed);
    lc
}

/// Run piece `piece` of the twin in pass `pass`: a topology build, whose
/// network the twin's later load points run on as the live ones run on
/// theirs, or a load point checked against the twin's first outcome.
fn twin_piece(
    fx: &mut twin::point::Fixture,
    pieces: &mut Pieces,
    first: &mut [Option<twin::point::Outcome>],
    pass: usize,
    piece: usize,
    seed: u64,
    checks: &mut Checks,
) {
    let t0 = Instant::now();
    if piece < TOPO_SEEDS.len() {
        let net = twin::point::network(TOPO_SEEDS[piece]);
        let d = t0.elapsed();
        pieces.record(pass, piece, d, d);
        match net {
            Ok(n) => fx.nets[piece] = n,
            Err(e) => checks.error(format!("twin topology seed {}: {e}", TOPO_SEEDS[piece])),
        }
        return;
    }
    let k = piece - TOPO_SEEDS.len();
    let p = twin::point::points()[k];
    match fx.run(&p, seed) {
        Ok((o, setup, total)) => {
            pieces.record(pass, piece, setup, total);
            let want = *first[k].get_or_insert(o);
            checks.expect(&format!("twin {}", p.label()), &o, &want);
        }
        Err(e) => checks.error(format!("twin {}: {e}", p.label())),
    }
}

pub fn run(args: &Args) -> Result<WorkloadResult, String> {
    let schemes = schemes()?;
    let cfg = SimConfig::paper_default();
    let pts = points();
    let topo_labels = TOPO_SEEDS.iter().map(|s| format!("topology seed {s}"));
    let labels: Vec<String> = topo_labels.chain(pts.iter().map(Point::label)).collect();
    let mut plain = Pieces::new(labels.clone());
    let mut traced = Pieces::new(labels.clone());
    let mut twin_pieces = Pieces::new(labels);
    let mut twin_fx = twin::point::Fixture::new()?;
    let mut twin_first = vec![None; pts.len()];
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let mut outcomes: Vec<Vec<Outcome>> = vec![Vec::new(); pts.len()];
    let mut reach_bytes = 0u64;
    let mut traced_passes = Vec::new();

    let passes = run_passes(args.budget(), args.trace, |pass, on| {
        tr.set_on(on);
        if on {
            traced_passes.push(pass);
        }
        let rec = if on { &mut traced } else { &mut plain };
        // The twin pairs with the untraced passes, which give the
        // end-to-end metrics. Which of a pair goes first alternates, so
        // neither always runs in the other's wake.
        let mut twin = |piece: usize, checks: &mut Checks| {
            twin_piece(
                &mut twin_fx,
                &mut twin_pieces,
                &mut twin_first,
                pass,
                piece,
                args.seed,
                checks,
            )
        };
        let twin_before = |piece: usize| !on && (pass + piece) % 2 == 1;
        let twin_after = |piece: usize| !on && (pass + piece) % 2 == 0;
        let mut nets = Vec::new();
        reach_bytes = 0;
        for (i, &seed) in TOPO_SEEDS.iter().enumerate() {
            if twin_before(i) {
                twin(i, &mut checks);
            }
            let (net, d) = tr.piece(pass, i, |tr| {
                let topo = tr.span("topology.generate", |_| {
                    gen::generate(&RandomTopologyConfig::paper_default(seed))
                });
                topo.map_err(|e| e.to_string()).and_then(|t| analyze(tr, t))
            });
            rec.record(pass, i, d, d);
            if twin_after(i) {
                twin(i, &mut checks);
            }
            match net {
                Ok(n) => {
                    reach_bytes += n.reach.resident_bytes() as u64;
                    nets.push(n)
                }
                Err(e) => checks.error(format!("topology seed {seed}: {e}")),
            }
        }
        if nets.len() < TOPO_SEEDS.len() {
            return;
        }
        for (k, p) in pts.iter().enumerate() {
            let piece = TOPO_SEEDS.len() + k;
            if twin_before(piece) {
                twin(piece, &mut checks);
            }
            let (r, total) = tr.piece(pass, piece, |tr| {
                run_point(
                    tr,
                    &nets[p.topo],
                    &cfg,
                    schemes[p.scheme],
                    p,
                    args.seed,
                    false,
                )
            });
            if twin_after(piece) {
                twin(piece, &mut checks);
            }
            match r {
                Ok((o, setup)) => {
                    rec.record(pass, piece, setup, total);
                    outcomes[k].push(o);
                }
                Err(e) => checks.error(e),
            }
        }
    });
    let rss = peak_rss_mb();
    let checked_from = Instant::now();

    // Checks, after timing: seed 0 against the pinned values (taken with
    // `emit_pins`, which cross-checks `run_load`), other seeds against the
    // full-scan engine on the same inputs.
    let pinned = if args.seed == 0 {
        Some(pins::paper_load()?)
    } else {
        None
    };
    let nets: Vec<Network> = TOPO_SEEDS
        .iter()
        .map(|&s| network(s))
        .collect::<Result<_, _>>()?;
    for (k, p) in pts.iter().enumerate() {
        let Some(first) = outcomes[k].first().copied() else {
            continue;
        };
        let reference = match &pinned {
            Some(pins) => pins.get(&p.label()).copied(),
            None => {
                let mut off = Tracer::new();
                run_point(
                    &mut off,
                    &nets[p.topo],
                    &cfg,
                    schemes[p.scheme],
                    p,
                    args.seed,
                    true,
                )
                .map(|(o, _)| o)
                .map_err(|e| checks.error(format!("full-scan reference: {e}")))
                .ok()
            }
        };
        for o in &outcomes[k] {
            match reference {
                Some(want) if pinned.is_some() => checks.expect(&p.label(), o, &want),
                Some(want) => {
                    checks.expect(&p.label(), &o.mode_free(), &want.mode_free());
                    checks.expect(&format!("{} sweeps", p.label()), &o.sweeps, &first.sweeps);
                }
                None => checks.error(format!("{}: no reference outcome", p.label())),
            }
        }
    }

    let mut counts = Counts {
        reach_bytes,
        ..Counts::default()
    };
    for v in &outcomes {
        if let Some(o) = v.first() {
            counts.plans += o.mcasts;
            counts.worms += o.worms;
            counts.cycles += o.cycles;
            counts.sweeps += o.sweeps;
            counts.flit_hops += o.flit_hops;
            counts.replications += o.replications;
            counts.completed += o.completed_all;
        }
    }
    let mut lines = vec![format!("paper-load: seed {}, {passes} passes", args.seed)];
    lines.push(format!(
        "checks took {:.1} s",
        checked_from.elapsed().as_secs_f64()
    ));
    layers::pass_lines("untraced", &plain, &mut lines);
    let mut layers_out = Default::default();
    if args.trace {
        layers::pass_lines("traced", &traced, &mut lines);
        layers_out = layers::span_layers(&tr, &traced_passes, &plain, &traced, &counts, &mut lines);
        crate::write_trace(args, &tr)?;
    }
    let slow = Slowdown::of(
        &twin_pieces,
        reference::PAPER_LOAD_S,
        Some(reference::PAPER_LOAD_SETUP_S),
    );
    layers::slowdown_report(&plain, &twin_pieces, &slow, &mut lines, &mut layers_out);
    let end_to_end = layers::end_to_end(&plain, &slow, rss);
    Ok(WorkloadResult {
        checks,
        end_to_end,
        layers: layers_out,
        lines,
    })
}

/// Pin lines for seed 0, cross-checked against `run_load` itself.
pub fn emit_pins() -> Result<String, String> {
    let schemes = schemes()?;
    let cfg = SimConfig::paper_default();
    let mut out = String::new();
    for p in points() {
        let net = network(TOPO_SEEDS[p.topo])?;
        let mut off = Tracer::new();
        let (o, _) = run_point(&mut off, &net, &cfg, schemes[p.scheme], &p, 0, false)?;
        let lc = load_config(&p, 0);
        let r = run_load(&net, &cfg, schemes[p.scheme], &lc).map_err(|e| e.to_string())?;
        let same = r.launched as u64 == o.launched
            && r.completed as u64 == o.completed
            && r.mean_latency.map_or(u64::MAX, f64::to_bits) == o.mean_latency_bits
            && r.cycles_run == o.cycles;
        if !same {
            return Err(format!(
                "{}: benchmark pipeline disagrees with run_load: {o:?} vs {r:?}",
                p.label()
            ));
        }
        out.push_str(&format!(
            "{} {} {} {:#x} {} {} {} {} {} {} {}\n",
            p.label(),
            o.launched,
            o.completed,
            o.mean_latency_bits,
            o.cycles,
            o.sweeps,
            o.flit_hops,
            o.replications,
            o.worms,
            o.completed_all,
            o.mcasts
        ));
    }
    Ok(out)
}
