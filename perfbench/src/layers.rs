//! Turns the traced passes' spans into per-layer metrics.

use crate::measure::{median, rel_iqr, Pieces, Tracer};
use crate::reference::Slowdown;
use crate::report::SCHEMES;
use std::collections::BTreeMap;

/// Span names of `try_plan_multicast` calls, by scheme (same order as
/// [`SCHEMES`]).
pub const PLAN_SPANS: [&str; 3] = ["core.plan.ni-fpfs", "core.plan.tree", "core.plan.path-lg"];
/// Span names of `run_until` / `run_to_completion` calls, by scheme.
pub const RUN_SPANS: [&str; 3] = ["sim.run.ni-fpfs", "sim.run.tree", "sim.run.path-lg"];

/// Engine and planner work of one pass, identical in every pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub plans: u64,
    pub worms: u64,
    pub cycles: u64,
    pub sweeps: u64,
    pub flit_hops: u64,
    pub replications: u64,
    pub completed: u64,
    pub reach_bytes: u64,
}

/// Map one traced pass's spans to layer metrics.
fn pass_layers(tr: &Tracer, pass: usize) -> (BTreeMap<String, f64>, BTreeMap<&'static str, f64>) {
    let in_pass = |id: u32| id as usize / 1000 == pass;
    let selfs = tr.self_times(in_pass);
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("topology.generate_s", "topology.generate"),
        ("topology.updown_s", "topology.updown"),
        ("topology.routing_s", "topology.routing"),
        ("topology.reach_s", "topology.reach"),
        ("topology.fault_plan_s", "topology.fault_plan"),
        ("topology.degrade_s", "topology.degrade"),
        ("sim.build_s", "sim.build"),
        ("sim.schedule_s", "sim.schedule"),
        ("harness.expand_s", "harness.expand"),
        ("bench.inputs_s", "bench.inputs"),
        ("bench.self_s", "bench.piece"),
    ] {
        m.insert(metric.to_string(), get(span));
    }
    m.insert(
        "topology.analyze_s".into(),
        tr.inclusive("topology.analyze", in_pass),
    );
    let mut plan = 0.0;
    let mut run = 0.0;
    for (i, s) in SCHEMES.iter().enumerate() {
        plan += get(PLAN_SPANS[i]);
        run += get(RUN_SPANS[i]);
        m.insert(format!("core.plan_s.{s}"), get(PLAN_SPANS[i]));
        m.insert(format!("sim.run_s.{s}"), get(RUN_SPANS[i]));
    }
    m.insert("core.plan_s".into(), plan);
    m.insert("sim.run_s".into(), run);
    let spans = tr.spans().iter().filter(|s| in_pass(s.piece)).count();
    m.insert("trace.spans".into(), spans as f64);
    (m, selfs)
}

/// Per-layer metrics from the traced passes (median over passes), the
/// derived per-unit costs, and the tracing overhead; appends the
/// self-time table to `lines`.
pub fn span_layers(
    tr: &Tracer,
    traced: &[usize],
    untraced_pieces: &Pieces,
    traced_pieces: &Pieces,
    counts: &Counts,
    lines: &mut Vec<String>,
) -> BTreeMap<String, f64> {
    let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut per_span: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let walls = traced_pieces.pass_spent();
    let mut coverage = Vec::new();
    for &p in traced {
        let (m, selfs) = pass_layers(tr, p);
        for (k, v) in m {
            per_metric.entry(k).or_default().push(v);
        }
        let sum: f64 = selfs.values().sum();
        for (k, v) in selfs {
            per_span.entry(k).or_default().push(v);
        }
        if let Some(&w) = walls.get(&p) {
            coverage.push(sum / w);
        }
    }
    let mut out: BTreeMap<String, f64> = per_metric
        .iter()
        .map(|(k, v)| (k.clone(), median(v)))
        .collect();

    lines.push(format!(
        "traced passes: {}; self time by span (median s, IQR/median):",
        traced.len()
    ));
    for (name, v) in &per_span {
        lines.push(format!(
            "  {name:<24} {:>12.6} {:>7.1}%",
            median(v),
            100.0 * rel_iqr(v)
        ));
    }
    lines.push(format!(
        "self times cover {:.2}% of the traced passes' piece time (median over passes)",
        100.0 * median(&coverage)
    ));

    let overhead = traced_pieces.best().1 - untraced_pieces.best().1;
    lines.push(format!(
        "tracing overhead: {overhead:.6} s ({:.2}% of the untraced {:.6} s)",
        100.0 * overhead / untraced_pieces.best().1,
        untraced_pieces.best().1
    ));
    out.insert("trace.overhead_s".into(), overhead);

    let c = counts;
    let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    let plan_s = out.get("core.plan_s").copied().unwrap_or(0.0);
    let run_s = out.get("sim.run_s").copied().unwrap_or(0.0);
    for (k, v) in [
        ("core.plans", c.plans as f64),
        ("core.worms", c.worms as f64),
        ("core.us_per_plan", 1e6 * ratio(plan_s, c.plans)),
        ("sim.cycles", c.cycles as f64),
        ("sim.sweeps", c.sweeps as f64),
        ("sim.sweeps_per_cycle", ratio(c.sweeps as f64, c.cycles)),
        ("sim.ns_per_sweep", 1e9 * ratio(run_s, c.sweeps)),
        ("sim.flit_hops", c.flit_hops as f64),
        ("sim.ns_per_flit_hop", 1e9 * ratio(run_s, c.flit_hops)),
        ("sim.replications", c.replications as f64),
        ("sim.completed", c.completed as f64),
        ("topology.reach_resident_kb", c.reach_bytes as f64 / 1024.0),
    ] {
        out.insert(k.to_string(), v);
    }
    out
}

/// The per-pass totals, so the spread behind the per-piece minima shows.
pub fn pass_lines(label: &str, pieces: &Pieces, lines: &mut Vec<String>) {
    for (p, s, t) in pieces.pass_totals() {
        lines.push(format!(
            "pass {p:>2} ({label}): total {t:.6} s, setup {s:.6} s"
        ));
    }
    let totals: Vec<f64> = pieces.pass_totals().iter().map(|x| x.2).collect();
    let (s, t) = pieces.best();
    lines.push(format!(
        "{label}: per-piece fastest sums to {t:.6} s (setup {s:.6} s); pass totals median {:.6} s, IQR/median {:.1}%",
        median(&totals),
        100.0 * rel_iqr(&totals)
    ));
}

/// Each piece's fastest pass, summed by label group (the label up to
/// " #"), in first-seen order.
pub fn group_lines(pieces: &Pieces, lines: &mut Vec<String>) {
    let mut groups: Vec<(&str, f64)> = Vec::new();
    for (i, label) in pieces.labels.iter().enumerate() {
        let g = label.split(" #").next().unwrap_or(label);
        match groups.iter_mut().find(|(n, _)| *n == g) {
            Some(e) => e.1 += pieces.best_spent(i),
            None => groups.push((g, pieces.best_spent(i))),
        }
    }
    for (g, t) in groups {
        lines.push(format!("  fastest {g:<16} {t:.6} s"));
    }
}

/// The end-to-end metrics: the untraced passes' per-piece-fastest sums
/// divided by the run's slowdown, in seconds of the reference machine,
/// and the peak RSS.
pub fn end_to_end(
    plain: &Pieces,
    slow: &Slowdown,
    rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let (setup, wall) = plain.best();
    vec![
        ("wall_s", wall / slow.wall, "s"),
        ("setup_s", setup / slow.setup, "s"),
        ("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// The twin's passes and the slowdown they give, as report lines and as
/// per-layer metrics, so the raw host times behind the end-to-end ones
/// stay visible.
pub fn slowdown_report(
    plain: &Pieces,
    twin: &Pieces,
    slow: &Slowdown,
    lines: &mut Vec<String>,
    out: &mut BTreeMap<String, f64>,
) {
    pass_lines("twin", twin, lines);
    let (setup, wall) = plain.best();
    lines.push(format!(
        "slowdown {:.4}x (set-up {:.4}x): wall_s = {wall:.6} / {:.4} = {:.6} s, setup_s = {setup:.6} / {:.4} = {:.6} s",
        slow.wall,
        slow.setup,
        slow.wall,
        wall / slow.wall,
        slow.setup,
        setup / slow.setup
    ));
    out.insert("bench.slowdown".into(), slow.wall);
    out.insert("bench.twin_s".into(), slow.twin_s);
    out.insert("bench.raw_wall_s".into(), wall);
    out.insert("bench.raw_setup_s".into(), setup);
}
