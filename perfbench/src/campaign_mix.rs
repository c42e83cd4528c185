//! `campaign-mix`: the quick campaign users run, minus the load figures
//! `paper-load` covers, through `runner::run_campaign` on one worker
//! thread with a fresh output directory per pass.

use crate::layers::{self, Counts};
use crate::measure::{median, peak_rss_mb, run_passes, Pieces, Tracer};
use crate::pins::{self, fnv1a, ArtifactPin};
use crate::reference::Probe;
use crate::report::{Checks, WorkloadResult, CAMPAIGN_EXPERIMENTS};
use crate::{analyze, Args};
use irrnet_harness::opts::CampaignOptions;
use irrnet_harness::registry::{self, ExperimentSpec};
use irrnet_harness::runner::{run_campaign, CampaignReport};
use irrnet_topology::{gen, ExtraLinks, RandomTopologyConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Full-mode goldens the quick campaign reproduces byte for byte.
const FULL_GOLDEN_MATCHES: [&str; 3] = [
    "ext_f_faults.csv",
    "ext_h_scaling.csv",
    "ext_i_reliability.csv",
];

/// Unit expansions timed per pass for `setup_s`.
const EXPAND_REPS: usize = 100;

/// `--seed` picks the campaign's topology seeds; seed 0 is the quick
/// campaign's own `0..3`.
fn options(seed: u64, out_dir: PathBuf) -> CampaignOptions {
    let mut o = CampaignOptions::quick();
    let n = o.seeds.len() as u64;
    o.seeds = (0..n)
        .map(|i| seed.wrapping_mul(n).wrapping_add(i))
        .collect();
    o.threads = Some(1);
    o.out_dir = out_dir;
    o
}

fn names() -> Vec<String> {
    CAMPAIGN_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
}

/// Resolve the experiments and expand their units, as `run_campaign`
/// does before its first unit runs.
fn expand(opts: &CampaignOptions) -> Result<(Vec<ExperimentSpec>, usize), String> {
    let specs = registry::resolve(&names())?;
    let units = specs.iter().map(|s| (s.units)(opts).len()).sum();
    Ok((specs, units))
}

/// Parse a topology-cache key, `RandomTopologyConfig::canonical_string`:
/// `topo{switches=8,ports=8,hosts=32,extra=frac:0.75,seed=0}`.
fn topo_config(key: &str) -> Option<RandomTopologyConfig> {
    let body = key.strip_prefix("topo{")?.strip_suffix('}')?;
    let mut f: BTreeMap<&str, &str> = BTreeMap::new();
    for kv in body.split(',') {
        let (k, v) = kv.split_once('=')?;
        f.insert(k, v);
    }
    let extra_links = match f.get("extra")?.split_once(':')? {
        ("frac", v) => ExtraLinks::Fraction(v.parse().ok()?),
        ("count", v) => ExtraLinks::Count(v.parse().ok()?),
        _ => return None,
    };
    let cfg = RandomTopologyConfig {
        num_switches: f.get("switches")?.parse().ok()?,
        ports_per_switch: f.get("ports")?.parse().ok()?,
        num_hosts: f.get("hosts")?.parse().ok()?,
        extra_links,
        seed: f.get("seed")?.parse().ok()?,
    };
    // Round trip, so a change of key format fails loudly.
    (cfg.canonical_string() == key).then_some(cfg)
}

/// A fresh, empty output directory.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// The CSV artifacts of one campaign, by name.
fn artifacts(report: &CampaignReport, dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut out = BTreeMap::new();
    for e in &report.experiments {
        for name in &e.artifacts {
            let path = dir.join(name);
            let bytes = std::fs::read(&path).map_err(|err| format!("{}: {err}", path.display()))?;
            out.insert(name.clone(), bytes);
        }
    }
    Ok(out)
}

/// One pass's harness facts that do not depend on timing or threads.
fn check_report(report: &CampaignReport, units: usize, checks: &mut Checks) {
    for f in &report.failures {
        checks.error(format!("unit {} failed ({}): {}", f.label, f.kind, f.error));
    }
    let done: usize = report.experiments.iter().map(|e| e.units).sum();
    checks.expect("units completed", &done, &units);
    checks.expect(
        "max generations per topology key",
        &report.cache.max_generations_per_key,
        &1,
    );
    checks.expect("interrupted", &report.interrupted, &false);
}

pub fn run(args: &Args) -> Result<WorkloadResult, String> {
    let base = args.out_dir().join("campaign-mix");
    let mut labels = vec!["expand".to_string()];
    labels.extend(CAMPAIGN_EXPERIMENTS.iter().map(|s| s.to_string()));
    labels.push("harness".into());
    let harness_piece = labels.len() - 1;
    let mut plain = Pieces::new(labels.clone());
    let mut traced = Pieces::new(labels);
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let mut traced_passes = Vec::new();
    let mut first: Option<BTreeMap<String, Vec<u8>>> = None;
    let mut last_report: Option<CampaignReport> = None;
    let mut traced_busy: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let pinned = if args.seed == 0 {
        Some(pins::campaign_mix()?)
    } else {
        None
    };
    let mut goldens: BTreeMap<String, Option<Vec<u8>>> = BTreeMap::new();
    let mut probe = Probe::new()?;

    let passes = run_passes(args.budget(), args.trace, |pass, on| {
        tr.set_on(on);
        if on {
            traced_passes.push(pass);
        }
        let rec = if on { &mut traced } else { &mut plain };
        let dir = base.join(format!("pass-{pass}"));
        let mut opts = options(args.seed, dir.clone());

        // One expansion takes tens of microseconds: repeat it and keep the
        // median.
        let mut times = Vec::with_capacity(EXPAND_REPS);
        let mut expanded = Err("not expanded".to_string());
        for _ in 0..EXPAND_REPS {
            let (e, d) = tr.piece(pass, 0, |tr| tr.span("harness.expand", |_| expand(&opts)));
            expanded = e;
            times.push(d.as_secs_f64());
        }
        let expand_s = median(&times);
        rec.record(pass, 0, Duration::from_secs_f64(expand_s), Duration::ZERO);
        if on {
            traced_busy
                .entry("harness.expand".into())
                .or_default()
                .push(expand_s);
        }
        let (specs, units) = match expanded {
            Ok(x) => x,
            Err(e) => return checks.error(e),
        };
        if let Err(e) = fresh_dir(&dir) {
            return checks.error(e);
        }
        opts.out_dir = dir.clone();

        // The twin's probe brackets the campaign in untraced passes, which
        // give the end-to-end metrics.
        if !on {
            probe.run_before(pass, &mut checks);
        }
        let (report, wall) = tr.piece(pass, 1, |tr| {
            tr.span("harness.run_campaign", |_| run_campaign(&specs, &opts))
        });
        if !on {
            probe.run_after(pass, &mut checks);
        }
        let report = match report {
            Ok(r) => r,
            Err(e) => return checks.error(format!("run_campaign: {e}")),
        };
        let mut busy = Duration::ZERO;
        for (i, e) in report.experiments.iter().enumerate() {
            let d = Duration::from_millis(e.busy_ms as u64);
            busy += d;
            rec.record(pass, 1 + i, Duration::ZERO, d);
            if on {
                traced_busy
                    .entry(e.name.to_string())
                    .or_default()
                    .push(d.as_secs_f64());
            }
        }
        let overhead = wall.saturating_sub(busy);
        rec.record(pass, harness_piece, Duration::ZERO, overhead);
        if on {
            traced_busy
                .entry("harness.overhead".into())
                .or_default()
                .push(overhead.as_secs_f64());
        }

        // Set-up, timed from outside: a cold fill of every topology-cache
        // key the campaign touched, with the generate-and-analyze calls a
        // cache miss makes. Not part of `wall_s`: the campaign did this
        // work inside its units.
        for (key, ..) in &report.cache.entries {
            let Some(cfg) = topo_config(key) else {
                checks.error(format!("unparsable topology key {key}"));
                continue;
            };
            let piece = rec.index(&format!("topology #{key}"));
            let (net, d) = tr.piece(pass, piece, |tr| {
                tr.span("topology.generate", |_| gen::generate(&cfg))
                    .map_err(|e| e.to_string())
                    .and_then(|t| analyze(tr, t))
            });
            rec.record(pass, piece, d, Duration::ZERO);
            if let Err(e) = net {
                checks.error(format!("{key}: {e}"));
            }
        }

        check_report(&report, units, &mut checks);
        match artifacts(&report, &dir) {
            Ok(arts) => {
                match (&pinned, &first) {
                    (Some(pins), _) => {
                        check_pinned(&arts, pins, &args.root, &mut goldens, &mut checks)
                    }
                    (None, Some(reference)) => {
                        for (name, want) in reference {
                            let same = arts.get(name) == Some(want);
                            checks.expect(&format!("{name} identical to pass 0"), &same, &true);
                        }
                        checks.expect("artifact count", &arts.len(), &reference.len());
                    }
                    (None, None) => {}
                }
                if first.is_none() {
                    first = Some(arts);
                }
            }
            Err(e) => checks.error(e),
        }
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            checks.error(format!("{}: {e}", dir.display()));
        }
        last_report = Some(report);
    });
    let rss = peak_rss_mb();
    let checked_from = Instant::now();
    let _ = std::fs::remove_dir(&base);

    let mut lines = vec![format!("campaign-mix: seed {}, {passes} passes", args.seed)];
    lines.push(format!(
        "checks took {:.1} s",
        checked_from.elapsed().as_secs_f64()
    ));
    layers::pass_lines("untraced", &plain, &mut lines);
    layers::group_lines(&plain, &mut lines);
    let mut layers_out = BTreeMap::new();
    if args.trace {
        layers::pass_lines("traced", &traced, &mut lines);
        layers_out = layers::span_layers(
            &tr,
            &traced_passes,
            &plain,
            &traced,
            &Counts::default(),
            &mut lines,
        );
        for (name, v) in &traced_busy {
            let key = match name.as_str() {
                "harness.overhead" => "harness.overhead_s".to_string(),
                "harness.expand" => "harness.expand_s".to_string(),
                e => format!("workloads.busy_s.{e}"),
            };
            layers_out.insert(key, median(v));
        }
        if let Some(r) = &last_report {
            layers_out.insert(
                "harness.units".into(),
                r.experiments.iter().map(|e| e.units).sum::<usize>() as f64,
            );
            layers_out.insert("harness.cache_generated".into(), r.cache.generated as f64);
            layers_out.insert("harness.cache_hits".into(), r.cache.hits as f64);
        }
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

/// Seed 0: goldens byte for byte, the rest against pinned digests.
fn check_pinned(
    arts: &BTreeMap<String, Vec<u8>>,
    pins: &BTreeMap<String, ArtifactPin>,
    root: &Path,
    goldens: &mut BTreeMap<String, Option<Vec<u8>>>,
    checks: &mut Checks,
) {
    for (name, pin) in pins {
        let Some(got) = arts.get(name) else {
            checks.error(format!("{name}: not written"));
            continue;
        };
        let dir = match pin {
            ArtifactPin::GoldenQuick => "results/golden-quick",
            ArtifactPin::Golden => "results/golden",
            ArtifactPin::Digest(d) => {
                checks.expect(&format!("{name} digest"), &fnv1a(got), d);
                continue;
            }
        };
        let path = root.join(dir).join(name);
        let golden = goldens
            .entry(path.display().to_string())
            .or_insert_with(|| std::fs::read(&path).ok());
        match golden {
            Some(g) => checks.expect(&format!("{name} identical to {dir}"), &(got == g), &true),
            None => checks.error(format!("{}: unreadable", path.display())),
        }
    }
    for name in arts.keys().filter(|n| !pins.contains_key(*n)) {
        checks.error(format!("{name}: written but not pinned"));
    }
}

/// Pin lines for seed 0: goldens where the quick campaign reproduces
/// them, digests elsewhere.
pub fn emit_pins(args: &Args) -> Result<String, String> {
    let dir = args.out_dir().join("campaign-mix-pins");
    fresh_dir(&dir)?;
    let opts = options(0, dir.clone());
    let (specs, units) = expand(&opts)?;
    let report = run_campaign(&specs, &opts).map_err(|e| e.to_string())?;
    let mut checks = Checks::default();
    check_report(&report, units, &mut checks);
    if checks.failed > 0 {
        return Err(checks.notes.join("; "));
    }
    let mut out = String::new();
    for (name, bytes) in artifacts(&report, &dir)? {
        let quick = std::fs::read(args.root.join("results/golden-quick").join(&name)).ok();
        let full = std::fs::read(args.root.join("results/golden").join(&name)).ok();
        let line = match (quick, full) {
            (Some(g), _) if g == bytes => format!("{name} golden-quick\n"),
            (Some(_), _) => return Err(format!("{name} differs from results/golden-quick")),
            (None, Some(g)) if FULL_GOLDEN_MATCHES.contains(&name.as_str()) => {
                if g != bytes {
                    return Err(format!("{name} differs from results/golden"));
                }
                format!("{name} golden\n")
            }
            _ => format!("{name} {:#018x}\n", fnv1a(&bytes)),
        };
        out.push_str(&line);
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(out)
}
