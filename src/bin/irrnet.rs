//! `irrnet` — command-line front end for the reproduction.
//!
//! ```text
//! irrnet single  --scheme tree --degree 16 [--msg 128] [--seeds 5] [--trials 3]
//! irrnet load    --scheme path-lg --degree 8 --load 0.1 [--msg 128] [--seed 0]
//! irrnet topo    [--seed 0] [--dot]
//! irrnet metrics [--seed 0]
//! irrnet schemes
//! ```
//!
//! `single` and `load` also read the cost-model flags `[--r 1.0]
//! [--oh 500] [--packet 128] [--adaptive true]`, and every command but
//! `schemes` reads the topology flags `[--switches 8] [--ports 8]
//! [--nodes 32] [--extra-links 0.75]`. A flag the command does not read
//! is an error.

use irrnet::prelude::*;
use irrnet::topology::{dot, ExtraLinks};
use std::collections::HashMap;
use std::process::ExitCode;

/// The topology flags, read by `topo_config`.
const TOPO_FLAGS: &[&str] = &["switches", "ports", "nodes", "extra-links"];
/// The cost-model flags, read by `sim_config`.
const SIM_FLAGS: &[&str] = &["oh", "r", "packet", "adaptive"];

/// `--name value` pairs; a flag without a value reads as `true`. A flag
/// whose name is not in `known` is an error.
fn parse_flags(args: &[String], known: &[&[&str]]) -> Result<HashMap<String, String>, String> {
    let mut m = HashMap::new();
    let mut unknown = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{}'", args[i]))?;
        if !known.iter().any(|names| names.contains(&name)) {
            unknown.push(format!("--{name}"));
        }
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            m.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            m.insert(name.to_string(), "true".to_string());
            i += 1;
        }
    }
    if !unknown.is_empty() {
        let reads: Vec<String> =
            known.iter().copied().flatten().map(|n| format!("--{n}")).collect();
        let reads = if reads.is_empty() { "no flags".to_string() } else { reads.join(", ") };
        let noun = if unknown.len() == 1 { "flag" } else { "flags" };
        return Err(format!("unknown {noun} {}; this command reads {reads}", unknown.join(", ")));
    }
    Ok(m)
}

/// The value of `--key`, or `default` when the flag is absent.
fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse '{v}'")),
        None => Ok(default),
    }
}

fn topo_config(flags: &HashMap<String, String>, seed: u64) -> Result<RandomTopologyConfig, String> {
    Ok(RandomTopologyConfig {
        num_switches: get(flags, "switches", 8usize)?,
        ports_per_switch: get(flags, "ports", 8u8)?,
        num_hosts: get(flags, "nodes", 32usize)?,
        extra_links: ExtraLinks::Fraction(get(flags, "extra-links", 0.75f64)?),
        seed,
    })
}

fn sim_config(flags: &HashMap<String, String>) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::paper_default();
    cfg.o_send_host = get(flags, "oh", cfg.o_send_host)?;
    cfg.o_recv_host = cfg.o_send_host;
    let r = get(flags, "r", 1.0f64)?;
    cfg = cfg.with_r(r).map_err(|e| format!("--r {e}"))?;
    cfg.packet_payload_flits = get(flags, "packet", cfg.packet_payload_flits)?;
    cfg.input_buffer_flits = cfg.packet_payload_flits + 40;
    cfg.adaptive = get(flags, "adaptive", true)?;
    Ok(cfg)
}

/// Generate and analyze the random topology the flags describe.
fn network(flags: &HashMap<String, String>, seed: u64) -> Result<Network, String> {
    irrnet::topology::gen::generate(&topo_config(flags, seed)?)
        .and_then(Network::analyze)
        .map_err(|e| format!("topology error: {e}"))
}

fn scheme_flag(flags: &HashMap<String, String>) -> Result<SchemeId, String> {
    let name = flags.get("scheme").ok_or("--scheme required; see `irrnet schemes`")?;
    SchemeRegistry::resolve(name)
        .ok_or_else(|| format!("unknown scheme '{name}'; see `irrnet schemes`"))
}

fn cmd_single(args: &[String]) -> Result<(), String> {
    let own = ["scheme", "degree", "msg", "seeds", "trials"];
    let flags = parse_flags(args, &[&own, SIM_FLAGS, TOPO_FLAGS])?;
    let scheme = scheme_flag(&flags)?;
    let degree: usize = get(&flags, "degree", 8)?;
    let msg: u32 = get(&flags, "msg", 128)?;
    let seeds: u64 = get(&flags, "seeds", 5)?;
    let trials: usize = get(&flags, "trials", 3)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let cfg = sim_config(&flags)?;
    let mut sum = 0.0;
    for seed in 0..seeds {
        let net = network(&flags, seed)?;
        sum += mean_single_latency(&net, &cfg, scheme, degree, msg, trials, seed)
            .map_err(|e| e.to_string())?;
    }
    let mean = sum / seeds as f64;
    println!(
        "{}: mean {degree}-way multicast latency = {mean:.0} cycles ({:.1} µs at 10 ns) \
         over {seeds} topologies × {trials} trials, {msg}-flit messages, R = {}",
        scheme.name(),
        mean / 100.0,
        cfg.r_ratio()
    );
    Ok(())
}

fn cmd_load(args: &[String]) -> Result<(), String> {
    let own = ["scheme", "degree", "load", "msg", "seed"];
    let flags = parse_flags(args, &[&own, SIM_FLAGS, TOPO_FLAGS])?;
    let scheme = scheme_flag(&flags)?;
    let degree: usize = get(&flags, "degree", 8)?;
    let load: f64 = get(&flags, "load", 0.1)?;
    let cfg = sim_config(&flags)?;
    let net = network(&flags, get(&flags, "seed", 0)?)?;
    let mut lc = LoadConfig::paper_default(degree, load);
    lc.message_flits = get(&flags, "msg", 128)?;
    let r = run_load(&net, &cfg, scheme, &lc).map_err(|e| e.to_string())?;
    println!(
        "{} at effective load {load}: launched {}, completed {}, saturated: {}",
        scheme.name(),
        r.launched,
        r.completed,
        r.saturated
    );
    if let Some(l) = r.mean_latency {
        println!("mean latency {l:.0} cycles ({:.1} µs at 10 ns)", l / 100.0);
    }
    Ok(())
}

fn cmd_topo(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[&["seed", "dot"], TOPO_FLAGS])?;
    let seed = get(&flags, "seed", 0u64)?;
    let net = network(&flags, seed)?;
    if flags.contains_key("dot") {
        print!("{}", dot::to_dot(&net.topo, Some(&net.updown)));
    } else {
        println!(
            "seed {seed}: {} switches, {} nodes, {} links, root {}",
            net.num_switches(),
            net.num_nodes(),
            net.topo.num_links(),
            net.updown.root()
        );
        for (s, _) in net.topo.switches() {
            println!(
                "  {s}: level {}, hosts {}, covers {} nodes",
                net.updown.level(s),
                net.topo.nodes_at(s).len(),
                net.reach.cover(s).len()
            );
        }
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    use irrnet::topology::metrics::{network_metrics, updown_stretch_fraction};
    let flags = parse_flags(args, &[&["seed"], TOPO_FLAGS])?;
    let seed = get(&flags, "seed", 0u64)?;
    let net = network(&flags, seed)?;
    let m = network_metrics(&net);
    println!("seed {seed}:");
    println!("  switches            {}", m.switches);
    println!("  nodes               {}", m.nodes);
    println!("  links               {}", m.links);
    println!("  diameter            {} legal hops", m.diameter);
    println!("  mean distance       {:.2}", m.mean_distance);
    println!("  adaptive pairs      {:.0}%", m.adaptive_fraction * 100.0);
    println!("  nodes per switch    {:.2}", m.nodes_per_switch);
    println!(
        "  up*/down* stretch   {:.0}% of pairs lose their shortest route",
        updown_stretch_fraction(&net) * 100.0
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: irrnet <single|load|topo|metrics|schemes> [--flags]");
        return ExitCode::FAILURE;
    };
    let args = &args[1..];
    let done = match cmd.as_str() {
        "single" => cmd_single(args),
        "load" => cmd_load(args),
        "topo" => cmd_topo(args),
        "metrics" => cmd_metrics(args),
        "schemes" => parse_flags(args, &[]).map(|_| {
            for name in SchemeRegistry::names() {
                println!("{name}");
            }
        }),
        other => Err(format!("unknown command: {other}")),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
