//! Host-time benchmark of the irrnet crates, one workload per process.
//!
//! ```text
//! irrnet-perfbench --workload <paper-load|giant-fabric|campaign-mix>
//!     --seed N --seconds S --trace 0|1 --root DIR --result FILE
//! irrnet-perfbench --emit-pins <workload> --root DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and drives it; see
//! `perfbench/README.md` for the workloads, metrics and checks.

mod campaign_mix;
mod giant_fabric;
mod layers;
mod live;
mod measure;
mod paper_load;
mod pins;
mod reference;
mod report;
mod twin;

use irrnet_topology::{Network, Reachability, RoutingTables, SwitchId, Topology, UpDown};
use measure::Tracer;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Root of the checkout: goldens are read and scratch output written
    /// below it.
    pub root: PathBuf,
    pub result: Option<PathBuf>,
    pub emit_pins: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// Scratch directory for campaign output and span dumps.
    pub fn out_dir(&self) -> PathBuf {
        self.root.join(".bench_out")
    }

    fn parse() -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 50,
            trace: false,
            root: PathBuf::from("."),
            result: None,
            emit_pins: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--emit-pins" => {
                    a.workload = value()?;
                    a.emit_pins = true;
                }
                "--seed" => a.seed = num(value()?)?,
                "--seconds" => a.seconds = num(value()?)?,
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace {v}: expected 0 or 1")),
                    }
                }
                "--root" => a.root = value()?.into(),
                "--result" => a.result = Some(value()?.into()),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(1..=120).contains(&a.seconds) {
            return Err(format!("--seconds {}: expected 1..=120", a.seconds));
        }
        Ok(a)
    }
}

/// `Network::analyze`, timed. A traced pass runs its steps one by one
/// (validation, up/down orientation, routing tables, reachability) so
/// each gets a span; an untraced pass calls `Network::analyze` itself.
pub fn analyze(tr: &mut Tracer, topo: Topology) -> Result<Network, String> {
    tr.span("topology.analyze", |tr| {
        if !tr.is_on() {
            return Network::analyze(topo).map_err(|e| e.to_string());
        }
        let err = |e: irrnet_topology::TopologyError| e.to_string();
        topo.validate().map_err(err)?;
        let updown = tr
            .span("topology.updown", |_| UpDown::compute(&topo, SwitchId(0)))
            .map_err(err)?;
        let routing = tr
            .span("topology.routing", |_| {
                RoutingTables::compute(&topo, &updown)
            })
            .map_err(err)?;
        let reach = tr
            .span("topology.reach", |_| Reachability::compute(&topo, &updown))
            .map_err(err)?;
        Ok(Network {
            topo,
            updown,
            routing,
            reach,
            status: None,
        })
    })
}

/// Write the traced run's spans to `.bench_out/<workload>-seed<N>.spans.tsv`.
pub fn write_trace(args: &Args, tr: &Tracer) -> Result<(), String> {
    let dir = args.out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
    std::fs::write(&path, tr.dump()).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("irrnet-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.emit_pins {
        let pins = match args.workload.as_str() {
            "paper-load" => paper_load::emit_pins(),
            "giant-fabric" => giant_fabric::emit_pins(),
            "campaign-mix" => campaign_mix::emit_pins(&args),
            w => Err(format!("unknown workload {w}")),
        };
        // Written to `--result` when given: the campaign prints its own
        // tables on standard output.
        let written = pins.and_then(|text| match &args.result {
            Some(path) => {
                std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
            }
            None => {
                print!("{text}");
                Ok(())
            }
        });
        if let Err(e) = written {
            eprintln!("irrnet-perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = match args.workload.as_str() {
        "paper-load" => paper_load::run(&args),
        "giant-fabric" => giant_fabric::run(&args),
        "campaign-mix" => campaign_mix::run(&args),
        w => Err(format!("unknown workload {w}")),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("irrnet-perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut json = result.to_json(args.trace);
    for note in &result.checks.notes {
        eprintln!("check failed: {note}");
    }
    match &args.result {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("irrnet-perfbench: {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        None => {
            json.pop();
            println!("{json}");
        }
    }
}
