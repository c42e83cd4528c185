//! Saturation study: how much multicast traffic can the system absorb
//! under each scheme? Sweeps the effective applied load for 8-way
//! multicasts and reports latency and the saturation point — the DSM
//! cache-invalidation scenario of the paper's introduction, where
//! invalidation multicasts arrive continuously.
//!
//! Run with: `cargo run --release --example saturation_study`
//! (shorten it by editing LOADS below).

use irrnet::prelude::*;

const LOADS: &[f64] = &[0.02, 0.05, 0.1, 0.2, 0.35];

fn main() {
    let net = Network::analyze(gen::generate(&RandomTopologyConfig::paper_default(3)).unwrap())
        .unwrap();
    let cfg = SimConfig::paper_default();
    println!("8-way multicast latency (cycles) vs. effective applied load, R = 1\n");
    print!("{:>10}", "load");
    for s in SchemeId::PAPER_THREE {
        print!(" {:>12}", s.name());
    }
    println!();
    let mut first_sat: Vec<Option<f64>> = vec![None; SchemeId::PAPER_THREE.len()];
    for &load in LOADS {
        print!("{load:>10.2}");
        for (i, scheme) in SchemeId::PAPER_THREE.into_iter().enumerate() {
            let mut lc = LoadConfig::paper_default(8, load);
            lc.warmup = 50_000;
            lc.measure = 300_000;
            lc.drain = 150_000;
            let r = run_load(&net, &cfg, scheme, &lc).expect("load run");
            match (r.saturated, r.mean_latency) {
                (false, Some(l)) => print!(" {l:>12.0}"),
                (true, Some(l)) => {
                    print!(" {:>11.0}*", l);
                    first_sat[i].get_or_insert(load);
                }
                _ => {
                    print!(" {:>12}", "sat");
                    first_sat[i].get_or_insert(load);
                }
            }
        }
        println!();
    }
    println!("\n(* = saturated: fewer than 90% of generated multicasts completed)");
    println!("\nfirst saturated load point:");
    for (scheme, sat) in SchemeId::PAPER_THREE.into_iter().zip(first_sat) {
        match sat {
            Some(l) => println!("  {:>10}: {l}", scheme.name()),
            None => println!("  {:>10}: beyond {}", scheme.name(), LOADS.last().unwrap()),
        }
    }
}
