//! Values pinned at the commit that introduced the benchmark, for the
//! default seed (0). Regenerate with `irrnet-perfbench --emit-pins
//! <workload> --root .` only when a change is meant to alter results.

use crate::live::point::Outcome;
use std::collections::BTreeMap;

const PAPER_LOAD: &str = include_str!("../pins/paper-load.txt");
const GIANT_FABRIC: &str = include_str!("../pins/giant-fabric.txt");
const CAMPAIGN_MIX: &str = include_str!("../pins/campaign-mix.txt");

/// `key value...` lines; `#` starts a comment line.
fn lines(text: &str) -> impl Iterator<Item = (&str, Vec<&str>)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut f = l.split_whitespace();
            (f.next().unwrap_or(""), f.collect())
        })
}

fn num(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("pinned value {s}: {e}"))
}

/// Numeric pins: key to values.
fn numeric(text: &str) -> Result<BTreeMap<String, Vec<u64>>, String> {
    lines(text)
        .map(|(k, vs)| {
            Ok((
                k.to_string(),
                vs.into_iter().map(num).collect::<Result<_, _>>()?,
            ))
        })
        .collect()
}

pub fn paper_load() -> Result<BTreeMap<String, Outcome>, String> {
    numeric(PAPER_LOAD)?
        .into_iter()
        .map(|(k, v)| match v[..] {
            [launched, completed, mean_latency_bits, cycles, sweeps, flit_hops, replications, worms, completed_all, mcasts] => {
                Ok((
                    k,
                    Outcome {
                        launched,
                        completed,
                        mean_latency_bits,
                        cycles,
                        sweeps,
                        flit_hops,
                        replications,
                        worms,
                        completed_all,
                        mcasts,
                    },
                ))
            }
            _ => Err(format!("paper-load pin {k}: expected 10 values, found {}", v.len())),
        })
        .collect()
}

pub fn giant_fabric() -> Result<BTreeMap<String, Vec<u64>>, String> {
    numeric(GIANT_FABRIC)
}

/// How a campaign artifact is checked at seed 0.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactPin {
    /// Byte-identical to `results/golden-quick/<name>`.
    GoldenQuick,
    /// Byte-identical to `results/golden/<name>`.
    Golden,
    /// FNV-1a 64 digest of the bytes.
    Digest(u64),
}

pub fn campaign_mix() -> Result<BTreeMap<String, ArtifactPin>, String> {
    lines(CAMPAIGN_MIX)
        .map(|(k, v)| {
            let pin = match v[..] {
                ["golden-quick"] => ArtifactPin::GoldenQuick,
                ["golden"] => ArtifactPin::Golden,
                [d] => ArtifactPin::Digest(num(d)?),
                _ => return Err(format!("campaign-mix pin {k}: expected one field")),
            };
            Ok((k.to_string(), pin))
        })
        .collect()
}

/// FNV-1a 64 over `bytes`, written here rather than taken from the crates
/// so the check shares no code with the program it checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
