//! Extension I — transient soft errors: where should reliability live,
//! the network interface or the switch?
//!
//! The paper's placement question, re-asked for fault tolerance. A
//! seeded per-link error model corrupts or drops flits in flight at a
//! swept rate, and each scheme runs under four recovery configurations:
//! no recovery, switch-side link-level retry, NI-side end-to-end
//! retransmission, and both combined. Deterministic at every grid point
//! (classified `Exact` by the compare gate): the zero-rate rows must
//! match the healthy baseline byte for byte under every mechanism — the
//! reliability layer is free when the network is clean.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::SchemeId;
use irrnet_core::rng::fnv1a;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;
use irrnet_workloads::{run_periodic, PeriodicConfig};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The four recovery configurations: (label, link_retry, retx).
const MECHANISMS: &[(&str, bool, bool)] = &[
    ("none", false, false),
    ("switch", true, false),
    ("ni", false, true),
    ("both", true, true),
];

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("ext_i:reliability", |ctx: &RunCtx| {
        // The watchdog may sacrifice up to 8 stuck worms per run.
        let sim = SimConfig { watchdog_recovery_limit: 8, ..SimConfig::paper_default() };
        let net = ctx.cache.network(&RandomTopologyConfig::paper_default(0))?;
        // Same grid in quick and full mode: each point is one
        // deterministic run, not a seed-batch average. Rates are per-flit
        // probabilities in parts per billion (0.02%, 0.2%, 2%).
        let rates: &[u32] = &[0, 200_000, 2_000_000, 20_000_000];
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:>10} {:>6} {:>12} {:>9} {:>8} {:>7} {:>8} {:>7} {:>6} {:>5} {:>7}",
            "err_ppb", "mech", "scheme", "delivery", "overhead", "damaged", "retries", "exhaust",
            "e2e", "retx", "goodput"
        );
        let mut csv = String::from(
            "error_ppb,mechanism,scheme,delivery_ratio,mean_latency,latency_overhead,\
             completed,launched,flits_corrupted,flits_dropped_transient,link_retries,\
             retry_exhaustions,e2e_recoveries,retransmissions,goodput\n",
        );
        // Per-scheme healthy baseline latency (rate 0, no recovery):
        // `latency_overhead` is each row's mean latency relative to it.
        let mut baseline: HashMap<&str, f64> = HashMap::new();
        for &rate in rates {
            for &(mech, link_retry, retx) in MECHANISMS {
                let pc = PeriodicConfig::transient(rate, link_retry, retx);
                for scheme in SchemeId::BUILTIN {
                    let r = run_periodic(&net, &sim, scheme, &pc)?;
                    if rate == 0 && mech == "none" {
                        if let Some(l) = r.mean_latency {
                            baseline.insert(scheme.name(), l);
                        }
                    }
                    let lat = r.mean_latency.map(|l| format!("{l:.0}")).unwrap_or_default();
                    let overhead = match (r.mean_latency, baseline.get(scheme.name())) {
                        (Some(l), Some(&b)) if b > 0.0 => format!("{:.4}", l / b),
                        _ => String::new(),
                    };
                    let damaged = r.net.flits_corrupted + r.net.flits_dropped_transient;
                    let _ = writeln!(
                        table,
                        "{rate:>10} {mech:>6} {:>12} {:>9.3} {:>8} {damaged:>7} {:>8} {:>7} \
                         {:>6} {:>5} {:>7.4}",
                        scheme.name(),
                        r.delivery_ratio,
                        if overhead.is_empty() { "-" } else { &overhead },
                        r.net.link_retries,
                        r.net.retry_exhaustions,
                        r.net.e2e_recoveries,
                        r.net.retransmissions,
                        r.goodput,
                    );
                    let _ = writeln!(
                        csv,
                        "{rate},{mech},{},{:.6},{lat},{overhead},{},{},{},{},{},{},{},{},{:.6}",
                        scheme.name(),
                        r.delivery_ratio,
                        r.completed,
                        r.launched,
                        r.net.flits_corrupted,
                        r.net.flits_dropped_transient,
                        r.net.link_retries,
                        r.net.retry_exhaustions,
                        r.net.e2e_recoveries,
                        r.net.retransmissions,
                        r.goodput,
                    );
                }
                table.push('\n');
            }
        }
        table.push_str(
            "switch-side retry masks moderate rates invisibly (latency overhead near\n\
             1.0, no losses) but buys dedicated buffers at every output; NI-side\n\
             recovery needs no switch hardware but pays a full round trip plus\n\
             timeout per loss, and its unicast repairs re-expose the flits to the\n\
             same error rate. The combination escalates cleanly: retry absorbs the\n\
             common case, the NI catches the budget-exhausted tail.\n",
        );
        // Fingerprint the swept error-model family into the journal (an
        // `"err"` config emit): `irrnet-run status` labels each shard
        // with it, so a directory mixing workers built with different
        // rates or error seeds is caught before `merge`.
        let err_canonical = format!(
            "errsweep{{{}}}",
            rates
                .iter()
                .filter(|&&r| r > 0)
                .map(|&r| {
                    PeriodicConfig::transient(r, false, false).errors.canonical_string()
                })
                .collect::<Vec<_>>()
                .join(",")
        );
        let err_hash = fnv1a(err_canonical.as_bytes());
        Ok(vec![
            Emit::Config {
                kind: "sim".into(),
                canonical: sim.canonical_string(),
                hash: sim.stable_hash(),
            },
            Emit::Config { kind: "err".into(), canonical: err_canonical, hash: err_hash },
            Emit::Table(table),
            Emit::Csv { name: "ext_i_reliability.csv".into(), content: csv },
        ])
    })]
}
