//! The run manifest: `results/manifest.json`, written after every
//! campaign so a results directory is self-describing — what ran, with
//! which grids and seeds, which artifacts each experiment produced, the
//! config fingerprints behind them, and the topology-cache counters that
//! prove each `(topology config, seed)` pair was generated exactly once.
//!
//! Every field except the `*_ms` timing fields is deterministic: two
//! campaigns with the same options produce manifests that differ only on
//! lines containing `"_ms"`. The determinism test relies on that.

use crate::json::JsonWriter;
use crate::opts::CampaignOptions;
use crate::runner::CampaignReport;
use std::io;
use std::path::Path;

fn hex(hash: u64) -> String {
    format!("0x{hash:016x}")
}

/// Serialize and write the manifest.
pub fn write_manifest(
    path: &Path,
    opts: &CampaignOptions,
    report: &CampaignReport,
) -> io::Result<()> {
    let mut w = JsonWriter::new();
    w.obj(None);
    w.u64_field(Some("version"), 1);
    w.bool_field(Some("quick"), opts.quick);
    w.u64_field(Some("threads"), report.threads as u64);
    w.arr(Some("seeds"));
    for &s in &opts.seeds {
        w.u64_field(None, s);
    }
    w.end_arr();
    w.u64_field(Some("trials"), opts.trials as u64);
    if let Some(schemes) = &opts.schemes {
        w.arr(Some("schemes"));
        for &s in schemes {
            w.str_field(None, s.name());
        }
        w.end_arr();
    }
    // `IRRNET_AUDIT=1` is the one switch for the invariant auditor.
    w.bool_field(Some("audit"), irrnet_sim::audit::default_enabled());
    w.bool_field(Some("interrupted"), report.interrupted);

    w.arr(Some("experiments"));
    for e in &report.experiments {
        w.obj(None);
        w.str_field(Some("name"), e.name);
        w.str_field(Some("title"), e.title);
        w.u64_field(Some("units"), e.units as u64);
        w.arr(Some("artifacts"));
        for a in &e.artifacts {
            w.str_field(None, a);
        }
        w.end_arr();
        w.arr(Some("configs"));
        for (kind, canonical, hash) in &e.configs {
            w.obj(None);
            w.str_field(Some("kind"), kind);
            w.str_field(Some("hash"), &hex(*hash));
            w.str_field(Some("canonical"), canonical);
            w.end_obj();
        }
        w.end_arr();
        w.u64_field(Some("busy_ms"), e.busy_ms as u64);
        w.end_obj();
    }
    w.end_arr();

    w.arr(Some("failures"));
    for f in &report.failures {
        w.obj(None);
        w.str_field(Some("experiment"), f.experiment);
        w.str_field(Some("label"), &f.label);
        w.u64_field(Some("index"), f.index as u64);
        w.str_field(Some("kind"), &f.kind);
        w.str_field(Some("error"), &f.error);
        w.end_obj();
    }
    w.end_arr();

    w.obj(Some("topology_cache"));
    w.u64_field(Some("unique"), report.cache.unique as u64);
    w.u64_field(Some("generated"), report.cache.generated as u64);
    w.u64_field(Some("hits"), report.cache.hits as u64);
    w.u64_field(
        Some("max_generations_per_key"),
        report.cache.max_generations_per_key as u64,
    );
    w.arr(Some("entries"));
    for (config, hash, generations, uses) in &report.cache.entries {
        w.obj(None);
        w.str_field(Some("config"), config);
        w.str_field(Some("hash"), &hex(*hash));
        w.u64_field(Some("generations"), *generations as u64);
        w.u64_field(Some("uses"), *uses as u64);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();

    w.u64_field(Some("total_wall_ms"), report.total_wall_ms as u64);
    w.end_obj();

    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    // Atomic: a crash mid-write leaves the previous manifest (or none),
    // never a torn one.
    crate::journal::atomic_write(path, &w.finish())
}

/// Read the `"quick"` flag back out of a manifest (used by `compare` to
/// pick tolerances). Tolerant of missing files: returns `None`.
pub fn read_quick_flag(path: &Path) -> Option<bool> {
    let text = std::fs::read_to_string(path).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"quick\":") {
            return Some(rest.trim().trim_end_matches(',') == "true");
        }
    }
    None
}
