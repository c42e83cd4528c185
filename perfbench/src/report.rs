//! What a workload hands back, the per-layer metric catalogue, and the
//! result file the runner script reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Experiments `campaign-mix` runs: the whole registry except the load
/// figures, which `paper-load` covers.
pub const CAMPAIGN_EXPERIMENTS: [&str; 17] = [
    "fig06",
    "fig07",
    "fig08",
    "tab01",
    "ext_a",
    "ext_b",
    "ext_c",
    "ext_d",
    "ext_e",
    "ext_f",
    "ext_g",
    "ext_h",
    "ext_i",
    "abl_ordering",
    "abl_adaptivity",
    "abl_mdp",
    "abl_hybrid",
];

/// The schemes the paper compares, resolved by name.
pub const SCHEMES: [&str; 3] = ["ni-fpfs", "tree", "path-lg"];

/// Every per-layer metric, with its unit. A traced run of any workload
/// reports all of them; a layer the workload does not reach reads 0.
pub fn layer_catalogue() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("topology.generate_s", "s"),
        ("topology.analyze_s", "s"),
        ("topology.updown_s", "s"),
        ("topology.routing_s", "s"),
        ("topology.reach_s", "s"),
        ("topology.fault_plan_s", "s"),
        ("topology.degrade_s", "s"),
        ("topology.reach_resident_kb", "kB"),
        ("core.plan_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    v.extend(SCHEMES.iter().map(|s| (format!("core.plan_s.{s}"), "s")));
    v.extend(
        [
            ("core.plans", "count"),
            ("core.us_per_plan", "us"),
            ("core.worms", "count"),
            ("sim.build_s", "s"),
            ("sim.schedule_s", "s"),
            ("sim.run_s", "s"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v.extend(SCHEMES.iter().map(|s| (format!("sim.run_s.{s}"), "s")));
    v.extend(
        [
            ("sim.cycles", "count"),
            ("sim.sweeps", "count"),
            ("sim.sweeps_per_cycle", "sweeps/cycle"),
            ("sim.ns_per_sweep", "ns"),
            ("sim.flit_hops", "count"),
            ("sim.ns_per_flit_hop", "ns"),
            ("sim.replications", "count"),
            ("sim.completed", "count"),
            ("harness.expand_s", "s"),
            ("harness.overhead_s", "s"),
            ("harness.units", "count"),
            ("harness.cache_generated", "count"),
            ("harness.cache_hits", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v.extend(
        CAMPAIGN_EXPERIMENTS
            .iter()
            .map(|e| (format!("workloads.busy_s.{e}"), "s")),
    );
    v.extend(
        [
            ("bench.inputs_s", "s"),
            ("bench.self_s", "s"),
            ("bench.slowdown", "x"),
            ("bench.twin_s", "s"),
            ("bench.raw_wall_s", "s"),
            ("bench.raw_setup_s", "s"),
            ("trace.overhead_s", "s"),
            ("trace.spans", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Outcome checks: every compared result is one attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one comparison; remember the first few mismatches.
    pub fn expect<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        self.attempted += 1;
        if got != want {
            self.fail(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Count one operation that failed outright.
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }
}

/// Everything one workload run reports.
pub struct WorkloadResult {
    pub checks: Checks,
    /// `wall_s`, `setup_s`, `peak_rss_mb` (untraced).
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values by catalogue name; absent names read 0.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines: per-pass totals, self-time table, checks.
    pub lines: Vec<String>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl WorkloadResult {
    /// The result file: the contract's four keys plus the report lines.
    /// `trace` selects per-layer metrics instead of end-to-end ones.
    pub fn to_json(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        if trace {
            for (name, unit) in layer_catalogue() {
                let v = self.layers.get(&name).copied().unwrap_or(0.0);
                metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&name),
                    json_num(v),
                    json_str(unit)
                ));
            }
        } else {
            for &(name, v, unit) in &self.end_to_end {
                metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                ));
            }
        }
        let lines: Vec<String> = self.lines.iter().map(|l| json_str(l)).collect();
        // A run that checked nothing counts as one failed operation.
        let (attempted, failed) = match self.checks.attempted {
            0 => (1, 1),
            n => (n, self.checks.failed),
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"report\": [{}]}}\n",
            failed == 0,
            attempted,
            failed,
            metrics.join(", "),
            lines.join(", ")
        )
    }
}
