//! `irrnet-run compare` — the regression gate.
//!
//! Two layers:
//!
//! 1. **Golden diff.** Every CSV under the golden directory is matched
//!    against the same artifact in the results directory and compared
//!    cell-by-cell within a tolerance. Quick campaigns use subset grids,
//!    so run rows are matched to golden rows by key (the x column plus
//!    any non-numeric columns) rather than by position. Files fall into
//!    classes: `Exact` artifacts are deterministic regardless of
//!    campaign size; `Stat` artifacts average over the seed batch and
//!    get a wide tolerance in quick mode; `Windowed` artifacts also
//!    change measurement windows or seed sets in quick mode, so there
//!    only their header and row keys are checked: `results/golden-quick/`
//!    holds their quick values, which `run_figs.sh` and CI byte-compare.
//! 2. **Qualitative claims.** The paper's conclusions, checked against
//!    the generated data itself (ported from the retired
//!    `check_results` binary).

use crate::manifest::read_quick_flag;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A parsed artifact CSV.
struct Csv {
    header: Vec<String>,
    /// Raw row cells, aligned with `header`.
    rows: Vec<Vec<String>>,
    /// Parsed columns by name (`None` = empty/saturated/non-numeric).
    cols: HashMap<String, Vec<Option<f64>>>,
}

fn load(path: &Path) -> Option<Csv> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header: Vec<String> = lines.next()?.split(',').map(str::to_string).collect();
    let mut rows = Vec::new();
    let mut cols: HashMap<String, Vec<Option<f64>>> =
        header.iter().map(|h| (h.clone(), Vec::new())).collect();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<String> = line.split(',').map(str::to_string).collect();
        for (h, cell) in header.iter().zip(&cells) {
            // A duplicate header name would drop the earlier column in
            // the map above; never panic on a malformed artifact.
            if let Some(col) = cols.get_mut(h) {
                col.push(cell.parse().ok());
            }
        }
        rows.push(cells);
    }
    Some(Csv { header, rows, cols })
}

impl Csv {
    /// Column indices that identify a row: the first column plus every
    /// column holding non-numeric data (scheme names, booleans), extended
    /// left-to-right with further columns until the keys are unique —
    /// multi-parameter grids (`r,msg,...`, `scheme,dests,...`) need more
    /// than one input column to tell rows apart.
    fn key_columns(&self) -> Vec<usize> {
        let mut keys = vec![0usize];
        for i in 1..self.header.len() {
            let numeric = self.rows.iter().all(|r| {
                r.get(i).map(|c| c.is_empty() || c.parse::<f64>().is_ok()).unwrap_or(true)
            });
            if !numeric {
                keys.push(i);
            }
        }
        let unique = |keys: &[usize]| {
            let mut seen = std::collections::HashSet::new();
            self.rows.iter().all(|r| seen.insert(self.row_key(r, keys)))
        };
        for i in 1..self.header.len() {
            if unique(&keys) {
                break;
            }
            if !keys.contains(&i) {
                keys.push(i);
                keys.sort_unstable();
            }
        }
        keys
    }

    fn row_key(&self, row: &[String], key_cols: &[usize]) -> String {
        key_cols
            .iter()
            .map(|&i| row.get(i).map(String::as_str).unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\x1f")
    }

    /// Mean over non-saturated cells of a column.
    fn mean(&self, col: &str) -> Option<f64> {
        let v = self.cols.get(col)?;
        let vals: Vec<f64> = v.iter().filter_map(|x| *x).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Count of non-saturated cells (higher = saturates later).
    fn alive(&self, col: &str) -> usize {
        self.cols.get(col).map(|v| v.iter().filter(|x| x.is_some()).count()).unwrap_or(0)
    }
}

/// How strictly an artifact's values are held to the goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileClass {
    /// Deterministic regardless of campaign size (tables, collectives).
    Exact,
    /// Seed-batch averages: exact in full runs, wide tolerance in quick.
    Stat,
    /// Quick mode changes seed sets or measurement windows: quick runs
    /// are held to the golden's shape only.
    Windowed,
}

fn classify(name: &str) -> FileClass {
    if name.starts_with("tab01_")
        || name.starts_with("ext_e_")
        || name.starts_with("ext_f_")
        || name.starts_with("ext_h_")
        || name.starts_with("ext_i_")
    {
        // ext_f and ext_i run the same pinned-seed grid in quick and full
        // mode: every cell is a deterministic degradation story. ext_h
        // carries only deterministic columns (cycle counts and
        // reachability storage sizes); quick mode drops the largest
        // scale's row but shared rows are byte-identical.
        FileClass::Exact
    } else if name.starts_with("fig09")
        || name.starts_with("fig10")
        || name.starts_with("fig11")
        || name.starts_with("ext_b")
        || name.starts_with("ext_d")
        || name.starts_with("abl_")
    {
        FileClass::Windowed
    } else {
        // fig06–08, ext_a*, ext_c*: single-multicast seed-batch averages.
        FileClass::Stat
    }
}

/// Accumulates the gate's verdicts.
pub struct Gate {
    results: PathBuf,
    failures: Vec<String>,
    warnings: Vec<String>,
    checks: usize,
}

impl Gate {
    fn claim(&mut self, what: &str, ok: bool) {
        self.checks += 1;
        if ok {
            println!("  ok   {what}");
        } else {
            println!("  FAIL {what}");
            self.failures.push(what.to_string());
        }
    }

    fn warn(&mut self, what: String) {
        println!("  warn {what}");
        self.warnings.push(what);
    }

    fn csv(&mut self, name: &str) -> Option<Csv> {
        let p = self.results.join(name);
        let c = load(&p);
        if c.is_none() {
            self.failures.push(format!("missing or unreadable {name}"));
            println!("  FAIL missing {name}");
        }
        c
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-9)
}

fn diff_file(gate: &mut Gate, name: &str, golden: &Csv, run: &Csv, quick: bool, tol: f64) {
    if run.header != golden.header {
        gate.claim(
            &format!("{name}: header matches golden ({:?})", golden.header),
            false,
        );
        return;
    }
    let key_cols = golden.key_columns();
    let golden_rows: HashMap<String, &Vec<String>> = golden
        .rows
        .iter()
        .map(|r| (golden.row_key(r, &key_cols), r))
        .collect();
    let class = classify(name);
    let tol = if class == FileClass::Exact { 1e-9 } else { tol };
    // Quick windowed values differ from the full-mode goldens by design;
    // results/golden-quick/ holds them, so only the shape is held here.
    let shape_only = quick && class == FileClass::Windowed;
    let mut matched = 0usize;
    let mut worst: f64 = 0.0;
    let mut ok = true;
    for row in &run.rows {
        let key = run.row_key(row, &key_cols);
        let Some(grow) = golden_rows.get(&key) else {
            if !shape_only {
                let key = key.replace('\x1f', ",");
                gate.warn(format!("{name}: run row '{key}' absent from golden"));
            }
            continue;
        };
        for (i, _h) in run.header.iter().enumerate() {
            if key_cols.contains(&i) {
                continue;
            }
            let rv = row.get(i).and_then(|c| c.parse::<f64>().ok());
            let gv = grow.get(i).and_then(|c| c.parse::<f64>().ok());
            match (rv, gv) {
                (Some(a), Some(b)) => {
                    matched += 1;
                    let d = rel_diff(a, b);
                    worst = worst.max(d);
                    if d > tol && !shape_only {
                        ok = false;
                    }
                }
                (None, None) => {}
                _ if shape_only => {}
                _ => {
                    // Saturation onset moved (different windows/seeds):
                    // informative, not a regression by itself.
                    gate.warn(format!(
                        "{name}: saturation mismatch at '{}' column {}",
                        key.replace('\x1f', ","),
                        run.header[i]
                    ));
                }
            }
        }
    }
    let what = if shape_only {
        format!("{name}: {matched} cells keyed like golden (values in results/golden-quick/)")
    } else {
        format!(
            "{name}: {matched} cells within {:.0}% of golden (worst {:.1}%)",
            tol * 100.0,
            worst * 100.0
        )
    };
    gate.claim(&what, ok && matched > 0);
}

/// Port of the retired `check_results` gate: the paper's qualitative
/// conclusions must hold in the generated data.
fn check_claims(ck: &mut Gate, quick: bool) {
    // FIG6: tree wins everywhere; NI:path gap shrinks with R.
    let mut gap_by_r = Vec::new();
    for r in ["0.5", "1", "2", "4"] {
        if let Some(c) = ck.csv(&format!("fig06_r{r}.csv")) {
            let tree = c.mean("tree").unwrap_or(f64::MAX);
            for other in ["ubinomial", "ni-fpfs", "path-lg"] {
                let o = c.mean(other).unwrap_or(0.0);
                ck.claim(
                    &format!("fig06 R={r}: tree ({tree:.0}) < {other} ({o:.0})"),
                    tree < o,
                );
            }
            let ni = c.mean("ni-fpfs").unwrap_or(0.0);
            let path = c.mean("path-lg").unwrap_or(1.0);
            gap_by_r.push(ni / path);
            ck.claim(&format!("fig06 R={r}: {} rows present", c.rows.len()), c.rows.len() >= 3);
        }
    }
    if gap_by_r.len() == 4 {
        ck.claim(
            &format!(
                "fig06: NI:path ratio falls with R ({:.2} -> {:.2})",
                gap_by_r[0], gap_by_r[3]
            ),
            gap_by_r[3] < gap_by_r[0],
        );
        ck.claim("fig06: NI beats path at R=4", gap_by_r[3] < 1.0);
    }

    // FIG7: path-lg degrades with switches, others stable.
    let (mut p8, mut p32, mut n8, mut n32) = (0.0, 0.0, 0.0, 0.0);
    if let (Some(c8), Some(c32)) = (ck.csv("fig07_s8.csv"), ck.csv("fig07_s32.csv")) {
        p8 = c8.mean("path-lg").unwrap_or(0.0);
        p32 = c32.mean("path-lg").unwrap_or(0.0);
        n8 = c8.mean("ni-fpfs").unwrap_or(0.0);
        n32 = c32.mean("ni-fpfs").unwrap_or(0.0);
    }
    ck.claim(
        &format!("fig07: path-lg degrades 8→32 switches ({p8:.0} -> {p32:.0})"),
        p32 > 1.15 * p8,
    );
    ck.claim(
        &format!("fig07: ni-fpfs stable 8→32 switches ({n8:.0} -> {n32:.0})"),
        n32 < 1.1 * n8,
    );

    // FIG8: NI:path ratio shrinks with message length.
    let ratio = |ck: &mut Gate, name: &str| -> Option<f64> {
        let c = ck.csv(name)?;
        Some(c.mean("ni-fpfs")? / c.mean("path-lg")?)
    };
    if let (Some(r128), Some(r2048)) =
        (ratio(ck, "fig08_m128.csv"), ratio(ck, "fig08_m2048.csv"))
    {
        // Quick grids drop the high-degree points that carry this trend,
        // so the margin loosens there; full campaigns hold it tight.
        let slack = if quick { 0.10 } else { 0.02 };
        ck.claim(
            &format!("fig08: NI:path ratio shrinks 128→2048 flits ({r128:.2} -> {r2048:.2})"),
            r2048 <= r128 + slack,
        );
    }

    // FIG9: at R=0.5 NI saturates first; tree saturates last at every R.
    for (r, d) in
        [("0.5", "8"), ("1", "8"), ("4", "8"), ("0.5", "16"), ("1", "16"), ("4", "16")]
    {
        if let Some(c) = ck.csv(&format!("fig09_r{r}_d{d}.csv")) {
            let tree_alive = c.alive("tree");
            let ni_alive = c.alive("ni-fpfs");
            let path_alive = c.alive("path-lg");
            ck.claim(
                &format!(
                    "fig09 R={r} d={d}: tree saturates last ({tree_alive} vs {ni_alive}/{path_alive})"
                ),
                tree_alive >= ni_alive && tree_alive >= path_alive,
            );
            if r == "0.5" {
                ck.claim(
                    &format!("fig09 R=0.5 d={d}: NI saturates no later than path"),
                    ni_alive <= path_alive,
                );
            }
        }
    }

    // FIG10: path saturation point falls toward NI's as switches grow.
    let alive_of = |ck: &mut Gate, name: &str, col: &str| -> Option<usize> {
        ck.csv(name).map(|c| c.alive(col))
    };
    if let (Some(p8), Some(p32)) = (
        alive_of(ck, "fig10_s8_d8.csv", "path-lg"),
        alive_of(ck, "fig10_s32_d8.csv", "path-lg"),
    ) {
        ck.claim(
            &format!("fig10: path-lg saturation not later with 32 switches ({p32} vs {p8})"),
            p32 <= p8,
        );
    }

    // TAB1: all schemes × degrees present.
    if let Some(c) = ck.csv("tab01_mcast_costs.csv") {
        ck.claim("tab01 present with rows", c.rows.len() >= 20);
    }

    // EXT_H: the adaptive reachability encoding must beat literal n-bit
    // strings at the largest measured scale, and resident state must
    // grow sub-quadratically in host count (dense bit-strings grow as
    // ports × n, i.e. quadratically in this fixed-degree family).
    if let Some(c) = ck.csv("ext_h_scaling.csv") {
        ck.claim(&format!("ext_h present with {} rows", c.rows.len()), c.rows.len() >= 2);
        let col = |name: &str, row: usize| -> Option<f64> {
            c.cols.get(name).and_then(|v| v.get(row).copied().flatten())
        };
        let last = c.rows.len().saturating_sub(1);
        if let (Some(res), Some(dense)) =
            (col("reach_resident_bytes", last), col("reach_dense_bytes", last))
        {
            ck.claim(
                &format!("ext_h: resident {res:.0} B < dense {dense:.0} B at largest scale"),
                res < dense,
            );
        }
        if let (Some(h0), Some(h1), Some(r0), Some(r1)) =
            (col("hosts", 0), col("hosts", last), col("reach_resident_bytes", 0),
             col("reach_resident_bytes", last))
        {
            if h1 > h0 && r0 > 0.0 {
                let exponent = (r1 / r0).ln() / (h1 / h0).ln();
                ck.claim(
                    &format!("ext_h: resident state grows sub-quadratically (n^{exponent:.2})"),
                    exponent < 2.0,
                );
            }
        }
    }

    // EXT_I: transient reliability — the error model must be free when
    // idle, switch retry must mask moderate rates invisibly, and any
    // recovery must beat none when damage is heavy.
    if let Some(c) = ck.csv("ext_i_reliability.csv") {
        ck.claim(&format!("ext_i present with {} rows", c.rows.len()), c.rows.len() >= 16);
        let idx = |name: &str| c.header.iter().position(|h| h == name);
        if let (Some(ri), Some(mi), Some(di)) =
            (idx("error_ppb"), idx("mechanism"), idx("delivery_ratio"))
        {
            let cell = |r: &Vec<String>, i: usize| r.get(i).cloned().unwrap_or_default();
            let mean_del = |rate: &str, mech: &str| -> f64 {
                let v: Vec<f64> = c
                    .rows
                    .iter()
                    .filter(|r| cell(r, ri) == rate && cell(r, mi) == mech)
                    .filter_map(|r| cell(r, di).parse().ok())
                    .collect();
                if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 }
            };
            let zero_rows: Vec<_> =
                c.rows.iter().filter(|r| cell(r, ri) == "0").collect();
            let zero_lossless = !zero_rows.is_empty()
                && zero_rows
                    .iter()
                    .all(|r| cell(r, di).parse::<f64>().is_ok_and(|d| d == 1.0));
            ck.claim("ext_i: zero-rate rows lossless under every mechanism", zero_lossless);
            let sw = mean_del("2000000", "switch");
            ck.claim(
                &format!("ext_i: switch retry masks the 0.2% rate completely ({sw:.3})"),
                sw == 1.0,
            );
            let none_top = mean_del("20000000", "none");
            let both_top = mean_del("20000000", "both");
            ck.claim(
                &format!("ext_i: unprotected runs lose traffic at 2% ({none_top:.3})"),
                none_top < 1.0,
            );
            ck.claim(
                &format!(
                    "ext_i: combined recovery beats no recovery at 2% ({both_top:.3} vs {none_top:.3})"
                ),
                both_top > none_top,
            );
        }
    }
}

/// Run the full gate. `tol` overrides the statistical tolerance
/// (defaults: 1% for full campaigns, 40% for quick ones).
pub fn run_compare(
    results: &Path,
    golden: &Path,
    tol: Option<f64>,
) -> Result<(), usize> {
    let quick = read_quick_flag(&results.join("manifest.json")).unwrap_or(false);
    let tol = tol.unwrap_or(if quick { 0.40 } else { 0.01 });
    let mut gate = Gate {
        results: results.to_path_buf(),
        failures: Vec::new(),
        warnings: Vec::new(),
        checks: 0,
    };

    println!(
        "== comparing {} against goldens in {} (quick={quick}, tol={tol}) ==\n",
        results.display(),
        golden.display()
    );
    let mut names: Vec<String> = std::fs::read_dir(golden)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.ends_with(".csv"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    if names.is_empty() {
        gate.failures.push(format!("no goldens found under {}", golden.display()));
        println!("  FAIL no goldens found under {}", golden.display());
    }
    for name in &names {
        let Some(g) = load(&golden.join(name)) else {
            gate.claim(&format!("{name}: golden readable"), false);
            continue;
        };
        match load(&gate.results.join(name)) {
            Some(run) => diff_file(&mut gate, name, &g, &run, quick, tol),
            None => gate.claim(&format!("{name}: artifact present in results"), false),
        }
    }

    println!("\n== checking generated results against the paper's conclusions ==\n");
    check_claims(&mut gate, quick);

    println!(
        "\n{} checks, {} failures, {} warnings",
        gate.checks,
        gate.failures.len(),
        gate.warnings.len()
    );
    if gate.failures.is_empty() {
        println!("all generated results consistent with goldens and the paper's conclusions.");
        Ok(())
    } else {
        for f in &gate.failures {
            eprintln!("FAILED: {f}");
        }
        Err(gate.failures.len())
    }
}
