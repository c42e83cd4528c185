//! The campaign runner: flattens every selected experiment's units into
//! one task pool, executes the pool on `par_run_with` scoped threads, and
//! renders the results deterministically in unit order.
//!
//! Parallelism lives only here — units are serial internally — so worker
//! count affects wall-clock time and nothing else: CSVs, tables, and the
//! manifest (modulo `*_ms` timing fields) are byte-identical for any
//! `--threads` value.
//!
//! This module also owns the campaign-resilience machinery:
//!
//! * every unit runs once, on the campaign's own options, behind
//!   `catch_unwind`, so a unit that panics or returns an error becomes a
//!   typed [`UnitFailure`] in the manifest's `"failures"` array — a gap
//!   in its CSV column, never a dead campaign. A unit cannot run
//!   forever: every simulation it runs ends at its cycle limit or trips
//!   the deadlock watchdog;
//! * every completed unit is durably journaled, and [`resume_campaign`]
//!   replays a journal to finish an interrupted campaign with
//!   byte-identical artifacts;
//! * SIGINT (or a test's [`CampaignOptions::stop`] flag) stops the
//!   campaign cooperatively: in-flight units finish and are journaled,
//!   the rest are skipped, and the manifest says `"interrupted": true`.

use crate::cache::{CacheHandle, CacheStats, TopoCache};
use crate::error::UnitError;
use crate::journal::{
    atomic_write, parse_journal, CampaignHeader, JournalWriter, ReplayedFailure, ReplayedUnit,
    JOURNAL_FILE,
};
use crate::manifest;
use crate::opts::CampaignOptions;
use crate::registry::{self, Emit, ExperimentSpec, RunCtx, Unit};
use irrnet_workloads::{par_run_with, Series};
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one experiment contributed to the campaign.
#[derive(Debug)]
pub struct ExperimentReport {
    /// Registry selector name.
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Number of completed units.
    pub units: usize,
    /// CSV artifacts written, in write order.
    pub artifacts: Vec<String>,
    /// Deduplicated `(kind, canonical, hash)` config fingerprints.
    pub configs: Vec<(String, String, u64)>,
    /// Summed unit execution time (CPU-side; units run concurrently).
    pub busy_ms: u128,
}

/// One unit's recorded failure: the campaign completed around it, its
/// panel column simply has a gap, and this record lands in the
/// manifest's `"failures"` array.
#[derive(Debug, Clone)]
pub struct UnitFailure {
    /// Owning experiment's selector name.
    pub experiment: &'static str,
    /// The unit's progress label.
    pub label: String,
    /// The unit's index in the campaign pool.
    pub index: usize,
    /// Error category (`"panic"`, `"sim"`, `"plan"`, ...).
    pub kind: String,
    /// Rendered error message.
    pub error: String,
}

/// Summary of a whole campaign run.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-experiment reports, in registry order.
    pub experiments: Vec<ExperimentReport>,
    /// Units that failed, in pool order.
    pub failures: Vec<UnitFailure>,
    /// The campaign was stopped early (SIGINT / stop flag); artifacts
    /// were not rendered and the journal holds the completed units.
    pub interrupted: bool,
    /// Topology-cache counters.
    pub cache: CacheStats,
    /// Resolved worker-thread count.
    pub threads: usize,
    /// End-to-end wall-clock time.
    pub total_wall_ms: u128,
}

/// What happened to one pool unit.
pub(crate) enum UnitOutcome {
    /// The unit produced emits (live or replayed from the journal).
    Done { emits: Vec<Emit>, ms: u128 },
    /// The unit failed (live or replayed from the journal); the error
    /// is carried as rendered strings so journal replay and live
    /// execution are indistinguishable downstream.
    Failed { kind: String, error: String },
    /// Never ran: the campaign was interrupted first.
    Skipped,
}

/// Accumulates one figure panel's scheme columns until rendering.
struct PanelAcc {
    title: String,
    x_label: String,
    y_label: String,
    xs: Vec<f64>,
    cols: Vec<(usize, irrnet_core::SchemeId, Vec<Option<f64>>)>,
}

// ---- interruption --------------------------------------------------------

/// Process-wide SIGINT latch (set by [`install_sigint_handler`]).
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn sigint_latch(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Install a SIGINT handler that flips the cooperative-stop latch
/// instead of killing the process: the runner finishes in-flight units,
/// journals them, and writes an `"interrupted"` manifest so
/// `irrnet-run resume` can pick up where the campaign stopped. Only the
/// `irrnet-run` binary installs this; library users (and tests) pass a
/// [`CampaignOptions::stop`] flag instead.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(
                signum: i32,
                handler: Option<unsafe extern "C" fn(i32)>,
            ) -> Option<unsafe extern "C" fn(i32)>;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, Some(sigint_latch as unsafe extern "C" fn(i32)));
        }
    }
}

pub(crate) fn stop_requested(opts: &CampaignOptions) -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
        || opts.stop.as_ref().is_some_and(|s| s.load(Ordering::Relaxed))
}

// ---- pool construction ---------------------------------------------------

pub(crate) fn resolved_threads(opts: &CampaignOptions) -> usize {
    opts.threads
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

/// Expand specs into the flat unit pool, remembering each unit's owning
/// experiment.
pub(crate) fn expand(specs: &[ExperimentSpec], opts: &CampaignOptions) -> (Vec<Unit>, Vec<usize>) {
    let mut owners: Vec<usize> = Vec::new();
    let mut pool: Vec<Unit> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for unit in (spec.units)(opts) {
            owners.push(si);
            pool.push(unit);
        }
    }
    (pool, owners)
}

pub(crate) fn header_for(
    specs: &[ExperimentSpec],
    opts: &CampaignOptions,
    pool: &[Unit],
) -> CampaignHeader {
    CampaignHeader {
        quick: opts.quick,
        seeds: opts.seeds.clone(),
        trials: opts.trials,
        experiments: specs.iter().map(|s| s.name.to_string()).collect(),
        schemes: opts
            .schemes
            .as_ref()
            .map(|v| v.iter().map(|s| s.name().to_string()).collect()),
        shard: None,
        argv: opts.argv.clone(),
        labels: pool.iter().map(|u| u.label.clone()).collect(),
    }
}

fn write_artifact(opts: &CampaignOptions, name: &str, content: &str) -> io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(name);
    atomic_write(&path, content)?;
    println!("  wrote {}", path.display());
    Ok(())
}

// ---- execution -----------------------------------------------------------

/// Render a `catch_unwind` payload the way the default panic hook does.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, converting a panic into [`UnitError::Panicked`].
///
/// Uses `AssertUnwindSafe`: units run over `Arc`-shared immutable state
/// (networks, options), so an unwound unit cannot leave torn state
/// behind for its siblings.
fn catch_panics<R>(f: impl FnOnce() -> R) -> Result<R, UnitError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| UnitError::Panicked(panic_message(p)))
}

/// Run one unit once, behind a panic boundary, and journal its emits or
/// its failure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_unit(
    index: usize,
    unit: &Unit,
    opts: &Arc<CampaignOptions>,
    cache: &Arc<TopoCache>,
    journal: &JournalWriter,
    journal_err: &Mutex<Option<io::Error>>,
    done: &AtomicUsize,
    total: usize,
) -> UnitOutcome {
    if stop_requested(opts) {
        return UnitOutcome::Skipped;
    }
    let handle = CacheHandle::new(Arc::clone(cache));
    let ctx = RunCtx { opts: Arc::clone(opts), cache: handle.clone() };
    let t0 = Instant::now();
    let result = catch_panics(|| (unit.exec)(&ctx)).and_then(|r| r);
    let ms = t0.elapsed().as_millis();
    let (recorded, outcome) = match result {
        Ok(emits) => {
            let r = journal.record(index, &unit.label, ms as u64, &handle.touched(), &emits);
            (r, UnitOutcome::Done { emits, ms })
        }
        // Journal the failure too, so a resume (or a shard merge)
        // reproduces the manifest's failures array without re-running
        // the unit.
        Err(error) => {
            let (kind, error) = (error.kind().to_string(), error.to_string());
            let r = journal.record_failure(index, &unit.label, &kind, &error);
            (r, UnitOutcome::Failed { kind, error })
        }
    };
    if let Err(e) = recorded {
        let mut slot = journal_err.lock().unwrap_or_else(|p| p.into_inner());
        slot.get_or_insert(e);
    }
    let n = 1 + done.fetch_add(1, Ordering::Relaxed);
    match &outcome {
        UnitOutcome::Failed { kind, error } => {
            eprintln!("[{n:>4}/{total}] {} FAILED ({kind}): {error}", unit.label);
        }
        _ => eprintln!("[{n:>4}/{total}] {} ({ms} ms)", unit.label),
    }
    outcome
}

/// Run `specs` under `opts`: execute every unit on the shared pool, print
/// tables, write CSVs, and write `manifest.json` into the output
/// directory. Starts a fresh journal (truncating any previous one in the
/// output directory).
pub fn run_campaign(
    specs: &[ExperimentSpec],
    opts: &CampaignOptions,
) -> io::Result<CampaignReport> {
    let (pool, owners) = expand(specs, opts);
    let header = header_for(specs, opts, &pool);
    let journal = JournalWriter::create(&opts.out_dir.join(JOURNAL_FILE), &header)?;
    run_pool(specs, opts, pool, owners, HashMap::new(), HashMap::new(), journal)
}

/// Resume an interrupted campaign from its journal in `dir`: replay the
/// journaled units, execute only the remainder, and render artifacts
/// byte-identical to an uninterrupted run. `threads` overrides the
/// worker count (wall-clock only); `stop` is the cooperative-stop flag
/// for the resumed run itself.
pub fn resume_campaign(
    dir: &Path,
    threads: Option<usize>,
    stop: Option<Arc<AtomicBool>>,
) -> io::Result<CampaignReport> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let path = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path)?;
    let parsed = parse_journal(&text).map_err(|e| io::Error::from(e.locate(&path)))?;
    crate::journal::report_torn_tail(&path, &parsed);
    let h = &parsed.header;

    let mut opts =
        if h.quick { CampaignOptions::quick() } else { CampaignOptions::paper_default() };
    opts.seeds = h.seeds.clone();
    opts.trials = h.trials;
    opts.out_dir = dir.to_path_buf();
    opts.threads = threads;
    opts.schemes = h
        .schemes
        .as_ref()
        .map(|names| {
            names
                .iter()
                .map(|n| {
                    irrnet_core::SchemeRegistry::resolve(n)
                        .ok_or_else(|| invalid(format!("journal names unknown scheme '{n}'")))
                })
                .collect::<io::Result<Vec<_>>>()
        })
        .transpose()?;
    opts.argv = h.argv.clone();
    opts.stop = stop;

    let specs = registry::resolve(&h.experiments).map_err(invalid)?;
    let (pool, owners) = expand(&specs, &opts);
    let labels: Vec<String> = pool.iter().map(|u| u.label.clone()).collect();
    if labels != h.labels {
        return Err(invalid(format!(
            "journal unit pool does not match this build: journal has {} unit(s), \
             this build expands to {} — was the journal written by a different version?",
            h.labels.len(),
            labels.len()
        )));
    }

    let mut replayed: HashMap<usize, ReplayedUnit> = HashMap::new();
    for u in parsed.units {
        if u.index >= pool.len() || pool[u.index].label != u.label {
            return Err(invalid(format!(
                "journaled unit #{} '{}' does not match the pool",
                u.index, u.label
            )));
        }
        replayed.insert(u.index, u);
    }
    let mut replayed_failures: HashMap<usize, ReplayedFailure> = HashMap::new();
    for f in parsed.failures {
        if f.index >= pool.len() || pool[f.index].label != f.label {
            return Err(invalid(format!(
                "journaled failure #{} '{}' does not match the pool",
                f.index, f.label
            )));
        }
        replayed_failures.insert(f.index, f);
    }
    println!(
        "resuming {}: {} of {} unit(s) already journaled ({} failed)",
        dir.display(),
        replayed.len() + replayed_failures.len(),
        pool.len(),
        replayed_failures.len()
    );
    let journal = JournalWriter::reopen(&dir.join(JOURNAL_FILE), parsed.valid_len)?;
    run_pool(&specs, &opts, pool, owners, replayed, replayed_failures, journal)
}

fn run_pool(
    specs: &[ExperimentSpec],
    opts: &CampaignOptions,
    pool: Vec<Unit>,
    owners: Vec<usize>,
    mut replayed: HashMap<usize, ReplayedUnit>,
    mut replayed_failures: HashMap<usize, ReplayedFailure>,
    journal: JournalWriter,
) -> io::Result<CampaignReport> {
    let campaign_start = Instant::now();
    let threads = resolved_threads(opts);
    let cache = Arc::new(TopoCache::new());
    let opts_arc = Arc::new(opts.clone());

    println!(
        "running {} experiment(s), {} unit(s) on {} thread(s){}",
        specs.len(),
        pool.len(),
        threads,
        if opts.quick { " (quick mode)" } else { "" }
    );
    println!(
        "    averaging over {} topologies, {} trials each",
        opts.seeds.len(),
        opts.trials
    );

    // Replayed units contribute their journaled emits, wall time, and
    // cache touches without re-running anything — the cache counters in
    // the manifest come out identical to an uninterrupted run.
    let mut outcomes: Vec<Option<UnitOutcome>> = (0..pool.len()).map(|_| None).collect();
    for (i, slot) in outcomes.iter_mut().enumerate() {
        if let Some(r) = replayed.remove(&i) {
            for key in &r.cache {
                cache.replay(key);
            }
            *slot = Some(UnitOutcome::Done { emits: r.emits, ms: r.ms as u128 });
        } else if let Some(f) = replayed_failures.remove(&i) {
            // A journaled failure replays as-is: re-running the unit
            // would make resumed artifacts diverge from uninterrupted
            // ones.
            *slot = Some(UnitOutcome::Failed { kind: f.kind, error: f.error });
        }
    }

    // Execute the remainder. Results come back in unit order regardless
    // of scheduling. Liveness goes to stderr (stdout stays deterministic
    // for diffing).
    let todo: Vec<usize> =
        (0..pool.len()).filter(|&i| outcomes[i].is_none()).collect();
    let done = AtomicUsize::new(pool.len() - todo.len());
    let total = pool.len();
    let journal_err: Mutex<Option<io::Error>> = Mutex::new(None);
    let fresh: Vec<UnitOutcome> = par_run_with(&todo, Some(threads), |&i| {
        run_unit(i, &pool[i], &opts_arc, &cache, &journal, &journal_err, &done, total)
    });
    for (&i, outcome) in todo.iter().zip(fresh) {
        outcomes[i] = Some(outcome);
    }
    let outcomes: Vec<UnitOutcome> =
        outcomes.into_iter().map(|o| o.expect("every unit has an outcome")).collect();
    if let Some(e) = journal_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let interrupted =
        stop_requested(opts) || outcomes.iter().any(|o| matches!(o, UnitOutcome::Skipped));

    // Render per experiment, in registry order, units in declaration
    // order — fully deterministic. An interrupted campaign skips
    // rendering entirely (partial panels would be misleading); the
    // journal already holds everything a resume needs.
    let mut reports: Vec<ExperimentReport> = specs
        .iter()
        .map(|s| ExperimentReport {
            name: s.name,
            title: s.title,
            units: 0,
            artifacts: Vec::new(),
            configs: Vec::new(),
            busy_ms: 0,
        })
        .collect();
    let mut failures: Vec<UnitFailure> = Vec::new();

    for si in 0..specs.len() {
        if !interrupted {
            println!("\n=== {} ===", specs[si].title);
        }
        // First-seen panel order, keyed by CSV name.
        let mut panel_order: Vec<String> = Vec::new();
        let mut panels: HashMap<String, PanelAcc> = HashMap::new();
        let report = &mut reports[si];
        for (ui, outcome) in outcomes.iter().enumerate() {
            if owners[ui] != si {
                continue;
            }
            let (emits, ms) = match outcome {
                UnitOutcome::Done { emits, ms } => (emits, *ms),
                UnitOutcome::Failed { kind, error } => {
                    failures.push(UnitFailure {
                        experiment: specs[si].name,
                        label: pool[ui].label.clone(),
                        index: ui,
                        kind: kind.clone(),
                        error: error.clone(),
                    });
                    continue;
                }
                UnitOutcome::Skipped => continue,
            };
            report.units += 1;
            report.busy_ms += ms;
            for emit in emits {
                match emit {
                    Emit::Table(text) => {
                        if !interrupted {
                            println!("{text}");
                        }
                    }
                    Emit::Csv { name, content } => {
                        if !interrupted {
                            write_artifact(opts, name, content)?;
                            report.artifacts.push(name.clone());
                        }
                    }
                    Emit::Column { csv, title, x_label, y_label, xs, scheme, order, ys } => {
                        let acc = panels.entry(csv.clone()).or_insert_with(|| {
                            panel_order.push(csv.clone());
                            PanelAcc {
                                title: title.clone(),
                                x_label: x_label.clone(),
                                y_label: y_label.clone(),
                                xs: xs.clone(),
                                cols: Vec::new(),
                            }
                        });
                        assert_eq!(acc.xs, *xs, "panel {csv}: columns disagree on x grid");
                        acc.cols.push((*order, *scheme, ys.clone()));
                    }
                    Emit::Config { kind, canonical, hash } => {
                        let fp = (kind.clone(), canonical.clone(), *hash);
                        if !report.configs.contains(&fp) {
                            report.configs.push(fp);
                        }
                    }
                }
            }
        }
        if !interrupted {
            for csv in &panel_order {
                let mut acc = panels.remove(csv).expect("panel accumulated");
                acc.cols.sort_by_key(|(order, _, _)| *order);
                let mut series = Series::new(&acc.x_label, &acc.y_label, acc.xs.clone());
                for (_, scheme, ys) in acc.cols {
                    series.push(scheme, ys);
                }
                print!("{}", series.to_table(&acc.title));
                write_artifact(opts, csv, &series.to_csv())?;
                report.artifacts.push(csv.clone());
            }
        }
        report.configs.sort();
    }

    // Manifest order contract: failures sort by unit index, whatever
    // order rendering (or a future caller) discovered them in.
    failures.sort_by_key(|f| f.index);

    let report = CampaignReport {
        experiments: reports,
        failures,
        interrupted,
        cache: cache.stats(),
        threads,
        total_wall_ms: campaign_start.elapsed().as_millis(),
    };
    manifest::write_manifest(&opts.out_dir.join("manifest.json"), opts, &report)?;
    println!(
        "\ntopology cache: {} unique, {} generated, {} hits",
        report.cache.unique, report.cache.generated, report.cache.hits
    );
    println!("wrote {}", opts.out_dir.join("manifest.json").display());
    if !report.failures.is_empty() {
        eprintln!("\n{} unit(s) failed:", report.failures.len());
        for f in &report.failures {
            eprintln!("  {} [{}]: {}", f.label, f.kind, f.error);
        }
    }
    if report.interrupted {
        eprintln!(
            "\ncampaign interrupted — completed units are journaled; \
             finish with `irrnet-run resume {}`",
            opts.out_dir.display()
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catches_value_returns() {
        assert_eq!(catch_panics(|| 42).ok(), Some(42));
    }

    #[test]
    fn catches_str_and_string_panics() {
        let e = catch_panics(|| -> u32 { panic!("boom") }).unwrap_err();
        assert!(matches!(&e, UnitError::Panicked(m) if m == "boom"), "{e:?}");
        let e = catch_panics(|| -> u32 { panic!("fmt {}", 7) }).unwrap_err();
        assert!(matches!(&e, UnitError::Panicked(m) if m == "fmt 7"), "{e:?}");
    }
}
