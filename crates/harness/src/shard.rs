//! Distributed campaign execution: shard planning, shard workers, and
//! the deterministic merge.
//!
//! A campaign's unit pool is partitioned round-robin across `N` workers
//! (unit `i` belongs to shard `i mod N`) — a pure function of the pool
//! size, so every worker, the merge step, and the status view agree on
//! the plan without coordinating. Each worker
//! (`irrnet-run work <dir> --shard i/N ...`) appends to its own
//! crash-safe journal shard (`journal.shard-<i>-of-<N>.jsonl`) and
//! renders nothing; re-running the same `work` command resumes an
//! interrupted shard from its journal. Once every shard is complete,
//! `irrnet-run merge <dir>` validates that the shard journals describe
//! one campaign (shared fingerprint, complete shard set, full unit
//! coverage), reconstructs the single-process `journal.jsonl` with
//! records in unit order, and replays it through the ordinary resume
//! path — so the merged CSVs and manifest are byte-identical to an
//! uninterrupted single-process run (manifest timing lines excepted).

use crate::journal::{
    atomic_write, fail_line, header_line, load_journal, report_torn_tail, shard_journal_file,
    unit_line, CampaignHeader, JournalWriter, ParsedJournal, JOURNAL_FILE,
};
use crate::lease::{
    find_lease_files, lease_file, load_lease, now_ms, LeaseKeeper, Liveness, DEFAULT_STALE_AFTER,
};
use crate::opts::CampaignOptions;
use crate::registry::ExperimentSpec;
use crate::runner::{
    self, expand, header_for, resolved_threads, run_unit, CampaignReport, UnitOutcome,
};
use crate::cache::TopoCache;
use irrnet_workloads::par_run_with;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One worker's slot in a distributed campaign: shard `index` of
/// `count`, written `i/N` on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: usize,
    /// Total shard count.
    pub count: usize,
}

impl FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || format!("bad shard spec '{s}': expected i/N with 0 <= i < N, e.g. 0/4");
        let (i, n) = s.split_once('/').ok_or_else(bad)?;
        let spec = ShardSpec {
            index: i.trim().parse().map_err(|_| bad())?,
            count: n.trim().parse().map_err(|_| bad())?,
        };
        if spec.count == 0 || spec.index >= spec.count {
            return Err(bad());
        }
        Ok(spec)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl ShardSpec {
    /// Does unit `index` of the pool belong to this shard? Round-robin:
    /// unit `i` goes to shard `i mod N`, so shard loads differ by at
    /// most one unit and the partition is a pure function of the pool
    /// size — no coordination, same plan from every worker.
    pub fn owns(&self, index: usize) -> bool {
        index % self.count == self.index
    }

    /// The pool indices assigned to this shard, ascending.
    pub fn assigned(&self, pool_size: usize) -> Vec<usize> {
        (self.index..pool_size).step_by(self.count).collect()
    }
}

/// The full partition of `pool_size` units across `count` shards:
/// `plan(p, n)[s]` are shard `s`'s unit indices, ascending. The
/// concatenation is a permutation of `0..pool_size`.
pub fn plan(pool_size: usize, count: usize) -> Vec<Vec<usize>> {
    assert!(count > 0, "shard count must be positive");
    (0..count).map(|index| ShardSpec { index, count }.assigned(pool_size)).collect()
}

/// Liveness policy for an `irrnet-run work` worker: whether it may
/// adopt a shard whose previous worker's lease has gone stale, and how
/// old a heartbeat must be to count as stale.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// `--take-over`: adopt a shard with a stalled (but not active)
    /// lease. A shard whose worker is verifiably alive is never
    /// adoptable, flag or no flag.
    pub take_over: bool,
    /// `--stale-after SECS`: heartbeat age past which a lease counts as
    /// stalled.
    pub stale_after: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions { take_over: false, stale_after: DEFAULT_STALE_AFTER }
    }
}

/// Outcome of one worker's `irrnet-run work` invocation.
#[derive(Debug)]
pub struct ShardReport {
    /// The worker's slot.
    pub spec: ShardSpec,
    /// Units assigned to this shard.
    pub assigned: usize,
    /// Of those, completed (journaled, including replayed-on-resume).
    pub completed: usize,
    /// Of those, permanently failed (also journaled).
    pub failed: usize,
    /// The worker was stopped early; re-run the same command to resume.
    pub interrupted: bool,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Check that every record of a journal belongs to the expected pool —
/// and, for a shard journal (`spec` is `Some`), to that shard's plan —
/// and return the journaled unit indices (completed and failed
/// separately).
fn audit_shard_journal(
    file: &str,
    parsed: &ParsedJournal,
    expected: &CampaignHeader,
    spec: Option<ShardSpec>,
) -> Result<(Vec<usize>, Vec<usize>), String> {
    let h = &parsed.header;
    if let Some(spec) = spec {
        if h.shard != Some(spec) {
            return Err(format!(
                "{file}: header claims shard {} but the file name says {spec}",
                h.shard.map_or("<none>".to_string(), |s| s.to_string()),
            ));
        }
    }
    if h.fingerprint() != expected.fingerprint() {
        return Err(format!(
            "{file}: campaign fingerprint mismatch: this journal stamps 0x{:016x} \
             (written by {}) but the campaign expects 0x{:016x} (written by {}); \
             every shard must be started with identical campaign options",
            h.fingerprint(),
            h.describe_argv(),
            expected.fingerprint(),
            expected.describe_argv(),
        ));
    }
    let mut seen = vec![false; expected.labels.len()];
    let mut check = |index: usize, label: &str| -> Result<(), String> {
        if index >= expected.labels.len() || expected.labels[index] != label {
            return Err(format!("{file}: journaled unit #{index} '{label}' is not in the pool"));
        }
        if let Some(spec) = spec {
            if !spec.owns(index) {
                return Err(format!(
                    "{file}: journaled unit #{index} does not belong to shard {spec}"
                ));
            }
        }
        if seen[index] {
            return Err(format!("{file}: unit #{index} journaled twice"));
        }
        seen[index] = true;
        Ok(())
    };
    let mut done = Vec::new();
    for u in &parsed.units {
        check(u.index, &u.label)?;
        done.push(u.index);
    }
    let mut failed = Vec::new();
    for f in &parsed.failures {
        check(f.index, &f.label)?;
        failed.push(f.index);
    }
    Ok((done, failed))
}

/// Refuse or allow running shard `spec` given its previous worker's
/// lease. Returns `Ok(())` with a printed notice when adoption is safe.
fn check_takeover(
    dir: &Path,
    spec: ShardSpec,
    worker: &WorkerOptions,
) -> io::Result<()> {
    let lease_path = dir.join(lease_file(spec));
    let Some(prev) = load_lease(&lease_path) else { return Ok(()) };
    if prev.pid == std::process::id() && prev.host == crate::lease::hostname() {
        return Ok(()); // our own earlier run in this process
    }
    match Liveness::of(&prev, now_ms(), worker.stale_after) {
        Liveness::Completed => Ok(()),
        Liveness::Dead { pid } => {
            println!("previous worker for shard {spec} (pid {pid}) is dead; adopting the shard");
            Ok(())
        }
        Liveness::Active { age_ms } => Err(invalid(format!(
            "shard {spec} already has an active worker ({}; last heartbeat {:.1}s ago); \
             refusing to run two workers on one shard — if that worker is truly gone, wait \
             for its lease to go stale ({:.0}s without a heartbeat) and re-run with \
             --take-over",
            prev.describe(),
            age_ms as f64 / 1000.0,
            worker.stale_after.as_secs_f64(),
        ))),
        Liveness::Stalled { age_ms } => {
            if worker.take_over {
                println!(
                    "taking over shard {spec}: its worker ({}) last heartbeat {:.1}s ago",
                    prev.describe(),
                    age_ms as f64 / 1000.0
                );
                Ok(())
            } else {
                Err(invalid(format!(
                    "shard {spec} belongs to a stalled worker ({}; last heartbeat {:.1}s \
                     ago, staleness budget {:.0}s); re-run with --take-over to adopt it",
                    prev.describe(),
                    age_ms as f64 / 1000.0,
                    worker.stale_after.as_secs_f64(),
                )))
            }
        }
    }
}

/// Run one shard of a distributed campaign: execute only the units the
/// round-robin plan assigns to `spec`, journaling each into the shard's
/// own journal. No artifacts are rendered — that is `merge_campaign`'s
/// job once every shard is complete. If the shard journal already
/// exists (a previous worker crashed or was interrupted), the shard
/// resumes from it after verifying the campaign fingerprint. The worker
/// heartbeats a lease file per completed unit; adopting another
/// worker's shard requires its lease to be stale (see
/// [`WorkerOptions`]).
pub fn run_shard(
    specs: &[ExperimentSpec],
    opts: &CampaignOptions,
    spec: ShardSpec,
    worker: &WorkerOptions,
) -> io::Result<ShardReport> {
    let (pool, _owners) = expand(specs, opts);
    let mut header = header_for(specs, opts, &pool);
    header.shard = Some(spec);

    check_takeover(&opts.out_dir, spec, worker)?;

    let file = shard_journal_file(spec);
    let path = opts.out_dir.join(&file);
    let mut already_done: Vec<usize> = Vec::new();
    let mut already_failed: Vec<usize> = Vec::new();
    let journal = if path.exists() {
        let parsed = load_journal(&path)?;
        (already_done, already_failed) =
            audit_shard_journal(&file, &parsed, &header, Some(spec)).map_err(invalid)?;
        report_torn_tail(&path, &parsed);
        println!(
            "resuming shard {spec}: {} unit(s) already journaled",
            already_done.len() + already_failed.len()
        );
        JournalWriter::reopen(&path, parsed.valid_len)?
    } else {
        JournalWriter::create(&path, &header)?
    };
    let lease = LeaseKeeper::acquire(
        &opts.out_dir,
        spec,
        already_done.len() + already_failed.len(),
        &header.argv,
    )?;

    let assigned = spec.assigned(pool.len());
    let todo: Vec<usize> = assigned
        .iter()
        .copied()
        .filter(|i| !already_done.contains(i) && !already_failed.contains(i))
        .collect();
    let threads = resolved_threads(opts);
    println!(
        "shard {spec}: {} of {} pool unit(s), {} to run on {} thread(s)",
        assigned.len(),
        pool.len(),
        todo.len(),
        threads
    );

    let opts_arc = Arc::new(opts.clone());
    let cache = Arc::new(TopoCache::new());
    let done_counter = AtomicUsize::new(assigned.len() - todo.len());
    let journal_err: Mutex<Option<io::Error>> = Mutex::new(None);
    let total = assigned.len();
    let outcomes: Vec<UnitOutcome> = par_run_with(&todo, Some(threads), |&i| {
        let o =
            run_unit(i, &pool[i], &opts_arc, &cache, &journal, &journal_err, &done_counter, total);
        if !matches!(o, UnitOutcome::Skipped) {
            // Journaled (done or permanently failed): heartbeat the lease.
            lease.beat();
        }
        o
    });
    if let Some(e) = journal_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }

    let mut report = ShardReport {
        spec,
        assigned: assigned.len(),
        completed: already_done.len(),
        failed: already_failed.len(),
        interrupted: false,
    };
    for o in &outcomes {
        match o {
            UnitOutcome::Done { .. } => report.completed += 1,
            UnitOutcome::Failed { .. } => report.failed += 1,
            UnitOutcome::Skipped => report.interrupted = true,
        }
    }
    if runner::stop_requested(opts) {
        report.interrupted = true;
    }
    println!(
        "shard {spec}: {} completed, {} failed, {} assigned{}",
        report.completed,
        report.failed,
        report.assigned,
        if report.interrupted { " — interrupted, re-run to resume" } else { "" }
    );
    if !report.interrupted {
        lease.complete();
        println!("shard {spec} complete; merge with `irrnet-run merge {}`", opts.out_dir.display());
    }
    Ok(report)
}

/// The shard journals found in a campaign directory, sorted by index.
pub fn find_shard_journals(dir: &Path) -> io::Result<Vec<(ShardSpec, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(middle) =
            name.strip_prefix("journal.shard-").and_then(|r| r.strip_suffix(".jsonl"))
        else {
            continue;
        };
        let Some((i, n)) = middle.split_once("-of-") else { continue };
        let (Ok(index), Ok(count)) = (i.parse::<usize>(), n.parse::<usize>()) else { continue };
        if count == 0 || index >= count {
            return Err(invalid(format!("{name}: impossible shard name")));
        }
        found.push((ShardSpec { index, count }, entry.path()));
    }
    found.sort_by_key(|(s, _)| s.index);
    Ok(found)
}

/// Refuse a shard set that mixes shard counts, naming the two offending
/// files — the signature of an interrupted reshard (or of pointing two
/// differently-sharded campaigns at one directory).
fn check_uniform_counts(dir: &Path, shards: &[(ShardSpec, PathBuf)], verb: &str) -> io::Result<()> {
    let count = shards[0].0.count;
    for (spec, _) in shards {
        if spec.count != count {
            return Err(invalid(format!(
                "cannot {verb} {}: mixed shard counts — {} says /{} but {} says /{}; \
                 an interrupted reshard leaves both generations behind — delete the stale \
                 generation's journal.shard-*-of-*.jsonl files and retry",
                dir.display(),
                shard_journal_file(shards[0].0),
                count,
                shard_journal_file(*spec),
                spec.count
            )));
        }
    }
    Ok(())
}

/// Merge a directory of completed shard journals into the single
/// campaign `journal.jsonl` and render every artifact by replaying it
/// through the resume path. The result — CSVs, tables on stdout, and
/// the manifest modulo `*_ms` timing lines — is byte-identical to an
/// uninterrupted single-process run of the same campaign.
pub fn merge_campaign(dir: &Path, threads: Option<usize>) -> io::Result<CampaignReport> {
    let shards = find_shard_journals(dir)?;
    if shards.is_empty() {
        return Err(invalid(format!(
            "no shard journals (journal.shard-*-of-*.jsonl) in {}",
            dir.display()
        )));
    }
    check_uniform_counts(dir, &shards, "merge")?;
    let count = shards[0].0.count;
    let present: Vec<usize> = shards.iter().map(|(s, _)| s.index).collect();
    let missing: Vec<String> = (0..count)
        .filter(|i| !present.contains(i))
        .map(|i| shard_journal_file(ShardSpec { index: i, count }))
        .collect();
    if !missing.is_empty() {
        return Err(invalid(format!(
            "incomplete shard set in {}: missing {}",
            dir.display(),
            missing.join(", ")
        )));
    }

    // Parse every shard, validate it against shard 0's campaign header,
    // and pool the records by unit index.
    let mut parsed: Vec<(String, ParsedJournal)> = Vec::new();
    for (spec, path) in &shards {
        let file = shard_journal_file(*spec);
        let p = load_journal(path)?;
        report_torn_tail(path, &p);
        parsed.push((file, p));
    }
    let expected = parsed[0].1.header.clone();
    let mut incomplete = Vec::new();
    for ((spec, _), (file, p)) in shards.iter().zip(&parsed) {
        let (done, failed) =
            audit_shard_journal(file, p, &expected, Some(*spec)).map_err(invalid)?;
        let journaled = done.len() + failed.len();
        let assigned = spec.assigned(expected.labels.len()).len();
        if journaled < assigned {
            incomplete.push(format!("{spec} ({journaled} of {assigned} units)"));
        }
    }
    if !incomplete.is_empty() {
        return Err(invalid(format!(
            "cannot merge {}: incomplete shard(s) {} — finish each with \
             `irrnet-run work {} --shard i/{count} ...` first",
            dir.display(),
            incomplete.join(", "),
            dir.display()
        )));
    }

    // Reconstruct the single-process journal: the campaign header (no
    // shard stamp) followed by every record in unit-index order. Record
    // lines re-serialize byte-identically (f64s use shortest-roundtrip
    // Display), so the merged journal is exactly what one process would
    // have journaled, modulo completion order — which replay ignores.
    let mut header = expected.clone();
    header.shard = None;
    let mut lines: HashMap<usize, String> = HashMap::new();
    for (_, p) in &parsed {
        for u in &p.units {
            lines.insert(u.index, unit_line(u.index, &u.label, u.ms, &u.cache, &u.emits));
        }
        for f in &p.failures {
            lines.insert(f.index, fail_line(f.index, &f.label, &f.kind, &f.error));
        }
    }
    let mut text = header_line(&header);
    for i in 0..header.labels.len() {
        text.push_str(&lines[&i]);
    }
    atomic_write(&dir.join(JOURNAL_FILE), &text)?;
    println!(
        "merged {count} shard journal(s) into {} ({} units); rendering",
        dir.join(JOURNAL_FILE).display(),
        header.labels.len()
    );

    // Replay through the ordinary resume path: every unit is journaled,
    // so nothing re-runs; rendering and the manifest follow the exact
    // single-process code path.
    runner::resume_campaign(dir, threads, None)
}

/// Outcome of `irrnet-run reshard`.
#[derive(Debug)]
pub struct ReshardReport {
    /// Shard count before the rewrite (1 when resharding a
    /// single-process `journal.jsonl`).
    pub old_count: usize,
    /// Shard count after the rewrite.
    pub new_count: usize,
    /// Pool size.
    pub pool: usize,
    /// Units already journaled (completed or permanently failed) —
    /// preserved verbatim across the rewrite.
    pub done: usize,
    /// Units still to run per new shard, index order.
    pub remaining: Vec<usize>,
}

/// Re-plan a campaign's *remaining* units under a new shard count
/// without invalidating any completed record: straggler re-sharding.
///
/// The round-robin plan is a pure function of the pool, so resharding
/// is a validated journal rewrite — every journaled record is audited
/// against the campaign header, redistributed to the shard that owns
/// its unit index under the new count (`index % M`), and written into
/// fresh shard journals whose sealed lines re-serialize byte-identical
/// to the originals. Sources are the existing shard journals (uniform
/// count required) or, absent those, the single-process
/// `journal.jsonl`. Refused while any shard's lease says its worker is
/// still active. Old-generation journals, stale leases, and a consumed
/// `journal.jsonl` are deleted only after every new journal has been
/// written and re-validated, so a crash mid-reshard leaves a mixed set
/// that `merge`/`reshard` refuse by name rather than a silently wrong
/// campaign.
pub fn reshard_campaign(
    dir: &Path,
    new_count: usize,
    stale_after: Duration,
    argv: &[String],
) -> io::Result<ReshardReport> {
    if new_count == 0 {
        return Err(invalid("reshard: shard count must be positive".into()));
    }
    // Never rewrite journals out from under a live worker.
    for (spec, path) in find_lease_files(dir)? {
        if let Some(lease) = load_lease(&path) {
            if let Liveness::Active { age_ms } = Liveness::of(&lease, now_ms(), stale_after) {
                return Err(invalid(format!(
                    "cannot reshard {}: shard {spec} has an active worker ({}; last \
                     heartbeat {:.1}s ago); stop it, or wait for its lease to go stale \
                     ({:.0}s), before resharding",
                    dir.display(),
                    lease.describe(),
                    age_ms as f64 / 1000.0,
                    stale_after.as_secs_f64(),
                )));
            }
        }
    }

    // Collect and audit the source journals.
    let shards = find_shard_journals(dir)?;
    let single = dir.join(JOURNAL_FILE);
    let (old_count, sources): (usize, Vec<(Option<ShardSpec>, PathBuf)>) = if !shards.is_empty() {
        check_uniform_counts(dir, &shards, "reshard")?;
        (shards[0].0.count, shards.iter().map(|(s, p)| (Some(*s), p.clone())).collect())
    } else if single.exists() {
        (1, vec![(None, single.clone())])
    } else {
        return Err(invalid(format!(
            "nothing to reshard in {}: no shard journals (journal.shard-*-of-*.jsonl) and \
             no {JOURNAL_FILE}",
            dir.display()
        )));
    };
    let mut parsed: Vec<(Option<ShardSpec>, PathBuf, ParsedJournal)> = Vec::new();
    for (spec, path) in &sources {
        let p = load_journal(path)?;
        report_torn_tail(path, &p);
        parsed.push((*spec, path.clone(), p));
    }
    let mut expected = parsed[0].2.header.clone();
    expected.shard = None;
    let mut lines: HashMap<usize, String> = HashMap::new();
    for (spec, path, p) in &parsed {
        let file = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        audit_shard_journal(&file, p, &expected, *spec).map_err(invalid)?;
        for u in &p.units {
            lines.insert(u.index, unit_line(u.index, &u.label, u.ms, &u.cache, &u.emits));
        }
        for f in &p.failures {
            lines.insert(f.index, fail_line(f.index, &f.label, &f.kind, &f.error));
        }
    }

    // Write the new generation: one journal per new shard, carrying the
    // records its round-robin slice already owns.
    let pool = expected.labels.len();
    for index in 0..new_count {
        let spec = ShardSpec { index, count: new_count };
        let mut header = expected.clone();
        header.shard = Some(spec);
        header.argv = argv.to_vec();
        let mut text = header_line(&header);
        for i in spec.assigned(pool) {
            if let Some(line) = lines.get(&i) {
                text.push_str(line);
            }
        }
        atomic_write(&dir.join(shard_journal_file(spec)), &text)?;
    }
    // Validate the rewrite before deleting anything: each new journal
    // must parse cleanly and audit against the campaign header.
    let mut remaining = Vec::with_capacity(new_count);
    for index in 0..new_count {
        let spec = ShardSpec { index, count: new_count };
        let path = dir.join(shard_journal_file(spec));
        let p = load_journal(&path)?;
        let (done, failed) = audit_shard_journal(
            &shard_journal_file(spec),
            &p,
            &expected,
            Some(spec),
        )
        .map_err(invalid)?;
        remaining.push(spec.assigned(pool).len() - done.len() - failed.len());
    }

    // Only now retire the old generation: stale-count journals, every
    // lease (the new workers will write fresh ones), and a consumed
    // single-process journal.
    for (spec, path) in &shards {
        if spec.count != new_count {
            std::fs::remove_file(path)?;
        }
    }
    for (_, path) in find_lease_files(dir)? {
        std::fs::remove_file(path)?;
    }
    if shards.is_empty() && single.exists() {
        std::fs::remove_file(&single)?;
    }
    crate::journal::sync_dir(dir)?;

    let report = ReshardReport {
        old_count,
        new_count,
        pool,
        done: lines.len(),
        remaining,
    };
    println!(
        "resharded {}: {} -> {} shard(s), {} of {} unit(s) already journaled",
        dir.display(),
        report.old_count,
        report.new_count,
        report.done,
        report.pool
    );
    for (index, rem) in report.remaining.iter().enumerate() {
        if *rem > 0 {
            println!(
                "  shard {index}/{new_count}: {rem} unit(s) remaining — run `irrnet-run work {} \
                 --shard {index}/{new_count} ...`",
                dir.display()
            );
        } else {
            println!("  shard {index}/{new_count}: complete");
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!("0/4".parse::<ShardSpec>().unwrap(), ShardSpec { index: 0, count: 4 });
        assert_eq!("3/4".parse::<ShardSpec>().unwrap(), ShardSpec { index: 3, count: 4 });
        assert_eq!(ShardSpec { index: 2, count: 5 }.to_string(), "2/5");
        for bad in ["", "4", "4/4", "5/4", "-1/4", "1/0", "a/b", "1/2/3"] {
            assert!(bad.parse::<ShardSpec>().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn plan_is_a_partition_for_any_count() {
        // Property: for any (pool size, shard count) the plan is a
        // disjoint cover of 0..pool_size with near-equal load.
        for pool_size in [0usize, 1, 2, 7, 16, 97] {
            for count in 1..=8usize {
                let p = plan(pool_size, count);
                assert_eq!(p.len(), count);
                let mut all: Vec<usize> = p.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..pool_size).collect::<Vec<_>>(), "{pool_size}/{count}");
                let (lo, hi) = p
                    .iter()
                    .map(Vec::len)
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(hi - lo <= 1, "round-robin balance: {pool_size} over {count}");
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_matches_owns() {
        let p1 = plan(53, 5);
        let p2 = plan(53, 5);
        assert_eq!(p1, p2, "same campaign, same partition");
        for (index, units) in p1.iter().enumerate() {
            let spec = ShardSpec { index, count: 5 };
            for &u in units {
                assert!(spec.owns(u));
            }
            assert_eq!(*units, spec.assigned(53));
        }
    }

    #[test]
    fn shard_file_names_round_trip_through_finder() {
        let dir = std::env::temp_dir().join(format!("irrnet-shardname-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for spec in [ShardSpec { index: 0, count: 3 }, ShardSpec { index: 2, count: 3 }] {
            std::fs::write(dir.join(shard_journal_file(spec)), "").unwrap();
        }
        std::fs::write(dir.join("journal.jsonl"), "").unwrap();
        std::fs::write(dir.join("fig06.csv"), "").unwrap();
        let found = find_shard_journals(&dir).unwrap();
        assert_eq!(
            found.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![ShardSpec { index: 0, count: 3 }, ShardSpec { index: 2, count: 3 }]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
