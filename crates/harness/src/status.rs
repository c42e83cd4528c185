//! `irrnet-run status <dir>` — a live view of a running (or finished)
//! campaign from its journals alone.
//!
//! The journals are append-only and every record is fsync'd, so tailing
//! them from another process is always safe: a torn final line simply
//! means a worker is mid-write, and `parse_journal` drops it. For a
//! distributed campaign the view is per shard — progress, failure
//! count, mean unit time, a single-worker ETA from the observed rate,
//! and a liveness column read from the shard's lease file (`[live]`,
//! `[STALLED ...]`, `[dead pid ...]`, `[done]`); for a single-process
//! campaign the same columns describe `journal.jsonl`. Shards whose
//! journal is missing, empty, or damaged still get a row — a `0/N` line
//! or a one-line note naming the problem — instead of sinking the whole
//! status view.

use crate::journal::{load_journal, JournalError, ParsedJournal, JOURNAL_FILE};
use crate::lease::{lease_file, load_lease, now_ms, Liveness};
use crate::registry::Emit;
use crate::shard::{find_shard_journals, ShardSpec};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Progress of one journal (a shard's, or the single-process one).
#[derive(Debug)]
pub struct JournalProgress {
    /// Shard slot, or `None` for `journal.jsonl`.
    pub shard: Option<ShardSpec>,
    /// Units this journal is responsible for (0 when unknown).
    pub assigned: usize,
    /// Completed units journaled so far.
    pub completed: usize,
    /// Failed units journaled so far.
    pub failed: usize,
    /// Summed wall time of the completed units, in milliseconds.
    pub busy_ms: u64,
    /// What the shard's lease says about its worker (`None` when no
    /// lease exists — e.g. a single-process journal).
    pub liveness: Option<Liveness>,
    /// Why the usual counts are absent or suspect: missing journal,
    /// empty journal, corruption. A note row renders the note in place
    /// of the progress columns it cannot compute.
    pub note: Option<String>,
    /// Distinct error-model fingerprints found in this journal's unit
    /// records (`"err"` config emits from transient-fault campaigns,
    /// first-seen order). Rendered as an `[err 0x…]` label so a
    /// directory whose shards ran under different error models is
    /// visible before `merge`.
    pub err_models: Vec<u64>,
}

impl JournalProgress {
    fn of(parsed: &ParsedJournal, shard: Option<ShardSpec>, liveness: Option<Liveness>) -> Self {
        let pool = parsed.header.labels.len();
        let assigned = match shard {
            Some(spec) => spec.assigned(pool).len(),
            None => pool,
        };
        let mut busy_ms = 0u64;
        let mut err_models = Vec::new();
        for u in &parsed.units {
            busy_ms += u.ms;
            for e in &u.emits {
                if let Emit::Config { kind, hash, .. } = e {
                    if kind == "err" && !err_models.contains(hash) {
                        err_models.push(*hash);
                    }
                }
            }
        }
        JournalProgress {
            shard,
            assigned,
            completed: parsed.units.len(),
            failed: parsed.failures.len(),
            busy_ms,
            liveness,
            note: None,
            err_models,
        }
    }

    fn noted(
        shard: Option<ShardSpec>,
        assigned: usize,
        note: String,
        liveness: Option<Liveness>,
    ) -> Self {
        JournalProgress {
            shard,
            assigned,
            completed: 0,
            failed: 0,
            busy_ms: 0,
            liveness,
            note: Some(note),
            err_models: Vec::new(),
        }
    }

    /// Units still to run.
    pub fn remaining(&self) -> usize {
        self.assigned.saturating_sub(self.completed + self.failed)
    }

    /// Mean wall time of the completed units (`None` before the first).
    fn mean_ms(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.busy_ms as f64 / self.completed as f64)
    }

    fn row(&self) -> String {
        let name = match self.shard {
            Some(spec) => format!("shard {spec}"),
            None => "campaign".to_string(),
        };
        let mut live = match &self.liveness {
            Some(l) => format!("  {}", l.label()),
            None => String::new(),
        };
        for fp in &self.err_models {
            let _ = write!(live, "  [err 0x{fp:016x}]");
        }
        if let Some(note) = &self.note {
            if self.assigned > 0 {
                return format!(
                    "{name:<12} {:>5}/{:<5} {:>3}%  {note}{live}",
                    0, self.assigned, 0
                );
            }
            return format!("{name:<12} {note}{live}");
        }
        let done = self.completed + self.failed;
        let pct = (100 * done).checked_div(self.assigned).unwrap_or(100);
        let mean = match self.mean_ms() {
            Some(m) => human_ms(m.round() as u64),
            None => "-".into(),
        };
        // A naive single-worker ETA at the mean rate observed so far.
        let eta = if self.remaining() == 0 {
            "done".to_string()
        } else {
            match self.mean_ms() {
                Some(m) => format!("~{}", human_ms((m * self.remaining() as f64).round() as u64)),
                None => "?".into(),
            }
        };
        format!(
            "{name:<12} {done:>5}/{:<5} {pct:>3}%  {:>4} failed  {mean:>9}/unit  eta {eta}{live}",
            self.assigned, self.failed
        )
    }
}

/// Render a millisecond quantity compactly (`850 ms`, `12.3 s`,
/// `4.5 min`).
fn human_ms(ms: u64) -> String {
    if ms < 1_000 {
        format!("{ms} ms")
    } else if ms < 60_000 {
        format!("{:.1} s", ms as f64 / 1_000.0)
    } else {
        format!("{:.1} min", ms as f64 / 60_000.0)
    }
}

fn short_note(e: &JournalError) -> String {
    match e {
        JournalError::CorruptRecord { line, .. } => format!("corrupt at line {line}"),
        JournalError::Version { found } => format!("unsupported journal version {found}"),
        JournalError::Malformed(m) => {
            if m.contains("journal is empty") {
                "empty journal".to_string()
            } else {
                m.clone()
            }
        }
    }
}

/// The whole campaign's status: every shard journal found in `dir`, or
/// the single-process journal when no shards exist. A directory with no
/// journals at all is a clear one-line error; a missing, empty, or
/// damaged shard becomes a note row rather than a failure. `stale_after`
/// is the heartbeat age past which a shard's lease counts as stalled.
pub fn campaign_status(dir: &Path, stale_after: Duration) -> io::Result<Vec<JournalProgress>> {
    let shards = find_shard_journals(dir)?;
    let now = now_ms();
    let liveness_of = |spec: ShardSpec| {
        load_lease(&dir.join(lease_file(spec))).map(|l| Liveness::of(&l, now, stale_after))
    };
    if shards.is_empty() {
        let path = dir.join(JOURNAL_FILE);
        if !path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no campaign journals in {dir} (expected {JOURNAL_FILE} or \
                     journal.shard-*-of-*.jsonl); start a campaign with \
                     `irrnet-run --all --out {dir}` or shard workers with \
                     `irrnet-run work {dir} --shard i/N ...`",
                    dir = dir.display()
                ),
            ));
        }
        let parsed = load_journal(&path)?;
        return Ok(vec![JournalProgress::of(&parsed, None, None)]);
    }

    let mut progress = Vec::new();
    let mut pool: Option<usize> = None;
    for (spec, path) in &shards {
        match load_journal(path) {
            Ok(parsed) => {
                pool = pool.or(Some(parsed.header.labels.len()));
                progress.push(JournalProgress::of(&parsed, Some(*spec), liveness_of(*spec)));
            }
            Err(e) => progress.push(JournalProgress::noted(
                Some(*spec),
                0,
                short_note(&e),
                liveness_of(*spec),
            )),
        }
    }
    // Synthesize 0/N rows for shards whose worker never started, so the
    // table always shows the full shard set (only meaningful when the
    // found journals agree on the count).
    let count = shards[0].0.count;
    if shards.iter().all(|(s, _)| s.count == count) {
        let present: Vec<usize> = shards.iter().map(|(s, _)| s.index).collect();
        for index in 0..count {
            if !present.contains(&index) {
                let spec = ShardSpec { index, count };
                let assigned = pool.map_or(0, |p| spec.assigned(p).len());
                progress.push(JournalProgress::noted(
                    Some(spec),
                    assigned,
                    "no journal — worker not started".to_string(),
                    liveness_of(spec),
                ));
            }
        }
        progress.sort_by_key(|p| p.shard.map(|s| s.index));
    }
    Ok(progress)
}

/// Render the status table shown by `irrnet-run status <dir>`.
pub fn render_status(dir: &Path, progress: &[JournalProgress]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}:", dir.display());
    let (mut done, mut failed, mut assigned) = (0usize, 0usize, 0usize);
    for p in progress {
        let _ = writeln!(out, "  {}", p.row());
        done += p.completed + p.failed;
        failed += p.failed;
        assigned += p.assigned;
    }
    if progress.len() > 1 {
        let pct = (100 * done).checked_div(assigned).unwrap_or(100);
        let _ = writeln!(out, "  {:<12} {done:>5}/{assigned:<5} {pct:>3}%  {failed:>4} failed", "total");
    }
    // Transient-fault campaigns stamp their error model into every ext_i
    // unit record; shards that journaled different fingerprints were run
    // by workers built with different error models, and merging them
    // would splice incompatible sweeps into one artifact.
    let stamped: Vec<&Vec<u64>> =
        progress.iter().filter(|p| !p.err_models.is_empty()).map(|p| &p.err_models).collect();
    if stamped.windows(2).any(|w| w[0] != w[1]) {
        let _ = writeln!(
            out,
            "  warning: shards journaled different error-model fingerprints — \
             rebuild the stragglers before `irrnet-run merge`"
        );
    }
    if done == assigned && progress.iter().all(|p| p.note.is_none()) {
        let _ = writeln!(
            out,
            "  all units journaled{}",
            if progress.iter().any(|p| p.shard.is_some()) {
                format!("; render with `irrnet-run merge {}`", dir.display())
            } else {
                String::new()
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{fail_line, header_line, parse_journal, unit_line, CampaignHeader};
    use crate::registry::Emit;

    fn header(shard: Option<ShardSpec>) -> CampaignHeader {
        CampaignHeader {
            quick: true,
            seeds: vec![0],
            trials: 1,
            experiments: vec!["fig06".into()],
            schemes: None,
            shard,
            argv: vec![],
            labels: (0..5).map(|i| format!("u{i}")).collect(),
        }
    }

    #[test]
    fn progress_counts_and_eta_from_journal_text() {
        let spec = ShardSpec { index: 0, count: 2 };
        let text = format!(
            "{}{}{}",
            header_line(&header(Some(spec))),
            unit_line(0, "u0", 120, &[], &[Emit::Table("t".into())]),
            fail_line(2, "u2", "panic", "boom"),
        );
        let parsed = parse_journal(&text).unwrap();
        let p = JournalProgress::of(&parsed, parsed.header.shard, None);
        // Shard 0/2 of a 5-unit pool owns units 0, 2, 4.
        assert_eq!((p.assigned, p.completed, p.failed, p.remaining()), (3, 1, 1, 1));
        let row = p.row();
        assert!(row.contains("shard 0/2") && row.contains("2/3"), "{row}");
        assert!(row.contains("eta ~120 ms"), "{row}");
    }

    #[test]
    fn human_ms_picks_sane_units() {
        assert_eq!(human_ms(850), "850 ms");
        assert_eq!(human_ms(12_300), "12.3 s");
        assert_eq!(human_ms(270_000), "4.5 min");
    }

    #[test]
    fn single_process_journal_is_reported_whole() {
        let text = header_line(&header(None));
        let parsed = parse_journal(&text).unwrap();
        let p = JournalProgress::of(&parsed, None, None);
        assert_eq!((p.assigned, p.completed, p.remaining()), (5, 0, 5));
        assert!(p.row().contains("-/unit  eta ?"), "{}", p.row());
        let rendered = render_status(Path::new("out"), &[p]);
        assert!(rendered.contains("campaign"), "{rendered}");

        // Three units at 100, 200 and 300 ms: a 200 ms mean, and two
        // units left at that rate.
        let text = (0..3).fold(text, |t, i| {
            t + &unit_line(i, &format!("u{i}"), 100 * (i as u64 + 1), &[], &[])
        });
        let p = JournalProgress::of(&parse_journal(&text).unwrap(), None, None);
        assert_eq!((p.completed, p.busy_ms, p.remaining()), (3, 600, 2));
        let row = p.row();
        assert!(row.contains("200 ms/unit") && row.contains("eta ~400 ms"), "{row}");
    }

    #[test]
    fn liveness_and_note_rows_render() {
        let p = JournalProgress::of(
            &parse_journal(&header_line(&header(Some(ShardSpec { index: 0, count: 2 }))))
                .unwrap(),
            Some(ShardSpec { index: 0, count: 2 }),
            Some(Liveness::Stalled { age_ms: 126_000 }),
        );
        let row = p.row();
        assert!(row.contains("[STALLED 2.1 min]"), "{row}");

        // A shard that never started: 0/N with a note.
        let missing = JournalProgress::noted(
            Some(ShardSpec { index: 1, count: 2 }),
            2,
            "no journal — worker not started".to_string(),
            None,
        );
        let row = missing.row();
        assert!(row.contains("0/2") && row.contains("worker not started"), "{row}");

        // An unreadable shard: note only.
        let bad = JournalProgress::noted(
            Some(ShardSpec { index: 1, count: 2 }),
            0,
            short_note(&JournalError::CorruptRecord {
                file: "x".into(),
                line: 4,
                offset: 300,
                detail: "checksum".into(),
            }),
            Some(Liveness::Dead { pid: 42 }),
        );
        let row = bad.row();
        assert!(row.contains("corrupt at line 4") && row.contains("[dead pid 42]"), "{row}");

        // The "all units journaled" hint never fires while note rows exist.
        let rendered = render_status(Path::new("out"), &[bad]);
        assert!(!rendered.contains("all units journaled"), "{rendered}");
    }

    #[test]
    fn transient_fault_shards_are_labeled_with_their_error_model() {
        let spec = |i| ShardSpec { index: i, count: 2 };
        let err = |hash: u64| Emit::Config {
            kind: "err".into(),
            canonical: "errsweep{err{...}}".into(),
            hash,
        };
        let shard_text = |i, hash| {
            format!(
                "{}{}",
                header_line(&header(Some(spec(i)))),
                unit_line(i, "ext_i:reliability", 40, &[], &[err(hash)]),
            )
        };
        let p0 = JournalProgress::of(
            &parse_journal(&shard_text(0, 0xABCD)).unwrap(),
            Some(spec(0)),
            None,
        );
        assert_eq!(p0.err_models, vec![0xABCD]);
        assert!(p0.row().contains("[err 0x000000000000abcd]"), "{}", p0.row());

        // A shard without "err" emits gets no label — and no warning.
        let plain = JournalProgress::of(
            &parse_journal(&format!(
                "{}{}",
                header_line(&header(Some(spec(1)))),
                unit_line(1, "u1", 10, &[], &[Emit::Table("t".into())]),
            ))
            .unwrap(),
            Some(spec(1)),
            None,
        );
        assert!(plain.err_models.is_empty());
        assert!(!plain.row().contains("[err"), "{}", plain.row());
        let rendered = render_status(Path::new("out"), &[p0, plain]);
        assert!(!rendered.contains("warning"), "{rendered}");

        // Two shards stamping *different* fingerprints: a mixed-config
        // directory, flagged before anyone merges it.
        let q0 = JournalProgress::of(
            &parse_journal(&shard_text(0, 0xABCD)).unwrap(),
            Some(spec(0)),
            None,
        );
        let q1 = JournalProgress::of(
            &parse_journal(&shard_text(1, 0x1234)).unwrap(),
            Some(spec(1)),
            None,
        );
        let rendered = render_status(Path::new("out"), &[q0, q1]);
        assert!(
            rendered.contains("different error-model fingerprints"),
            "{rendered}"
        );
        assert!(rendered.contains("before `irrnet-run merge`"), "{rendered}");
    }

    #[test]
    fn empty_directory_status_is_one_clear_error() {
        let dir = std::env::temp_dir().join(format!("irrnet-status-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = campaign_status(&dir, Duration::from_secs(60)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no campaign journals"), "{msg}");
        assert!(msg.contains("irrnet-run work"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
