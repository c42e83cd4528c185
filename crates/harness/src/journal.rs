//! The crash-safe run journal: `results/journal.jsonl` — and, for
//! distributed campaigns, one `journal.shard-<i>-of-<N>.jsonl` per
//! worker.
//!
//! A campaign appends one fsync'd JSONL line per completed unit — its
//! index, label, wall time, the topology-cache keys it touched, and its
//! full emit list — after a header line describing the campaign
//! configuration (fingerprinted so a journal can't silently resume under
//! different options). Units that fail are journaled too (a `"fail"`
//! record), so a resumed or merged campaign reproduces the
//! manifest's `"failures"` array without re-running the failing unit.
//! Because every line is synced before the next unit is acknowledged, a
//! crash or SIGKILL loses at most the units that were mid-flight;
//! `irrnet-run resume <dir>` replays the journaled units and executes
//! only the remainder, producing byte-identical artifacts to an
//! uninterrupted run. Shard journals carry the same campaign fingerprint
//! as each other (the shard assignment is *not* part of the fingerprint),
//! which is how `irrnet-run merge` proves N shard journals describe one
//! campaign.
//!
//! Line order is completion order (nondeterministic under threading);
//! replay keys strictly on the unit index, and the determinism suite
//! excludes journal files from byte comparisons.
//!
//! **Integrity (since format v3).** Every line — header and records alike —
//! leads with a `"sum"` field: the fnv1a hash of the rest of the line
//! (its canonical payload). Corruption *anywhere* in the file is
//! therefore detected on read, not just at the tail, and classified:
//! a damaged **final** line with no trailing newline is the crash
//! signature (torn tail — dropped, with the byte count reported, and
//! resume re-runs that unit), while a damaged line *before* the end of
//! the file — a partial rsync, a disk error, a bit flip in transit —
//! is a typed [`JournalError::CorruptRecord`] naming file, line, and
//! byte offset. Nothing after mid-stream damage is ever silently
//! discarded.
//!
//! This module also owns the crash-safe file primitives (`atomic_write`,
//! `sync_dir`) the runner and manifest writer use for artifacts.

pub use crate::error::JournalError;
use crate::json::{self, escape, Value};
use crate::registry::Emit;
use crate::shard::ShardSpec;
use irrnet_core::rng::fnv1a;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal file name inside the campaign output directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Journal format version this build reads and writes. Version 2 added
/// the `argv`/`shard` header fields and `"fail"` records; version 3 added
/// the leading per-record `"sum"` integrity checksum; version 4 dropped
/// the retry, timeout, audit and streaming-statistics header fields and
/// the `"fail"` record's attempt count.
pub const JOURNAL_VERSION: u64 = 4;

/// The shard journal file name for shard `spec` of a campaign directory.
pub fn shard_journal_file(spec: ShardSpec) -> String {
    format!("journal.shard-{}-of-{}.jsonl", spec.index, spec.count)
}

/// The journal's first line: enough campaign configuration to rebuild
/// the exact unit pool on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignHeader {
    /// Quick-mode flag.
    pub quick: bool,
    /// Topology seed batch.
    pub seeds: Vec<u64>,
    /// Trials per topology.
    pub trials: usize,
    /// Selected experiment names, registry order.
    pub experiments: Vec<String>,
    /// Scheme filter by name (`None` = no filter).
    pub schemes: Option<Vec<String>>,
    /// Which shard of a distributed campaign this journal belongs to
    /// (`None` for a single-process journal). Deliberately *excluded*
    /// from the fingerprint: all shards of one campaign — and the merged
    /// journal — share the campaign fingerprint.
    pub shard: Option<ShardSpec>,
    /// The CLI invocation that wrote this journal (diagnostic only, not
    /// fingerprinted — mismatch errors quote it so the operator can see
    /// which options the journal was created under).
    pub argv: Vec<String>,
    /// Every unit label, pool order — resume refuses a journal whose
    /// pool no longer matches the code's expansion.
    pub labels: Vec<String>,
}

impl CampaignHeader {
    fn canonical(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "quick={};seeds={:?};trials={};experiments={:?};schemes={:?};labels={:?}",
            self.quick,
            self.seeds,
            self.trials,
            self.experiments,
            self.schemes,
            self.labels,
        );
        s
    }

    /// Stable hash of the campaign configuration. Shard assignment and
    /// argv are excluded: every worker of one campaign (and its merged
    /// journal) fingerprints identically.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// The originating invocation, rendered for error messages:
    /// `` `irrnet-run --all --quick` `` or `"<library call>"` when the
    /// campaign was started through the API.
    pub fn describe_argv(&self) -> String {
        if self.argv.is_empty() {
            "<library call>".to_string()
        } else {
            format!("`irrnet-run {}`", self.argv.join(" "))
        }
    }
}

/// One journaled (already completed) unit, reconstructed on resume.
#[derive(Debug)]
pub struct ReplayedUnit {
    /// Unit index in the pool.
    pub index: usize,
    /// Unit label at journaling time.
    pub label: String,
    /// Wall time of the original execution, for `busy_ms` accounting.
    pub ms: u64,
    /// Topology-cache keys the unit touched, lookup order.
    pub cache: Vec<String>,
    /// The unit's emits, verbatim.
    pub emits: Vec<Emit>,
}

/// One journaled failed unit, reconstructed on resume or merge so the
/// manifest's `"failures"` array is reproduced without re-running the
/// unit.
#[derive(Debug, Clone)]
pub struct ReplayedFailure {
    /// Unit index in the pool.
    pub index: usize,
    /// Unit label at journaling time.
    pub label: String,
    /// Failure kind (`"panic"`, `"sim"`, `"other"`, ...).
    pub kind: String,
    /// Human-readable error text.
    pub error: String,
}

// ---- per-record integrity checksums (format v3) --------------------------

/// The fixed lead-in of every sealed line: `{"sum":"0x<16 hex>",` —
/// the checksum covers everything after it up to (and including) the
/// closing brace.
const SUM_PREFIX: &str = "{\"sum\":\"0x";

/// Seal one raw journal line (`{...}\n`) with its integrity checksum:
/// the canonical payload — everything between the opening brace and the
/// trailing newline — is fnv1a-hashed and the hash is prepended as the
/// line's first field. Re-serializing a parsed record reproduces the
/// sealed line byte-identically.
pub fn seal_line(raw: &str) -> String {
    debug_assert!(raw.starts_with('{') && raw.ends_with("}\n"), "not a raw journal line");
    let body = &raw[1..raw.len() - 1];
    format!("{{\"sum\":\"0x{:016x}\",{body}\n", fnv1a(body.as_bytes()))
}

/// Verify a trimmed (newline-stripped) line's checksum, returning the
/// line for parsing on success.
fn verify_line(t: &str) -> Result<&str, String> {
    let rest = t
        .strip_prefix(SUM_PREFIX)
        .ok_or("record has no leading \"sum\" checksum field")?;
    if rest.len() < 16 + 2 {
        return Err("record ends inside its checksum field".into());
    }
    let (hex, tail) = rest.split_at(16);
    // Canonical form only: seal_line writes lowercase hex, and
    // from_str_radix would silently accept a case-flipped digit as the
    // same value — a one-bit corruption the checksum must not excuse.
    if !hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return Err(format!("bad checksum literal '0x{hex}'"));
    }
    let stamped = u64::from_str_radix(hex, 16)
        .map_err(|_| format!("bad checksum literal '0x{hex}'"))?;
    let body = tail.strip_prefix("\",").ok_or("malformed checksum field")?;
    let actual = fnv1a(body.as_bytes());
    if actual != stamped {
        return Err(format!(
            "record checksum mismatch: payload hashes to 0x{actual:016x} but the record \
             stamps 0x{stamped:016x}"
        ));
    }
    Ok(t)
}

// ---- compact one-line serialization -------------------------------------

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"{}\"", escape(value));
}

fn push_f64(out: &mut String, v: f64) {
    // Shortest-roundtrip Display: parse::<f64>() recovers the bits.
    let _ = write!(out, "{v}");
}

fn emit_json(e: &Emit) -> String {
    let mut s = String::from("{");
    match e {
        Emit::Table(text) => {
            s.push_str("\"t\":\"table\",");
            push_str_field(&mut s, "text", text);
        }
        Emit::Csv { name, content } => {
            s.push_str("\"t\":\"csv\",");
            push_str_field(&mut s, "name", name);
            s.push(',');
            push_str_field(&mut s, "content", content);
        }
        Emit::Column { csv, title, x_label, y_label, xs, scheme, order, ys } => {
            s.push_str("\"t\":\"col\",");
            push_str_field(&mut s, "csv", csv);
            s.push(',');
            push_str_field(&mut s, "title", title);
            s.push(',');
            push_str_field(&mut s, "x", x_label);
            s.push(',');
            push_str_field(&mut s, "y", y_label);
            s.push(',');
            push_str_field(&mut s, "scheme", scheme.name());
            let _ = write!(s, ",\"order\":{order},\"xs\":[");
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_f64(&mut s, *x);
            }
            s.push_str("],\"ys\":[");
            for (i, y) in ys.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                match y {
                    Some(v) => push_f64(&mut s, *v),
                    None => s.push_str("null"),
                }
            }
            s.push(']');
        }
        Emit::Config { kind, canonical, hash } => {
            s.push_str("\"t\":\"config\",");
            push_str_field(&mut s, "kind", kind);
            s.push(',');
            push_str_field(&mut s, "canonical", canonical);
            let _ = write!(s, ",\"hash\":\"0x{hash:016x}\"");
        }
    }
    s.push('}');
    s
}

fn push_str_array(s: &mut String, items: &[String]) {
    s.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", escape(item));
    }
    s.push(']');
}

/// The header line (with trailing newline).
pub fn header_line(h: &CampaignHeader) -> String {
    let mut s = String::from("{\"kind\":\"campaign\",");
    let _ = write!(s, "\"version\":{JOURNAL_VERSION},");
    let _ = write!(s, "\"fingerprint\":\"0x{:016x}\",", h.fingerprint());
    let _ = write!(s, "\"quick\":{},\"seeds\":[", h.quick);
    for (i, seed) in h.seeds.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{seed}");
    }
    let _ = write!(s, "],\"trials\":{},\"experiments\":", h.trials);
    push_str_array(&mut s, &h.experiments);
    if let Some(schemes) = &h.schemes {
        s.push_str(",\"schemes\":");
        push_str_array(&mut s, schemes);
    }
    if let Some(shard) = h.shard {
        let _ = write!(s, ",\"shard\":{{\"index\":{},\"count\":{}}}", shard.index, shard.count);
    }
    s.push_str(",\"argv\":");
    push_str_array(&mut s, &h.argv);
    s.push_str(",\"labels\":");
    push_str_array(&mut s, &h.labels);
    s.push_str("}\n");
    seal_line(&s)
}

/// One completed-unit line (with trailing newline).
pub fn unit_line(index: usize, label: &str, ms: u64, cache: &[String], emits: &[Emit]) -> String {
    let mut s = String::from("{\"kind\":\"unit\",");
    let _ = write!(s, "\"index\":{index},");
    push_str_field(&mut s, "label", label);
    let _ = write!(s, ",\"ms\":{ms},\"cache\":[");
    for (i, k) in cache.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", escape(k));
    }
    s.push_str("],\"emits\":[");
    for (i, e) in emits.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&emit_json(e));
    }
    s.push_str("]}\n");
    seal_line(&s)
}

/// One failed-unit line (with trailing newline).
pub fn fail_line(index: usize, label: &str, kind: &str, error: &str) -> String {
    let mut s = String::from("{\"kind\":\"fail\",");
    let _ = write!(s, "\"index\":{index},");
    push_str_field(&mut s, "label", label);
    s.push(',');
    push_str_field(&mut s, "fkind", kind);
    s.push(',');
    push_str_field(&mut s, "error", error);
    s.push_str("}\n");
    seal_line(&s)
}

// ---- parsing -------------------------------------------------------------

fn str_list(v: Option<&Value>) -> Option<Vec<String>> {
    v?.as_arr()?.iter().map(|x| x.as_str().map(str::to_string)).collect()
}

fn parse_hex_hash(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn parse_header(v: &Value) -> Result<CampaignHeader, JournalError> {
    let malformed = |m: &str| JournalError::Malformed(m.to_string());
    if v.get("kind").and_then(Value::as_str) != Some("campaign") {
        return Err(malformed("first journal line is not a campaign header"));
    }
    match v.get("version").and_then(Value::as_u64) {
        Some(JOURNAL_VERSION) => {}
        Some(found) => return Err(JournalError::Version { found }),
        None => return Err(malformed("header missing version")),
    }
    parse_header_fields(v).map_err(JournalError::Malformed)
}

fn parse_header_fields(v: &Value) -> Result<CampaignHeader, String> {
    let seeds = v
        .get("seeds")
        .and_then(Value::as_arr)
        .ok_or("header missing seeds")?
        .iter()
        .map(|s| s.as_u64().ok_or("bad seed"))
        .collect::<Result<Vec<_>, _>>()?;
    let shard = match v.get("shard") {
        None => None,
        Some(sv) => Some(ShardSpec {
            index: sv.get("index").and_then(Value::as_u64).ok_or("bad shard index")? as usize,
            count: sv.get("count").and_then(Value::as_u64).ok_or("bad shard count")? as usize,
        }),
    };
    let header = CampaignHeader {
        quick: v.get("quick").and_then(Value::as_bool).ok_or("header missing quick")?,
        seeds,
        trials: v.get("trials").and_then(Value::as_u64).ok_or("header missing trials")? as usize,
        experiments: str_list(v.get("experiments")).ok_or("header missing experiments")?,
        schemes: v.get("schemes").map(|s| str_list(Some(s)).ok_or("bad schemes")).transpose()?,
        shard,
        argv: str_list(v.get("argv")).unwrap_or_default(),
        labels: str_list(v.get("labels")).ok_or("header missing labels")?,
    };
    let stamped = v
        .get("fingerprint")
        .and_then(Value::as_str)
        .and_then(parse_hex_hash)
        .ok_or("header missing fingerprint")?;
    if stamped != header.fingerprint() {
        return Err(format!(
            "journal fingerprint mismatch: the header stamps 0x{stamped:016x} but its fields \
             hash to 0x{:016x}; the journal was written by {}",
            header.fingerprint(),
            header.describe_argv(),
        ));
    }
    Ok(header)
}

fn parse_emit(v: &Value) -> Result<Emit, String> {
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("emit missing '{key}'"))
    };
    match v.get("t").and_then(Value::as_str) {
        Some("table") => Ok(Emit::Table(s("text")?)),
        Some("csv") => Ok(Emit::Csv { name: s("name")?, content: s("content")? }),
        Some("config") => Ok(Emit::Config {
            kind: s("kind")?,
            canonical: s("canonical")?,
            hash: v
                .get("hash")
                .and_then(Value::as_str)
                .and_then(parse_hex_hash)
                .ok_or("config emit missing hash")?,
        }),
        Some("col") => {
            let scheme_name = s("scheme")?;
            let scheme = irrnet_core::SchemeRegistry::resolve(&scheme_name)
                .ok_or_else(|| format!("journal names unregistered scheme '{scheme_name}'"))?;
            let xs = v
                .get("xs")
                .and_then(Value::as_arr)
                .ok_or("col emit missing xs")?
                .iter()
                .map(|x| x.as_f64().ok_or("bad x value"))
                .collect::<Result<Vec<_>, _>>()?;
            let ys = v
                .get("ys")
                .and_then(Value::as_arr)
                .ok_or("col emit missing ys")?
                .iter()
                .map(|y| match y {
                    Value::Null => Ok(None),
                    Value::Num(n) => Ok(Some(*n)),
                    _ => Err("bad y value"),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Emit::Column {
                csv: s("csv")?,
                title: s("title")?,
                x_label: s("x")?,
                y_label: s("y")?,
                xs,
                scheme,
                order: v.get("order").and_then(Value::as_u64).ok_or("col emit missing order")?
                    as usize,
                ys,
            })
        }
        _ => Err("emit with unknown 't'".into()),
    }
}

fn parse_unit(v: &Value) -> Result<ReplayedUnit, String> {
    Ok(ReplayedUnit {
        index: v.get("index").and_then(Value::as_u64).ok_or("unit missing index")? as usize,
        label: v
            .get("label")
            .and_then(Value::as_str)
            .ok_or("unit missing label")?
            .to_string(),
        ms: v.get("ms").and_then(Value::as_u64).unwrap_or(0),
        cache: str_list(v.get("cache")).ok_or("unit missing cache keys")?,
        emits: v
            .get("emits")
            .and_then(Value::as_arr)
            .ok_or("unit missing emits")?
            .iter()
            .map(parse_emit)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn parse_fail(v: &Value) -> Result<ReplayedFailure, String> {
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("fail record missing '{key}'"))
    };
    Ok(ReplayedFailure {
        index: v.get("index").and_then(Value::as_u64).ok_or("fail record missing index")? as usize,
        label: s("label")?,
        kind: s("fkind")?,
        error: s("error")?,
    })
}

/// A parsed journal: the header, every intact completed-unit and
/// failed-unit record, and the byte length of the valid prefix (a torn
/// final line — the crash signature — is excluded; resume truncates to
/// this length before appending).
#[derive(Debug)]
pub struct ParsedJournal {
    /// The campaign header.
    pub header: CampaignHeader,
    /// Intact completed units, journal order.
    pub units: Vec<ReplayedUnit>,
    /// Intact failed units, journal order.
    pub failures: Vec<ReplayedFailure>,
    /// Bytes of the valid prefix.
    pub valid_len: u64,
    /// Bytes of the torn final line excluded from the valid prefix
    /// (0 for a cleanly-closed journal). Resume and merge report this
    /// so an operator can tell a clean resume from a crash recovery.
    pub torn_bytes: u64,
}

/// Parse journal text. The header must be intact (a campaign that never
/// journaled a header has nothing to resume). Every line carries a
/// checksum, so damage is detected wherever it sits and classified by
/// position: a damaged **final** line with no trailing newline is the
/// crash signature — dropped (reported via
/// [`ParsedJournal::torn_bytes`]) and re-run on resume — while a
/// damaged line anywhere else is mid-stream corruption and returns a
/// typed [`JournalError::CorruptRecord`] with line and byte offset.
pub fn parse_journal(text: &str) -> Result<ParsedJournal, JournalError> {
    let malformed = JournalError::Malformed;
    let mut offset = 0u64;
    let mut units = Vec::new();
    let mut failures = Vec::new();
    let mut header: Option<CampaignHeader> = None;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        let lineno = i + 1;
        let intact = line.ends_with('\n');
        let is_last = offset as usize + line.len() == text.len();
        let checked: Result<Value, String> = if intact {
            verify_line(&line[..line.len() - 1]).and_then(json::parse)
        } else {
            Err("torn line (no trailing newline)".into())
        };
        match (&header, checked) {
            (None, Ok(v)) => header = Some(parse_header(&v)?),
            (None, Err(e)) => {
                // Headers that predate v3 carry no checksum field; parse
                // the raw line once more so those fail with the version
                // guidance rather than a checksum complaint.
                if intact {
                    if let Ok(v) = json::parse(&line[..line.len() - 1]) {
                        if let Some(found) = v.get("version").and_then(Value::as_u64) {
                            if found != JOURNAL_VERSION {
                                return Err(JournalError::Version { found });
                            }
                        }
                    }
                }
                return Err(malformed(format!("journal header unreadable: {e}")));
            }
            (Some(_), Ok(v)) => match v.get("kind").and_then(Value::as_str) {
                Some("unit") => units.push(parse_unit(&v).map_err(malformed)?),
                Some("fail") => failures.push(parse_fail(&v).map_err(malformed)?),
                _ => return Err(malformed("unexpected record kind in journal".into())),
            },
            (Some(_), Err(detail)) => {
                if is_last && !intact {
                    // The crash signature: a partial final line that never
                    // got its newline. Drop it; resume re-runs that unit.
                    break;
                }
                // Anything else — a bad line with records after it, or a
                // newline-terminated final line failing its checksum — is
                // mid-stream damage, never silently truncated away.
                return Err(JournalError::CorruptRecord {
                    file: String::new(),
                    line: lineno,
                    offset,
                    detail,
                });
            }
        }
        offset += line.len() as u64;
    }
    let header = header.ok_or_else(|| malformed("journal is empty".into()))?;
    Ok(ParsedJournal {
        header,
        units,
        failures,
        valid_len: offset,
        torn_bytes: text.len() as u64 - offset,
    })
}

/// Read and parse the journal file at `path`.
pub fn load_journal(path: &Path) -> Result<ParsedJournal, JournalError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| JournalError::Malformed(format!("cannot read {}: {e}", path.display())))?;
    parse_journal(&text).map_err(|e| e.locate(path))
}

/// Print the one-line crash-recovery notice for a journal whose tail was
/// torn: names the file and the dropped byte count, so operators can
/// tell a clean resume from a crash recovery. Silent for clean journals.
pub fn report_torn_tail(path: &Path, parsed: &ParsedJournal) {
    if parsed.torn_bytes > 0 {
        println!(
            "note: dropped {} torn byte(s) from {} (interrupted final write); \
             the unit mid-flight at the crash will re-run",
            parsed.torn_bytes,
            path.display()
        );
    }
}

// ---- the writer ----------------------------------------------------------

/// Append-only journal writer; every record is fsync'd before the call
/// returns, so acknowledged units survive any crash.
pub struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Start a fresh journal for a new campaign at `path` (the
    /// single-process `journal.jsonl` or a worker's shard journal):
    /// truncate, write the header, fsync file and directory.
    pub fn create(path: &Path, header: &CampaignHeader) -> io::Result<Self> {
        let dir = path.parent().map(PathBuf::from).unwrap_or_default();
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(&dir)?;
        }
        let mut file = File::create(path)?;
        file.write_all(header_line(header).as_bytes())?;
        file.sync_data()?;
        if !dir.as_os_str().is_empty() {
            sync_dir(&dir)?;
        }
        Ok(JournalWriter { file: Mutex::new(file) })
    }

    /// Reopen the existing journal at `path` for resume: truncate the
    /// torn tail (if any) to `valid_len` and position at the end for
    /// appending.
    pub fn reopen(path: &Path, valid_len: u64) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        file.sync_data()?;
        Ok(JournalWriter { file: Mutex::new(file) })
    }

    fn append(&self, line: &str) -> io::Result<()> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())?;
        file.sync_data()
    }

    /// Durably record one completed unit.
    pub fn record(
        &self,
        index: usize,
        label: &str,
        ms: u64,
        cache: &[String],
        emits: &[Emit],
    ) -> io::Result<()> {
        self.append(&unit_line(index, label, ms, cache, emits))
    }

    /// Durably record one failed unit.
    pub fn record_failure(
        &self,
        index: usize,
        label: &str,
        kind: &str,
        error: &str,
    ) -> io::Result<()> {
        self.append(&fail_line(index, label, kind, error))
    }
}

// ---- crash-safe file primitives ------------------------------------------

/// Durably sync a directory so a just-created or just-renamed entry
/// survives power loss (no-op off unix).
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Atomically replace `path` with `content`: write a `.tmp` sibling,
/// fsync it, rename over the target, fsync the directory. Readers never
/// observe a half-written artifact, and a crash leaves either the old
/// file or the new one — never a torn hybrid.
pub fn atomic_write(path: &Path, content: &str) -> io::Result<()> {
    let tmp = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.tmp"),
        None => "tmp".to_string(),
    });
    {
        let mut f = File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            sync_dir(dir)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;

    fn sample_header() -> CampaignHeader {
        CampaignHeader {
            quick: true,
            seeds: vec![0, 1, 2],
            trials: 2,
            experiments: vec!["fig06".into(), "tab01".into()],
            schemes: None,
            shard: None,
            argv: vec!["--quick".into(), "--all".into()],
            labels: vec!["a:tree".into(), "b:path".into()],
        }
    }

    fn sample_emits() -> Vec<Emit> {
        vec![
            Emit::Table("hello\nworld".into()),
            Emit::Csv { name: "x.csv".into(), content: "a,b\n1,2\n".into() },
            Emit::Column {
                csv: "p.csv".into(),
                title: "R = 0.5".into(),
                x_label: "destinations".into(),
                y_label: "latency (cycles)".into(),
                xs: vec![4.0, 8.0],
                scheme: SchemeId::TREE,
                order: 1,
                ys: vec![Some(1234.5678901), None],
            },
            Emit::Config { kind: "sim".into(), canonical: "sim{}".into(), hash: 0xdead_beef },
        ]
    }

    /// Tamper with a sealed line's payload and re-seal it, so the test
    /// exercises the check *behind* the checksum (fingerprint, version)
    /// rather than tripping the checksum itself.
    fn tamper_resealed(sealed: &str, from: &str, to: &str) -> String {
        let body = sealed
            .trim_end_matches('\n')
            .split_once("\",")
            .map(|(_, rest)| rest)
            .expect("sealed line has a checksum field");
        seal_line(&format!("{{{}\n", body.replace(from, to)))
    }

    fn assert_emits_eq(a: &Emit, b: &Emit) {
        match (a, b) {
            (Emit::Table(x), Emit::Table(y)) => assert_eq!(x, y),
            (
                Emit::Csv { name: n1, content: c1 },
                Emit::Csv { name: n2, content: c2 },
            ) => {
                assert_eq!(n1, n2);
                assert_eq!(c1, c2);
            }
            (
                Emit::Column { csv, title, x_label, y_label, xs, scheme, order, ys },
                Emit::Column {
                    csv: csv2,
                    title: t2,
                    x_label: x2,
                    y_label: y2,
                    xs: xs2,
                    scheme: s2,
                    order: o2,
                    ys: ys2,
                },
            ) => {
                assert_eq!((csv, title, x_label, y_label), (csv2, t2, x2, y2));
                assert_eq!(xs, xs2);
                assert_eq!(scheme, s2);
                assert_eq!(order, o2);
                assert_eq!(ys, ys2, "floats must round-trip bit-exactly");
            }
            (
                Emit::Config { kind, canonical, hash },
                Emit::Config { kind: k2, canonical: c2, hash: h2 },
            ) => {
                assert_eq!((kind, canonical), (k2, c2));
                assert_eq!(hash, h2);
            }
            _ => panic!("emit kinds differ after round-trip"),
        }
    }

    #[test]
    fn journal_round_trips_byte_exactly() {
        let header = sample_header();
        let emits = sample_emits();
        let text = format!(
            "{}{}",
            header_line(&header),
            unit_line(1, "b:path", 42, &["topo{seed=0}".to_string()], &emits)
        );
        let parsed = parse_journal(&text).unwrap();
        assert_eq!(parsed.header, header);
        assert_eq!(parsed.valid_len as usize, text.len());
        assert_eq!(parsed.units.len(), 1);
        let u = &parsed.units[0];
        assert_eq!((u.index, u.label.as_str(), u.ms), (1, "b:path", 42));
        assert_eq!(u.cache, vec!["topo{seed=0}".to_string()]);
        assert_eq!(u.emits.len(), emits.len());
        for (a, b) in u.emits.iter().zip(&emits) {
            assert_emits_eq(a, b);
        }
    }

    #[test]
    fn torn_trailing_line_is_dropped_not_fatal() {
        let header = sample_header();
        let good = unit_line(0, "a:tree", 7, &[], &[Emit::Table("t".into())]);
        let torn = &unit_line(1, "b:path", 9, &[], &[Emit::Table("u".into())])[..20];
        let text = format!("{}{good}{torn}", header_line(&header));
        let parsed = parse_journal(&text).unwrap();
        assert_eq!(parsed.units.len(), 1, "only the intact unit survives");
        assert_eq!(
            parsed.valid_len as usize,
            header_line(&header).len() + good.len(),
            "valid prefix excludes the torn line"
        );
        assert_eq!(parsed.torn_bytes as usize, torn.len(), "dropped bytes are accounted");
    }

    #[test]
    fn header_fingerprint_detects_tampering() {
        let header = sample_header();
        // Re-seal after tampering so the checksum passes and the
        // fingerprint check is what fires.
        let tampered = tamper_resealed(&header_line(&header), "\"trials\":2", "\"trials\":5");
        let err = parse_journal(&tampered).unwrap_err().to_string();
        assert!(err.contains("fingerprint"), "{err}");
        // The mismatch report names both fingerprints and the invocation
        // that wrote the journal.
        assert!(err.contains(&format!("0x{:016x}", header.fingerprint())), "{err}");
        assert!(err.contains("`irrnet-run --quick --all`"), "{err}");
    }

    #[test]
    fn checksum_catches_unsealed_tampering() {
        // The same tamper *without* re-sealing trips the checksum first.
        let header = sample_header();
        let tampered = header_line(&header).replace("\"trials\":2", "\"trials\":5");
        let err = parse_journal(&tampered).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn mid_file_corruption_is_typed_with_line_and_offset() {
        let header = sample_header();
        let good = unit_line(0, "a:tree", 7, &[], &[Emit::Table("t".into())]);
        let bad = {
            // Flip one payload byte of a sealed record, keeping the line
            // structure (and trailing newline) intact.
            let mut b = unit_line(1, "b:path", 9, &[], &[Emit::Table("u".into())]).into_bytes();
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
            String::from_utf8(b).unwrap()
        };
        let tail = unit_line(2, "c:path", 3, &[], &[Emit::Table("v".into())]);
        let hl = header_line(&header);
        let text = format!("{hl}{good}{bad}{tail}");
        let err = parse_journal(&text).unwrap_err();
        match &err {
            JournalError::CorruptRecord { line, offset, .. } => {
                assert_eq!(*line, 3, "damage is on the third line");
                assert_eq!(*offset as usize, hl.len() + good.len());
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        let msg = err.locate(Path::new("out/journal.shard-0-of-2.jsonl")).to_string();
        assert!(msg.contains("journal.shard-0-of-2.jsonl"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");

        // Same damage on the *final* line, but newline-terminated: still
        // corruption, not a torn tail — a crash can't tear a closed line.
        let text = format!("{hl}{good}{bad}");
        assert!(matches!(
            parse_journal(&text),
            Err(JournalError::CorruptRecord { line: 3, .. })
        ));
    }

    #[test]
    fn shard_and_argv_round_trip_without_changing_fingerprint() {
        let base = sample_header();
        let mut sharded = base.clone();
        sharded.shard = Some(ShardSpec { index: 1, count: 3 });
        sharded.argv = vec!["work".into(), "out".into(), "--shard".into(), "1/3".into()];
        assert_eq!(
            base.fingerprint(),
            sharded.fingerprint(),
            "shard assignment and argv must not perturb the campaign fingerprint"
        );
        let parsed = parse_journal(&header_line(&sharded)).unwrap();
        assert_eq!(parsed.header, sharded);
    }

    #[test]
    fn old_journal_version_is_rejected_with_guidance() {
        // A sealed header stamping an older version (re-sealed so the
        // checksum passes) gets the typed Version error.
        let header = sample_header();
        for found in [1, 3] {
            let old = tamper_resealed(
                &header_line(&header),
                "\"version\":4",
                &format!("\"version\":{found}"),
            );
            let err = parse_journal(&old).unwrap_err();
            assert!(matches!(err, JournalError::Version { found: f } if f == found), "{err:?}");
            let msg = err.to_string();
            let named = msg.contains(&format!("version {found}"));
            assert!(named && msg.contains("version 4"), "{msg}");
        }

        // A *real* pre-v3 journal has no "sum" field at all; the parser
        // still surfaces the version guidance, not a checksum complaint.
        let v2 = "{\"kind\":\"campaign\",\"version\":2,\"fingerprint\":\"0x0\",\"labels\":[]}\n";
        let err = parse_journal(v2).unwrap_err();
        assert!(matches!(err, JournalError::Version { found: 2 }), "{err:?}");
        assert!(err.to_string().contains("re-run"), "{err}");
    }

    #[test]
    fn fail_records_round_trip() {
        let header = sample_header();
        let text = format!(
            "{}{}{}",
            header_line(&header),
            unit_line(0, "a:tree", 7, &[], &[Emit::Table("t".into())]),
            fail_line(1, "b:path", "sim", "simulation failed: \"cycle limit\""),
        );
        let parsed = parse_journal(&text).unwrap();
        assert_eq!(parsed.units.len(), 1);
        assert_eq!(parsed.failures.len(), 1);
        let f = &parsed.failures[0];
        assert_eq!((f.index, f.label.as_str(), f.kind.as_str()), (1, "b:path", "sim"));
        assert_eq!(f.error, "simulation failed: \"cycle limit\"");
        assert_eq!(parsed.valid_len as usize, text.len());
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("irrnet-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("f.csv");
        atomic_write(&target, "one").unwrap();
        atomic_write(&target, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must not survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_creates_reopens_and_truncates() {
        let dir = std::env::temp_dir().join(format!("irrnet-jw-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let header = sample_header();
        let path = dir.join(JOURNAL_FILE);
        let w = JournalWriter::create(&path, &header).unwrap();
        w.record(0, "a:tree", 5, &[], &[Emit::Table("t".into())]).unwrap();
        drop(w);
        // Simulate a torn tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let valid = text.len() as u64;
        text.push_str("{\"kind\":\"unit\",\"index\":1,\"lab");
        std::fs::write(&path, &text).unwrap();
        let parsed = parse_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.valid_len, valid);
        let w = JournalWriter::reopen(&path, parsed.valid_len).unwrap();
        w.record(1, "b:path", 6, &[], &[Emit::Table("u".into())]).unwrap();
        drop(w);
        let parsed = parse_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.units.len(), 2, "truncate-then-append yields a clean journal");
        std::fs::remove_dir_all(&dir).ok();
    }
}
