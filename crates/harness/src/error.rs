//! Typed unit and journal failures.
//!
//! A campaign unit that fails — by returning an error, panicking, or
//! overrunning its wall-clock budget — produces a [`UnitError`] instead
//! of killing the campaign. The runner records it (with the unit's label
//! and retry count) in the manifest's `"failures"` array and leaves a
//! gap in the affected CSV columns; every other unit still runs.
//!
//! A journal that cannot be trusted produces a [`JournalError`]: the
//! important distinction is [`JournalError::CorruptRecord`] (damage in
//! the middle of the stream — a partial transfer, a disk error, a bit
//! flip — which must never be mistaken for a crash tail and silently
//! truncated away) versus the torn final line a crash legitimately
//! leaves, which the parser drops and resume re-runs.

use irrnet_collectives::CollectiveError;
use irrnet_core::PlanError;
use irrnet_sim::SimError;
use irrnet_topology::TopologyError;
use irrnet_workloads::{IsolationError, WorkloadError};
use std::fmt;
use std::time::Duration;

/// Why a single campaign unit failed to produce its emits.
#[derive(Debug, Clone)]
pub enum UnitError {
    /// The unit's closure panicked (caught at the isolation boundary).
    Panicked(String),
    /// The unit exceeded `--unit-timeout`.
    TimedOut(Duration),
    /// A simulation run inside the unit failed.
    Sim(SimError),
    /// A collective run inside the unit failed.
    Collective(CollectiveError),
    /// Topology generation or analysis failed.
    Topology(TopologyError),
    /// Multicast planning failed.
    Plan(PlanError),
    /// Anything else, as a message.
    Msg(String),
}

impl UnitError {
    /// Short machine-stable kind tag for the manifest/journal.
    pub fn kind(&self) -> &'static str {
        match self {
            UnitError::Panicked(_) => "panic",
            UnitError::TimedOut(_) => "timeout",
            UnitError::Sim(_) => "sim",
            UnitError::Collective(_) => "collective",
            UnitError::Topology(_) => "topology",
            UnitError::Plan(_) => "plan",
            UnitError::Msg(_) => "other",
        }
    }
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::Panicked(msg) => write!(f, "panicked: {msg}"),
            UnitError::TimedOut(d) => {
                write!(f, "exceeded its {:.1}s wall-clock budget", d.as_secs_f64())
            }
            UnitError::Sim(e) => write!(f, "simulation failed: {e}"),
            UnitError::Collective(e) => write!(f, "collective failed: {e}"),
            UnitError::Topology(e) => write!(f, "topology failed: {e}"),
            UnitError::Plan(e) => write!(f, "planning failed: {e}"),
            UnitError::Msg(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for UnitError {}

impl From<SimError> for UnitError {
    fn from(e: SimError) -> Self {
        UnitError::Sim(e)
    }
}

impl From<CollectiveError> for UnitError {
    fn from(e: CollectiveError) -> Self {
        UnitError::Collective(e)
    }
}

impl From<TopologyError> for UnitError {
    fn from(e: TopologyError) -> Self {
        UnitError::Topology(e)
    }
}

impl From<PlanError> for UnitError {
    fn from(e: PlanError) -> Self {
        UnitError::Plan(e)
    }
}

impl From<WorkloadError> for UnitError {
    fn from(e: WorkloadError) -> Self {
        match e {
            WorkloadError::Plan(e) => UnitError::Plan(e),
            WorkloadError::Sim(e) => UnitError::Sim(e),
            WorkloadError::Input(_) => UnitError::Msg(e.to_string()),
        }
    }
}

impl From<IsolationError> for UnitError {
    fn from(e: IsolationError) -> Self {
        match e {
            IsolationError::Panicked(msg) => UnitError::Panicked(msg),
            IsolationError::TimedOut(d) => UnitError::TimedOut(d),
        }
    }
}

/// Why a journal file cannot be used.
///
/// Only [`JournalError::CorruptRecord`] is recoverable by policy rather
/// than by code: the diagnostic names the file, line, and byte offset so
/// the operator (or the chaos harness) can restore the file from its
/// source or discard the damaged shard and re-run its worker. A torn
/// *final* line is not an error at all — `parse_journal` drops it and
/// reports the dropped byte count instead.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// A record before the end of the file failed its checksum or could
    /// not be parsed: mid-stream damage, not a crash tail. `file` is
    /// empty until [`JournalError::locate`] fills it in.
    CorruptRecord {
        /// The damaged file, as given to [`JournalError::locate`].
        file: String,
        /// 1-based line number of the damaged record.
        line: usize,
        /// Byte offset where the damaged record starts.
        offset: u64,
        /// What exactly failed (checksum mismatch, unparseable JSON, ...).
        detail: String,
    },
    /// The journal was written by a different format version.
    Version {
        /// The version the header stamps.
        found: u64,
    },
    /// Anything else: unreadable file, missing header fields, fingerprint
    /// mismatch, pool mismatch.
    Malformed(String),
}

impl JournalError {
    /// Stamp the file a [`JournalError::CorruptRecord`] belongs to (a
    /// no-op for the other variants, and for records already located).
    pub fn locate(mut self, path: &std::path::Path) -> Self {
        if let JournalError::CorruptRecord { file, .. } = &mut self {
            if file.is_empty() {
                *file = path.display().to_string();
            }
        }
        self
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::CorruptRecord { file, line, offset, detail } => {
                let file = if file.is_empty() { "journal" } else { file };
                write!(
                    f,
                    "corrupt journal record in {file} at line {line} (byte offset {offset}): \
                     {detail}; the damage is mid-stream, not a crash tail, so nothing after it \
                     can be trusted — restore the file from its source, or delete the damaged \
                     shard journal and re-run its worker"
                )
            }
            JournalError::Version { found } => write!(
                f,
                "unsupported journal version {found}: this build reads and writes version {} \
                 (v3 added a per-record integrity checksum, so older journals cannot be \
                 verified); re-run the campaign — or re-run its shard workers — with this build \
                 to regenerate the journal",
                crate::journal::JOURNAL_VERSION
            ),
            JournalError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<JournalError> for std::io::Error {
    fn from(e: JournalError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_error_names_file_line_and_offset() {
        let e = JournalError::CorruptRecord {
            file: String::new(),
            line: 7,
            offset: 912,
            detail: "record checksum mismatch".into(),
        };
        let located = e.locate(std::path::Path::new("out/journal.shard-1-of-3.jsonl"));
        let msg = located.to_string();
        assert!(msg.contains("journal.shard-1-of-3.jsonl"), "{msg}");
        assert!(msg.contains("line 7"), "{msg}");
        assert!(msg.contains("byte offset 912"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
        let v = JournalError::Version { found: 2 }.to_string();
        assert!(v.contains("version 2") && v.contains("version 3"), "{v}");
    }

    #[test]
    fn kinds_and_display_are_stable() {
        let e = UnitError::Panicked("boom".into());
        assert_eq!(e.kind(), "panic");
        assert_eq!(e.to_string(), "panicked: boom");
        let e = UnitError::TimedOut(Duration::from_millis(1500));
        assert_eq!(e.kind(), "timeout");
        assert!(e.to_string().contains("1.5s"));
        let e: UnitError = IsolationError::Panicked("p".into()).into();
        assert!(matches!(e, UnitError::Panicked(_)));
    }
}
