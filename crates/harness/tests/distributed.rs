//! Distributed-campaign guarantees: a quick campaign sharded across 1,
//! 2, or 3 workers — including a worker that crashes mid-shard and is
//! resumed — merges to artifacts byte-identical to an uninterrupted
//! single-process run, and the merge step refuses journals that don't
//! describe one campaign.

use irrnet_harness::lease::DEFAULT_STALE_AFTER;
use irrnet_harness::opts::CampaignOptions;
use irrnet_harness::registry::resolve;
use irrnet_harness::runner::run_campaign;
use irrnet_harness::shard::{merge_campaign, run_shard, ShardSpec, WorkerOptions};
use irrnet_harness::status::campaign_status;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irrnet-dist-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn quick_opts(dir: &Path) -> CampaignOptions {
    let mut opts = CampaignOptions::quick();
    opts.out_dir = dir.to_path_buf();
    opts.threads = Some(2);
    opts
}

fn worker() -> WorkerOptions {
    WorkerOptions::default()
}

/// Every artifact in a campaign directory except the journals (whose
/// record order is completion order, deliberately nondeterministic) and
/// the lease files (worker liveness, absent from single-process runs).
fn campaign_artifacts(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().into_string().unwrap(),
                std::fs::read_to_string(e.path()).unwrap(),
            )
        })
        .filter(|(name, _)| !name.starts_with("journal.") && !name.starts_with("lease."))
        .collect();
    files.sort();
    files
}

/// Manifests may differ only on wall-clock and worker-count lines.
fn manifest_norm(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("_ms\":") && !l.contains("\"threads\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_same_artifacts(base: &Path, merged: &Path, tag: &str) {
    let a = campaign_artifacts(base);
    let b = campaign_artifacts(merged);
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "{tag}: artifact sets differ"
    );
    for ((name, av), (_, bv)) in a.iter().zip(&b) {
        if name == "manifest.json" {
            assert_eq!(
                manifest_norm(av),
                manifest_norm(bv),
                "{tag}: manifest differs beyond timings"
            );
        } else {
            assert_eq!(av, bv, "{tag}: {name} differs from the single-process run");
        }
    }
}

#[test]
fn sharded_runs_merge_byte_identical_for_1_2_3_workers() {
    let specs = resolve(&["fig06".to_string()]).unwrap();

    // The uninterrupted single-process reference run.
    let base = tmp_dir("base");
    let baseline = run_campaign(&specs, &quick_opts(&base)).unwrap();
    assert!(baseline.failures.is_empty() && !baseline.interrupted);

    for count in 1..=3usize {
        let dir = tmp_dir(&format!("n{count}"));
        for index in 0..count {
            let spec = ShardSpec { index, count };
            // Worker argvs legitimately differ (each names its own
            // shard); the campaign fingerprint must not care.
            let mut opts = quick_opts(&dir);
            opts.argv =
                vec!["work".into(), dir.display().to_string(), "--shard".into(), spec.to_string()];
            let report = run_shard(&specs, &opts, spec, &worker()).unwrap();
            assert!(!report.interrupted && report.failed == 0);
            assert_eq!(report.completed, report.assigned);
        }

        // Every unit journaled across the shard set, none rendered yet.
        let progress = campaign_status(&dir, DEFAULT_STALE_AFTER).unwrap();
        assert_eq!(progress.len(), count);
        assert!(progress.iter().all(|p| p.remaining() == 0 && p.failed == 0));
        assert!(!dir.join("manifest.json").exists(), "workers must not render");

        let merged = merge_campaign(&dir, Some(2)).unwrap();
        assert!(merged.failures.is_empty() && !merged.interrupted);
        assert_same_artifacts(&base, &dir, &format!("{count}-way shard"));
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn crashed_shard_resumes_and_still_merges_byte_identical() {
    let specs = resolve(&["fig06".to_string()]).unwrap();

    let base = tmp_dir("crash-base");
    let baseline = run_campaign(&specs, &quick_opts(&base)).unwrap();
    assert!(baseline.failures.is_empty());

    let dir = tmp_dir("crash");
    let s0 = ShardSpec { index: 0, count: 2 };
    let s1 = ShardSpec { index: 1, count: 2 };
    run_shard(&specs, &quick_opts(&dir), s0, &worker()).unwrap();

    // Crash shard 0 after the fact: keep the header plus a prefix of its
    // records and a line torn mid-write, exactly the on-disk state a
    // SIGKILL leaves behind.
    let shard0 = dir.join("journal.shard-0-of-2.jsonl");
    let journal = std::fs::read_to_string(&shard0).unwrap();
    let lines: Vec<&str> = journal.split_inclusive('\n').collect();
    assert!(lines.len() > 4, "shard 0 should hold several units");
    let mut partial: String = lines[..lines.len() - 3].concat();
    partial.push_str("{\"kind\":\"unit\",\"index\":2,\"la");
    std::fs::write(&shard0, &partial).unwrap();

    // Progress is visible (and partial) mid-crash; the never-started
    // shard 1 still gets a synthesized 0/N row.
    let progress = campaign_status(&dir, DEFAULT_STALE_AFTER).unwrap();
    assert_eq!(progress.len(), 2);
    assert!(progress[0].remaining() > 0, "torn shard shows remaining work");
    assert!(progress[1].note.as_deref().is_some_and(|n| n.contains("not started")));
    assert!(progress[1].assigned > 0, "missing shard still shows its 0/N load");

    // Re-running the same worker command resumes the shard.
    let resumed = run_shard(&specs, &quick_opts(&dir), s0, &worker()).unwrap();
    assert_eq!(resumed.completed, resumed.assigned);
    run_shard(&specs, &quick_opts(&dir), s1, &worker()).unwrap();

    let merged = merge_campaign(&dir, Some(2)).unwrap();
    assert!(merged.failures.is_empty() && !merged.interrupted);
    assert_same_artifacts(&base, &dir, "crashed-and-resumed 2-way shard");

    for d in [base, dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn merge_refuses_incomplete_or_mismatched_shard_sets() {
    let specs = resolve(&["tab01".to_string()]).unwrap();

    // Missing shard: only 1/2 of the set exists.
    let dir = tmp_dir("missing");
    run_shard(&specs, &quick_opts(&dir), ShardSpec { index: 1, count: 2 }, &worker()).unwrap();
    let err = merge_campaign(&dir, None).unwrap_err().to_string();
    assert!(err.contains("missing journal.shard-0-of-2.jsonl"), "{err}");

    // Fingerprint mismatch: shard 0 is written under different campaign
    // options. The error names both fingerprints and both invocations.
    let mut other = quick_opts(&dir);
    other.trials += 1;
    other.argv = vec!["work".into(), "out".into(), "--shard".into(), "0/2".into()];
    run_shard(&specs, &other, ShardSpec { index: 0, count: 2 }, &worker()).unwrap();
    let err = merge_campaign(&dir, None).unwrap_err().to_string();
    assert!(err.contains("fingerprint mismatch"), "{err}");
    assert!(err.contains("`irrnet-run work out --shard 0/2`"), "{err}");
    assert!(err.contains("identical campaign options"), "{err}");
    std::fs::remove_dir_all(&dir).ok();

    // Incomplete shard: the worker stopped before finishing its units.
    let dir = tmp_dir("incomplete");
    let spec = ShardSpec { index: 0, count: 1 };
    run_shard(&specs, &quick_opts(&dir), spec, &worker()).unwrap();
    let path = dir.join("journal.shard-0-of-1.jsonl");
    let journal = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = journal.split_inclusive('\n').collect();
    std::fs::write(&path, lines[..lines.len() - 1].concat()).unwrap();
    let err = merge_campaign(&dir, None).unwrap_err().to_string();
    assert!(err.contains("incomplete shard(s) 0/1"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_refuses_mixed_shard_counts_naming_both_files() {
    let specs = resolve(&["tab01".to_string()]).unwrap();
    let dir = tmp_dir("mixed");
    run_shard(&specs, &quick_opts(&dir), ShardSpec { index: 0, count: 2 }, &worker()).unwrap();
    run_shard(&specs, &quick_opts(&dir), ShardSpec { index: 0, count: 3 }, &worker()).unwrap();
    let err = merge_campaign(&dir, None).unwrap_err().to_string();
    assert!(err.contains("mixed shard counts"), "{err}");
    assert!(err.contains("journal.shard-0-of-2.jsonl"), "{err}");
    assert!(err.contains("journal.shard-0-of-3.jsonl"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_refuses_corrupt_record_naming_file_and_line() {
    let specs = resolve(&["tab01".to_string()]).unwrap();
    let dir = tmp_dir("corrupt");
    for index in 0..2 {
        run_shard(&specs, &quick_opts(&dir), ShardSpec { index, count: 2 }, &worker()).unwrap();
    }
    // Flip one byte in the payload of shard 0's second line (its first
    // unit record): mid-stream damage, not a crash tail.
    let path = dir.join("journal.shard-0-of-2.jsonl");
    let mut bytes = std::fs::read(&path).unwrap();
    let line1_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    assert!(bytes.len() > line1_end + 31, "shard 0 must hold at least one record");
    bytes[line1_end + 30] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let err = merge_campaign(&dir, None).unwrap_err().to_string();
    assert!(err.contains("corrupt journal record"), "{err}");
    assert!(err.contains("journal.shard-0-of-2.jsonl"), "{err}");
    assert!(err.contains("line 2"), "{err}");

    // The worker itself refuses to resume atop the damage, with the
    // same typed diagnostic.
    let err = run_shard(&specs, &quick_opts(&dir), ShardSpec { index: 0, count: 2 }, &worker())
        .unwrap_err()
        .to_string();
    assert!(err.contains("corrupt journal record") && err.contains("line 2"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_experiment_shards_merge_byte_identical() {
    // ext_d summarizes each run's measurement window (launch-window
    // latencies, percentiles); sharding must not change a byte of it.
    let specs = resolve(&["ext_d".to_string()]).unwrap();

    let base = tmp_dir("windowed-base");
    let baseline = run_campaign(&specs, &quick_opts(&base)).unwrap();
    assert!(baseline.failures.is_empty());

    let dir = tmp_dir("windowed");
    for index in 0..2 {
        run_shard(&specs, &quick_opts(&dir), ShardSpec { index, count: 2 }, &worker()).unwrap();
    }
    let merged = merge_campaign(&dir, None).unwrap();
    assert!(merged.failures.is_empty());
    assert_same_artifacts(&base, &dir, "ext_d 2-way shard");

    for d in [base, dir] {
        std::fs::remove_dir_all(d).ok();
    }
}
