//! Seeded-stream determinism of the NI retransmission backoff under the
//! run journal: the backoff draws a unit makes must be byte-identical
//! whether the unit runs uninterrupted, is replayed by a crashed
//! worker's `resume`, or is replayed by a different worker adopting the
//! shard with `work --take-over`. The ext_f and ext_i units both lean on
//! `RetxPolicy` backoff (timeout re-sends under permanent faults and
//! transient corruption respectively), so their artifact bytes are the
//! observable draw stream.

use irrnet_harness::opts::CampaignOptions;
use irrnet_harness::registry::resolve;
use irrnet_harness::runner::run_campaign;
use irrnet_harness::shard::{merge_campaign, run_shard, ShardSpec, WorkerOptions};
use irrnet_sim::{RetxPolicy, SimConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Both units replay seeded retransmission backoff: ext_f under
/// permanent kills, ext_i under transient corruption (its `ni` and
/// `both` mechanism rows are pure functions of the backoff stream).
const SPECS: [&str; 2] = ["ext_f", "ext_i"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irrnet-retx-{}-{tag}", std::process::id()));
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

fn specs() -> Vec<irrnet_harness::registry::ExperimentSpec> {
    resolve(&SPECS.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

/// The retx-bearing artifacts whose bytes encode the backoff draws.
fn retx_artifacts(dir: &Path) -> Vec<(String, String)> {
    ["ext_f_faults.csv", "ext_i_reliability.csv"]
        .iter()
        .map(|n| (n.to_string(), std::fs::read_to_string(dir.join(n)).unwrap()))
        .collect()
}

/// Run shard 0/1 to completion, then forge the crash a SIGKILL leaves:
/// journal cut after its first unit record plus a line torn mid-write.
fn run_and_tear(dir: &Path) {
    let report =
        run_shard(&specs(), &quick_opts(dir), ShardSpec { index: 0, count: 1 }, &WorkerOptions::default())
            .unwrap();
    assert_eq!(report.completed, report.assigned);
    assert!(report.assigned >= 2, "need one surviving and one torn unit");
    let journal = dir.join("journal.shard-0-of-1.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    // Header + first unit record survive; the rest is lost mid-write.
    let mut partial: String = lines[..2].concat();
    partial.push_str("{\"kind\":\"unit\",\"index\":1,\"la");
    std::fs::write(&journal, &partial).unwrap();
}

#[test]
fn backoff_draws_are_identical_across_resume_and_takeover_replays() {
    // Uninterrupted single-process reference.
    let base = tmp_dir("base");
    let baseline = run_campaign(&specs(), &quick_opts(&base)).unwrap();
    assert!(baseline.failures.is_empty() && !baseline.interrupted);
    let expect = retx_artifacts(&base);

    // Crash + same-worker resume: the torn unit replays from scratch,
    // the surviving unit is taken from the journal.
    let resumed = tmp_dir("resume");
    run_and_tear(&resumed);
    let report = run_shard(
        &specs(),
        &quick_opts(&resumed),
        ShardSpec { index: 0, count: 1 },
        &WorkerOptions::default(),
    )
    .unwrap();
    assert_eq!(report.completed, report.assigned);
    merge_campaign(&resumed, Some(2)).unwrap();
    assert_eq!(retx_artifacts(&resumed), expect, "resume replay diverged");

    // Crash + adoption by a different worker: a stalled lease from
    // another machine forces the `--take-over` path.
    let adopted = tmp_dir("takeover");
    run_and_tear(&adopted);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
        - 3_600_000;
    std::fs::write(
        adopted.join("lease.shard-0-of-1.json"),
        format!(
            "{{\"pid\":1,\"host\":\"other-machine\",\"beat\":1,\"units_done\":1,\
             \"stamp_ms\":{stamp},\"completed\":false,\
             \"argv\":[\"work\",\"out\",\"--shard\",\"0/1\"]}}\n"
        ),
    )
    .unwrap();
    let report = run_shard(
        &specs(),
        &quick_opts(&adopted),
        ShardSpec { index: 0, count: 1 },
        &WorkerOptions { take_over: true, stale_after: Duration::from_secs(1) },
    )
    .unwrap();
    assert_eq!(report.completed, report.assigned);
    merge_campaign(&adopted, Some(2)).unwrap();
    assert_eq!(retx_artifacts(&adopted), expect, "take-over replay diverged");

    for d in [base, resumed, adopted] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// The property beneath the replay guarantee: `next_check_delay` is a
/// pure function of (policy, idx, attempt) — no hidden stream state, so
/// draw order (which resume and take-over inevitably permute) cannot
/// matter.
#[test]
fn backoff_draws_are_order_independent() {
    let p = RetxPolicy::default_for(&SimConfig::paper_default());
    let grid: Vec<(u32, u32)> =
        (0..32).flat_map(|idx| (1..=8).map(move |attempt| (idx, attempt))).collect();
    let forward: Vec<u64> = grid.iter().map(|&(i, a)| p.next_check_delay(i, a)).collect();
    let backward: Vec<u64> =
        grid.iter().rev().map(|&(i, a)| p.next_check_delay(i, a)).collect();
    let interleaved: Vec<u64> = grid
        .iter()
        .enumerate()
        .map(|(k, &(i, a))| {
            // Burn unrelated draws between the real ones: a stateful
            // generator would shift everything after the first burn.
            let _ = p.next_check_delay((k % 7) as u32 + 100, (k % 3) as u32 + 1);
            p.next_check_delay(i, a)
        })
        .collect();
    assert_eq!(forward, backward.iter().rev().copied().collect::<Vec<_>>());
    assert_eq!(forward, interleaved);
    // Different seeds give different streams (the jitter is real).
    let q = RetxPolicy { seed: p.seed ^ 0xDEAD_BEEF, ..p.clone() };
    assert!(
        grid.iter().any(|&(i, a)| p.next_check_delay(i, a) != q.next_check_delay(i, a)),
        "jitter ignores the seed"
    );
}
