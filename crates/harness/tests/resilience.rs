//! Campaign-resilience guarantees: faulty units are isolated and
//! recorded (never fatal); an interrupted campaign's journal resumes
//! to byte-identical artifacts; and the simulator's invariant auditor
//! turns internal-state corruption into a typed error instead of silent
//! bad data.

use irrnet_harness::error::UnitError;
use irrnet_harness::opts::CampaignOptions;
use irrnet_harness::registry::{resolve, Emit, ExperimentSpec, RunCtx, Unit};
use irrnet_harness::runner::{resume_campaign, run_campaign};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irrnet-resil-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Scrape a top-level boolean out of the manifest (same line-oriented
/// idiom as `manifest::read_quick_flag`, spacing-agnostic).
fn manifest_bool(dir: &Path, key: &str) -> Option<bool> {
    let text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
    let prefix = format!("\"{key}\":");
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix(&prefix) {
            return Some(rest.trim().trim_end_matches(',') == "true");
        }
    }
    None
}

// ---- faulty units are isolated and recorded ------------------------------

fn faulty_units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![
        Unit::new("resil:ok", |_ctx: &RunCtx| {
            Ok(vec![Emit::Csv { name: "resil_ok.csv".into(), content: "a\n1\n".into() }])
        }),
        Unit::new("resil:panics", |_ctx: &RunCtx| -> Result<Vec<Emit>, _> {
            panic!("deliberate test panic")
        }),
        Unit::new("resil:errs", |_ctx: &RunCtx| -> Result<Vec<Emit>, _> {
            Err(UnitError::Msg("deliberate test error".into()))
        }),
    ]
}

#[test]
fn faulty_units_become_recorded_failures_not_dead_campaigns() {
    let spec =
        ExperimentSpec { name: "resil", title: "resilience fixture", units: faulty_units };
    let dir = tmp_dir("faulty");
    let mut opts = CampaignOptions::quick();
    opts.out_dir = dir.clone();
    opts.threads = Some(2);

    let report = run_campaign(std::slice::from_ref(&spec), &opts).unwrap();

    assert!(!report.interrupted);
    let failed: Vec<(&str, &str, &str)> = report
        .failures
        .iter()
        .map(|f| (f.label.as_str(), f.kind.as_str(), f.error.as_str()))
        .collect();
    assert_eq!(
        failed,
        vec![
            ("resil:panics", "panic", "panicked: deliberate test panic"),
            ("resil:errs", "other", "deliberate test error"),
        ],
        "exactly the panicking and erring units fail, in pool order, with their messages"
    );
    // The healthy unit's artifact was still written; it is the one
    // completed unit, and the failed ones are gaps.
    assert_eq!(report.experiments[0].units, 1);
    assert!(dir.join("resil_ok.csv").exists());
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("resil:panics") && manifest.contains("resil:errs"));
    assert!(manifest.contains("deliberate test error"), "{manifest}");

    std::fs::remove_dir_all(&dir).ok();
}

// ---- truncated journal resumes byte-identically --------------------------

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
        .filter(|(name, _)| name != "journal.jsonl")
        .collect();
    files.sort();
    files
}

/// Drop wall-clock lines; everything else must match byte-for-byte.
fn without_timings(text: &str) -> String {
    text.lines().filter(|l| !l.contains("_ms\":")).collect::<Vec<_>>().join("\n")
}

#[test]
fn truncated_journal_resumes_byte_identically() {
    let specs = resolve(&["fig06".to_string()]).unwrap();

    // Uninterrupted baseline.
    let base = tmp_dir("base");
    let mut opts = CampaignOptions::quick();
    opts.out_dir = base.clone();
    opts.threads = Some(2);
    let baseline = run_campaign(&specs, &opts).unwrap();
    assert!(baseline.failures.is_empty() && !baseline.interrupted);

    // Simulate a crash: a journal holding the header, a prefix of the
    // completed units, and a line torn mid-write. No artifacts yet.
    let crashed = tmp_dir("crashed");
    std::fs::create_dir_all(&crashed).unwrap();
    let journal = std::fs::read_to_string(base.join("journal.jsonl")).unwrap();
    let lines: Vec<&str> = journal.split_inclusive('\n').collect();
    assert!(lines.len() > 8, "fig06 quick journals a header + 16 units");
    let mut partial: String = lines[..lines.len() - 6].concat();
    partial.push_str("{\"kind\":\"unit\",\"index\":99,\"la");
    std::fs::write(crashed.join("journal.jsonl"), &partial).unwrap();

    let resumed = resume_campaign(&crashed, Some(2), None).unwrap();
    assert!(resumed.failures.is_empty() && !resumed.interrupted);

    let a = campaign_artifacts(&base);
    let b = campaign_artifacts(&crashed);
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "resumed campaign produces the same artifact set"
    );
    for ((name, av), (_, bv)) in a.iter().zip(&b) {
        if name == "manifest.json" {
            assert_eq!(
                without_timings(av),
                without_timings(bv),
                "resumed manifest differs (beyond wall-clock)"
            );
        } else {
            assert_eq!(av, bv, "{name} differs after resume");
        }
    }

    for d in [base, crashed] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn stop_flag_interrupts_and_resume_finishes_the_campaign() {
    let specs = resolve(&["tab01".to_string()]).unwrap();
    let dir = tmp_dir("stop");
    let mut opts = CampaignOptions::quick();
    opts.out_dir = dir.clone();
    opts.threads = Some(1);
    // Pre-set stop flag: every unit is skipped before running.
    opts.stop = Some(Arc::new(AtomicBool::new(true)));

    let report = run_campaign(&specs, &opts).unwrap();
    assert!(report.interrupted);
    assert_eq!(report.experiments[0].units, 0);
    assert_eq!(manifest_bool(&dir, "interrupted"), Some(true));
    assert!(
        !dir.join("tab01_costs.csv").exists(),
        "an interrupted campaign renders no artifacts"
    );

    let resumed = resume_campaign(&dir, Some(1), None).unwrap();
    assert!(!resumed.interrupted && resumed.failures.is_empty());
    assert_eq!(manifest_bool(&dir, "interrupted"), Some(false));
    assert!(
        !resumed.experiments[0].artifacts.is_empty(),
        "the resumed campaign writes tab01's artifacts"
    );
    for a in &resumed.experiments[0].artifacts {
        assert!(dir.join(a).exists(), "missing artifact {a}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

// ---- the sim invariant auditor -------------------------------------------

#[test]
fn auditor_catches_rigged_buffer_occupancy() {
    use irrnet_sim::{McastId, SendSpec, SimConfig, SimError, Simulator, StaticProtocol};
    use irrnet_topology::{zoo, Network, NodeId, NodeMask, PortIdx, SwitchId};

    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    let run = |rig: bool| {
        let mut proto = StaticProtocol::new();
        proto.set_launch(McastId(0), vec![(NodeId(0), SendSpec::Unicast { dest: NodeId(1) })]);
        let mut sim = Simulator::new(&net, SimConfig::paper_default(), proto).unwrap();
        sim.enable_audit();
        if rig {
            // An input-buffer reservation far beyond capacity: exactly
            // the class of engine-state corruption the auditor exists to
            // catch before it corrupts results.
            sim.rig_reserved(SwitchId(0), PortIdx(0), 1_000_000);
        }
        sim.schedule_multicast(0, McastId(0), NodeMask::single(NodeId(1)), 16);
        sim.run_to_completion(1_000_000)
    };

    assert!(run(false).is_ok(), "audited healthy run completes");
    match run(true) {
        Err(SimError::InvariantViolation { .. }) => {}
        other => panic!("rigged run must fail the audit, got {other:?}"),
    }
}
