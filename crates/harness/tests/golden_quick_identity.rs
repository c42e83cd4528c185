//! Byte-level determinism gate for engine refactors.
//!
//! `results/golden-quick/` holds every CSV of the quick campaign
//! (`irrnet-run --all --quick`); CI byte-compares the whole campaign
//! against it. This test reruns the three experiments below in debug
//! mode and byte-compares the files they write. Any change that moves a
//! single simulated cycle — a reordered arbitration, a shifted event
//! sequence — changes these bytes, so this test fails loudly where the
//! tolerance-based `irrnet-run compare` gate would only warn.

use irrnet_harness::opts::CampaignOptions;
use irrnet_harness::registry::resolve;
use irrnet_harness::runner::run_campaign;
use std::path::{Path, PathBuf};

/// Experiments covering unicast, tree and path worms plus the collective
/// layer, kept small enough for debug-mode CI.
const SPECS: [&str; 3] = ["fig06", "tab01", "ext_e"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden-quick")
}

#[test]
fn quick_series_are_byte_identical_to_pinned_goldens() {
    let out = std::env::temp_dir().join(format!("irrnet-goldenq-{}", std::process::id()));
    if out.exists() {
        std::fs::remove_dir_all(&out).unwrap();
    }
    let mut opts = CampaignOptions::quick();
    opts.out_dir = out.clone();
    let specs = resolve(&SPECS.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
    run_campaign(&specs, &opts).unwrap();

    // Every golden CSV these experiments own (`<experiment>_*.csv`) must
    // be written and match byte for byte.
    let mut checked = 0;
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !SPECS.iter().any(|s| name.starts_with(&format!("{s}_"))) {
            continue;
        }
        let golden = std::fs::read_to_string(golden_dir().join(&name)).unwrap();
        let fresh = std::fs::read_to_string(out.join(&name))
            .unwrap_or_else(|e| panic!("campaign did not emit {name}: {e}"));
        assert_eq!(
            fresh, golden,
            "{name} drifted from results/golden-quick/ — the engine no \
             longer reproduces the pinned cycle-exact series"
        );
        checked += 1;
    }
    assert!(checked >= 8, "golden-quick set unexpectedly small ({checked} files)");
    std::fs::remove_dir_all(&out).ok();
}
