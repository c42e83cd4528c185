//! `irrnet-run` reports bad command lines as an error message and a
//! nonzero exit status, never as a panic: an unknown experiment name
//! or an out-of-range `compare --tol` exits 1, an unknown flag exits 2.

use std::process::Command;

/// Run `irrnet-run` with `args`; its exit code and stderr.
fn irrnet_run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_irrnet-run"))
        .args(args)
        .output()
        .expect("the irrnet-run binary starts");
    let text = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!text.contains("panicked"), "irrnet-run {args:?} panicked:\n{text}");
    (out.status.code(), text)
}

#[test]
fn unknown_experiments_are_an_error() {
    for name in ["bench", "fig99"] {
        let (code, text) = irrnet_run(&[name]);
        assert_eq!(code, Some(1), "irrnet-run {name}:\n{text}");
        assert!(text.contains(&format!("unknown experiment '{name}'")), "{name}:\n{text}");
    }
}

#[test]
fn removed_campaign_flags_are_unknown() {
    let flags: [&[&str]; 4] =
        [&["--stream-stats"], &["--unit-retries", "1"], &["--unit-timeout", "5"], &["--audit"]];
    for flag in flags {
        let out = std::env::temp_dir()
            .join(format!("irrnet-cli-removed-{}-{}", std::process::id(), &flag[0][2..]));
        let mut args = vec!["--all", "--quick", "--out", out.to_str().expect("utf-8 temp dir")];
        args.extend(flag);
        let (code, text) = irrnet_run(&args);
        assert_eq!(code, Some(2), "{flag:?}:\n{text}");
        assert!(text.contains(&format!("unknown flag '{}'", flag[0])), "{flag:?}:\n{text}");
        assert!(!out.exists(), "{flag:?} wrote {}", out.display());
    }
}

#[test]
fn compare_tolerance_must_be_finite_and_non_negative() {
    for tol in ["nan", "inf", "-1"] {
        let (code, text) = irrnet_run(&["compare", "--tol", tol]);
        assert_eq!(code, Some(1), "--tol {tol}:\n{text}");
        assert!(text.contains("--tol"), "--tol {tol}:\n{text}");
    }
}
