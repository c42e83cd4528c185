//! `irrnet-run` reports an unknown experiment name as an error message
//! and exit status 1, never as a panic.

use std::process::Command;

#[test]
fn unknown_experiments_are_an_error() {
    for name in ["bench", "fig99"] {
        let out = Command::new(env!("CARGO_BIN_EXE_irrnet-run"))
            .arg(name)
            .output()
            .expect("the irrnet-run binary starts");
        let text = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "irrnet-run {name}:\n{text}");
        assert!(
            !text.contains("panicked"),
            "irrnet-run {name} panicked:\n{text}"
        );
        assert!(
            text.contains(&format!("unknown experiment '{name}'")),
            "irrnet-run {name}:\n{text}"
        );
    }
}
