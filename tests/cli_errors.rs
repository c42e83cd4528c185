//! The `irrnet` command line reports bad input as an error message and
//! exit status 1, never as a panic.

use std::process::Command;

fn run_irrnet(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_irrnet"))
        .args(args)
        .output()
        .expect("the irrnet binary starts");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

fn assert_clean_failure(args: &[&str], needle: &str) {
    let (code, text) = run_irrnet(args);
    assert_eq!(code, Some(1), "irrnet {args:?} exited {code:?}:\n{text}");
    assert!(!text.contains("panicked"), "irrnet {args:?} panicked:\n{text}");
    assert!(text.contains(needle), "irrnet {args:?} lacks {needle:?}:\n{text}");
}

#[test]
fn switches_wider_than_the_engine_supports_are_an_error() {
    assert_clean_failure(&["load", "--scheme", "tree", "--ports", "40"], "switch degree 40");
}

#[test]
fn topologies_without_enough_ports_are_an_error() {
    assert_clean_failure(&["topo", "--switches", "2", "--nodes", "500"], "topology error");
}
