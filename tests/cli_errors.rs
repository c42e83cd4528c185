//! The `irrnet` command line reports bad input as an error message and
//! exit status 1, never as a panic, a hang or a NaN.

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

#[test]
fn switch_counts_past_the_switch_id_space_are_an_error() {
    assert_clean_failure(
        &["topo", "--switches", "65537", "--ports", "4", "--nodes", "10"],
        "ceiling of 65536",
    );
}

#[test]
fn degrees_without_room_for_a_source_are_an_error() {
    // The default network has 32 hosts.
    assert_clean_failure(&["single", "--scheme", "tree", "--degree", "32"], "degree 32");
    assert_clean_failure(&["load", "--scheme", "tree", "--degree", "40"], "degree 40");
    assert_clean_failure(&["single", "--scheme", "tree", "--degree", "0"], "degree 0");
    assert_clean_failure(&["load", "--scheme", "tree", "--degree", "0"], "degree 0");
}

#[test]
fn empty_messages_are_an_error() {
    assert_clean_failure(&["single", "--scheme", "tree", "--msg", "0"], "at least one flit");
    assert_clean_failure(&["load", "--scheme", "tree", "--msg", "0"], "at least one flit");
}

#[test]
fn loads_must_be_finite_and_positive() {
    assert_clean_failure(&["load", "--scheme", "tree", "--load", "0"], "effective load 0");
    assert_clean_failure(&["load", "--scheme", "tree", "--load", "nan"], "effective load NaN");
    assert_clean_failure(&["load", "--scheme", "tree", "--load", "1e9"], "per-node injection load");
}

#[test]
fn unparsable_values_and_stray_arguments_are_an_error() {
    let bad_degree = ["single", "--scheme", "tree", "--degree", "abc", "--seeds", "1"];
    assert_clean_failure(&bad_degree, "--degree: cannot parse 'abc'");
    let stray = ["single", "--scheme", "tree", "stray", "--seeds", "1"];
    assert_clean_failure(&stray, "unexpected argument 'stray'");
}

#[test]
fn empty_averages_are_an_error() {
    assert_clean_failure(&["single", "--scheme", "tree", "--trials", "0"], "at least one trial");
    assert_clean_failure(&["single", "--scheme", "tree", "--seeds", "0"], "--seeds");
}

#[test]
fn schemes_resolve_through_the_registry() {
    assert_clean_failure(&["single", "--scheme", "nope"], "unknown scheme 'nope'");
    assert_clean_failure(&["single"], "--scheme required");
    let (code, text) = run_irrnet(&["schemes"]);
    assert_eq!(code, Some(0), "{text}");
    let names: Vec<&str> = text.lines().collect();
    assert_eq!(names, irrnet::mcast::SchemeRegistry::names());
    assert!(names.contains(&"tree-cap4"), "{text}");
    let (code, text) = run_irrnet(&[
        "single", "--scheme", "tree-cap4", "--degree", "4", "--seeds", "1", "--trials", "1",
    ]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.starts_with("tree-cap4: mean 4-way multicast latency"), "{text}");
}

#[test]
fn flags_a_command_does_not_read_are_an_error() {
    let single = ["single", "--scheme", "tree", "--degree", "4", "--seeds", "1", "--trials", "1"];
    assert_clean_failure(&[&single[..], &["--hosts", "1"]].concat(), "unknown flag --hosts;");
    assert_clean_failure(&[&single[..], &["--bogus"]].concat(), "unknown flag --bogus;");
    // `load` reads `--seed` and `--load`, not `--seeds` and `--loads`.
    let load = ["load", "--scheme", "tree", "--degree", "4", "--load", "0.1", "--seeds", "1"];
    let loads = [&load[..], &["--loads", "0.2"]].concat();
    assert_clean_failure(&loads, "unknown flags --seeds, --loads;");
    assert_clean_failure(&["topo", "--switchs", "4"], "unknown flag --switchs;");
}

#[test]
fn overhead_ratios_must_be_finite_and_positive() {
    for cmd in ["single", "load"] {
        for r in ["0", "-2", "nan"] {
            assert_clean_failure(&[cmd, "--scheme", "tree", "--r", r], "--r must be finite");
        }
        // O_h / R would overflow the clock.
        assert_clean_failure(&[cmd, "--scheme", "tree", "--r", "1e-300"], "--r overflows the clock");
    }
}

#[test]
fn host_overheads_must_be_positive_and_fit_the_clock() {
    let single = ["single", "--scheme", "tree", "--degree", "4", "--seeds", "1", "--trials", "1"];
    for cmd in [&single[..], &["load", "--scheme", "tree"]] {
        assert_clean_failure(&[cmd, &["--oh", "0"]].concat(), "--oh must be at least 1 cycle");
        let huge = [cmd, &["--oh", "18446744073709551615"]].concat();
        assert_clean_failure(&huge, "--oh overflows the clock");
    }
}

#[test]
fn packets_must_leave_room_for_their_header() {
    let single = ["single", "--scheme", "tree", "--degree", "4", "--seeds", "1", "--trials", "1"];
    let packet = [&single[..], &["--packet", "4294967290"]].concat();
    assert_clean_failure(&packet, "--packet must leave room for a 40-flit header");
}

#[test]
fn extra_link_fractions_must_be_finite_and_non_negative() {
    for f in ["nan", "inf", "-1"] {
        assert_clean_failure(&["topo", "--extra-links", f], "extra-link fraction");
    }
    // A fraction too large to count saturates: every free port is linked,
    // the same topology a merely large fraction gives.
    let (code, huge) = run_irrnet(&["topo", "--extra-links", "1e30"]);
    assert_eq!(code, Some(0), "{huge}");
    assert_eq!(huge, run_irrnet(&["topo", "--extra-links", "1e3"]).1);
}
