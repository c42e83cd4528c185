//! The `huge` engine pin: four isolated 64-way tree multicasts on a
//! 1000-switch / 10,000-host fabric. Besides `(cycles_run, sweeps_run)`
//! it bounds the process's peak resident set (`VmHWM`), which is why it is
//! a test binary of its own: the high-water mark is per process, so any
//! other test in the binary would count against it.

use irrnet::prelude::*;
use irrnet::topology::rng::SmallRng;
use irrnet::topology::ExtraLinks;
use irrnet::workloads::random_mcast;

/// Peak-RSS ceiling in kB. The run peaks near 11 MB; resident state that
/// grows with the square of the switch count does not fit (all-pairs
/// routing planes alone add ~51 MB at 1024 switches).
#[cfg(target_os = "linux")]
const MAX_RSS_KB: u64 = 32 * 1024;

#[test]
fn huge() {
    let net = Network::analyze(
        gen::generate(&RandomTopologyConfig {
            num_switches: 1000,
            ports_per_switch: 16,
            num_hosts: 10_000,
            extra_links: ExtraLinks::Fraction(0.5),
            seed: 42,
        })
        .unwrap(),
    )
    .unwrap();
    // Widen the input buffer so a whole tree worm, whose bit-string header
    // is n/8 + 1 = 1,251 flits at 10k nodes, fits under virtual cut-through.
    let n = net.topo.num_nodes();
    let mut cfg = SimConfig::paper_default();
    cfg.input_buffer_flits = cfg
        .input_buffer_flits
        .max(cfg.packet_payload_flits + cfg.tree_header_flits(n) + 8);
    let tree = SchemeRegistry::resolve("tree").expect("tree is registered");
    let mut rng = SmallRng::seed_from_u64(0x46E9_5EED);
    let (mut cycles, mut sweeps) = (0, 0);
    for _ in 0..4 {
        let (source, dests) = random_mcast(&mut rng, n, 64);
        let r = run_single(&net, &cfg, tree, source, dests, 128).unwrap();
        cycles += r.cycles_run;
        sweeps += r.sweeps_run;
    }
    assert_eq!((cycles, sweeps), (100_357, 91_977));

    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_kb();
        assert!(
            peak <= MAX_RSS_KB,
            "peak RSS {peak} kB exceeds the {MAX_RSS_KB} kB ceiling"
        );
    }
}

/// This process's peak resident set in kB, from `VmHWM` in
/// `/proc/self/status`. Panics when it cannot be read: a missing value
/// must fail the ceiling check, not pass it as zero.
#[cfg(target_os = "linux")]
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    assert!(kb > 0, "VmHWM reads 0 kB");
    kb
}
