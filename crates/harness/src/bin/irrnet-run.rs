//! `irrnet-run` — the one binary that regenerates the reproduction's
//! figures and tables.
//!
//! ```text
//! irrnet-run --all [--quick] [--threads N] [--seeds N] [--trials N] [--out DIR]
//!            [--schemes a,b,c]
//! irrnet-run fig06 ext_b ...          # run selected experiments
//! irrnet-run resume DIR [--threads N] # finish an interrupted campaign
//! irrnet-run work DIR --shard i/N (--all | <experiment>...) [flags]
//!            [--take-over] [--stale-after SECS]
//!                                     # run one shard of a distributed campaign
//! irrnet-run merge DIR [--threads N]  # merge completed shards, render artifacts
//! irrnet-run status DIR [--stale-after SECS]
//!                                     # live progress + liveness from journals/leases
//! irrnet-run reshard DIR --shards M [--stale-after SECS]
//!                                     # re-plan remaining units under M shards
//! irrnet-run --list                   # show the registry
//! irrnet-run schemes                  # show the scheme table
//! irrnet-run compare [--out DIR] [--golden DIR] [--tol F]
//! ```
//!
//! Exit codes: 0 = campaign completed cleanly, 1 = completed with failed
//! units (see the manifest's `"failures"`) or an option value out of
//! range, 2 = a command line that does not parse (an unknown flag, a
//! missing or unparsable value), 130 = interrupted (resume with
//! `irrnet-run resume DIR`, or re-run the same `work` command).
//!
//! Each unit runs once, on the campaign's own options. The simulator's
//! invariant auditor is switched on for the whole process with
//! `IRRNET_AUDIT=1`; the manifest records whether it was on.

use irrnet_harness::compare::run_compare;
use irrnet_harness::opts::CampaignOptions;
use irrnet_harness::registry::{registry, resolve};
use irrnet_harness::runner::{
    install_sigint_handler, resume_campaign, run_campaign, CampaignReport,
};
use irrnet_harness::lease::DEFAULT_STALE_AFTER;
use irrnet_harness::shard::{
    merge_campaign, reshard_campaign, run_shard, ShardSpec, WorkerOptions,
};
use irrnet_harness::status::{campaign_status, render_status};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: irrnet-run (--all | <experiment>...) [--quick] [--threads N] \
         [--seeds N] [--trials N] [--out DIR] [--schemes a,b,c]\n\
         \x20      irrnet-run resume DIR [--threads N]\n\
         \x20      irrnet-run work DIR --shard i/N (--all | <experiment>...) [flags as above]\n\
         \x20                 [--take-over] [--stale-after SECS]\n\
         \x20      irrnet-run merge DIR [--threads N]\n\
         \x20      irrnet-run status DIR [--stale-after SECS]\n\
         \x20      irrnet-run reshard DIR --shards M [--stale-after SECS]\n\
         \x20      irrnet-run --list\n\
         \x20      irrnet-run schemes\n\
         \x20      irrnet-run compare [--out DIR] [--golden DIR] [--tol F]\n\
         experiments: {}",
        registry().iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

/// Map a finished campaign to the documented exit codes.
fn campaign_exit(report: &CampaignReport) -> ExitCode {
    if report.interrupted {
        // The conventional 128+SIGINT code, also used for stop-flag
        // interruption: either way the campaign is resumable.
        ExitCode::from(130)
    } else if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(v) = args.next() else {
        eprintln!("error: {flag} needs a value");
        usage();
    };
    match v.parse() {
        Ok(t) => t,
        Err(_) => {
            eprintln!("error: invalid value '{v}' for {flag}");
            usage();
        }
    }
}

/// Campaign-shaping flags shared by the default run mode and `work`.
#[derive(Default)]
struct CampaignCli {
    all: bool,
    list: bool,
    quick: bool,
    threads: Option<usize>,
    seeds: Option<u64>,
    trials: Option<usize>,
    out: Option<String>,
    scheme_list: Option<String>,
    shard: Option<ShardSpec>,
    take_over: bool,
    stale_after: Option<f64>,
    names: Vec<String>,
}

/// Parse and validate a `--stale-after SECS` value into a Duration.
fn stale_after_duration(secs: Option<f64>) -> Result<std::time::Duration, ExitCode> {
    match secs {
        None => Ok(DEFAULT_STALE_AFTER),
        Some(s) if s.is_finite() && s > 0.0 => Ok(std::time::Duration::from_secs_f64(s)),
        Some(_) => {
            eprintln!("error: --stale-after needs a positive number of seconds");
            Err(ExitCode::FAILURE)
        }
    }
}

impl CampaignCli {
    /// Parse run/work argument lists. `--shard` is only legal when
    /// `allow_shard` (the `work` subcommand).
    fn parse(argv: Vec<String>, allow_shard: bool) -> Self {
        let mut cli = CampaignCli::default();
        let mut args = argv.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--all" => cli.all = true,
                "--list" => cli.list = true,
                "--quick" => cli.quick = true,
                "--threads" => cli.threads = Some(parse_value(&mut args, "--threads")),
                "--seeds" => cli.seeds = Some(parse_value(&mut args, "--seeds")),
                "--trials" => cli.trials = Some(parse_value(&mut args, "--trials")),
                "--out" => cli.out = Some(parse_value(&mut args, "--out")),
                "--schemes" => cli.scheme_list = Some(parse_value(&mut args, "--schemes")),
                "--shard" if allow_shard => {
                    let spec: String = parse_value(&mut args, "--shard");
                    match spec.parse() {
                        Ok(s) => cli.shard = Some(s),
                        Err(e) => {
                            eprintln!("error: {e}");
                            usage();
                        }
                    }
                }
                "--take-over" if allow_shard => cli.take_over = true,
                "--stale-after" if allow_shard => {
                    cli.stale_after = Some(parse_value(&mut args, "--stale-after"));
                }
                "--help" | "-h" => usage(),
                s if s.starts_with('-') => {
                    eprintln!("error: unknown flag '{s}'");
                    usage();
                }
                s => cli.names.push(s.to_string()),
            }
        }
        cli
    }

    /// Validate and build the `CampaignOptions`; `argv` is the full
    /// original invocation, recorded in the journal header.
    fn build_opts(&self, argv: Vec<String>) -> Result<CampaignOptions, ExitCode> {
        let mut opts =
            if self.quick { CampaignOptions::quick() } else { CampaignOptions::paper_default() };
        if let Some(n) = self.seeds {
            if n == 0 {
                eprintln!("error: --seeds must be at least 1");
                return Err(ExitCode::FAILURE);
            }
            opts.seeds = (0..n).collect();
        }
        if let Some(t) = self.trials {
            if t == 0 {
                eprintln!("error: --trials must be at least 1");
                return Err(ExitCode::FAILURE);
            }
            opts.trials = t;
        }
        if let Some(dir) = &self.out {
            opts.out_dir = dir.into();
        }
        opts.threads = self.threads;
        opts.argv = argv;
        if let Some(list) = &self.scheme_list {
            let mut ids = Vec::new();
            for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                match irrnet_core::SchemeRegistry::resolve(name) {
                    Some(id) => ids.push(id),
                    None => {
                        eprintln!(
                            "error: unknown scheme '{name}'; registered schemes: {}",
                            irrnet_core::SchemeRegistry::names().join(", ")
                        );
                        return Err(ExitCode::FAILURE);
                    }
                }
            }
            if ids.is_empty() {
                eprintln!("error: --schemes needs at least one scheme name");
                return Err(ExitCode::FAILURE);
            }
            opts.schemes = Some(ids);
        }
        Ok(opts)
    }

    /// Resolve the selected experiment specs.
    fn specs(&self) -> Result<Vec<irrnet_harness::registry::ExperimentSpec>, ExitCode> {
        if !self.all && self.names.is_empty() {
            usage();
        }
        if self.all && !self.names.is_empty() {
            eprintln!("error: --all conflicts with naming experiments");
            usage();
        }
        if self.all {
            Ok(registry())
        } else {
            match resolve(&self.names) {
                Ok(s) => Ok(s),
                Err(e) => {
                    eprintln!("error: {e}");
                    Err(ExitCode::FAILURE)
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return main_compare(argv[1..].to_vec()),
        Some("schemes") => return main_schemes(argv[1..].to_vec()),
        Some("resume") => return main_resume(argv[1..].to_vec()),
        Some("work") => return main_work(argv.clone(), argv[1..].to_vec()),
        Some("merge") => return main_merge(argv[1..].to_vec()),
        Some("status") => return main_status(argv[1..].to_vec()),
        Some("reshard") => return main_reshard(argv.clone(), argv[1..].to_vec()),
        _ => {}
    }

    let cli = CampaignCli::parse(argv.clone(), false);
    if cli.list {
        for spec in registry() {
            println!("{:<16} {}", spec.name, spec.title);
        }
        return ExitCode::SUCCESS;
    }
    let specs = match cli.specs() {
        Ok(s) => s,
        Err(code) => return code,
    };
    let opts = match cli.build_opts(argv) {
        Ok(o) => o,
        Err(code) => return code,
    };
    install_sigint_handler();
    match run_campaign(&specs, &opts) {
        Ok(report) => campaign_exit(&report),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_work(full_argv: Vec<String>, rest: Vec<String>) -> ExitCode {
    let mut cli = CampaignCli::parse(rest, true);
    // First positional argument is the shared campaign directory; the
    // remainder are experiment names, exactly as in the default mode.
    if cli.names.is_empty() && !cli.all {
        eprintln!("error: work needs the campaign directory and experiments (or --all)");
        usage();
    }
    if cli.names.is_empty() {
        eprintln!("error: work needs the campaign directory as its first argument");
        usage();
    }
    let dir = cli.names.remove(0);
    if cli.out.is_some() {
        eprintln!("error: work takes the output directory positionally, not via --out");
        usage();
    }
    cli.out = Some(dir);
    let Some(shard) = cli.shard else {
        eprintln!("error: work needs --shard i/N (which worker slot this process is)");
        usage();
    };
    let specs = match cli.specs() {
        Ok(s) => s,
        Err(code) => return code,
    };
    let opts = match cli.build_opts(full_argv) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let worker = match stale_after_duration(cli.stale_after) {
        Ok(stale_after) => WorkerOptions { take_over: cli.take_over, stale_after },
        Err(code) => return code,
    };
    install_sigint_handler();
    match run_shard(&specs, &opts, shard, &worker) {
        Ok(report) => {
            if report.interrupted {
                ExitCode::from(130)
            } else if report.failed > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_merge(argv: Vec<String>) -> ExitCode {
    let mut dir: Option<std::path::PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => threads = Some(parse_value(&mut args, "--threads")),
            "--help" | "-h" => usage(),
            s if s.starts_with('-') => {
                eprintln!("error: unknown merge flag '{s}'");
                usage();
            }
            s if dir.is_none() => dir = Some(s.into()),
            s => {
                eprintln!("error: unexpected merge argument '{s}'");
                usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("error: merge needs the campaign directory holding the shard journals");
        usage();
    };
    match merge_campaign(&dir, threads) {
        Ok(report) => campaign_exit(&report),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_status(argv: Vec<String>) -> ExitCode {
    let mut dir: Option<std::path::PathBuf> = None;
    let mut stale_after: Option<f64> = None;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--stale-after" => stale_after = Some(parse_value(&mut args, "--stale-after")),
            "--help" | "-h" => usage(),
            s if s.starts_with('-') => {
                eprintln!("error: unknown status flag '{s}'");
                usage();
            }
            s if dir.is_none() => dir = Some(s.into()),
            s => {
                eprintln!("error: unexpected status argument '{s}'");
                usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("error: status needs a campaign directory");
        usage();
    };
    let stale_after = match stale_after_duration(stale_after) {
        Ok(d) => d,
        Err(code) => return code,
    };
    // Status may race live workers; journal parsing tolerates the torn
    // tail a mid-write worker leaves.
    match campaign_status(&dir, stale_after) {
        Ok(progress) => {
            print!("{}", render_status(&dir, &progress));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_reshard(full_argv: Vec<String>, rest: Vec<String>) -> ExitCode {
    let mut dir: Option<std::path::PathBuf> = None;
    let mut shards: Option<usize> = None;
    let mut stale_after: Option<f64> = None;
    let mut args = rest.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => shards = Some(parse_value(&mut args, "--shards")),
            "--stale-after" => stale_after = Some(parse_value(&mut args, "--stale-after")),
            "--help" | "-h" => usage(),
            s if s.starts_with('-') => {
                eprintln!("error: unknown reshard flag '{s}'");
                usage();
            }
            s if dir.is_none() => dir = Some(s.into()),
            s => {
                eprintln!("error: unexpected reshard argument '{s}'");
                usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("error: reshard needs the campaign directory");
        usage();
    };
    let Some(shards) = shards else {
        eprintln!("error: reshard needs --shards M (the new shard count)");
        usage();
    };
    if shards == 0 {
        eprintln!("error: --shards must be at least 1");
        return ExitCode::FAILURE;
    }
    let stale_after = match stale_after_duration(stale_after) {
        Ok(d) => d,
        Err(code) => return code,
    };
    match reshard_campaign(&dir, shards, stale_after, &full_argv) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_resume(argv: Vec<String>) -> ExitCode {
    let mut dir: Option<std::path::PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => threads = Some(parse_value(&mut args, "--threads")),
            "--help" | "-h" => usage(),
            s if s.starts_with('-') => {
                eprintln!("error: unknown resume flag '{s}'");
                usage();
            }
            s if dir.is_none() => dir = Some(s.into()),
            s => {
                eprintln!("error: unexpected resume argument '{s}'");
                usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("error: resume needs the results directory of an interrupted campaign");
        usage();
    };
    install_sigint_handler();
    match resume_campaign(&dir, threads, None) {
        Ok(report) => campaign_exit(&report),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main_compare(argv: Vec<String>) -> ExitCode {
    let mut out: std::path::PathBuf = "results".into();
    let mut golden: Option<std::path::PathBuf> = None;
    let mut tol: Option<f64> = None;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = parse_value::<String>(&mut args, "--out").into(),
            "--golden" => golden = Some(parse_value::<String>(&mut args, "--golden").into()),
            "--tol" => {
                let t: f64 = parse_value(&mut args, "--tol");
                if !(t.is_finite() && t >= 0.0) {
                    eprintln!("error: --tol needs a finite, non-negative fraction (got {t})");
                    return ExitCode::FAILURE;
                }
                tol = Some(t);
            }
            "--help" | "-h" => usage(),
            s => {
                eprintln!("error: unknown compare argument '{s}'");
                usage();
            }
        }
    }
    let golden = golden.unwrap_or_else(|| out.join("golden"));
    match run_compare(&out, &golden, tol) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

fn main_schemes(argv: Vec<String>) -> ExitCode {
    if let Some(a) = argv.first() {
        eprintln!("error: unknown schemes argument '{a}'");
        usage();
    }
    println!("{:<4} {:<12} {:<14} switch-replication", "id", "name", "ni-forwarding");
    for id in irrnet_core::SchemeRegistry::all() {
        let caps = id.caps();
        println!(
            "{:<4} {:<12} {:<14} {}",
            id.index(),
            id.name(),
            if caps.ni_forwarding { "yes" } else { "no" },
            if caps.switch_replication { "yes" } else { "no" }
        );
    }
    ExitCode::SUCCESS
}
