//! `vanguard-sweep`: the sharded, resumable sweep service CLI.
//!
//! ```text
//! # One-shot sharded run (merged output to stdout):
//! vanguard-sweep run --request sweep.req --shards 4
//!
//! # Resume an interrupted run off its journal:
//! vanguard-sweep resume --request sweep.req --journal sweep.vgj
//!
//! # Serial reference run (no workers, no journal):
//! vanguard-sweep run --request sweep.req --serial
//! ```
//!
//! Shard count defaults to `VANGUARD_SHARDS` (then 1). Exit codes:
//! 0 success, 2 usage (including a malformed number), 3 interrupted
//! (`--fault-kill-after` tripped), 4 incomplete (workers exited with
//! jobs still unjournaled).

use std::io::Write as _;
use std::path::PathBuf;
use vanguard_bench::cli;
use vanguard_bench::sweep::{self, run_sharded, ShardOptions, Sweep, SweepRequest, SHARDS_ENV};
use vanguard_core::engine::{env_count, FaultPolicy};
use vanguard_core::Journal;

fn usage() -> ! {
    eprintln!(
        "usage: vanguard-sweep run    --request FILE [--journal FILE] [--out FILE] \
         [--shards N] [--serial] [--fault-kill-after N] [--throttle-ms N]\n\
         \x20      vanguard-sweep resume --request FILE --journal FILE [--out FILE] [--shards N]"
    );
    std::process::exit(2);
}

/// Reports a malformed flag, then the usage, and exits 2.
fn usage_error(msg: String) -> ! {
    eprintln!("[sweep] {msg}");
    usage();
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    cli::flag_value(args, name)
        .unwrap_or_else(|e| usage_error(e))
        .map(str::to_string)
}

fn default_shards() -> usize {
    env_count(SHARDS_ENV)
        .unwrap_or_else(|e| usage_error(e))
        .unwrap_or(1)
}

fn main() {
    sweep::maybe_run_worker();
    cli::check_env().unwrap_or_else(|e| usage_error(e));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        usage();
    };
    if mode != "run" && mode != "resume" {
        usage();
    }
    let shards = cli::numeric_flag(&args, "--shards", 1)
        .unwrap_or_else(|e| usage_error(e))
        .unwrap_or_else(default_shards);
    let kill_after: Option<usize> =
        cli::numeric_flag(&args, "--fault-kill-after", 0).unwrap_or_else(|e| usage_error(e));
    let throttle_ms: Option<u64> =
        cli::numeric_flag(&args, "--throttle-ms", 0).unwrap_or_else(|e| usage_error(e));
    let serial = args.iter().any(|a| a == "--serial");
    let out_path = flag_value(&args, "--out").map(PathBuf::from);
    let worker_exe = sweep::harness_worker_exe().unwrap_or_else(|e| {
        eprintln!("[sweep] cannot resolve worker executable: {e}");
        std::process::exit(1);
    });

    let Some(request_path) = flag_value(&args, "--request").map(PathBuf::from) else {
        usage();
    };
    let journal_path = flag_value(&args, "--journal")
        .map(PathBuf::from)
        .unwrap_or_else(|| request_path.with_extension("vgj"));
    if mode == "resume" && !journal_path.exists() {
        eprintln!(
            "[sweep] resume: journal {} does not exist (nothing to resume)",
            journal_path.display()
        );
        std::process::exit(2);
    }

    let request_text = std::fs::read_to_string(&request_path).unwrap_or_else(|e| {
        eprintln!("[sweep] read {}: {e}", request_path.display());
        std::process::exit(1);
    });
    let request = SweepRequest::parse(&request_text).unwrap_or_else(|e| {
        eprintln!("[sweep] bad request: {e}");
        std::process::exit(2);
    });

    let sweep = Sweep::build(request, FaultPolicy::from_env()).unwrap_or_else(|e| {
        eprintln!("[sweep] {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[sweep] {} jobs, journal {}, {} shard(s){}",
        sweep.plan().len(),
        journal_path.display(),
        if serial { 0 } else { shards },
        if serial { " (serial)" } else { "" },
    );

    let merged = if serial {
        sweep.run_serial()
    } else {
        let journal = Journal::new(&journal_path);
        let mut opts = ShardOptions::new(worker_exe, shards);
        opts.kill_after = kill_after;
        opts.throttle_ms = throttle_ms;
        let mut err = std::io::stderr();
        let run = run_sharded(&sweep, &journal, &opts, &mut err).unwrap_or_else(|e| {
            eprintln!("[sweep] sharded run failed: {e}");
            std::process::exit(1);
        });
        if run.killed {
            eprintln!(
                "[sweep] interrupted by --fault-kill-after: {} of {} jobs journaled; \
                 resume with: vanguard-sweep resume --request {} --journal {}",
                run.completed,
                run.total,
                request_path.display(),
                journal_path.display()
            );
            std::process::exit(3);
        }
        if !run.complete() {
            eprintln!(
                "[sweep] incomplete: {} of {} jobs journaled",
                run.completed, run.total
            );
            std::process::exit(4);
        }
        let snapshot = journal.read().unwrap_or_else(|e| {
            eprintln!("[sweep] journal read: {e}");
            std::process::exit(1);
        });
        if !snapshot.duplicate_keys().is_empty() {
            eprintln!(
                "[sweep] journal has duplicate job records: {:?}",
                snapshot.duplicate_keys()
            );
            std::process::exit(1);
        }
        sweep.merged(&snapshot).unwrap_or_else(|missing| {
            eprintln!("[sweep] merge missing {} jobs", missing.len());
            std::process::exit(4);
        })
    };

    match out_path {
        Some(path) => {
            std::fs::write(&path, &merged).unwrap_or_else(|e| {
                eprintln!("[sweep] write {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("[sweep] wrote {}", path.display());
        }
        None => {
            let mut stdout = std::io::stdout();
            stdout.write_all(merged.as_bytes()).expect("stdout");
        }
    }
}
