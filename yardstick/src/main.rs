//! `yardstick`: the measuring half of the repository benchmark.
//!
//! `run.py` drives this binary; each subcommand does one measured piece
//! of work and prints one JSON line on stdout:
//!
//! ```text
//! yardstick rep    --workload W --seed S [--trace SPANS] [--out FILE]
//!                  [--sample K]
//! yardstick setup  --workload W --seed S [--request FILE]   (sweep-grid, fuzz-diff)
//! yardstick sample --workload W --seed S --jobs K
//! yardstick farm   --work DIR --journal FILE                 (sweep-grid)
//! ```
//!
//! `rep` is one repetition of a workload in-process: `suite-quick` and
//! `suite-full` are the reproduction itself; `sweep-grid` and `fuzz-diff`
//! are in-process replicas of the CLI runs `run.py` times end to end.
//! With `--trace` it records a span per call into a layer, writes the
//! spans to SPANS after the run, and reports each layer's self time.

mod farm;
mod fuzzcase;
mod grid;
mod jobs;
mod json;
mod sample;
mod seed;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use jobs::JobLog;
use json::Obj;
use trace::Tracer;

/// The workloads.
const WORKLOADS: [&str; 4] = ["suite-quick", "suite-full", "sweep-grid", "fuzz-diff"];

/// Set-ups timed per `setup` call; the median is reported.
const SETUP_REPEATS: usize = 9;

/// Layers a traced run charges self time to. `untraced` is the part of
/// the repetition inside no layer span.
const LAYERS: [&str; 10] = [
    "workloads",
    "harness",
    "engine",
    "profile",
    "compile",
    "sim",
    "lint",
    "verify",
    "interp",
    "untraced",
];

/// Engine worker count: two, pinned, never more than the host has.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{name}: {e}"))
        })
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("yardstick: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let cmd = args.0.first().map(String::as_str).unwrap_or("");
    if cmd == "farm" {
        return farm_cmd(args);
    }
    let workload = args.get("--workload").unwrap_or("");
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {WORKLOADS:?})"
        ));
    }
    let seed = args.num("--seed", seed::DEFAULT_SEED)?;
    let mut out = Obj::default();
    match cmd {
        "rep" => rep(args, workload, seed, &mut out)?,
        "setup" => {
            let build = match workload {
                "sweep-grid" => grid::setup,
                "fuzz-diff" => fuzzcase::setup,
                _ => return Err("suite workloads time their set-up inside `rep`".into()),
            };
            let mut times = Vec::new();
            let mut built = (0, 0);
            for _ in 0..SETUP_REPEATS {
                let t = Instant::now();
                built = build(seed);
                times.push(t.elapsed().as_secs_f64());
            }
            let setup = jobs::quantile(&times, 0.5);
            out.num("setup_s", setup)
                .num("workloads.build_ms", setup * 1e3)
                .num("workloads.input_mb", built.0 as f64 / 1e6)
                .int("jobs", built.1);
            if workload == "fuzz-diff" {
                out.int("start_seed", seed::fuzz_start(seed, fuzzcase::CASES));
            }
            if let Some(path) = args.path("--request") {
                std::fs::write(&path, grid::grid(seed).request())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        "sample" => {
            let k = args.num("--jobs", 4)? as usize;
            let tracer = Arc::new(Tracer::new(false));
            let failures = sample_cmd(workload, seed, k, &tracer, 0, &mut out);
            out.int("failed", failures.len() as u64);
            for f in failures {
                eprintln!("yardstick: FAIL {f}");
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(out.render())
}

fn sample_cmd(
    workload: &str,
    seed: u64,
    k: usize,
    tracer: &Arc<Tracer>,
    parent: u64,
    out: &mut Obj,
) -> Vec<String> {
    let log = Arc::new(JobLog::new(Arc::clone(tracer)));
    let jobs = tracer.span(parent, 0, "harness", "sample setup", |id| {
        log.set_phase(id, "vanguard");
        match workload {
            "suite-quick" => suite::sample_jobs(true, seed, k, &log),
            "suite-full" => suite::sample_jobs(false, seed, k, &log),
            "sweep-grid" => grid::sample_jobs(seed, k, &log),
            _ => fuzzcase::sample_jobs(seed, k),
        }
    });
    sample::run(&jobs, tracer, parent, out)
}

fn rep(args: &Args, workload: &str, seed: u64, out: &mut Obj) -> Result<(), String> {
    let spans_path = args.path("--trace");
    let tracer = Arc::new(Tracer::new(spans_path.is_some()));
    let root = tracer.alloc();
    let started = tracer.now();
    let mut failures = Vec::new();
    match workload {
        "suite-quick" | "suite-full" => {
            let text = suite::run(workload == "suite-quick", seed, &tracer, root, out);
            if let Some(path) = args.path("--out") {
                std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        "sweep-grid" => grid::run(seed, &tracer, root, out),
        _ => failures = fuzzcase::run(seed, &tracer, root, out),
    }
    let k = args.num("--sample", 0)? as usize;
    if k > 0 {
        let mut sampled = Obj::default();
        failures.extend(sample_cmd(workload, seed, k, &tracer, root, &mut sampled));
        out.merge(&sampled);
    }
    let end = tracer.now();
    tracer.push(trace::Span {
        id: root,
        parent: 0,
        job: 0,
        layer: "untraced",
        name: format!("rep {workload}"),
        start: started,
        end,
    });
    out.num("rep_s", (end - started) as f64 / 1e9)
        .int("check_failures", failures.len() as u64);
    for f in &failures {
        eprintln!("yardstick: FAIL {f}");
    }
    if let Some(path) = spans_path {
        let spans = tracer.take();
        let lanes = if workload == "fuzz-diff" {
            1
        } else {
            workers()
        };
        let layers = trace::layer_self_ns(&spans);
        let wall = end - started;
        let covered: u64 = layers.values().sum();
        for layer in LAYERS {
            let ns = layers.get(layer).copied().unwrap_or(0);
            out.num(&format!("self_ms.{layer}"), ns as f64 / 1e6);
        }
        out.num("trace.wall_s", wall as f64 / 1e9)
            .int("trace.spans", spans.len() as u64)
            .num(
                "trace.idle_frac",
                1.0 - covered as f64 / (wall * lanes as u64).max(1) as f64,
            );
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn farm_cmd(args: &Args) -> Result<String, String> {
    let work = args.path("--work").ok_or("farm needs --work DIR")?;
    let journal = args.path("--journal").ok_or("farm needs --journal FILE")?;
    let records =
        farm::journal_records(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    if records.is_empty() {
        return Err("no records to probe".into());
    }
    let mut out = Obj::default();
    farm::probe(&records, &work, &mut out).map_err(|e| format!("farm probe: {e}"))?;
    Ok(out.render())
}
