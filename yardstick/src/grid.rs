//! `sweep-grid`: a quick-scale sweep grid, run through the
//! `vanguard-sweep` CLI for the end-to-end numbers and replicated
//! in-process on the engine for the traced per-layer numbers.
//!
//! The grid cannot take a seed (`vanguard-sweep` builds the repository's
//! own inputs), so the seed permutes the order of the request's axes:
//! the same jobs, planned and merged in a different order.

use std::sync::Arc;
use std::time::Instant;
use vanguard_bench::{quick_spec, to_experiment_input, BenchScale};
use vanguard_core::engine::{
    Engine, JobResult, PredictorKind, SimJob, SweepCell, Variant, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::{TransformKind, TransformOptions};
use vanguard_sim::MachineConfig;
use vanguard_workloads::suite;

use crate::jobs::{pool_stats, sim_totals, JobLog};
use crate::json::Obj;
use crate::sample::SampleJob;
use crate::seed::{permute, sample};
use crate::suite::input_bytes;
use crate::trace::Tracer;

/// Suite of the grid.
pub const SUITE: &str = "spec2006-fp";
/// Benchmarks taken from the suite.
pub const BENCHES: usize = 6;

/// The grid's axes, in request order.
pub struct Grid {
    widths: Vec<usize>,
    predictors: Vec<(PredictorKind, &'static str)>,
    kinds: Vec<TransformKind>,
}

/// The grid under `seed` (axis order permuted; the default seed keeps
/// the canonical order).
pub fn grid(seed: u64) -> Grid {
    let mut widths = vec![2, 4, 8];
    let mut predictors = vec![
        (PredictorKind::Bimodal8K, "bimodal8k"),
        (PredictorKind::Combined24KB, "combined24kb"),
        (PredictorKind::Tage32KB, "tage32kb"),
        (PredictorKind::IslTage64KB, "isltage64kb"),
    ];
    let mut kinds = TransformKind::ALL.to_vec();
    permute(&mut widths, seed);
    permute(&mut predictors, seed ^ 1);
    permute(&mut kinds, seed ^ 2);
    Grid {
        widths,
        predictors,
        kinds,
    }
}

impl Grid {
    /// The `VGS1` request text `vanguard-sweep run --request` reads.
    pub fn request(&self) -> String {
        let join = |v: Vec<String>| v.join(" ");
        format!(
            "VGS1\nsuite {SUITE} {BENCHES}\nwidths {}\npredictors {}\ntransforms {}\nscale quick\n",
            join(self.widths.iter().map(|w| w.to_string()).collect()),
            join(self.predictors.iter().map(|p| p.1.to_string()).collect()),
            join(self.kinds.iter().map(|k| k.name().to_string()).collect()),
        )
    }
}

fn machine(width: usize) -> MachineConfig {
    match width {
        2 => MachineConfig::two_wide(),
        4 => MachineConfig::four_wide(),
        _ => MachineConfig::eight_wide(),
    }
}

fn options(kind: TransformKind) -> TransformOptions {
    TransformOptions {
        kind,
        ..TransformOptions::default()
    }
}

/// The built grid: engine with the benchmarks registered and the job
/// plan in request order, grouped by transform kind.
pub struct Plan {
    /// The engine.
    pub engine: Engine,
    /// `(kind, jobs)` groups in plan order.
    pub groups: Vec<(TransformKind, Vec<SimJob>)>,
    /// Input bytes over all benchmarks.
    pub input_bytes: u64,
}

/// Builds the grid the way the sweep plans it: inputs, registration, and
/// a content key per job.
pub fn plan(seed: u64, workers: usize) -> Plan {
    let g = grid(seed);
    let mut engine = Engine::with_workers(workers);
    let mut ids = Vec::new();
    let mut bytes = 0;
    for spec in suite::spec2006_fp().into_iter().take(BENCHES) {
        let input = to_experiment_input(quick_spec(spec, BenchScale::Quick).build());
        bytes += input_bytes(&input);
        ids.push(engine.add_benchmark(input));
    }
    let mut groups = Vec::new();
    for &kind in &g.kinds {
        let mut jobs = Vec::new();
        for &(predictor, _) in &g.predictors {
            for &width in &g.widths {
                let cells: Vec<SweepCell> = ids
                    .iter()
                    .map(|&bench| SweepCell {
                        bench,
                        machine: machine(width),
                        predictor,
                    })
                    .collect();
                for job in engine.jobs_for_cells(&cells) {
                    let _ = engine.job_key(&job, &options(kind), DEFAULT_MAX_PROFILE_STEPS);
                    jobs.push(job);
                }
            }
        }
        groups.push((kind, jobs));
    }
    Plan {
        engine,
        groups,
        input_bytes: bytes,
    }
}

/// One in-process repetition of the grid on the engine's pool.
pub fn run(seed: u64, tracer: &Arc<Tracer>, root: u64, out: &mut Obj) {
    let started = Instant::now();
    let log = Arc::new(JobLog::new(Arc::clone(tracer)));
    let workers = crate::workers();
    let mut p = tracer.span(root, 0, "workloads", "build plan", |_| plan(seed, workers));
    p.engine.observe(log.clone());
    let setup = started.elapsed();

    let mut base_4w = std::collections::HashMap::new();
    let mut speedups = Vec::new();
    for (kind, jobs) in &p.groups {
        let results = tracer.span(root, 0, "harness", kind.name(), |id| {
            log.set_phase(id, kind.name());
            p.engine
                .run_jobs(jobs, &options(*kind), DEFAULT_MAX_PROFILE_STEPS)
        });
        if *kind != TransformKind::Vanguard {
            continue;
        }
        for r in &results {
            if let JobResult::Completed(s) = r {
                let j = s.job;
                if j.machine.width == 4 && j.predictor == PredictorKind::Combined24KB {
                    match j.variant {
                        Variant::Baseline => {
                            base_4w.insert(j.bench, s.stats.cycles);
                        }
                        Variant::Transformed => speedups.push((j.bench, s.stats.cycles)),
                    }
                }
            }
        }
    }
    let wall = started.elapsed();
    let pcts: Vec<f64> = speedups
        .iter()
        .map(|&(b, x)| (base_4w[&b] as f64 / x as f64 - 1.0) * 100.0)
        .collect();

    let stats = p.engine.stats();
    let done = log.done();
    out.num("wall_s", wall.as_secs_f64())
        .num("setup_s", setup.as_secs_f64())
        .num("workloads.build_ms", setup.as_secs_f64() * 1e3)
        .num("workloads.input_mb", p.input_bytes as f64 / 1e6)
        .int("attempted", done.len() as u64 + log.failed())
        .int("failed", log.failed())
        .num("speedup_4w_geomean_pct", vanguard_bench::geomean_pct(&pcts))
        .int("engine.profile.runs", stats.profile_misses)
        .int("engine.profile.hits", stats.profile_hits)
        .num("engine.profile.ms", stats.profile_nanos as f64 / 1e6)
        .int("engine.compile.runs", stats.compile_misses)
        .int("engine.compile.hits", stats.compile_hits)
        .num("engine.compile.ms", stats.compile_nanos as f64 / 1e6)
        .int(
            "engine.jobs_failed",
            stats.jobs_failed + stats.jobs_faulted + stats.jobs_timed_out,
        )
        .int("engine.jobs_retried", log.retried());
    let (sites, growth) = transform_totals(&p);
    out.int("transform.sites_converted", sites)
        .num("transform.code_growth_pct", growth);
    sim_totals(out, &done);
    pool_stats(out, &done, workers);
}

/// Converted sites and code growth of the vanguard pass on the 4-wide
/// with the baseline predictor, over the grid's benchmarks.
fn transform_totals(p: &Plan) -> (u64, f64) {
    let (mut sites, mut before, mut after) = (0u64, 0u64, 0u64);
    for bench in 0..BENCHES {
        if let Ok(pair) = p.engine.compile_pair(
            bench,
            PredictorKind::Combined24KB,
            MachineConfig::four_wide(),
            &options(TransformKind::Vanguard),
            DEFAULT_MAX_PROFILE_STEPS,
        ) {
            sites += pair.report.converted.len() as u64;
            before += pair.report.code_bytes_before;
            after += pair.report.code_bytes_after;
        }
    }
    (sites, (after as f64 / before.max(1) as f64 - 1.0) * 100.0)
}

/// Set-up alone, as the sweep does it before its first job: returns
/// the input bytes and the job count.
pub fn setup(seed: u64) -> (u64, u64) {
    let p = plan(seed, 1);
    let jobs: usize = p.groups.iter().map(|g| g.1.len()).sum();
    (p.input_bytes, jobs as u64)
}

/// `k` seeded jobs of the grid, compiled and ready; `log` sees the
/// profile and compile stages.
pub fn sample_jobs(seed: u64, k: usize, log: &Arc<JobLog>) -> Vec<SampleJob> {
    let mut p = plan(seed, 1);
    p.engine.observe(log.clone());
    let flat: Vec<(TransformKind, SimJob)> = p
        .groups
        .iter()
        .flat_map(|(kind, jobs)| jobs.iter().map(move |j| (*kind, *j)))
        .collect();
    sample(flat.len(), k, seed)
        .into_iter()
        .map(|i| {
            let (kind, job) = flat[i];
            let input = p.engine.benchmark(job.bench);
            let pair = p
                .engine
                .compile_pair(
                    job.bench,
                    job.predictor,
                    job.machine,
                    &options(kind),
                    DEFAULT_MAX_PROFILE_STEPS,
                )
                .expect("grid kernels profile cleanly");
            SampleJob {
                label: format!(
                    "{} {} {:?} w{} {:?}",
                    input.name,
                    kind.name(),
                    job.predictor,
                    job.machine.width,
                    job.variant
                ),
                original: Arc::new(input.program.clone()),
                baseline: pair.baseline,
                transformed: pair.transformed,
                kind,
                variant: job.variant,
                memory: input.refs[job.ref_input].memory.clone(),
                init_regs: input.refs[job.ref_input].init_regs.clone(),
                machine: job.machine,
                predictor: job.predictor,
            }
        })
        .collect()
}
