//! `fuzz-diff`: the differential fuzz campaign. The end-to-end numbers
//! come from the `vanguard-fuzz` CLI; this module replicates the
//! campaign's gates in-process through public entry points (profile,
//! compile, lint, interpreter differential, simulator parity) so each
//! layer can be timed and each simulation counted.

use std::sync::Arc;
use std::time::Instant;
use vanguard_bench::geomean_pct;
use vanguard_bpred::Combined;
use vanguard_core::engine::{PredictorKind, Variant};
use vanguard_core::{
    lint_program, lint_variant, verify_equivalence, Experiment, ExperimentInput, Observables,
    RunInput, TransformKind, TransformOptions,
};
use vanguard_isa::{DecodedImage, InterpConfig, Interpreter, Program, StopReason, TakenOracle};
use vanguard_sim::{MachineConfig, Simulator, StopCause};
use vanguard_workloads::{FuzzCase, FuzzSpec};

use crate::jobs::{pool_stats, sim_totals, JobDone, JobLog};
use crate::json::Obj;
use crate::sample::{observable_regs, SampleJob};
use crate::seed::{fuzz_start, sample};
use crate::trace::Tracer;

/// Cases per campaign.
pub const CASES: u64 = 400;
/// Step budget per interpreter or simulator run.
const MAX_STEPS: u64 = 4_000_000;
/// Seeded random prediction oracles per differential run.
const RANDOM_ORACLES: u32 = 3;

/// The campaign's case specs under `seed`.
pub fn specs(seed: u64) -> Vec<FuzzSpec> {
    let start = fuzz_start(seed, CASES);
    (0..CASES)
        .map(|i| FuzzSpec::from_seed(start.wrapping_add(i)))
        .collect()
}

fn case_bytes(case: &FuzzCase) -> u64 {
    case.memory.resident_words() as u64 * 8
}

/// The fuzz driver's experiment for a case: 4-wide, the case's knobs,
/// and a selector relaxed for short loops.
fn experiment(spec: &FuzzSpec, kind: TransformKind) -> Experiment {
    let mut exp = Experiment::new(MachineConfig::four_wide());
    exp.transform = TransformOptions {
        kind,
        max_hoist: spec.max_hoist,
        hoist_loads: spec.hoist_loads,
        shadow_temps: spec.shadow_temps,
        ..TransformOptions::default()
    };
    exp.transform.select.min_executions = spec.iterations.min(32);
    exp
}

fn input(spec: &FuzzSpec, case: &FuzzCase) -> ExperimentInput {
    let run = RunInput {
        memory: case.memory.clone(),
        init_regs: case.init_regs.clone(),
    };
    ExperimentInput {
        name: format!("fuzz-{}", spec.seed),
        program: case.program.clone(),
        train: run.clone(),
        refs: vec![run],
        seed: Some(spec.seed),
    }
}

/// Set-up alone, generating the campaign's cases: returns the input
/// bytes and the case count.
pub fn setup(seed: u64) -> (u64, u64) {
    let bytes = specs(seed).iter().map(|s| case_bytes(&s.build())).sum();
    (bytes, CASES)
}

struct Ctx<'a> {
    tracer: &'a Tracer,
    log: &'a JobLog,
    phase: u64,
    profile_ns: u64,
    compile_ns: u64,
    compiles: u64,
    sites: u64,
    code_before: u64,
    code_after: u64,
}

/// Lint, interpreter differential and simulator parity for one program;
/// returns its simulated cycles.
fn gates(
    cx: &mut Ctx<'_>,
    parent: u64,
    job: u64,
    key: String,
    program: &Program,
    case: &FuzzCase,
    obs: &Observables,
) -> Result<u64, String> {
    let tracer = cx.tracer;
    let divs = tracer
        .span(parent, job, "verify", "verify_equivalence", |_| {
            verify_equivalence(
                &case.program,
                program,
                &case.memory,
                &case.init_regs,
                obs,
                RANDOM_ORACLES,
                MAX_STEPS,
            )
        })
        .map_err(|e| format!("reference run faulted: {e}"))?;
    if let Some(d) = divs.first() {
        return Err(format!("divergence: {d}"));
    }
    let interp = tracer.span(parent, job, "interp", "interpret", |_| {
        let mut i = Interpreter::new(program, case.memory.clone()).with_config(InterpConfig {
            max_steps: MAX_STEPS,
        });
        for &(r, v) in &case.init_regs {
            i.set_reg(r, v);
        }
        match i.run(&mut TakenOracle::AlwaysNotTaken) {
            Ok(o) if o.stop == StopReason::Halted => Ok((
                obs.regs.iter().map(|&r| i.reg(r)).collect::<Vec<_>>(),
                i.memory().written_words(),
            )),
            Ok(_) => Err("interpreter did not halt".to_string()),
            Err(e) => Err(format!("interpreter fault: {e}")),
        }
    })?;
    let start = tracer.now();
    let res = tracer
        .span(parent, job, "sim", "simulate", |_| {
            let mut sim = Simulator::with_image(
                Arc::new(DecodedImage::build(program)),
                case.memory.clone(),
                MachineConfig::four_wide(),
                Box::new(Combined::ptlsim_default()),
            );
            for &(r, v) in &case.init_regs {
                sim.set_reg(r, v);
            }
            sim.run()
        })
        .map_err(|e| format!("simulator fault: {e}"))?;
    let end = tracer.now();
    if res.stop != StopCause::Halted {
        return Err(format!("simulator stopped on {:?}", res.stop));
    }
    let sregs: Vec<u64> = obs.regs.iter().map(|&r| res.regs[r.index()]).collect();
    if (sregs, res.memory.written_words()) != interp {
        return Err("simulator committed state differs from the interpreter's".into());
    }
    cx.log.push(JobDone {
        key,
        stats: res.stats,
        start,
        end,
        sim_ns: end - start,
        phase: cx.phase,
    });
    Ok(res.stats.cycles)
}

/// Runs one case through every pass. Returns the vanguard speedup %.
fn case(cx: &mut Ctx<'_>, root: u64, spec: &FuzzSpec) -> Result<f64, String> {
    let tracer = cx.tracer;
    let job = tracer.alloc();
    tracer.span(root, job, "engine", &format!("case {}", spec.seed), |cid| {
        let case = tracer.span(cid, job, "workloads", "build", |_| spec.build());
        let input = input(spec, &case);
        let t = Instant::now();
        let profile = tracer
            .span(cid, job, "profile", "profile", |_| {
                experiment(spec, TransformKind::Vanguard).profile(&input)
            })
            .map_err(|e| format!("profile: {e}"))?;
        cx.profile_ns += t.elapsed().as_nanos() as u64;
        let obs = Observables {
            regs: observable_regs(&case.program),
            memory_ranges: vec![case.out_range],
        };
        let mut base_cycles = 0;
        let mut speedup = 0.0;
        for (idx, &kind) in TransformKind::ALL.iter().enumerate() {
            let t = Instant::now();
            let (baseline, transformed, report) =
                tracer.span(cid, job, "compile", "compile", |_| {
                    experiment(spec, kind).compile_pair(&case.program, &profile)
                });
            cx.compile_ns += t.elapsed().as_nanos() as u64;
            cx.compiles += 1;
            let sites = report.converted.len() + report.melded;
            if idx == 0 {
                let d = tracer.span(cid, job, "lint", "lint_program", |_| {
                    lint_program(&baseline)
                });
                if let Some(d) = d.first() {
                    return Err(format!("baseline lint: {d}"));
                }
                let key = format!("fuzz-{}|baseline", spec.seed);
                base_cycles = gates(cx, cid, job, key, &baseline, &case, &obs)?;
            }
            if kind == TransformKind::Vanguard {
                cx.sites += report.converted.len() as u64;
                cx.code_before += report.code_bytes_before;
                cx.code_after += report.code_bytes_after;
            } else if sites == 0 {
                // The selector declined every site: the transformed
                // program is the already-gated baseline.
                continue;
            }
            let d = tracer.span(cid, job, "lint", "lint_variant", |_| {
                lint_variant(kind, &baseline, &transformed)
            });
            if let Some(d) = d.first() {
                return Err(format!("{} lint: {d}", kind.name()));
            }
            let key = format!("fuzz-{}|{}", spec.seed, kind.name());
            let cycles = gates(cx, cid, job, key, &transformed, &case, &obs)?;
            if kind == TransformKind::Vanguard {
                speedup = (base_cycles as f64 / cycles as f64 - 1.0) * 100.0;
            }
        }
        Ok(speedup)
    })
}

/// One in-process repetition of the campaign; returns the failures.
pub fn run(seed: u64, tracer: &Arc<Tracer>, root: u64, out: &mut Obj) -> Vec<String> {
    let started = Instant::now();
    let log = JobLog::new(Arc::clone(tracer));
    let (specs, bytes) = tracer.span(root, 0, "workloads", "build inputs", |_| {
        let specs = specs(seed);
        let bytes: u64 = specs.iter().map(|s| case_bytes(&s.build())).sum();
        (specs, bytes)
    });
    let setup = started.elapsed();
    let phase = tracer.alloc();
    let mut cx = Ctx {
        tracer,
        log: &log,
        phase,
        profile_ns: 0,
        compile_ns: 0,
        compiles: 0,
        sites: 0,
        code_before: 0,
        code_after: 0,
    };
    let mut failures = Vec::new();
    let mut speedups = Vec::new();
    let phase_start = tracer.now();
    for spec in &specs {
        match case(&mut cx, phase, spec) {
            Ok(s) => speedups.push(s),
            Err(e) => failures.push(format!("fuzz seed {}: {e}", spec.seed)),
        }
    }
    tracer.push(crate::trace::Span {
        id: phase,
        parent: root,
        job: 0,
        layer: "harness",
        name: "campaign".into(),
        start: phase_start,
        end: tracer.now(),
    });
    let wall = started.elapsed();
    let (profile_ns, compile_ns, compiles) = (cx.profile_ns, cx.compile_ns, cx.compiles);
    let growth = (cx.code_after as f64 / cx.code_before.max(1) as f64 - 1.0) * 100.0;
    let sites = cx.sites;
    let done = log.done();
    let cases = specs.len() as u64;
    out.num("wall_s", wall.as_secs_f64())
        .num("setup_s", setup.as_secs_f64())
        .num("workloads.build_ms", setup.as_secs_f64() * 1e3)
        .num("workloads.input_mb", bytes as f64 / 1e6)
        .int("attempted", cases)
        .int("failed", failures.len() as u64)
        .num("speedup_4w_geomean_pct", geomean_pct(&speedups))
        .int("engine.profile.runs", cases)
        .int("engine.profile.hits", compiles.saturating_sub(cases))
        .num("engine.profile.ms", profile_ns as f64 / 1e6)
        .int("engine.compile.runs", compiles)
        .int("engine.compile.hits", 0)
        .num("engine.compile.ms", compile_ns as f64 / 1e6)
        .int("engine.jobs_failed", failures.len() as u64)
        .int("engine.jobs_retried", 0)
        .int("transform.sites_converted", sites)
        .num("transform.code_growth_pct", growth);
    sim_totals(out, &done);
    pool_stats(out, &done, 1);
    failures
}

/// `k` seeded (case, side) jobs of the campaign under the vanguard pass.
pub fn sample_jobs(seed: u64, k: usize) -> Vec<SampleJob> {
    let specs = specs(seed);
    sample(specs.len() * 2, k, seed)
        .into_iter()
        .filter_map(|i| {
            let spec = &specs[i / 2];
            let variant = if i % 2 == 0 {
                Variant::Baseline
            } else {
                Variant::Transformed
            };
            let case = spec.build();
            let exp = experiment(spec, TransformKind::Vanguard);
            let profile = exp.profile(&input(spec, &case)).ok()?;
            let (baseline, transformed, _) = exp.compile_pair(&case.program, &profile);
            Some(SampleJob {
                label: format!("fuzz-{} {variant:?}", spec.seed),
                original: Arc::new(case.program.clone()),
                baseline: Arc::new(baseline),
                transformed: Arc::new(transformed),
                kind: TransformKind::Vanguard,
                variant,
                memory: case.memory.clone(),
                init_regs: case.init_regs.clone(),
                machine: MachineConfig::four_wide(),
                predictor: PredictorKind::Combined24KB,
            })
        })
        .collect()
}
