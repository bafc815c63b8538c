//! The sampled-job probe: a seeded sample of a workload's jobs run once
//! more, outside the engine, through each layer's public entry point.
//!
//! * `Simulator::run_profiled` gives the fetch / issue / commit split of
//!   the simulator's hot loop;
//! * the interpreter re-executes the same program, and its committed
//!   registers and written words must equal the simulator's;
//! * `lint_program` / `lint_variant` check the compiled pair;
//! * `verify_equivalence` runs the transformed program under adversarial
//!   prediction oracles against the original (for either side's job).
//!
//! Any mismatch, lint diagnostic or divergence is a failure.

use std::sync::Arc;
use std::time::Instant;
use vanguard_core::engine::{PredictorKind, Variant};
use vanguard_core::{lint_program, lint_variant, verify_equivalence, Observables, TransformKind};
use vanguard_isa::{
    DecodedImage, InterpConfig, Interpreter, Memory, Program, Reg, StopReason, TakenOracle,
    NUM_ARCH_REGS,
};
use vanguard_sim::{MachineConfig, Simulator, StopCause};

use crate::json::Obj;
use crate::trace::Tracer;

/// Step budget for interpreter runs (the largest kernels retire a few
/// million instructions).
const MAX_STEPS: u64 = 200_000_000;

/// One sampled job with everything needed to re-run it.
pub struct SampleJob {
    /// Label for failure messages.
    pub label: String,
    /// The program before layout and transformation.
    pub original: Arc<Program>,
    /// The laid-out, scheduled baseline.
    pub baseline: Arc<Program>,
    /// The transformed program.
    pub transformed: Arc<Program>,
    /// Transform pass that produced `transformed`.
    pub kind: TransformKind,
    /// Which side of the pair runs.
    pub variant: Variant,
    /// Input memory.
    pub memory: Memory,
    /// Input registers.
    pub init_regs: Vec<(Reg, u64)>,
    /// Machine.
    pub machine: MachineConfig,
    /// Predictor.
    pub predictor: PredictorKind,
}

/// Registers the original program reads or writes: its architecturally
/// observable set (transform temporaries are outside it).
pub fn observable_regs(program: &Program) -> Vec<Reg> {
    let mut seen = [false; NUM_ARCH_REGS];
    for (_, block) in program.iter() {
        for inst in block.insts() {
            if let Some(d) = inst.dst() {
                seen[d.index()] = true;
            }
            for r in inst.srcs() {
                seen[r.index()] = true;
            }
        }
    }
    (0..NUM_ARCH_REGS)
        .filter(|&i| seen[i])
        .map(|i| Reg(i as u8))
        .collect()
}

#[derive(Default)]
struct Totals {
    fetch_ns: u64,
    issue_ns: u64,
    commit_ns: u64,
    sim_ns: u64,
    cycles: u64,
    lint_ns: u64,
    verify_ns: u64,
    interp_ns: u64,
}

fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    out
}

/// Runs the probe over `jobs`, adding timings to `out` and returning
/// the failures found.
pub fn run(jobs: &[SampleJob], tracer: &Tracer, parent: u64, out: &mut Obj) -> Vec<String> {
    let mut t = Totals::default();
    let mut failures = Vec::new();
    for (n, job) in jobs.iter().enumerate() {
        let jid = tracer.alloc();
        tracer.span(
            parent,
            jid,
            "harness",
            &format!("sample {}", job.label),
            |sid| {
                if let Err(e) = one(job, tracer, sid, jid, &mut t) {
                    failures.push(format!("sample {n} ({}): {e}", job.label));
                }
            },
        );
    }
    let per_cycle = |ns: u64| ns as f64 / t.cycles.max(1) as f64;
    let hot = t.fetch_ns + t.issue_ns + t.commit_ns;
    out.int("sample.jobs", jobs.len() as u64)
        .num("sim.fetch_ns_per_cycle", per_cycle(t.fetch_ns))
        .num("sim.issue_ns_per_cycle", per_cycle(t.issue_ns))
        .num("sim.commit_ns_per_cycle", per_cycle(t.commit_ns))
        .num(
            "sim.other_ns_per_cycle",
            per_cycle(t.sim_ns.saturating_sub(hot)),
        )
        .num("sim.ns_per_cycle", per_cycle(t.sim_ns))
        .num("lint.ms", t.lint_ns as f64 / 1e6)
        .num("verify.ms", t.verify_ns as f64 / 1e6)
        .num("interp.ms", t.interp_ns as f64 / 1e6);
    failures
}

fn one(job: &SampleJob, tracer: &Tracer, sid: u64, jid: u64, t: &mut Totals) -> Result<(), String> {
    let program: &Program = match job.variant {
        Variant::Baseline => &job.baseline,
        Variant::Transformed => &job.transformed,
    };
    let regs = observable_regs(&job.original);

    let diags = tracer.span(sid, jid, "lint", "lint", |_| {
        timed(&mut t.lint_ns, || {
            let mut d = lint_program(&job.baseline);
            d.extend(lint_variant(job.kind, &job.baseline, &job.transformed));
            d
        })
    });
    if let Some(d) = diags.first() {
        return Err(format!("{} lint diagnostics, first: {d}", diags.len()));
    }

    let (res, prof) = tracer
        .span(sid, jid, "sim", "run_profiled", |_| {
            timed(&mut t.sim_ns, || {
                let mut sim = Simulator::with_image(
                    Arc::new(DecodedImage::build(program)),
                    job.memory.clone(),
                    job.machine,
                    job.predictor.build(),
                );
                for &(r, v) in &job.init_regs {
                    sim.set_reg(r, v);
                }
                sim.run_profiled()
            })
        })
        .map_err(|f| format!("simulator fault: {:?}", f.error))?;
    if res.stop != StopCause::Halted {
        return Err(format!("simulator stopped on {:?}", res.stop));
    }
    t.fetch_ns += prof.fetch_ns;
    t.issue_ns += prof.issue_ns;
    t.commit_ns += prof.commit_ns;
    t.cycles += res.stats.cycles;

    let (iregs, iwords) = tracer.span(sid, jid, "interp", "interpret", |_| {
        timed(&mut t.interp_ns, || {
            let mut i = Interpreter::new(program, job.memory.clone()).with_config(InterpConfig {
                max_steps: MAX_STEPS,
            });
            for &(r, v) in &job.init_regs {
                i.set_reg(r, v);
            }
            let outcome = i
                .run(&mut TakenOracle::AlwaysNotTaken)
                .map_err(|e| format!("interpreter fault: {e}"))?;
            if outcome.stop != StopReason::Halted {
                return Err("interpreter did not halt".to_string());
            }
            let vals: Vec<u64> = regs.iter().map(|&r| i.reg(r)).collect();
            Ok((vals, i.memory().written_words()))
        })
    })?;
    let sregs: Vec<u64> = regs.iter().map(|&r| res.regs[r.index()]).collect();
    if iregs != sregs {
        return Err("committed registers differ from the interpreter's".into());
    }
    if iwords != res.memory.written_words() {
        return Err("written words differ from the interpreter's".into());
    }

    let obs = Observables {
        regs,
        memory_ranges: Vec::new(),
    };
    let divs = tracer
        .span(sid, jid, "verify", "verify_equivalence", |_| {
            timed(&mut t.verify_ns, || {
                verify_equivalence(
                    &job.original,
                    &job.transformed,
                    &job.memory,
                    &job.init_regs,
                    &obs,
                    1,
                    MAX_STEPS,
                )
            })
        })
        .map_err(|e| format!("reference run faulted: {e}"))?;
    if let Some(d) = divs.first() {
        return Err(format!("{} divergences, first: {d}", divs.len()));
    }
    Ok(())
}
