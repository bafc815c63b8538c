//! Deterministic fault-injection harness: the robustness gate.
//!
//! Each [`FaultClass`] stages one failure mode against a small quick-scale
//! benchmark suite running on the experiment engine, then asserts the
//! engine's containment contract (DESIGN.md §7.8):
//!
//! * the suite **completes** — no process abort, every job yields a
//!   [`JobResult`];
//! * the injected failure surfaces as the *typed* outcome for its class
//!   (`Faulted`, `TimedOut`, or `Failed` with a worker panic), visible in
//!   `EngineStats::summary`;
//! * every **unaffected** job's statistics are bit-identical to a clean
//!   run — fault handling never perturbs healthy results.
//!
//! Everything is deterministic in the harness seed: the seed picks the
//! panicked job index and the sweep's kill point, so a failing CI run
//! is replayable with `--seed N`.
//!
//! The module is the library behind the `faultinject` binary and the
//! `tests/fault_recovery.rs` integration tests.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use vanguard_core::engine::{
    Engine, FaultPolicy, JobResult, PredictorKind, SimJob, SweepCell, DEFAULT_MAX_PROFILE_STEPS,
};
use vanguard_core::{ErrorKind, ExperimentInput, RunInput, TransformOptions};
use vanguard_isa::{AluOp, CmpKind, CondKind, Inst, Memory, Operand, ProgramBuilder, Reg};
use vanguard_sim::{MachineConfig, SimError, SimStats};
use vanguard_workloads::suite;

use crate::{quick_spec, to_experiment_input, BenchScale};

/// Benchmarks of the fault suite (a prefix of SPEC2006 INT at quick
/// scale — large enough to prove non-perturbation, small enough for CI).
const FAULT_SUITE_SPECS: usize = 4;

/// Declares [`FaultClass`] from one variant list: the enum, the
/// [`FaultClass::ALL`] run order, and the CLI name mapping all derive
/// from the same declaration, so a class added here is automatically in
/// the `--all-classes` suite, the binary's class list, and the
/// `BENCH_robustness.json` refresh — there is no hand-maintained array
/// to forget.
macro_rules! declare_fault_classes {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A fault class the harness can stage.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum FaultClass {
            $($(#[$doc])* $variant,)+
        }

        impl FaultClass {
            /// Every class, in the order the harness runs them.
            pub const ALL: [FaultClass; [$(FaultClass::$variant),+].len()] =
                [$(FaultClass::$variant),+];

            /// The CLI name of the class.
            pub fn name(self) -> &'static str {
                match self {
                    $(FaultClass::$variant => $name,)+
                }
            }

            /// Parses a `--class` flag value.
            pub fn parse(s: &str) -> Option<FaultClass> {
                FaultClass::ALL.into_iter().find(|c| c.name() == s)
            }
        }
    };
}

declare_fault_classes! {
    /// A guest program traps (committed load fault) on one REF input.
    GuestTrap => "guest-trap",
    /// A guest program wedges in an effectively-infinite loop; the
    /// per-job cycle budget must stop it.
    Hang => "hang",
    /// A worker thread panics mid-job; the panic must stay inside that
    /// job's outcome.
    WorkerPanic => "worker-panic",
    /// A sweep worker *process* is `SIGKILL`ed mid-sweep; the resumed
    /// sweep must complete off the journal with no job's side effects
    /// run twice and a merged output byte-identical to an uninterrupted
    /// serial run, at shard counts 1, 2, and 4.
    KillAndResume => "kill-and-resume",
}

/// One named assertion of a class scenario.
#[derive(Clone, Debug)]
pub struct Check {
    /// What the assertion claims.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Evidence (counts, first mismatch, paths).
    pub detail: String,
}

/// The outcome of staging one fault class.
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// The staged class.
    pub class: FaultClass,
    /// Every assertion the scenario made.
    pub checks: Vec<Check>,
    /// The fault run's `EngineStats::summary` rendering.
    pub summary: String,
}

impl ClassReport {
    /// Whether every check of the scenario held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Cycle-budget overhead on a clean run (the < 2 % gate of
/// `BENCH_robustness.json`).
#[derive(Clone, Copy, Debug)]
pub struct OverheadReport {
    /// Measurement rounds (min-of-N on each side).
    pub rounds: usize,
    /// Best worker-summed simulate-stage time with no policy budget.
    pub clean_sim_ms: f64,
    /// Best worker-summed simulate-stage time with a non-tripping
    /// policy cycle budget armed.
    pub armed_sim_ms: f64,
}

impl OverheadReport {
    /// Relative cost of arming the budget, in percent (clamped at 0:
    /// a faster armed run is measurement noise, not a negative cost).
    pub fn overhead_pct(&self) -> f64 {
        if self.clean_sim_ms <= 0.0 {
            return 0.0;
        }
        ((self.armed_sim_ms - self.clean_sim_ms) / self.clean_sim_ms * 100.0).max(0.0)
    }
}

fn suite_inputs() -> Vec<ExperimentInput> {
    suite::spec2006_int()
        .into_iter()
        .take(FAULT_SUITE_SPECS)
        .map(|s| to_experiment_input(quick_spec(s, BenchScale::Quick).build()))
        .collect()
}

/// Builds an engine holding the fault suite (plus an optional victim
/// benchmark appended *after* the suite, so suite job indices match the
/// clean run), returning the flat job list and the suite-only job count.
/// The caller passes the whole policy: no `VANGUARD_*` variable steers a
/// determinism gate.
fn engine_with_suite(
    victim: Option<ExperimentInput>,
    policy: FaultPolicy,
) -> (Engine, Vec<SimJob>, usize) {
    let mut engine = Engine::new();
    engine.set_fault_policy(policy);
    let mut cells = Vec::new();
    for input in suite_inputs() {
        let bench = engine.add_benchmark(input);
        cells.push(SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        });
    }
    let suite_jobs = engine.jobs_for_cells(&cells).len();
    if let Some(v) = victim {
        let bench = engine.add_benchmark(v);
        cells.push(SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        });
    }
    let jobs = engine.jobs_for_cells(&cells);
    (engine, jobs, suite_jobs)
}

fn run_all(engine: &Engine, jobs: &[SimJob]) -> Vec<JobResult> {
    engine.run_jobs(
        jobs,
        &TransformOptions::default(),
        DEFAULT_MAX_PROFILE_STEPS,
    )
}

/// The clean-run reference: per-job [`SimStats`] of the fault suite with
/// no victim and no cycle budget. Every scenario's non-perturbation check
/// compares against this, bitwise.
pub fn clean_suite_stats() -> Vec<SimStats> {
    let (engine, jobs, _) = engine_with_suite(None, FaultPolicy::default());
    run_all(&engine, &jobs)
        .iter()
        .map(|r| r.expect_completed().stats)
        .collect()
}

/// A benchmark that profiles cleanly on TRAIN but commits a load from an
/// unmapped address on REF: the canonical guest-trap victim. The load
/// address comes from `r20`, mapped for TRAIN and wild for REF.
pub fn trap_victim() -> ExperimentInput {
    let mut pb = ProgramBuilder::new();
    let main = pb.block("main");
    pb.push(main, Inst::load(Reg(21), Reg(20), 0));
    pb.push(main, Inst::Halt);
    pb.set_entry(main);
    let program = pb.finish().expect("trap victim is structurally valid");
    let mut train_mem = Memory::new();
    train_mem.map_region(0x1000, 4096);
    ExperimentInput {
        name: "victim-trap".into(),
        program,
        train: RunInput {
            memory: train_mem,
            init_regs: vec![(Reg(20), 0x1000)],
        },
        refs: vec![RunInput {
            memory: Memory::new(),
            init_regs: vec![(Reg(20), 0xdead_0000)],
        }],
        seed: None,
    }
}

/// A benchmark that halts after 64 iterations on TRAIN but spins for
/// 2^64 iterations on REF (`r1` starts at 0 and wraps): the hang victim
/// only a cycle budget can stop.
pub fn hang_victim() -> ExperimentInput {
    let mut pb = ProgramBuilder::new();
    let spin = pb.block("spin");
    let done = pb.block("done");
    pb.push(
        spin,
        Inst::alu(AluOp::Sub, Reg(1), Operand::Reg(Reg(1)), Operand::Imm(1)),
    );
    pb.push(
        spin,
        Inst::Cmp {
            kind: CmpKind::Ne,
            dst: Reg(2),
            a: Reg(1),
            b: Operand::Imm(0),
        },
    );
    pb.push(
        spin,
        Inst::Branch {
            cond: CondKind::Nz,
            src: Reg(2),
            target: spin,
        },
    );
    pb.fallthrough(spin, done);
    pb.push(done, Inst::Halt);
    pb.set_entry(spin);
    let program = pb.finish().expect("hang victim is structurally valid");
    ExperimentInput {
        name: "victim-hang".into(),
        program,
        train: RunInput {
            memory: Memory::new(),
            init_regs: vec![(Reg(1), 64)],
        },
        refs: vec![RunInput {
            memory: Memory::new(),
            init_regs: vec![(Reg(1), 0)],
        }],
        seed: None,
    }
}

fn push_check(checks: &mut Vec<Check>, name: &'static str, passed: bool, detail: String) {
    checks.push(Check {
        name,
        passed,
        detail,
    });
}

/// Bitwise comparison of suite-job statistics against the clean run,
/// reporting the first divergent job.
fn suite_identical(results: &[JobResult], clean: &[SimStats]) -> (bool, String) {
    if results.len() != clean.len() {
        return (
            false,
            format!("{} results vs {} clean jobs", results.len(), clean.len()),
        );
    }
    for (i, (r, c)) in results.iter().zip(clean).enumerate() {
        match r.success() {
            Some(s) if s.stats == *c => {}
            Some(_) => return (false, format!("job {i} stats diverged from the clean run")),
            None => return (false, format!("job {i} did not complete: {r:?}")),
        }
    }
    (true, format!("{} jobs bit-identical", clean.len()))
}

fn guest_trap_class(scratch: &Path, clean: &[SimStats]) -> ClassReport {
    let qdir = scratch.join("quarantine-guest-trap");
    let _ = fs::remove_dir_all(&qdir);
    let policy = FaultPolicy {
        max_cycles: None,
        quarantine_dir: Some(qdir.clone()),
    };
    let (engine, jobs, nsuite) = engine_with_suite(Some(trap_victim()), policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let mut checks = Vec::new();

    push_check(
        &mut checks,
        "suite completes without aborting",
        results.len() == jobs.len(),
        format!("{} of {} jobs reported", results.len(), jobs.len()),
    );
    let victim = &results[nsuite..];
    let all_faulted = victim.iter().all(|r| {
        matches!(
            r,
            JobResult::Faulted {
                trap: SimError::LoadFault { .. },
                ..
            }
        )
    });
    push_check(
        &mut checks,
        "victim jobs fault with a typed load trap",
        all_faulted,
        format!("{victim:?}"),
    );
    let (same, detail) = suite_identical(&results[..nsuite], clean);
    push_check(
        &mut checks,
        "unaffected suite is bit-identical",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "summary counts the faulted jobs",
        stats.jobs_faulted == victim.len() as u64 && stats.summary().contains("faulted"),
        format!("jobs_faulted = {}", stats.jobs_faulted),
    );
    let repro_ok = fs::read_dir(&qdir)
        .map(|entries| {
            entries.flatten().any(|e| {
                e.path().join("repro.txt").is_file() && e.path().join("program.asm").is_file()
            })
        })
        .unwrap_or(false);
    push_check(
        &mut checks,
        "quarantine reproducer written",
        repro_ok,
        qdir.display().to_string(),
    );
    // Replayability: a fresh engine reproduces the identical trap.
    let (replay_engine, replay_jobs, _) = {
        let mut engine = Engine::new();
        engine.set_fault_policy(FaultPolicy::default());
        let bench = engine.add_benchmark(trap_victim());
        let jobs = engine.jobs_for_cells(&[SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }]);
        (engine, jobs, 0usize)
    };
    let replay = run_all(&replay_engine, &replay_jobs);
    let replays = victim.iter().zip(&replay).all(|(a, b)| match (a, b) {
        (
            JobResult::Faulted {
                trap: t1,
                pc: p1,
                cycle: c1,
                ..
            },
            JobResult::Faulted {
                trap: t2,
                pc: p2,
                cycle: c2,
                ..
            },
        ) => t1 == t2 && p1 == p2 && c1 == c2,
        _ => false,
    });
    push_check(
        &mut checks,
        "fault replays deterministically",
        replays,
        format!("{replay:?}"),
    );
    ClassReport {
        class: FaultClass::GuestTrap,
        checks,
        summary: stats.summary(),
    }
}

fn hang_class(clean: &[SimStats]) -> ClassReport {
    // Budget: far above anything a healthy suite job needs, far below
    // the victim's 2^64-iteration spin.
    let budget = clean.iter().map(|s| s.cycles).max().unwrap_or(0) * 4 + 100_000;
    let policy = FaultPolicy {
        max_cycles: Some(budget),
        quarantine_dir: None,
    };
    let (engine, jobs, nsuite) = engine_with_suite(Some(hang_victim()), policy);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let mut checks = Vec::new();

    let victim = &results[nsuite..];
    let timed_out = victim
        .iter()
        .all(|r| matches!(r, JobResult::TimedOut { cycles, .. } if *cycles >= budget));
    push_check(
        &mut checks,
        "watchdog cancels the wedged jobs",
        timed_out,
        format!("budget {budget} cycles; victim outcomes {victim:?}"),
    );
    let (same, detail) = suite_identical(&results[..nsuite], clean);
    push_check(
        &mut checks,
        "armed watchdog does not perturb the suite",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "summary counts the timed-out jobs",
        stats.jobs_timed_out == victim.len() as u64 && stats.summary().contains("timed out"),
        format!("jobs_timed_out = {}", stats.jobs_timed_out),
    );
    ClassReport {
        class: FaultClass::Hang,
        checks,
        summary: stats.summary(),
    }
}

fn worker_panic_class(seed: u64, clean: &[SimStats]) -> ClassReport {
    let (engine, jobs, _) = engine_with_suite(None, FaultPolicy::default());
    let target = (seed as usize) % jobs.len();
    engine.inject_worker_panic(target);
    let results = run_all(&engine, &jobs);
    let stats = engine.stats();
    let mut checks = Vec::new();

    let bench_name = &engine.benchmark(jobs[target].bench).name;
    let typed = matches!(
        &results[target],
        JobResult::Failed { error, .. }
            if matches!(error.kind, ErrorKind::WorkerPanic { .. })
                && error.benchmark.as_ref() == Some(bench_name)
    );
    push_check(
        &mut checks,
        "panicked job fails as a worker panic naming its benchmark",
        typed,
        format!("job {target} ({bench_name}): {:?}", results[target]),
    );
    let (mut others, mut others_clean) = (results.clone(), clean.to_vec());
    others.remove(target);
    others_clean.remove(target);
    let (same, detail) = suite_identical(&others, &others_clean);
    push_check(
        &mut checks,
        "every other job is bit-identical to clean",
        same,
        detail,
    );
    push_check(
        &mut checks,
        "summary counts 1 failed",
        stats.jobs_failed == 1 && stats.summary().contains(" 1 failed"),
        format!("jobs_failed = {}", stats.jobs_failed),
    );
    ClassReport {
        class: FaultClass::WorkerPanic,
        checks,
        summary: stats.summary(),
    }
}

/// Shard counts the kill-and-resume scenario must hold at.
const KILL_RESUME_SHARDS: [usize; 3] = [1, 2, 4];

/// Stages the kill-and-resume class: a quick sweep is run sharded, its
/// worker processes are `SIGKILL`ed after a seed-chosen number of jobs
/// journal, and the sweep is resumed off the journal. At every shard
/// count the contract is the same: the interruption is real (partial
/// journal), the resume completes, no job's side effects ran twice
/// (zero duplicate journal records), and the merged output is
/// byte-identical to an uninterrupted serial single-process run.
///
/// Worker processes are spawned from [`sweep::harness_worker_exe`]:
/// the `faultinject` and `vanguard-sweep` binaries re-exec themselves
/// (both hook [`sweep::maybe_run_worker`]); test harnesses must point
/// `VANGUARD_SWEEP_WORKER_EXE` at the `vanguard-sweep` binary instead
/// (a re-exec'd libtest binary would run the whole test suite).
fn kill_and_resume_class(seed: u64, scratch: &Path) -> ClassReport {
    use crate::sweep::{self, ShardOptions, Sweep, SweepRequest};
    use vanguard_core::Journal;

    let mut checks = Vec::new();
    let mut summary = String::new();
    let report = |checks, summary| ClassReport {
        class: FaultClass::KillAndResume,
        checks,
        summary,
    };
    let worker_exe = match sweep::harness_worker_exe() {
        Ok(exe) => exe,
        Err(e) => {
            push_check(
                &mut checks,
                "worker executable resolves",
                false,
                e.to_string(),
            );
            return report(checks, summary);
        }
    };
    let request = SweepRequest::ci_quick();
    let serial = match serial_reference() {
        Ok(s) => s,
        Err(check) => {
            checks.push(check);
            return report(checks, summary);
        }
    };

    for shards in KILL_RESUME_SHARDS {
        let dir = scratch.join(format!("kill-resume-{shards}"));
        let _ = fs::remove_dir_all(&dir);
        let sweep_run = match Sweep::build(request.clone(), FaultPolicy::default()) {
            Ok(s) => s,
            Err(e) => {
                push_check(&mut checks, "sharded sweep builds", false, e);
                continue;
            }
        };
        let total = sweep_run.plan().len();
        let journal = Journal::new(dir.join("journal.vgj"));
        // Seed-chosen kill point, early enough that in-flight jobs
        // (one per shard, each throttled 40 ms) cannot finish the
        // sweep before the SIGKILL lands.
        let kill_after = 1 + (seed as usize % 2);
        let mut sink = std::io::sink();
        let mut kill_opts = ShardOptions::new(worker_exe.clone(), shards);
        kill_opts.kill_after = Some(kill_after);
        kill_opts.throttle_ms = Some(40);
        let first = sweep::run_sharded(&sweep_run, &journal, &kill_opts, &mut sink);
        let partial = match &first {
            Ok(run) => run.killed && run.completed < total,
            Err(_) => false,
        };
        push_check(
            &mut checks,
            "SIGKILL mid-sweep leaves a partial journal",
            partial,
            format!("shards={shards}: kill after {kill_after} -> {first:?} of {total} jobs"),
        );
        let second = sweep::run_sharded(
            &sweep_run,
            &journal,
            &ShardOptions::new(worker_exe.clone(), shards),
            &mut sink,
        );
        let resumed = matches!(&second, Ok(run) if run.complete());
        push_check(
            &mut checks,
            "resume completes the sweep off the journal",
            resumed,
            format!("shards={shards}: {second:?}"),
        );
        let snapshot = match journal.read() {
            Ok(s) => s,
            Err(e) => {
                push_check(
                    &mut checks,
                    "journal readable after resume",
                    false,
                    format!("shards={shards}: {e}"),
                );
                continue;
            }
        };
        let duplicates = snapshot.duplicate_keys();
        push_check(
            &mut checks,
            "no job ran its side effects twice",
            duplicates.is_empty(),
            format!(
                "shards={shards}: {} records, duplicates {duplicates:?}",
                snapshot.records.len()
            ),
        );
        let merged = sweep_run.merged(&snapshot);
        let identical = merged.as_deref() == Ok(serial.as_str());
        push_check(
            &mut checks,
            "merged output byte-identical to serial run",
            identical,
            match &merged {
                Ok(m) if identical => format!("shards={shards}: {} bytes", m.len()),
                Ok(_) => format!("shards={shards}: merged text diverged from serial"),
                Err(missing) => format!("shards={shards}: merge missing {} jobs", missing.len()),
            },
        );
        let first_completed = first.map(|r| r.completed).unwrap_or(0);
        let _ = writeln!(
            summary,
            "shards={shards}: killed at {first_completed}/{total}, resumed to {}/{total}",
            snapshot.records.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }
    report(checks, summary)
}

/// Builds the serial-reference merged output of the CI quick sweep.
/// Returns `Err(check)` with a failed check when the build fails.
fn serial_reference() -> Result<String, Check> {
    use crate::sweep::{Sweep, SweepRequest};
    match Sweep::build(SweepRequest::ci_quick(), FaultPolicy::default()) {
        Ok(sweep) => Ok(sweep.run_serial()),
        Err(e) => Err(Check {
            name: "serial reference sweep builds",
            passed: false,
            detail: e,
        }),
    }
}

/// Stages one fault class against the suite and checks the containment
/// contract. `scratch` hosts the quarantine and sweep directories
/// (created as needed); `clean` is the [`clean_suite_stats`] reference.
pub fn run_class(class: FaultClass, seed: u64, scratch: &Path, clean: &[SimStats]) -> ClassReport {
    match class {
        FaultClass::GuestTrap => guest_trap_class(scratch, clean),
        FaultClass::Hang => hang_class(clean),
        FaultClass::WorkerPanic => worker_panic_class(seed, clean),
        FaultClass::KillAndResume => kill_and_resume_class(seed, scratch),
    }
}

/// Measures the simulate-stage cost of arming a non-tripping policy
/// cycle budget, min-of-`rounds` per side (the `BENCH_robustness.json`
/// overhead figure).
pub fn measure_overhead(rounds: usize) -> OverheadReport {
    let run_side = |armed: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..rounds.max(1) {
            let policy = FaultPolicy {
                max_cycles: armed.then_some(u64::MAX / 2),
                quarantine_dir: None,
            };
            let (engine, jobs, _) = engine_with_suite(None, policy);
            run_all(&engine, &jobs);
            best = best.min(engine.stats().sim_nanos as f64 / 1e6);
        }
        best
    };
    OverheadReport {
        rounds: rounds.max(1),
        clean_sim_ms: run_side(false),
        armed_sim_ms: run_side(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_roundtrip() {
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::parse(class.name()), Some(class));
        }
        assert_eq!(FaultClass::parse("no-such-class"), None);
    }

    #[test]
    fn victims_are_valid_programs() {
        for victim in [trap_victim(), hang_victim()] {
            assert!(victim.program.validate().is_ok(), "{}", victim.name);
            assert_eq!(victim.refs.len(), 1);
        }
    }

    #[test]
    fn trap_victim_profiles_cleanly_but_faults_on_ref() {
        let mut engine = Engine::new();
        engine.set_fault_policy(FaultPolicy::default());
        let bench = engine.add_benchmark(trap_victim());
        let jobs = engine.jobs_for_cells(&[SweepCell {
            bench,
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        }]);
        let results = run_all(&engine, &jobs);
        assert!(results.iter().all(|r| matches!(
            r,
            JobResult::Faulted {
                trap: SimError::LoadFault { .. },
                ..
            }
        )));
        // The profile stage itself succeeded (the failure is REF-only).
        assert_eq!(engine.stats().profile_misses, 1);
    }
}
