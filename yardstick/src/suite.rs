//! `suite-quick` and `suite-full`: the paper reproduction as
//! `figures all --quick` and the full-scale Figure 8 print it, on
//! seeded inputs, on an engine pinned to [`crate::workers`] workers.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use vanguard_bench::{
    fig14_rows, fig2_fig3_series, format_speedups, format_table2, geomean_pct, icache_ablation,
    sensitivity_rows, suite_speedups, table1_text, table2_rows, BenchScale, SuiteEngine,
};
use vanguard_core::engine::{Engine, PredictorKind, Variant, DEFAULT_MAX_PROFILE_STEPS};
use vanguard_core::{ExperimentInput, TransformKind, TransformOptions};
use vanguard_sim::MachineConfig;
use vanguard_workloads::{suite, BenchmarkSpec};

use crate::jobs::{pool_stats, sim_totals, JobLog};
use crate::json::Obj;
use crate::sample::SampleJob;
use crate::seed::{sample, seeded_spec};
use crate::trace::Tracer;

/// The items of `figures all`, in its order.
const ALL_ITEMS: [&str; 13] = [
    "table1",
    "fig2",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "fig14",
    "sensitivity",
    "icache",
];

fn scale(quick: bool) -> BenchScale {
    if quick {
        BenchScale::Quick
    } else {
        BenchScale::Full
    }
}

fn items(quick: bool) -> &'static [&'static str] {
    if quick {
        &ALL_ITEMS
    } else {
        &ALL_ITEMS[3..4]
    }
}

fn seeded(specs: Vec<BenchmarkSpec>, seed: u64) -> Vec<BenchmarkSpec> {
    specs.into_iter().map(|s| seeded_spec(s, seed)).collect()
}

/// Every kernel the workload's items touch, seeded.
fn all_specs(quick: bool, seed: u64) -> Vec<BenchmarkSpec> {
    let mut specs = suite::spec2006_int();
    if quick {
        specs.extend(suite::spec2006_fp());
        specs.extend(suite::spec2000_int());
        specs.extend(suite::spec2000_fp());
    }
    seeded(specs, seed)
}

/// Bytes of input memory (TRAIN and every REF input) of a registered
/// benchmark.
pub fn input_bytes(input: &ExperimentInput) -> u64 {
    let words: usize = std::iter::once(&input.train)
        .chain(&input.refs)
        .map(|r| r.memory.resident_words())
        .sum();
    words as u64 * 8
}

/// Prints one figure item exactly as the `figures` binary does.
/// Returns the 4-wide Figure 8 geomean when the item is `fig8`.
fn item(eng: &mut SuiteEngine, name: &str, seed: u64, w: &mut String) -> Option<f64> {
    let mut fig8_4w = None;
    match name {
        "table1" => {
            let _ = writeln!(w, "== Table 1: Machine Configuration Parameters ==");
            let _ = writeln!(w, "{}", table1_text());
        }
        "fig2" | "fig3" => {
            let (label, specs) = if name == "fig2" {
                (
                    "Figure 2: SPEC 2006 INT predictability vs bias (top 75 fwd branches)",
                    suite::spec2006_int(),
                )
            } else {
                (
                    "Figure 3: SPEC 2006 FP predictability vs bias (top 75 fwd branches)",
                    suite::spec2006_fp(),
                )
            };
            let _ = writeln!(w, "== {label} ==");
            let _ = writeln!(
                w,
                "{:>4} {:>8} {:>14} {:>10}",
                "rank", "bias", "predictability", "execs"
            );
            for p in fig2_fig3_series(eng, &seeded(specs, seed), 75) {
                let _ = writeln!(
                    w,
                    "{:>4} {:>8.3} {:>14.3} {:>10}",
                    p.rank, p.bias, p.predictability, p.executed
                );
            }
            let _ = writeln!(w);
        }
        "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13" => {
            let (label, specs, best) = match name {
                "fig8" => (
                    "Figure 8: SPEC06 INT speedup, all REF inputs",
                    suite::spec2006_int(),
                    false,
                ),
                "fig9" => (
                    "Figure 9: SPEC06 INT speedup, best REF input",
                    suite::spec2006_int(),
                    true,
                ),
                "fig10" => (
                    "Figure 10: SPEC00 INT speedup, all REF inputs",
                    suite::spec2000_int(),
                    false,
                ),
                "fig11" => (
                    "Figure 11: SPEC00 INT speedup, best REF input",
                    suite::spec2000_int(),
                    true,
                ),
                "fig12" => (
                    "Figure 12: SPEC06 FP speedup, all REF inputs",
                    suite::spec2006_fp(),
                    false,
                ),
                _ => (
                    "Figure 13: SPEC00 FP speedup, all REF inputs",
                    suite::spec2000_fp(),
                    false,
                ),
            };
            let _ = writeln!(w, "== {label} ==");
            let rows = suite_speedups(eng, &seeded(specs, seed));
            let _ = writeln!(w, "{}", format_speedups(&rows, best));
            if name == "fig8" {
                let four: Vec<f64> = rows.iter().map(|r| r.all_inputs[1]).collect();
                fig8_4w = Some(geomean_pct(&four));
            }
        }
        "table2" => {
            let _ = writeln!(
                w,
                "== Table 2: SPEC 2006 INT+FP metrics, 4-wide (sorted by SPD) =="
            );
            let mut specs = suite::spec2006_int();
            specs.extend(suite::spec2006_fp());
            let mut rows = table2_rows(eng, &seeded(specs, seed));
            rows.sort_by(|a, b| b.spd.partial_cmp(&a.spd).unwrap());
            let _ = writeln!(w, "{}", format_table2(&rows));
        }
        "fig14" => {
            let _ = writeln!(
                w,
                "== Figure 14: % increase in instructions issued (4-wide) =="
            );
            let mut specs = suite::spec2006_int();
            specs.extend(suite::spec2006_fp());
            let rows = fig14_rows(eng, &seeded(specs, seed));
            for r in &rows {
                let _ = writeln!(w, "{:<12} {:>6.2}%", r.name, r.increase_pct);
            }
            let avg: f64 = rows.iter().map(|r| r.increase_pct).sum::<f64>() / rows.len() as f64;
            let _ = writeln!(w, "{:<12} {avg:>6.2}%\n", "AVERAGE");
        }
        "sensitivity" => {
            let _ = writeln!(
                w,
                "== Section 5.3: branch-predictor sensitivity (astar/sjeng/gobmk/mcf) =="
            );
            let specs: Vec<_> = suite::spec2006_int()
                .into_iter()
                .filter(|s| ["astar", "sjeng", "gobmk", "mcf"].contains(&s.name.as_str()))
                .collect();
            let _ = writeln!(
                w,
                "{:<8} {:<30} {:>10} {:>9}",
                "bench", "predictor", "missrate", "speedup"
            );
            for r in sensitivity_rows(eng, &seeded(specs, seed)) {
                let _ = writeln!(
                    w,
                    "{:<8} {:<30} {:>9.2}% {:>8.2}%",
                    r.name,
                    r.predictor,
                    r.mispredict_rate * 100.0,
                    r.speedup_pct
                );
            }
            let _ = writeln!(w);
        }
        "icache" => {
            let _ = writeln!(
                w,
                "== Section 6.1: I$ 32KB -> 24KB ablation (transformed code) =="
            );
            let rows = icache_ablation(eng, &seeded(suite::spec2006_int(), seed));
            let _ = writeln!(
                w,
                "{:<12} {:>12} {:>12} {:>10} {:>22}",
                "bench", "cyc(32K)", "cyc(24K)", "slowdown", "I$miss-under-mispred"
            );
            let mut slows = Vec::new();
            for r in &rows {
                let _ = writeln!(
                    w,
                    "{:<12} {:>12} {:>12} {:>9.2}% {:>21.1}%",
                    r.name,
                    r.cycles_32k,
                    r.cycles_24k,
                    r.slowdown_pct(),
                    r.miss_under_mispredict * 100.0
                );
                slows.push(r.slowdown_pct());
            }
            let _ = writeln!(w, "geomean slowdown: {:.2}%\n", geomean_pct(&slows));
        }
        other => unreachable!("unknown item {other}"),
    }
    fig8_4w
}

/// One repetition: builds the seeded inputs (set-up), runs the items,
/// and reports timings, simulated totals and engine counters into
/// `out`. Returns the printed figure text.
pub fn run(quick: bool, seed: u64, tracer: &Arc<Tracer>, root: u64, out: &mut Obj) -> String {
    let started = Instant::now();
    let log = Arc::new(JobLog::new(Arc::clone(tracer)));
    let workers = crate::workers();
    let (mut eng, bytes) = tracer.span(root, 0, "workloads", "build inputs", |_| {
        let mut eng = SuiteEngine::with_workers(scale(quick), workers);
        eng.observe(log.clone());
        let mut bytes = 0;
        for spec in all_specs(quick, seed) {
            let id = eng.bench_id(&spec);
            bytes += input_bytes(eng.engine().benchmark(id));
        }
        (eng, bytes)
    });
    let setup = started.elapsed();

    let mut text = String::new();
    let mut fig8_4w = None;
    for &name in items(quick) {
        tracer.span(root, 0, "harness", name, |id| {
            log.set_phase(id, "vanguard");
            if let Some(g) = item(&mut eng, name, seed, &mut text) {
                fig8_4w = Some(g);
            }
        });
    }
    let wall = started.elapsed();

    let stats = eng.engine().stats();
    let (sites, growth) = transform_totals(eng.engine());
    let done = log.done();
    let speedup = fig8_4w.expect("every suite workload prints Figure 8");
    out.num("wall_s", wall.as_secs_f64())
        .num("setup_s", setup.as_secs_f64())
        .num("workloads.build_ms", setup.as_secs_f64() * 1e3)
        .num("workloads.input_mb", bytes as f64 / 1e6)
        .int("attempted", done.len() as u64 + log.failed())
        .int("failed", log.failed())
        .num("speedup_4w_geomean_pct", speedup)
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
        .int("engine.jobs_retried", log.retried())
        .int("transform.sites_converted", sites)
        .num("transform.code_growth_pct", growth);
    sim_totals(out, &done);
    pool_stats(out, &done, workers);
    text
}

/// Converted sites and static code growth of the Figure 8 kernels (the
/// first ones registered) on the 4-wide; the pairs are cached, so this
/// recompiles nothing.
fn transform_totals(engine: &Engine) -> (u64, f64) {
    let (mut sites, mut before, mut after) = (0u64, 0u64, 0u64);
    let options = TransformOptions::default();
    for id in 0..suite::spec2006_int().len() {
        if let Ok(pair) = engine.compile_pair(
            id,
            PredictorKind::Combined24KB,
            MachineConfig::four_wide(),
            &options,
            DEFAULT_MAX_PROFILE_STEPS,
        ) {
            sites += pair.report.converted.len() as u64;
            before += pair.report.code_bytes_before;
            after += pair.report.code_bytes_after;
        }
    }
    (sites, (after as f64 / before.max(1) as f64 - 1.0) * 100.0)
}

/// `k` seeded jobs of the workload's Figure 8 grid (SPEC INT 2006 × 3
/// widths × REF inputs × baseline/transformed), compiled and ready;
/// `log` sees the profile and compile stages.
pub fn sample_jobs(quick: bool, seed: u64, k: usize, log: &Arc<JobLog>) -> Vec<SampleJob> {
    let mut eng = SuiteEngine::with_workers(scale(quick), 1);
    eng.observe(log.clone());
    let specs = seeded(suite::spec2006_int(), seed);
    let ids: Vec<usize> = specs.iter().map(|s| eng.bench_id(s)).collect();
    let engine = eng.engine();
    let mut universe = Vec::new();
    for &id in &ids {
        for machine in MachineConfig::all_widths() {
            for r in 0..engine.benchmark(id).refs.len() {
                for variant in [Variant::Baseline, Variant::Transformed] {
                    universe.push((id, machine, r, variant));
                }
            }
        }
    }
    let options = TransformOptions::default();
    sample(universe.len(), k, seed)
        .into_iter()
        .map(|i| {
            let (id, machine, r, variant) = universe[i];
            let input = engine.benchmark(id);
            let pair = engine
                .compile_pair(
                    id,
                    PredictorKind::Combined24KB,
                    machine,
                    &options,
                    DEFAULT_MAX_PROFILE_STEPS,
                )
                .expect("suite kernels profile cleanly");
            SampleJob {
                label: format!("{} w{} ref{r} {variant:?}", input.name, machine.width),
                original: Arc::new(input.program.clone()),
                baseline: pair.baseline,
                transformed: pair.transformed,
                kind: TransformKind::Vanguard,
                variant,
                memory: input.refs[r].memory.clone(),
                init_regs: input.refs[r].init_regs.clone(),
                machine,
                predictor: PredictorKind::Combined24KB,
            }
        })
        .collect()
}
