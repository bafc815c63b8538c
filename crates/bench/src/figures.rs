//! Figures 2/3, Figure 14, Table 1, §5.3 sensitivity, §6.1 I$ ablation.

use crate::glue::SuiteEngine;
use vanguard_core::engine::{SimJob, SweepCell, Variant};
use vanguard_core::PredictorKind;
use vanguard_sim::MachineConfig;
use vanguard_workloads::BenchmarkSpec;

/// One point of the Figure 2/3 series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BiasPredPoint {
    /// Rank in the bias-sorted order (0 = most biased).
    pub rank: usize,
    /// Measured bias.
    pub bias: f64,
    /// Measured predictability (profiling-predictor accuracy).
    pub predictability: f64,
    /// Dynamic executions.
    pub executed: u64,
}

/// Regenerates a Figure 2/3 series: the top-`limit` most-executed forward
/// branches pooled across `specs`, profiled with the baseline predictor,
/// sorted by descending bias.
///
/// # Panics
///
/// Panics if a profiling run faults (generated kernels never do).
pub fn fig2_fig3_series(
    eng: &mut SuiteEngine,
    specs: &[BenchmarkSpec],
    limit: usize,
) -> Vec<BiasPredPoint> {
    let mut pool: Vec<(f64, f64, u64)> = Vec::new();
    for spec in specs {
        let profile = eng
            .profile(spec, PredictorKind::Combined24KB)
            .expect("profiling succeeds");
        let id = eng.bench_id(spec);
        let input = eng.engine().benchmark(id);
        // Forward sites only: the loop latch is the one backward branch.
        let cfg = vanguard_ir::Cfg::build(&input.program);
        for (block, stats) in profile.iter() {
            if cfg.branch_direction(&input.program, block)
                != Some(vanguard_ir::BranchDirection::Forward)
            {
                continue;
            }
            pool.push((stats.bias(), stats.predictability(), stats.executed));
        }
    }
    // Top-N by executions, then sort by descending bias (the figures' X).
    pool.sort_by_key(|&(_, _, execs)| std::cmp::Reverse(execs));
    pool.truncate(limit);
    pool.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    pool.into_iter()
        .enumerate()
        .map(|(rank, (bias, predictability, executed))| BiasPredPoint {
            rank,
            bias,
            predictability,
            executed,
        })
        .collect()
}

/// One Figure 14 row: the wrong-path/issue overhead of the transformation.
#[derive(Clone, Debug)]
pub struct IssuedRow {
    /// Benchmark name.
    pub name: String,
    /// % increase in instructions issued (4-wide experimental vs 4-wide
    /// baseline).
    pub increase_pct: f64,
}

/// Regenerates Figure 14. A benchmark with a job that did not complete
/// has no row (see [`SuiteEngine::failed_jobs`]).
pub fn fig14_rows(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<IssuedRow> {
    let cells: Vec<SweepCell> = specs
        .iter()
        .map(|spec| SweepCell {
            bench: eng.bench_id(spec),
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        })
        .collect();
    let outcomes = eng.completed_cells(&cells);
    specs
        .iter()
        .zip(&outcomes)
        .filter_map(|(spec, out)| {
            Some(IssuedRow {
                name: spec.name.clone(),
                increase_pct: out.as_ref()?.issued_increase_pct(),
            })
        })
        .collect()
}

/// One §5.3 sensitivity row.
#[derive(Clone, Debug)]
pub struct SensitivityRow {
    /// Benchmark name.
    pub name: String,
    /// Predictor rung label.
    pub predictor: &'static str,
    /// Baseline misprediction rate (fraction of conditionals).
    pub mispredict_rate: f64,
    /// Speedup % of the transformation over the baseline *with this
    /// predictor* on both sides.
    pub speedup_pct: f64,
}

/// Regenerates the §5.3 predictor-sensitivity sweep for the given
/// benchmarks (the paper uses astar, sjeng, gobmk, mcf) over the full
/// ladder. A (benchmark, rung) pair with a job that did not complete has
/// no row (see [`SuiteEngine::failed_jobs`]).
pub fn sensitivity_rows(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<SensitivityRow> {
    // Flat (benchmark × rung) matrix: every rung's profile + compile +
    // sims run concurrently on the pool.
    let ladder = vanguard_bpred::ladder();
    let cells: Vec<SweepCell> = specs
        .iter()
        .flat_map(|spec| {
            let bench = eng.bench_id(spec);
            ladder.iter().map(move |&rung| SweepCell {
                bench,
                machine: MachineConfig::four_wide(),
                predictor: rung,
            })
        })
        .collect();
    let outcomes = eng.completed_cells(&cells);
    let mut rows = Vec::new();
    for (spec, outs) in specs.iter().zip(outcomes.chunks_exact(ladder.len())) {
        for (rung, out) in ladder.iter().zip(outs) {
            let Some(out) = out else { continue };
            let miss_rate = 1.0
                - out
                    .runs
                    .iter()
                    .map(|r| r.base.prediction_accuracy())
                    .sum::<f64>()
                    / out.runs.len() as f64;
            rows.push(SensitivityRow {
                name: spec.name.clone(),
                predictor: rung.label(),
                mispredict_rate: miss_rate,
                speedup_pct: out.geomean_speedup_pct(),
            });
        }
    }
    rows
}

/// One §6.1 I$-ablation row.
#[derive(Clone, Debug)]
pub struct IcacheAblationRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline cycles with the 32 KB I$.
    pub cycles_32k: u64,
    /// Baseline cycles with the 24 KB I$.
    pub cycles_24k: u64,
    /// Fraction of I$ misses occurring under a misprediction redirect
    /// (32 KB configuration, transformed program).
    pub miss_under_mispredict: f64,
}

impl IcacheAblationRow {
    /// % slowdown from shrinking the I$ by 25%.
    pub fn slowdown_pct(&self) -> f64 {
        if self.cycles_32k == 0 {
            return 0.0;
        }
        (self.cycles_24k as f64 / self.cycles_32k as f64 - 1.0) * 100.0
    }
}

/// Regenerates the §6.1 I$ experiment: transformed programs run on the
/// Table 1 machine and on the 24 KB-I$ variant. A benchmark with a job
/// that did not complete has no row (see [`SuiteEngine::failed_jobs`]).
pub fn icache_ablation(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<IcacheAblationRow> {
    // Only the transformed variant is needed, so this sweep is a raw job
    // list rather than full cells. The two machines differ only in I$
    // size, not width, so they share one cached compiled pair.
    let jobs: Vec<SimJob> = specs
        .iter()
        .flat_map(|spec| {
            let bench = eng.bench_id(spec);
            [
                MachineConfig::four_wide(),
                MachineConfig::four_wide().with_reduced_icache(),
            ]
            .into_iter()
            .map(move |machine| SimJob {
                bench,
                ref_input: 0,
                machine,
                predictor: PredictorKind::Combined24KB,
                variant: Variant::Transformed,
            })
        })
        .collect();
    let results = eng.run_jobs(&jobs);
    specs
        .iter()
        .zip(results.chunks_exact(2))
        .filter_map(|(spec, pair)| {
            let (s32, s24) = (&pair[0].success()?.stats, &pair[1].success()?.stats);
            let total_icache_misses = s32.mem.l1i.misses.max(1);
            Some(IcacheAblationRow {
                name: spec.name.clone(),
                cycles_32k: s32.cycles,
                cycles_24k: s24.cycles,
                miss_under_mispredict: s32.icache_miss_under_mispredict as f64
                    / total_icache_misses as f64,
            })
        })
        .collect()
}

/// Renders Table 1 (the machine configurations) as text.
pub fn table1_text() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let c = MachineConfig::four_wide();
    let _ = writeln!(s, "Key Structures     Configuration Parameters");
    let _ = writeln!(
        s,
        "Bpred              PTLSim default: GShare, 24 KB 3-table direction predictor,"
    );
    let _ = writeln!(
        s,
        "                   4K-entry BTB, 64-entry RAS  ({} direction bits modelled)",
        PredictorKind::Combined24KB.build().storage_bits()
    );
    let _ = writeln!(
        s,
        "Front-End          {} stages, 2/4/8-wide fetch/decode/dispatch, {}-entry FetchBuffer",
        c.fe_depth, c.fetch_buffer
    );
    let _ = writeln!(s, "Execution Ports    2/4/8 (experimentally varied)");
    let _ = writeln!(
        s,
        "Functional Units   up to {}x LD/ST, {}x INT, {}x FP, 1-cycle bypass",
        c.fu_ldst, c.fu_int, c.fu_fp
    );
    let m = c.mem;
    let _ = writeln!(
        s,
        "L1 Caches          {}-way {} KB L1-D$, {}-way {} KB L1-I$, {} B lines, {}-cycle",
        m.l1d.ways,
        m.l1d.size_bytes / 1024,
        m.l1i.ways,
        m.l1i.size_bytes / 1024,
        m.l1d.line_bytes,
        m.l1d.latency
    );
    let _ = writeln!(
        s,
        "L2 Cache           {}-way {} KB unified, {}-cycle",
        m.l2.ways,
        m.l2.size_bytes / 1024,
        m.l2.latency
    );
    let _ = writeln!(
        s,
        "L3 Cache           {}-way {} MB LLC, {}-cycle",
        m.l3.ways,
        m.l3.size_bytes / (1024 * 1024),
        m.l3.latency
    );
    let _ = writeln!(
        s,
        "Miss Handling      {}-entry Miss Buffer, {}-entry Load Fill Request Queue",
        m.miss_buffer, m.lfrq
    );
    let _ = writeln!(s, "Main Memory        {}-cycle latency", m.memory_latency);
    let _ = writeln!(
        s,
        "DBB                {}-entry, 24 bits/entry, 4-bit index (Section 4)",
        c.dbb_entries
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanguard_workloads::suite;

    #[test]
    fn fig2_series_shows_predictability_exceeding_bias() {
        // Two benchmarks are enough to see the shape in a unit test.
        let specs: Vec<_> = suite::spec2006_int().into_iter().take(2).collect();
        let mut eng = SuiteEngine::new(crate::glue::BenchScale::Quick);
        let pts = fig2_fig3_series(&mut eng, &specs, 16);
        assert!(!pts.is_empty());
        // Bias-sorted descending.
        for w in pts.windows(2) {
            assert!(w[0].bias >= w[1].bias - 1e-9);
        }
        // The tail (low-bias) must contain points where predictability
        // clearly exceeds bias — the paper's motivating population.
        let tail_gap = pts
            .iter()
            .rev()
            .take(pts.len() / 2)
            .map(|p| p.predictability - p.bias)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(tail_gap > 0.15, "max tail gap {tail_gap}");
    }

    #[test]
    fn table1_mentions_every_structure() {
        let t = table1_text();
        for needle in ["GShare", "FetchBuffer", "L1-D$", "LLC", "140-cycle", "DBB"] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }
}

#[cfg(test)]
mod harness_tests {
    use super::*;
    use crate::glue::BenchScale;
    use vanguard_workloads::suite;

    fn tiny() -> Vec<BenchmarkSpec> {
        vec![suite::spec2006_int().remove(0)]
    }

    #[test]
    fn fig14_reports_bounded_overhead() {
        let mut eng = SuiteEngine::new(BenchScale::Quick);
        let rows = fig14_rows(&mut eng, &tiny());
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].increase_pct > -5.0 && rows[0].increase_pct < 30.0,
            "issued increase {:.2}%",
            rows[0].increase_pct
        );
    }

    #[test]
    fn sensitivity_covers_the_full_ladder() {
        let mut eng = SuiteEngine::new(BenchScale::Quick);
        let rows = sensitivity_rows(&mut eng, &tiny());
        assert_eq!(rows.len(), vanguard_bpred::ladder().len());
        for r in &rows {
            assert!(r.mispredict_rate >= 0.0 && r.mispredict_rate < 0.5, "{r:?}");
        }
        // The weakest predictor must have the worst miss rate.
        let first = rows.first().unwrap();
        let best = rows
            .iter()
            .map(|r| r.mispredict_rate)
            .fold(f64::INFINITY, f64::min);
        assert!(first.mispredict_rate >= best);
    }

    #[test]
    fn icache_ablation_reports_conjunction_statistic() {
        let mut eng = SuiteEngine::new(BenchScale::Quick);
        let rows = icache_ablation(&mut eng, &tiny());
        // One benchmark, one width: a single compiled pair serves both
        // I$ configurations.
        assert_eq!(eng.engine().stats().compile_misses, 1);
        let r = &rows[0];
        // Tiny kernels: shrinking the I$ cannot slow them down much.
        assert!(
            r.slowdown_pct().abs() < 2.0,
            "slowdown {:.2}%",
            r.slowdown_pct()
        );
        // But the miss-under-mispredict fraction is measurable.
        assert!((0.0..=1.0).contains(&r.miss_under_mispredict));
    }
}
