//! Speedup sweeps (Figures 8–13) and the Table 2 metric rows.

use crate::glue::SuiteEngine;
use vanguard_core::engine::{PredictorKind, SweepCell};
use vanguard_core::ExperimentOutcome;
use vanguard_sim::MachineConfig;
use vanguard_workloads::BenchmarkSpec;

/// One benchmark's speedups across machine widths.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub name: String,
    /// Geomean speedup % over all REF inputs on 2/4/8-wide.
    pub all_inputs: [f64; 3],
    /// Best-REF-input speedup % on 2/4/8-wide.
    pub best_input: [f64; 3],
}

/// Runs one suite over the three widths (Figures 8–13).
///
/// The whole figure is enumerated as one flat cell matrix (benchmarks ×
/// widths) and executed on the engine's worker pool; profiles are shared
/// across the three widths of each benchmark. A benchmark with a job that
/// did not complete at any width has no row (see
/// [`SuiteEngine::failed_jobs`]).
pub fn suite_speedups(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<SpeedupRow> {
    let cells: Vec<SweepCell> = specs
        .iter()
        .flat_map(|spec| {
            let bench = eng.bench_id(spec);
            MachineConfig::all_widths()
                .into_iter()
                .map(move |machine| SweepCell {
                    bench,
                    machine,
                    predictor: PredictorKind::Combined24KB,
                })
        })
        .collect();
    let outcomes = eng.completed_cells(&cells);
    specs
        .iter()
        .zip(outcomes.chunks_exact(3))
        .filter_map(|(spec, outs)| {
            let mut all = [0.0; 3];
            let mut best = [0.0; 3];
            for (i, out) in outs.iter().enumerate() {
                let out = out.as_ref()?;
                all[i] = out.geomean_speedup_pct();
                best[i] = out.best_speedup_pct();
            }
            Some(SpeedupRow {
                name: spec.name.clone(),
                all_inputs: all,
                best_input: best,
            })
        })
        .collect()
}

/// One Table 2 row (4-wide configuration, the paper's primary point).
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// SPD: % geomean speedup over all REF inputs (4-wide).
    pub spd: f64,
    /// PBC: % of static forward branches converted.
    pub pbc: f64,
    /// PDIH: avg % of dynamic instructions hoisted above converted
    /// branches.
    pub pdih: f64,
    /// ALPBB: average loads per basic block (static, over the kernel).
    pub alpbb: f64,
    /// ASPCB: average stall cycles per converted branch.
    pub aspcb: f64,
    /// PHI: avg % of successor-block instructions that were hoistable.
    pub phi: f64,
    /// MPPKI: branch mispredictions per thousand instructions (baseline).
    pub mppki: f64,
    /// PISCS: % increase in static code size.
    pub piscs: f64,
}

/// Computes the full Table 2 for a set of benchmarks on the 4-wide.
///
/// 4-wide compiled pairs and profiles are shared with any other figure
/// item already run on the same engine. A benchmark with a job that did
/// not complete has no row (see [`SuiteEngine::failed_jobs`]).
pub fn table2_rows(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<Table2Row> {
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
        .zip(&cells)
        .zip(&outcomes)
        .filter_map(|((spec, cell), out)| {
            let alpbb = static_alpbb(&eng.engine().benchmark(cell.bench).program);
            Some(table2_row_from(spec, out.as_ref()?, alpbb))
        })
        .collect()
}

fn table2_row_from(spec: &BenchmarkSpec, out: &ExperimentOutcome, alpbb: f64) -> Table2Row {
    // PHI: hoisted instructions relative to the successor-block work the
    // converted sites exposed.
    let hoisted: usize = out
        .report
        .converted
        .iter()
        .map(|s| s.hoisted_taken + s.hoisted_fallthrough)
        .sum();
    let per_side =
        spec.loads_per_block + 3 * spec.chase_loads + spec.hoistable_alu + 1 + spec.tail_alu;
    let exposed = out.report.converted.len() * 2 * per_side;
    let phi = if exposed == 0 {
        0.0
    } else {
        hoisted as f64 * 100.0 / exposed as f64
    };
    Table2Row {
        name: spec.name.clone(),
        spd: out.geomean_speedup_pct(),
        pbc: out.report.pbc(),
        pdih: out.pdih(),
        alpbb,
        aspcb: out.aspcb(),
        phi,
        mppki: out.mppki(),
        piscs: out.report.piscs(),
    }
}

/// Static average loads per basic block.
fn static_alpbb(program: &vanguard_isa::Program) -> f64 {
    let mut loads = 0usize;
    let mut blocks = 0usize;
    for (_, b) in program.iter() {
        if b.insts().is_empty() {
            continue;
        }
        blocks += 1;
        loads += b
            .insts()
            .iter()
            .filter(|i| matches!(i, vanguard_isa::Inst::Load { .. }))
            .count();
    }
    if blocks == 0 {
        0.0
    } else {
        loads as f64 / blocks as f64
    }
}

/// Renders Table 2 rows as an aligned text table.
pub fn format_table2(rows: &[Table2Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>7} {:>6}",
        "Name", "SPD", "PBC", "PDIH", "ALPBB", "ASPCB", "PHI", "MPPKI", "PISCS"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<12} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>7.1} {:>6.1} {:>7.1} {:>6.1}",
            r.name, r.spd, r.pbc, r.pdih, r.alpbb, r.aspcb, r.phi, r.mppki, r.piscs
        );
    }
    s
}

/// Renders speedup rows (one figure's data) as an aligned text table.
pub fn format_speedups(rows: &[SpeedupRow], best: bool) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>8} {:>8}",
        "Name", "2-wide", "4-wide", "8-wide"
    );
    for r in rows {
        let v = if best { r.best_input } else { r.all_inputs };
        let _ = writeln!(
            s,
            "{:<12} {:>7.1}% {:>7.1}% {:>7.1}%",
            r.name, v[0], v[1], v[2]
        );
    }
    let g: Vec<f64> = (0..3)
        .map(|i| {
            crate::glue::geomean_pct(
                &rows
                    .iter()
                    .map(|r| {
                        if best {
                            r.best_input[i]
                        } else {
                            r.all_inputs[i]
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "{:<12} {:>7.1}% {:>7.1}% {:>7.1}%",
        "GEOMEAN", g[0], g[1], g[2]
    );
    s
}

/// Checks the qualitative shape of the Figure 8 reproduction (SPEC06 INT,
/// all REF inputs) against the paper: the transformation must help on
/// average at every width, and the high-opportunity benchmarks the paper
/// singles out (h264ref, perlbench — long hoistable successor blocks,
/// highly biased forward branches) must beat the low-opportunity ones
/// (hmmer, bzip2, mcf) at the primary 4-wide configuration.
///
/// Returns every violated property, so a CI failure names all the broken
/// invariants at once instead of the first.
pub fn check_fig8_shape(rows: &[SpeedupRow]) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let find = |name: &str| rows.iter().find(|r| r.name == name);

    for (i, width) in ["2-wide", "4-wide", "8-wide"].iter().enumerate() {
        let g = crate::glue::geomean_pct(&rows.iter().map(|r| r.all_inputs[i]).collect::<Vec<_>>());
        if g <= 0.0 || g.is_nan() {
            violations.push(format!(
                "geomean speedup at {width} is {g:.2}% (must be positive)"
            ));
        }
    }

    const HIGH: [&str; 2] = ["h264ref", "perlbench"];
    const LOW: [&str; 3] = ["hmmer", "bzip2", "mcf"];
    for name in HIGH.iter().chain(LOW.iter()) {
        if find(name).is_none() {
            violations.push(format!("benchmark {name} missing from Figure 8 rows"));
        }
    }
    for hi in HIGH {
        for lo in LOW {
            if let (Some(h), Some(l)) = (find(hi), find(lo)) {
                if h.all_inputs[1] <= l.all_inputs[1] {
                    violations.push(format!(
                        "4-wide ordering inverted: {hi} {:.2}% <= {lo} {:.2}%",
                        h.all_inputs[1], l.all_inputs[1]
                    ));
                }
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glue::BenchScale;
    use vanguard_workloads::suite;

    #[test]
    fn one_int_benchmark_produces_a_speedup_row() {
        let specs = vec![suite::spec2006_int().remove(0)]; // h264ref
        let mut eng = SuiteEngine::new(BenchScale::Quick);
        let rows = suite_speedups(&mut eng, &specs);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.name, "h264ref");
        // The flagship benchmark must show a clear 4-wide win.
        assert!(
            r.all_inputs[1] > 2.0,
            "h264ref 4-wide speedup {:.2}%",
            r.all_inputs[1]
        );
        assert!(r.best_input[1] >= r.all_inputs[1] - 1e-9);
    }

    #[test]
    fn table2_row_metrics_are_sane() {
        let specs = vec![suite::spec2006_int().remove(0)];
        let mut eng = SuiteEngine::new(BenchScale::Quick);
        let rows = table2_rows(&mut eng, &specs);
        // Table 2 shares the 4-wide artifacts: exactly one profile and
        // one compiled pair for the single benchmark.
        assert_eq!(eng.engine().stats().profile_misses, 1);
        assert_eq!(eng.engine().stats().compile_misses, 1);
        let r = &rows[0];
        assert!(r.pbc > 30.0 && r.pbc <= 100.0, "PBC {}", r.pbc);
        assert!(r.piscs > 0.0 && r.piscs < 60.0, "PISCS {}", r.piscs);
        assert!(r.phi > 0.0 && r.phi <= 100.0, "PHI {}", r.phi);
        assert!(r.mppki > 0.0, "MPPKI {}", r.mppki);
        assert!(r.alpbb > 0.5, "ALPBB {}", r.alpbb);
        let text = format_table2(&rows);
        assert!(text.contains("h264ref"));
    }

    fn row(name: &str, pct: f64) -> SpeedupRow {
        SpeedupRow {
            name: name.to_string(),
            all_inputs: [pct; 3],
            best_input: [pct; 3],
        }
    }

    #[test]
    fn fig8_shape_accepts_paper_like_rows() {
        let rows = vec![
            row("h264ref", 12.8),
            row("perlbench", 15.0),
            row("mcf", 5.0),
            row("bzip2", 2.2),
            row("hmmer", 2.0),
        ];
        assert!(check_fig8_shape(&rows).is_ok());
    }

    #[test]
    fn fig8_shape_rejects_negative_geomean_and_inverted_ordering() {
        // All speedups negative: three geomean violations plus six
        // ordering inversions (every high <= every low at 4-wide).
        let rows = vec![
            row("h264ref", -3.0),
            row("perlbench", -2.0),
            row("mcf", -1.0),
            row("bzip2", -0.5),
            row("hmmer", -0.2),
        ];
        let violations = check_fig8_shape(&rows).unwrap_err();
        assert!(violations.iter().any(|v| v.contains("must be positive")));
        assert!(violations.iter().any(|v| v.contains("ordering inverted")));
        assert_eq!(violations.len(), 9, "{violations:?}");
    }

    #[test]
    fn fig8_shape_reports_missing_benchmarks() {
        let rows = vec![row("h264ref", 10.0)];
        let violations = check_fig8_shape(&rows).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.contains("perlbench") && v.contains("missing")));
    }
}
