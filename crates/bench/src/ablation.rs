//! The transform-pass ablation: head-to-head cells over the quick or
//! full suite, one column per [`TransformKind`].
//!
//! Every cell is (benchmark × 4-wide × Combined24KB × kind); the
//! baseline of every pair is identical (PGO layout + scheduling, no
//! transformation), so each column's speedup is directly comparable:
//! `vanguard` is the paper's §3 decomposition, `meld` the Li et al.
//! if-conversion rival, `shadow` the Pepi et al. decode-time exposure
//! model (decomposition with zero code motion), and `stacked` the
//! vanguard ∘ meld composition. Profiles are shared across all four
//! columns of a benchmark (the profile key is transform-independent);
//! compiled pairs are keyed per variant and can never collide.

use crate::glue::SuiteEngine;
use vanguard_core::engine::{PredictorKind, SweepCell};
use vanguard_core::{TransformKind, TransformOptions};
use vanguard_sim::MachineConfig;
use vanguard_workloads::BenchmarkSpec;

/// One benchmark's row of the ablation table, indexed like
/// [`TransformKind::ALL`].
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: String,
    /// Geomean speedup % over all REF inputs on the 4-wide, per kind.
    pub speedup_pct: [f64; 4],
    /// Static sites changed per kind: converted branch sites for the
    /// decomposing passes, melded hammocks for meld, both for stacked.
    pub sites: [usize; 4],
}

/// Runs the head-to-head ablation over `specs` on the 4-wide machine. A
/// benchmark with a job that did not complete under any pass has no row
/// (see [`SuiteEngine::failed_jobs`]).
pub fn ablation_rows(eng: &mut SuiteEngine, specs: &[BenchmarkSpec]) -> Vec<AblationRow> {
    let cells: Vec<SweepCell> = specs
        .iter()
        .map(|spec| SweepCell {
            bench: eng.bench_id(spec),
            machine: MachineConfig::four_wide(),
            predictor: PredictorKind::Combined24KB,
        })
        .collect();
    let mut rows: Vec<Option<AblationRow>> = specs
        .iter()
        .map(|spec| {
            Some(AblationRow {
                name: spec.name.clone(),
                speedup_pct: [0.0; 4],
                sites: [0; 4],
            })
        })
        .collect();
    for (k, kind) in TransformKind::ALL.into_iter().enumerate() {
        let options = TransformOptions {
            kind,
            ..TransformOptions::default()
        };
        let outcomes = eng.completed_cells_with(&cells, &options);
        for (slot, out) in rows.iter_mut().zip(outcomes) {
            match (slot.as_mut(), out) {
                (Some(row), Some(out)) => {
                    row.speedup_pct[k] = out.geomean_speedup_pct();
                    row.sites[k] = out.report.converted.len() + out.report.melded;
                }
                _ => *slot = None,
            }
        }
    }
    rows.into_iter().flatten().collect()
}

/// Renders the ablation rows as an aligned text table with a GEOMEAN
/// line (speedup % per column; site counts in parentheses).
pub fn format_ablation(rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>14} {:>14} {:>14} {:>14}",
        "Name", "vanguard", "meld", "shadow", "stacked"
    );
    for r in rows {
        let _ = write!(s, "{:<12}", r.name);
        for k in 0..4 {
            let _ = write!(s, " {:>7.1}% ({:>3})", r.speedup_pct[k], r.sites[k]);
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "{:<12}", "GEOMEAN");
    for k in 0..4 {
        let g =
            crate::glue::geomean_pct(&rows.iter().map(|r| r.speedup_pct[k]).collect::<Vec<_>>());
        let _ = write!(s, " {:>7.1}% {:>5}", g, "");
    }
    let _ = writeln!(s);
    s
}

/// Checks the qualitative shape of the ablation against the papers'
/// claims on this suite (predictable-unbiased branch mix):
///
/// * the vanguard geomean beats the meld geomean (the suite's sites are
///   *predictable*; if-converting them wastes fetch bandwidth and buys
///   no misprediction win);
/// * vanguard also beats shadow (early redirect alone, with no hoisted
///   MLP, captures only part of the win);
/// * every decomposing column (vanguard, shadow, stacked) converts at
///   least one site on every benchmark.
///
/// Returns every violated property.
pub fn check_ablation_shape(rows: &[AblationRow]) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let geo = |k: usize| {
        crate::glue::geomean_pct(&rows.iter().map(|r| r.speedup_pct[k]).collect::<Vec<_>>())
    };
    let (vanguard, meld, shadow) = (geo(0), geo(1), geo(2));
    if vanguard <= meld {
        violations.push(format!(
            "vanguard geomean {vanguard:.2}% <= meld geomean {meld:.2}% on a \
             predictable-biased suite"
        ));
    }
    if vanguard <= shadow {
        violations.push(format!(
            "vanguard geomean {vanguard:.2}% <= shadow geomean {shadow:.2}% (hoisting \
             must add speedup over early redirect alone)"
        ));
    }
    for r in rows {
        for (k, label) in [(0usize, "vanguard"), (2, "shadow"), (3, "stacked")] {
            if r.sites[k] == 0 {
                violations.push(format!("{}: {label} converted no sites", r.name));
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}
