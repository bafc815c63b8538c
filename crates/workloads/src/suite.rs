//! Per-benchmark parameter tables for SPEC 2000/2006.
//!
//! Each entry is a synthetic stand-in whose branch population, MLP,
//! hoistability, and cache behaviour are tuned to the paper's own
//! per-benchmark analysis (§5.1, §5.2, Table 2). The absolute numbers of
//! the substitute are not meaningful; the *relations* are — which
//! benchmarks have many qualifying branches, which are D$-bound, which
//! stall at branch resolution — because those are what the paper says
//! determine each benchmark's speedup.
//!
//! Tuning notes (how Table 2 columns map to knobs):
//!
//! * **PBC** — the ratio of qualifying to non-qualifying sites;
//! * **MPPKI** — qualifying sites' predictability plus the number of
//!   `random` (unpredictable) sites;
//! * **ALPBB / MLP** — `loads_per_block`;
//! * **ASPCB** — `cond_depends_on_data` (the branch condition hangs off a
//!   load) combined with the data footprint (how long that load takes);
//! * **PHI** — `hoistable_alu` vs `tail_alu`;
//! * **D$** — `data_footprint` (8–32 KB ⇒ L1-resident, 256 KB ⇒ L2,
//!   ≥ 4 MB ⇒ memory-bound).

use crate::kernel::{BenchmarkSpec, SiteSpec, Suite};
use crate::model::OutcomeModel;

/// Site-population shorthand: `quals` are (bias, predictability) pairs
/// that pass the §5 heuristic; `biased` are high-bias sites (superblock
/// territory, margin < 5%); `random` are unpredictable 50/50 sites.
#[derive(Clone, Copy, Debug)]
struct Pop<'a> {
    quals: &'a [(f64, f64)],
    biased: usize,
    random: usize,
}

impl Pop<'_> {
    fn sites(&self, seed: u64) -> Vec<SiteSpec> {
        let mut v: Vec<SiteSpec> = self
            .quals
            .iter()
            .map(|&(b, p)| SiteSpec {
                model: OutcomeModel::markov(b, p),
            })
            .collect();
        for i in 0..self.biased {
            // High bias with margin < 5%: classic superblock branches.
            let b = 0.93 + 0.01 * ((seed as usize + i) % 4) as f64;
            v.push(SiteSpec {
                model: OutcomeModel::markov(b, (b + 0.02).min(0.995)),
            });
        }
        for _ in 0..self.random {
            v.push(SiteSpec {
                model: OutcomeModel::Random { taken_prob: 0.5 },
            });
        }
        v
    }
}

#[allow(clippy::too_many_arguments)]
fn bm(
    name: &str,
    suite: Suite,
    pop: Pop<'_>,
    loads_per_block: usize,
    hoistable_alu: usize,
    tail_alu: usize,
    fp_ops: usize,
    footprint_kb: u64,
    cond_depends_on_data: bool,
    seed: u64,
) -> BenchmarkSpec {
    let (iterations, train_iterations) = match suite {
        Suite::Int2006 | Suite::Int2000 => (2500, 1500),
        Suite::Fp2006 | Suite::Fp2000 => (2000, 1200),
    };
    BenchmarkSpec {
        name: name.into(),
        suite,
        sites: pop.sites(seed),
        loads_per_block,
        chase_loads: 0,
        hoistable_alu,
        tail_alu,
        fp_ops,
        data_footprint: footprint_kb * 1024,
        cond_depends_on_data,
        succ_depends_on_cond: false,
        iterations,
        train_iterations,
        ref_inputs: 3,
        bias_jitter: 0.06,
        use_calls: false,
        seed,
    }
}

/// The SPEC CPU2006 integer suite (Figure 8/9, upper half of Table 2).
pub fn spec2006_int() -> Vec<BenchmarkSpec> {
    apply_chase(raw_spec2006_int())
}

fn raw_spec2006_int() -> Vec<BenchmarkSpec> {
    use Suite::Int2006 as S;
    let q = |v: &'static [(f64, f64)]| v;
    vec![
        // High performers: many qualifying branches, data-dependent
        // conditions worth overlapping, good MLP, small D$ footprints.
        bm(
            "h264ref",
            S,
            Pop {
                quals: q(&[(0.62, 0.96), (0.58, 0.95), (0.66, 0.97), (0.70, 0.96)]),
                biased: 2,
                random: 1,
            },
            3,
            2,
            1,
            0,
            16,
            true,
            101,
        ),
        bm(
            "perlbench",
            S,
            Pop {
                quals: q(&[(0.60, 0.97), (0.56, 0.96), (0.64, 0.95), (0.68, 0.97)]),
                biased: 3,
                random: 1,
            },
            2,
            2,
            1,
            0,
            8,
            true,
            102,
        ),
        bm(
            "astar",
            S,
            Pop {
                quals: q(&[(0.58, 0.89), (0.55, 0.87), (0.64, 0.91)]),
                biased: 2,
                random: 1,
            },
            3,
            3,
            1,
            0,
            32,
            true,
            103,
        ),
        // Mid: MLP-rich but D$-challenged or mispredict-prone.
        bm(
            "omnetpp",
            S,
            Pop {
                quals: q(&[(0.60, 0.95), (0.57, 0.94)]),
                biased: 4,
                random: 2,
            },
            3,
            2,
            1,
            0,
            512,
            true,
            104,
        ),
        bm(
            "xalancbmk",
            S,
            Pop {
                quals: q(&[(0.61, 0.94), (0.58, 0.92)]),
                biased: 4,
                random: 2,
            },
            3,
            1,
            1,
            0,
            256,
            true,
            105,
        ),
        bm(
            "sjeng",
            S,
            Pop {
                quals: q(&[(0.60, 0.88), (0.63, 0.89)]),
                biased: 3,
                random: 3,
            },
            2,
            2,
            1,
            0,
            16,
            true,
            106,
        ),
        bm(
            "gobmk",
            S,
            Pop {
                quals: q(&[(0.60, 0.90)]),
                biased: 3,
                random: 3,
            },
            2,
            2,
            1,
            0,
            32,
            true,
            107,
        ),
        bm(
            "gcc",
            S,
            Pop {
                quals: q(&[(0.60, 0.93), (0.62, 0.91)]),
                biased: 4,
                random: 2,
            },
            1,
            0,
            2,
            0,
            64,
            true,
            108,
        ),
        bm(
            "mcf",
            S,
            Pop {
                quals: q(&[(0.58, 0.80), (0.61, 0.82)]),
                biased: 4,
                random: 3,
            },
            1,
            1,
            1,
            0,
            8192,
            true,
            109,
        ),
        // Low end: few candidates or little hoistable work.
        bm(
            "bzip2",
            S,
            Pop {
                quals: q(&[(0.60, 0.90)]),
                biased: 4,
                random: 2,
            },
            2,
            1,
            1,
            0,
            64,
            true,
            110,
        ),
        bm(
            "hmmer",
            S,
            Pop {
                quals: q(&[(0.60, 0.98)]),
                biased: 7,
                random: 0,
            },
            3,
            1,
            2,
            0,
            8,
            false,
            111,
        ),
        bm(
            "libquantum",
            S,
            Pop {
                quals: q(&[(0.58, 0.96)]),
                biased: 8,
                random: 0,
            },
            1,
            0,
            2,
            0,
            4096,
            false,
            112,
        ),
    ]
}

/// The SPEC CPU2006 floating-point suite (Figure 12, lower Table 2).
pub fn spec2006_fp() -> Vec<BenchmarkSpec> {
    apply_chase(raw_spec2006_fp())
}

fn raw_spec2006_fp() -> Vec<BenchmarkSpec> {
    use Suite::Fp2006 as S;
    let q = |v: &'static [(f64, f64)]| v;
    vec![
        bm(
            "wrf",
            S,
            Pop {
                quals: q(&[(0.60, 0.97), (0.58, 0.98), (0.64, 0.97)]),
                biased: 4,
                random: 0,
            },
            3,
            3,
            1,
            2,
            64,
            true,
            201,
        ),
        bm(
            "povray",
            S,
            Pop {
                quals: q(&[(0.62, 0.97), (0.59, 0.96), (0.65, 0.97)]),
                biased: 5,
                random: 0,
            },
            2,
            3,
            1,
            2,
            32,
            true,
            202,
        ),
        bm(
            "tonto",
            S,
            Pop {
                quals: q(&[(0.60, 0.96), (0.63, 0.97)]),
                biased: 4,
                random: 0,
            },
            2,
            2,
            1,
            2,
            32,
            true,
            203,
        ),
        bm(
            "gamess",
            S,
            Pop {
                quals: q(&[(0.61, 0.96), (0.58, 0.95)]),
                biased: 3,
                random: 0,
            },
            2,
            2,
            1,
            2,
            16,
            true,
            204,
        ),
        bm(
            "calculix",
            S,
            Pop {
                quals: q(&[(0.60, 0.95), (0.62, 0.96)]),
                biased: 5,
                random: 0,
            },
            2,
            2,
            1,
            2,
            64,
            true,
            205,
        ),
        bm(
            "milc",
            S,
            Pop {
                quals: q(&[(0.59, 0.97), (0.62, 0.96)]),
                biased: 5,
                random: 0,
            },
            3,
            2,
            1,
            3,
            256,
            false,
            206,
        ),
        bm(
            "soplex",
            S,
            Pop {
                quals: q(&[(0.60, 0.95)]),
                biased: 5,
                random: 1,
            },
            2,
            2,
            1,
            2,
            256,
            false,
            207,
        ),
        bm(
            "namd",
            S,
            Pop {
                quals: q(&[(0.61, 0.96)]),
                biased: 5,
                random: 0,
            },
            2,
            2,
            2,
            3,
            32,
            true,
            208,
        ),
        bm(
            "lbm",
            S,
            Pop {
                quals: q(&[(0.60, 0.96)]),
                biased: 5,
                random: 0,
            },
            3,
            1,
            2,
            3,
            1024,
            true,
            209,
        ),
        bm(
            "gromacs",
            S,
            Pop {
                quals: q(&[(0.62, 0.95)]),
                biased: 6,
                random: 0,
            },
            2,
            1,
            2,
            3,
            64,
            false,
            210,
        ),
        bm(
            "sphinx3",
            S,
            Pop {
                quals: q(&[(0.60, 0.95)]),
                biased: 7,
                random: 0,
            },
            2,
            1,
            2,
            2,
            256,
            false,
            211,
        ),
        bm(
            "bwaves",
            S,
            Pop {
                quals: q(&[(0.61, 0.96)]),
                biased: 8,
                random: 0,
            },
            2,
            1,
            2,
            3,
            512,
            false,
            212,
        ),
        bm(
            "GemsFDTD",
            S,
            Pop {
                quals: q(&[(0.60, 0.95)]),
                biased: 9,
                random: 0,
            },
            2,
            1,
            2,
            3,
            512,
            false,
            213,
        ),
        bm(
            "zeusmp",
            S,
            Pop {
                quals: q(&[(0.62, 0.95)]),
                biased: 9,
                random: 0,
            },
            2,
            0,
            2,
            3,
            256,
            false,
            214,
        ),
        bm(
            "dealII",
            S,
            Pop {
                quals: q(&[(0.60, 0.94)]),
                biased: 10,
                random: 0,
            },
            1,
            0,
            2,
            2,
            64,
            false,
            215,
        ),
        bm(
            "cactusADM",
            S,
            Pop {
                quals: q(&[(0.61, 0.94)]),
                biased: 11,
                random: 0,
            },
            1,
            0,
            2,
            3,
            128,
            false,
            216,
        ),
        bm(
            "leslie3d",
            S,
            Pop {
                quals: q(&[(0.60, 0.94)]),
                biased: 11,
                random: 0,
            },
            1,
            0,
            2,
            3,
            256,
            false,
            217,
        ),
    ]
}

/// The SPEC CPU2000 integer suite (Figures 10/11): more predictable and
/// better-behaved cache-wise than its successor.
pub fn spec2000_int() -> Vec<BenchmarkSpec> {
    apply_chase(raw_spec2000_int())
}

fn raw_spec2000_int() -> Vec<BenchmarkSpec> {
    use Suite::Int2000 as S;
    let q = |v: &'static [(f64, f64)]| v;
    vec![
        bm(
            "vortex",
            S,
            Pop {
                quals: q(&[(0.60, 0.97), (0.57, 0.97), (0.66, 0.96), (0.62, 0.97)]),
                biased: 2,
                random: 0,
            },
            3,
            2,
            1,
            0,
            16,
            true,
            301,
        ),
        bm(
            "crafty",
            S,
            Pop {
                quals: q(&[(0.60, 0.95), (0.63, 0.96), (0.58, 0.95)]),
                biased: 3,
                random: 1,
            },
            2,
            2,
            1,
            0,
            16,
            true,
            302,
        ),
        bm(
            "eon",
            S,
            Pop {
                quals: q(&[(0.61, 0.96), (0.59, 0.95), (0.64, 0.96)]),
                biased: 3,
                random: 0,
            },
            2,
            2,
            1,
            0,
            8,
            true,
            303,
        ),
        bm(
            "gap",
            S,
            Pop {
                quals: q(&[(0.60, 0.96), (0.62, 0.95), (0.57, 0.96)]),
                biased: 3,
                random: 1,
            },
            2,
            2,
            1,
            0,
            32,
            true,
            304,
        ),
        bm(
            "parser",
            S,
            Pop {
                quals: q(&[(0.60, 0.95), (0.58, 0.94), (0.63, 0.95)]),
                biased: 3,
                random: 1,
            },
            2,
            2,
            1,
            0,
            32,
            true,
            305,
        ),
        bm(
            "perlbmk",
            S,
            Pop {
                quals: q(&[(0.60, 0.96), (0.64, 0.96)]),
                biased: 3,
                random: 1,
            },
            2,
            2,
            1,
            0,
            16,
            true,
            306,
        ),
        bm(
            "gcc2000",
            S,
            Pop {
                quals: q(&[(0.60, 0.96), (0.62, 0.95)]),
                biased: 4,
                random: 1,
            },
            2,
            1,
            1,
            0,
            64,
            true,
            307,
        ),
        bm(
            "mcf2000",
            S,
            Pop {
                quals: q(&[(0.58, 0.92), (0.61, 0.93)]),
                biased: 4,
                random: 1,
            },
            1,
            1,
            1,
            0,
            4096,
            true,
            308,
        ),
        bm(
            "bzip2_2000",
            S,
            Pop {
                quals: q(&[(0.60, 0.93)]),
                biased: 5,
                random: 1,
            },
            2,
            1,
            1,
            0,
            64,
            true,
            309,
        ),
        bm(
            "gzip",
            S,
            Pop {
                quals: q(&[(0.60, 0.94), (0.62, 0.93), (0.58, 0.94)]),
                biased: 3,
                random: 1,
            },
            2,
            1,
            1,
            0,
            256,
            true,
            310,
        ),
        bm(
            "twolf",
            S,
            Pop {
                quals: q(&[(0.60, 0.92)]),
                biased: 6,
                random: 1,
            },
            2,
            1,
            1,
            0,
            128,
            false,
            311,
        ),
        bm(
            "vpr",
            S,
            Pop {
                quals: q(&[(0.60, 0.92)]),
                biased: 7,
                random: 1,
            },
            2,
            1,
            1,
            0,
            128,
            false,
            312,
        ),
    ]
}

/// The SPEC CPU2000 floating-point suite (Figure 13): very high
/// predictability, few eligible forward branches.
pub fn spec2000_fp() -> Vec<BenchmarkSpec> {
    apply_chase(raw_spec2000_fp())
}

fn raw_spec2000_fp() -> Vec<BenchmarkSpec> {
    use Suite::Fp2000 as S;
    let q = |v: &'static [(f64, f64)]| v;
    vec![
        bm(
            "art",
            S,
            Pop {
                quals: q(&[(0.60, 0.98), (0.62, 0.97)]),
                biased: 8,
                random: 0,
            },
            3,
            2,
            1,
            2,
            256,
            true,
            401,
        ),
        bm(
            "ammp",
            S,
            Pop {
                quals: q(&[(0.60, 0.97), (0.58, 0.97)]),
                biased: 8,
                random: 0,
            },
            2,
            2,
            1,
            2,
            128,
            true,
            402,
        ),
        bm(
            "mesa",
            S,
            Pop {
                quals: q(&[(0.61, 0.97), (0.63, 0.98)]),
                biased: 8,
                random: 0,
            },
            2,
            2,
            1,
            2,
            32,
            true,
            403,
        ),
        bm(
            "wupwise",
            S,
            Pop {
                quals: q(&[(0.60, 0.97)]),
                biased: 6,
                random: 0,
            },
            2,
            2,
            1,
            3,
            64,
            true,
            404,
        ),
        bm(
            "facerec",
            S,
            Pop {
                quals: q(&[(0.61, 0.96)]),
                biased: 6,
                random: 0,
            },
            2,
            1,
            1,
            3,
            128,
            false,
            405,
        ),
        bm(
            "equake",
            S,
            Pop {
                quals: q(&[(0.60, 0.96)]),
                biased: 9,
                random: 0,
            },
            2,
            1,
            2,
            2,
            256,
            false,
            406,
        ),
        bm(
            "apsi",
            S,
            Pop {
                quals: q(&[(0.60, 0.96)]),
                biased: 9,
                random: 0,
            },
            2,
            1,
            2,
            3,
            128,
            false,
            407,
        ),
        bm(
            "applu",
            S,
            Pop {
                quals: q(&[(0.60, 0.95)]),
                biased: 10,
                random: 0,
            },
            2,
            0,
            2,
            3,
            512,
            false,
            408,
        ),
        bm(
            "mgrid",
            S,
            Pop {
                quals: q(&[(0.60, 0.95)]),
                biased: 10,
                random: 0,
            },
            2,
            0,
            2,
            3,
            512,
            false,
            409,
        ),
        bm(
            "swim",
            S,
            Pop {
                quals: q(&[(0.60, 0.95)]),
                biased: 11,
                random: 0,
            },
            2,
            0,
            2,
            3,
            1024,
            false,
            410,
        ),
        bm(
            "lucas",
            S,
            Pop {
                quals: q(&[(0.60, 0.95)]),
                biased: 11,
                random: 0,
            },
            1,
            0,
            2,
            3,
            256,
            false,
            411,
        ),
        bm(
            "fma3d",
            S,
            Pop {
                quals: q(&[(0.60, 0.94)]),
                biased: 11,
                random: 0,
            },
            1,
            0,
            2,
            3,
            128,
            false,
            412,
        ),
        bm(
            "sixtrack",
            S,
            Pop {
                quals: q(&[(0.60, 0.94)]),
                biased: 11,
                random: 0,
            },
            1,
            0,
            2,
            3,
            64,
            false,
            413,
        ),
    ]
}

/// Dependent-load (pointer-chase) depth per benchmark: combined with a
/// data-dependent condition this is what produces the paper's largest
/// wins — a long successor chain hidden entirely under the long branch
/// resolution (the omnetpp example of Figure 6 is exactly this shape).
fn apply_chase(mut specs: Vec<BenchmarkSpec>) -> Vec<BenchmarkSpec> {
    for spec in &mut specs {
        // The four predictor-sensitivity benchmarks (§5.3) get sites whose
        // predictability depends on predictor sophistication: an aliased
        // long-history pattern and a fixed-trip loop branch.
        if ["astar", "sjeng", "gobmk", "mcf"].contains(&spec.name.as_str()) {
            // Unpredictable 50/50 sites would poison *global* history for
            // every site (no history predictor can learn through i.i.d.
            // noise), so these four use patterned hard sites instead:
            // a period-8 pattern only long-history predictors resolve
            // under ~9-way interleaving, and a trip-32 loop branch that
            // only the ISL-TAGE loop predictor captures. Periods divide
            // the 512-entry condition-stream wrap (no seam glitches).
            spec.sites
                .retain(|s| !matches!(s.model, OutcomeModel::Random { .. }));
            spec.sites.push(SiteSpec {
                model: OutcomeModel::Periodic {
                    pattern: vec![true, true, false, true, false, false, true, false],
                },
            });
            spec.sites.push(SiteSpec {
                model: OutcomeModel::loop_trip(32),
            });
        }
        // mcf-style pointer chasing: successor loads hang off the branch
        // condition's own load, so hoisting cannot overlap them (§5.1's
        // explanation of mcf's and libquantum's limited speedups).
        if ["mcf", "mcf2000", "libquantum"].contains(&spec.name.as_str()) {
            spec.cond_depends_on_data = true;
            spec.succ_depends_on_cond = true;
        }
        // Call-heavy programs route join work through a helper function,
        // exercising call/return.
        spec.use_calls = matches!(
            spec.name.as_str(),
            "gamess" | "tonto" | "povray" | "eon" | "perlbmk"
        );
        spec.chase_loads = match spec.name.as_str() {
            "h264ref" | "astar" | "omnetpp" | "wrf" | "vortex" | "art" => 2,
            "perlbench" | "xalancbmk" | "sjeng" | "povray" | "tonto" | "crafty" | "eon" | "gap"
            | "parser" | "perlbmk" | "gzip" | "ammp" | "mesa" | "wupwise" | "gamess"
            | "calculix" | "gobmk" => 1,
            _ => 0,
        };
    }
    specs
}

/// Every benchmark in every suite.
pub fn all_benchmarks() -> Vec<BenchmarkSpec> {
    let mut v = spec2006_int();
    v.extend(spec2006_fp());
    v.extend(spec2000_int());
    v.extend(spec2000_fp());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_the_paper() {
        assert_eq!(spec2006_int().len(), 12);
        assert_eq!(spec2006_fp().len(), 17);
        assert_eq!(spec2000_int().len(), 12);
        assert_eq!(spec2000_fp().len(), 13);
        assert_eq!(all_benchmarks().len(), 54);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all_benchmarks().into_iter().map(|b| b.name).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_benchmark_builds() {
        for spec in all_benchmarks() {
            // Shrink for test speed; structure is what matters here.
            let spec = BenchmarkSpec {
                iterations: 50,
                train_iterations: 30,
                ref_inputs: 1,
                data_footprint: spec.data_footprint.min(64 * 1024),
                ..spec
            };
            let w = spec.build();
            assert!(w.program.validate().is_ok(), "{}", w.name);
            assert_eq!(w.refs.len(), 1);
        }
    }

    #[test]
    fn qualifying_margin_is_respected_by_construction() {
        for spec in all_benchmarks() {
            for site in &spec.sites {
                let b = site.model.nominal_bias();
                let p = site.model.nominal_predictability();
                assert!(p >= b - 1e-9, "{}: pred {p} < bias {b}", spec.name);
            }
        }
    }

    #[test]
    fn int_suites_have_more_random_sites_than_fp() {
        let count_random = |specs: Vec<BenchmarkSpec>| {
            specs
                .iter()
                .flat_map(|s| &s.sites)
                .filter(|s| matches!(s.model, OutcomeModel::Random { .. }))
                .count()
        };
        assert!(count_random(spec2006_int()) > count_random(spec2006_fp()));
    }
}
