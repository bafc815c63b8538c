//! The synthetic-benchmark kernel builder.

use crate::model::OutcomeModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vanguard_isa::{
    AluOp, BlockId, CmpKind, CondKind, FpOp, Inst, Memory, Operand, Program, ProgramBuilder, Reg,
};

/// Which suite a benchmark belongs to (Figures 8–13 are split by suite).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 integer.
    Int2006,
    /// SPEC CPU2006 floating point.
    Fp2006,
    /// SPEC CPU2000 integer.
    Int2000,
    /// SPEC CPU2000 floating point.
    Fp2000,
}

/// One forward-branch site of a kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteSpec {
    /// Direction-stream model for this site.
    pub model: OutcomeModel,
}

/// Memory image + initial registers for one run (TRAIN or one REF input).
#[derive(Clone, Debug)]
pub struct WorkloadInput {
    /// Initial data memory.
    pub memory: Memory,
    /// Initial register values (`r1` carries the iteration count).
    pub init_regs: Vec<(Reg, u64)>,
}

/// A generated benchmark: the program plus its TRAIN and REF inputs.
#[derive(Clone, Debug)]
pub struct BuiltWorkload {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: Suite,
    /// The kernel program.
    pub program: Program,
    /// TRAIN input (profiling).
    pub train: WorkloadInput,
    /// REF inputs (evaluation).
    pub refs: Vec<WorkloadInput>,
    /// The spec's master seed (replay handle for failure reports).
    pub seed: u64,
}

/// Structural and behavioural parameters of one synthetic benchmark.
///
/// The fields map onto the paper's Table 2 determinants: `sites` control
/// PBC and MPPKI, `loads_per_block` controls ALPBB/MLP,
/// `hoistable_alu`/`tail_alu` control PHI, `data_footprint` controls D$
/// behaviour, and `cond_depends_on_data` raises branch-resolution stalls
/// (ASPCB).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (e.g. "omnetpp").
    pub name: String,
    /// Suite.
    pub suite: Suite,
    /// Forward-branch sites per loop iteration.
    pub sites: Vec<SiteSpec>,
    /// Loads per successor block (ALPBB proxy, ≤ 6).
    pub loads_per_block: usize,
    /// Levels of *dependent* (pointer-chase) loads appended after the
    /// independent loads (0–2). These lengthen the load-to-use chain the
    /// branch serialises in the baseline — the omnetpp story of Figure 6.
    pub chase_loads: usize,
    /// ALU ops above the store in each successor block (hoistable, ≤ 4).
    pub hoistable_alu: usize,
    /// ALU ops below the store (non-hoistable, ≤ 4).
    pub tail_alu: usize,
    /// FP ops in each join block (≤ 4; FP benchmarks' large blocks).
    pub fp_ops: usize,
    /// Data working-set bytes (power of two; D$ knob).
    pub data_footprint: u64,
    /// Make the branch condition data-dependent on a (possibly missing)
    /// load, lengthening branch resolution.
    pub cond_depends_on_data: bool,
    /// Make the successor blocks' loads depend on the condition chain's
    /// loaded value (mcf-style pointer chasing): hoisting then cannot
    /// overlap them with the resolution, bounding the technique's benefit
    /// exactly as §5.1 describes for mcf/gcc.
    pub succ_depends_on_cond: bool,
    /// REF iterations.
    pub iterations: u64,
    /// TRAIN iterations.
    pub train_iterations: u64,
    /// Number of REF inputs (bias varies per input, Figures 8 vs 9).
    pub ref_inputs: usize,
    /// Per-REF-input bias perturbation (absolute, e.g. 0.05).
    pub bias_jitter: f64,
    /// Route each join block's shared work through a called helper
    /// function (exercises call/return).
    pub use_calls: bool,
    /// Master seed.
    pub seed: u64,
}

/// Condition entries per site (wrap period of each site's direction
/// stream; 4 KB per site in memory).
pub const COND_ENTRIES: usize = 512;
const COND_SITE_BYTES: i64 = (COND_ENTRIES as i64) * 8;
const COND_BASE: i64 = 0x10_0000;
const DATA_BASE: i64 = 0x40_0000;
const OUT_BASE: i64 = 0x90_0000;
// 65 lines: consecutive iterations land on distant, non-adjacent lines so
// successor-block loads are independent misses (the MLP the paper exploits).
const DATA_STRIDE: i64 = 65 * 64;

// Register map (see module docs): r1 counter, r2 latch flag, r3 cond ptr,
// r4 cond value, r5 site flag, r10 data ptr, r11 out ptr, r13/r14 raw
// indices, r15 cond-dependence temp, r18 cond raw offset, r40.. block
// temporaries, r50 accumulator, r52/r53 FP.
const R_COUNT: Reg = Reg(1);
const R_LFLAG: Reg = Reg(2);
const R_CONDP: Reg = Reg(3);
const R_CVAL: Reg = Reg(4);
const R_SFLAG: Reg = Reg(5);
const R_DATAP: Reg = Reg(10);
const R_OUTP: Reg = Reg(11);
const R_DIDX: Reg = Reg(13);
const R_OIDX: Reg = Reg(14);
const R_CDEP: Reg = Reg(15);
const R_CIDX: Reg = Reg(18);
const R_ACC: Reg = Reg(50);
const R_FP_A: Reg = Reg(52);
const R_FP_B: Reg = Reg(53);

impl BenchmarkSpec {
    /// Validates structural limits.
    ///
    /// # Panics
    ///
    /// Panics when a parameter exceeds its documented limit.
    fn check(&self) {
        assert!(!self.sites.is_empty(), "need at least one site");
        assert!(self.sites.len() <= 16, "too many sites");
        assert!(self.loads_per_block >= 1 && self.loads_per_block <= 6);
        assert!(self.chase_loads <= 2);
        // Register-map safety: independent loads use r40..r45, chase levels
        // r36/r37, hoistable ALU r46..r49 — all disjoint by construction.
        assert!(
            !self.succ_depends_on_cond || self.cond_depends_on_data,
            "succ_depends_on_cond requires cond_depends_on_data"
        );
        assert!(self.hoistable_alu <= 4 && self.tail_alu <= 4 && self.fp_ops <= 4);
        assert!(
            self.data_footprint.is_power_of_two() && self.data_footprint >= 4096,
            "footprint must be a power of two ≥ 4 KiB"
        );
        assert!(self.ref_inputs >= 1);
    }

    /// Builds the kernel program and all inputs.
    pub fn build(&self) -> BuiltWorkload {
        self.check();
        let program = self.build_program();
        debug_assert!(program.validate().is_ok());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let train = self.build_input(self.train_iterations, 0.0, &mut rng);
        let refs = (0..self.ref_inputs)
            .map(|i| {
                // Deterministic per-input jitter in [-jitter, +jitter].
                let j = if self.ref_inputs == 1 {
                    0.0
                } else {
                    self.bias_jitter * (2.0 * i as f64 / (self.ref_inputs - 1) as f64 - 1.0)
                };
                self.build_input(self.iterations, j, &mut rng)
            })
            .collect();
        BuiltWorkload {
            name: self.name.clone(),
            suite: self.suite,
            program,
            train,
            refs,
            seed: self.seed,
        }
    }

    fn build_program(&self) -> Program {
        let s_count = self.sites.len();
        let mut b = ProgramBuilder::new();
        let entry = b.block("entry");
        // Create blocks in layout order: head, fall(side 0), taken(side 1),
        // join per site; branch targets are later blocks ⇒ forward.
        let mut heads = Vec::with_capacity(s_count);
        let mut blocks = Vec::with_capacity(s_count);
        for s in 0..s_count {
            let head = b.block(format!("head{s}"));
            let fall = b.block(format!("fall{s}"));
            let taken = b.block(format!("taken{s}"));
            let join = b.block(format!("join{s}"));
            heads.push(head);
            blocks.push((head, fall, taken, join));
        }
        let latch = b.block("latch");
        let exit = b.block("exit");
        // Optional shared helper: join-block work behind a call/return.
        let helper = self.use_calls.then(|| {
            let h = b.block("helper");
            for _ in 0..self.fp_ops {
                b.push(
                    h,
                    Inst::Fp {
                        op: FpOp::Mul,
                        dst: R_FP_A,
                        a: R_FP_A,
                        b: R_FP_B,
                    },
                );
            }
            b.push(
                h,
                Inst::alu(AluOp::Add, R_ACC, Operand::Reg(R_ACC), Operand::Imm(1)),
            );
            b.push(h, Inst::Ret);
            h
        });

        // entry: pointer/constant setup (r1 arrives via init_regs).
        b.push(entry, Inst::mov(R_CONDP, Operand::Imm(COND_BASE)));
        b.push(entry, Inst::mov(R_DATAP, Operand::Imm(DATA_BASE)));
        b.push(entry, Inst::mov(R_OUTP, Operand::Imm(OUT_BASE)));
        b.push(entry, Inst::mov(R_DIDX, Operand::Imm(0)));
        b.push(entry, Inst::mov(R_OIDX, Operand::Imm(0)));
        b.push(entry, Inst::mov(R_CIDX, Operand::Imm(0)));
        b.push(entry, Inst::mov(R_ACC, Operand::Imm(0)));
        b.push(
            entry,
            Inst::mov(R_FP_A, Operand::Imm(1.5f64.to_bits() as i64)),
        );
        b.push(
            entry,
            Inst::mov(R_FP_B, Operand::Imm(1.0000001f64.to_bits() as i64)),
        );
        b.fallthrough(entry, heads[0]);

        for (s, &(head, fall, taken, join)) in blocks.iter().enumerate() {
            // head: load the site's condition word; optionally chain it
            // behind a data load to lengthen branch resolution.
            let site_off = (s as i64) * COND_SITE_BYTES;
            if self.cond_depends_on_data {
                // A data load on its own line: the branch condition is
                // serialised behind a (possibly missing) load, as in mcf.
                let dep_off = (2 * self.loads_per_block as i64) * 64;
                b.push(head, Inst::load(R_CDEP, R_DATAP, dep_off));
                b.push(
                    head,
                    Inst::alu(AluOp::And, R_CDEP, Operand::Reg(R_CDEP), Operand::Imm(0)),
                );
                b.push(
                    head,
                    Inst::alu(
                        AluOp::Add,
                        R_CDEP,
                        Operand::Reg(R_CDEP),
                        Operand::Reg(R_CONDP),
                    ),
                );
                b.push(head, Inst::load(R_CVAL, R_CDEP, site_off));
            } else {
                b.push(head, Inst::load(R_CVAL, R_CONDP, site_off));
            }
            b.push(
                head,
                Inst::Cmp {
                    kind: CmpKind::Ne,
                    dst: R_SFLAG,
                    a: R_CVAL,
                    b: Operand::Imm(0),
                },
            );
            b.push(
                head,
                Inst::Branch {
                    cond: CondKind::Nz,
                    src: R_SFLAG,
                    target: taken,
                },
            );
            b.fallthrough(head, fall);

            // Two successor sides with disjoint load offsets.
            self.emit_side(&mut b, fall, 0, s, 0, join);
            self.emit_side(
                &mut b,
                taken,
                1,
                s,
                (self.loads_per_block as i64) * 64,
                join,
            );

            // join: FP work (inline or behind a call), then on to the next
            // site or the latch.
            let next = if s + 1 < s_count { heads[s + 1] } else { latch };
            if let Some(h) = helper {
                b.push(
                    join,
                    Inst::Call {
                        callee: h,
                        ret_to: next,
                    },
                );
            } else {
                for _ in 0..self.fp_ops {
                    b.push(
                        join,
                        Inst::Fp {
                            op: FpOp::Mul,
                            dst: R_FP_A,
                            a: R_FP_A,
                            b: R_FP_B,
                        },
                    );
                }
                b.fallthrough(join, next);
            }
        }

        // latch: advance wrapped pointers, decrement, loop.
        let cond_mask = COND_SITE_BYTES - 1;
        b.push(
            latch,
            Inst::alu(AluOp::Add, R_CIDX, Operand::Reg(R_CIDX), Operand::Imm(8)),
        );
        b.push(
            latch,
            Inst::alu(
                AluOp::And,
                R_CIDX,
                Operand::Reg(R_CIDX),
                Operand::Imm(cond_mask),
            ),
        );
        b.push(
            latch,
            Inst::alu(
                AluOp::Add,
                R_CONDP,
                Operand::Reg(R_CIDX),
                Operand::Imm(COND_BASE),
            ),
        );
        b.push(
            latch,
            Inst::alu(
                AluOp::Add,
                R_DIDX,
                Operand::Reg(R_DIDX),
                Operand::Imm(DATA_STRIDE),
            ),
        );
        b.push(
            latch,
            Inst::alu(
                AluOp::And,
                R_DIDX,
                Operand::Reg(R_DIDX),
                Operand::Imm((self.data_footprint - 1) as i64),
            ),
        );
        b.push(
            latch,
            Inst::alu(
                AluOp::Add,
                R_DATAP,
                Operand::Reg(R_DIDX),
                Operand::Imm(DATA_BASE),
            ),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Add, R_OIDX, Operand::Reg(R_OIDX), Operand::Imm(64)),
        );
        b.push(
            latch,
            Inst::alu(
                AluOp::And,
                R_OIDX,
                Operand::Reg(R_OIDX),
                Operand::Imm(0xfff),
            ),
        );
        b.push(
            latch,
            Inst::alu(
                AluOp::Add,
                R_OUTP,
                Operand::Reg(R_OIDX),
                Operand::Imm(OUT_BASE),
            ),
        );
        b.push(
            latch,
            Inst::alu(AluOp::Sub, R_COUNT, Operand::Reg(R_COUNT), Operand::Imm(1)),
        );
        b.push(
            latch,
            Inst::Cmp {
                kind: CmpKind::Ne,
                dst: R_LFLAG,
                a: R_COUNT,
                b: Operand::Imm(0),
            },
        );
        b.push(
            latch,
            Inst::Branch {
                cond: CondKind::Nz,
                src: R_LFLAG,
                target: heads[0],
            },
        );
        b.fallthrough(latch, exit);

        // exit: materialise the accumulator so nothing is dead.
        b.push(exit, Inst::store(R_ACC, R_OUTP, 0x800));
        b.push(exit, Inst::Halt);
        b.set_entry(entry);
        b.finish().expect("generated kernel is structurally valid")
    }

    /// One successor block: loads, hoistable ALU, a store, tail ALU.
    fn emit_side(
        &self,
        b: &mut ProgramBuilder,
        block: BlockId,
        side: i64,
        site: usize,
        load_off: i64,
        join: BlockId,
    ) {
        let loads = self.loads_per_block;
        if self.succ_depends_on_cond {
            // Pointer-chase off the condition chain's value: the address
            // is ready only after the (possibly missing) dependence load.
            let addr = Reg(39);
            b.push(
                block,
                Inst::alu(
                    AluOp::And,
                    addr,
                    Operand::Reg(R_CDEP),
                    Operand::Imm((self.data_footprint as i64 - 1) & !7),
                ),
            );
            b.push(
                block,
                Inst::alu(
                    AluOp::Add,
                    addr,
                    Operand::Reg(addr),
                    Operand::Imm(DATA_BASE),
                ),
            );
            for k in 0..loads {
                b.push(
                    block,
                    Inst::load(Reg(40 + k as u8), addr, load_off + (k as i64) * 64),
                );
            }
        } else {
            for k in 0..loads {
                b.push(
                    block,
                    Inst::load(Reg(40 + k as u8), R_DATAP, load_off + (k as i64) * 64),
                );
            }
        }
        let mut val = Reg(40); // last value feeding the store
                               // Pointer-chase levels: each address depends on the previous
                               // loaded value (wrapped into the data region), so the whole chain
                               // serialises behind the branch in the baseline.
        for c in 0..self.chase_loads {
            // r36/r37: disjoint from the independent-load dsts (r40..r45).
            let dst = Reg(36 + c as u8);
            b.push(
                block,
                Inst::alu(
                    AluOp::And,
                    dst,
                    Operand::Reg(val),
                    Operand::Imm((self.data_footprint as i64 - 1) & !7),
                ),
            );
            b.push(
                block,
                Inst::alu(AluOp::Add, dst, Operand::Reg(dst), Operand::Imm(DATA_BASE)),
            );
            b.push(block, Inst::load(dst, dst, 0));
            val = dst;
        }
        for j in 0..self.hoistable_alu {
            let dst = Reg(46 + j as u8);
            let (a, bb) = if j == 0 {
                (
                    Operand::Reg(val),
                    Operand::Reg(Reg(40 + (loads.min(2) - 1) as u8)),
                )
            } else {
                (Operand::Reg(val), Operand::Imm(3 + j as i64))
            };
            b.push(block, Inst::alu(AluOp::Add, dst, a, bb));
            val = dst;
        }
        b.push(
            block,
            Inst::store(val, R_OUTP, (site as i64) * 16 + side * 8),
        );
        for j in 0..self.tail_alu {
            let src = if j == 0 { val } else { R_ACC };
            b.push(
                block,
                Inst::alu(AluOp::Add, R_ACC, Operand::Reg(R_ACC), Operand::Reg(src)),
            );
        }
        b.push(block, Inst::Jump { target: join });
    }

    /// Builds one input: condition arrays per the site models (with bias
    /// jitter), data array values, output mapping, and `r1`.
    fn build_input(&self, iterations: u64, bias_jitter: f64, rng: &mut StdRng) -> WorkloadInput {
        let mut memory = Memory::new();
        for (s, site) in self.sites.iter().enumerate() {
            let model = jitter_model(&site.model, bias_jitter);
            let stream = model.generate(COND_ENTRIES, rng);
            let words: Vec<u64> = stream.into_iter().map(u64::from).collect();
            memory.load_words(
                COND_BASE as u64 + (s as u64) * COND_SITE_BYTES as u64,
                &words,
            );
        }
        // Data region: footprint plus slack for the per-block offsets.
        let slack = (2 * self.loads_per_block as u64 + 2) * 64 + 128;
        let data_words = (self.data_footprint + slack) / 8;
        let span = self.data_footprint.max(1024);
        let data: Vec<u64> = (0..data_words).map(|_| rng.gen_range(0..span)).collect();
        memory.load_words(DATA_BASE as u64, &data);
        memory.map_region(OUT_BASE as u64, 0x1000 + 0x900);
        WorkloadInput {
            memory,
            init_regs: vec![(R_COUNT, iterations)],
        }
    }
}

/// Perturbs a model's bias by `delta`, clamped to the legal range.
fn jitter_model(model: &OutcomeModel, delta: f64) -> OutcomeModel {
    if delta == 0.0 {
        return model.clone();
    }
    match model {
        OutcomeModel::Markov {
            bias,
            predictability,
        } => {
            let b = (bias + delta).clamp(0.5, 0.98);
            OutcomeModel::Markov {
                bias: b,
                predictability: predictability.max(b),
            }
        }
        OutcomeModel::Random { taken_prob } => OutcomeModel::Random {
            taken_prob: (taken_prob + delta).clamp(0.02, 0.98),
        },
        periodic => periodic.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanguard_isa::{Interpreter, StopReason, TakenOracle};

    fn small_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "toy".into(),
            suite: Suite::Int2006,
            sites: vec![
                SiteSpec {
                    model: OutcomeModel::markov(0.6, 0.93),
                },
                SiteSpec {
                    model: OutcomeModel::Random { taken_prob: 0.5 },
                },
            ],
            loads_per_block: 2,
            chase_loads: 0,
            hoistable_alu: 1,
            tail_alu: 1,
            fp_ops: 0,
            data_footprint: 8192,
            cond_depends_on_data: false,
            succ_depends_on_cond: false,
            iterations: 400,
            train_iterations: 300,
            ref_inputs: 2,
            bias_jitter: 0.05,
            use_calls: false,
            seed: 1,
        }
    }

    #[test]
    fn built_program_validates_and_runs() {
        let w = small_spec().build();
        assert!(w.program.validate().is_ok());
        let mut i = Interpreter::new(&w.program, w.refs[0].memory.clone());
        for &(r, v) in &w.refs[0].init_regs {
            i.set_reg(r, v);
        }
        let out = i.run(&mut TakenOracle::AlwaysTaken).unwrap();
        assert_eq!(out.stop, StopReason::Halted);
        // Two branch sites + the loop latch per iteration.
        assert_eq!(out.record.branches, 400 * 3);
    }

    #[test]
    fn train_and_refs_have_independent_streams() {
        let w = small_spec().build();
        assert_eq!(w.refs.len(), 2);
        let a = w.train.memory.read(COND_BASE as u64).unwrap();
        let _ = a; // first words may coincide; compare a window instead
        let window = |m: &Memory| {
            (0..64)
                .map(|k| m.read(COND_BASE as u64 + k * 8).unwrap())
                .collect::<Vec<_>>()
        };
        assert_ne!(window(&w.train.memory), window(&w.refs[0].memory));
        assert_ne!(window(&w.refs[0].memory), window(&w.refs[1].memory));
    }

    #[test]
    fn determinism_per_seed() {
        let a = small_spec().build();
        let b = small_spec().build();
        assert_eq!(a.program, b.program);
        let wa = (0..32)
            .map(|k| a.refs[0].memory.read(COND_BASE as u64 + k * 8))
            .collect::<Vec<_>>();
        let wb = (0..32)
            .map(|k| b.refs[0].memory.read(COND_BASE as u64 + k * 8))
            .collect::<Vec<_>>();
        assert_eq!(wa, wb);
    }

    #[test]
    fn cond_dependence_adds_the_chain() {
        let mut s = small_spec();
        s.cond_depends_on_data = true;
        let w = s.build();
        // head blocks now contain two loads.
        let summary = w.program.static_summary();
        assert!(summary.mnemonics["ld"] >= 2 * 2 + 2 * 2 * 2);
        let mut i = Interpreter::new(&w.program, w.refs[0].memory.clone());
        for &(r, v) in &w.refs[0].init_regs {
            i.set_reg(r, v);
        }
        assert_eq!(
            i.run(&mut TakenOracle::AlwaysNotTaken).unwrap().stop,
            StopReason::Halted
        );
    }

    #[test]
    fn iteration_count_comes_from_init_regs() {
        let w = small_spec().build();
        assert_eq!(w.train.init_regs, vec![(R_COUNT, 300)]);
        assert_eq!(w.refs[0].init_regs, vec![(R_COUNT, 400)]);
    }

    #[test]
    fn fp_ops_emit_fp_instructions() {
        let mut s = small_spec();
        s.fp_ops = 3;
        s.suite = Suite::Fp2006;
        let w = s.build();
        let summary = w.program.static_summary();
        assert_eq!(summary.mnemonics["fmul"], 3 * 2);
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn bad_footprint_rejected() {
        let mut s = small_spec();
        s.data_footprint = 5000;
        s.build();
    }

    #[test]
    fn call_helper_kernels_run_and_return() {
        let mut s = small_spec();
        s.use_calls = true;
        s.fp_ops = 2;
        s.tail_alu = 0; // keep r50 purely helper-driven for the count check
        let w = s.build();
        assert!(w.program.validate().is_ok());
        let summary = w.program.static_summary();
        assert_eq!(summary.mnemonics["call"], 2, "one call per join");
        assert_eq!(summary.mnemonics["ret"], 1);
        let mut i = Interpreter::new(&w.program, w.refs[0].memory.clone());
        for &(r, v) in &w.refs[0].init_regs {
            i.set_reg(r, v);
        }
        let out = i.run(&mut TakenOracle::AlwaysTaken).unwrap();
        assert_eq!(out.stop, StopReason::Halted);
        // The helper accumulator ran once per site per iteration.
        assert_eq!(i.reg(Reg(50)), 2 * 400);
    }
}
