//! Pre-decoded flat program image.
//!
//! A [`crate::Program`] stores instructions as per-block `Vec`s and code
//! addresses as a `Vec<Vec<u64>>` layout table; walking it means two
//! indirections per instruction plus a fall-through chase at every block
//! boundary. The cycle simulator walks a program millions of times per
//! experiment sweep, so [`DecodedImage`] flattens everything once:
//!
//! * one dense `Vec<DecodedInst>` in layout order — each element is
//!   `Copy` and carries the instruction, its code address, its containing
//!   block, and the flat index of its straight-line successor with
//!   empty-block fall-through chains already resolved;
//! * per-block tables for control transfers: the flat entry index
//!   reached when control enters a block, the block's layout start
//!   address (for BTB steer targets), and its immediate fall-through.
//!
//! An image is immutable after [`DecodedImage::build`], so the
//! experiment engine caches one `Arc<DecodedImage>` per compiled program
//! and every simulation of that program shares it. Decoding changes the
//! *representation* only: the sequence of fetched PCs, predictor
//! queries, and executed instructions is exactly the one the nested
//! walk produced, which keeps all figure output bit-identical.

use crate::inst::Inst;
use crate::program::{BlockId, Program};

/// Sentinel flat index: "no instruction" (a block chain with no
/// fall-through, or the successor of a block-ending `halt`).
pub const NO_INST: u32 = u32::MAX;

/// One pre-decoded instruction in a [`DecodedImage`].
#[derive(Clone, Copy, Debug)]
pub struct DecodedInst {
    /// The instruction.
    pub inst: Inst,
    /// Its code address.
    pub pc: u64,
    /// The block that contains it.
    pub block: BlockId,
    /// Its index within that block.
    pub index: u32,
    /// Flat index of the straight-line successor: the next instruction
    /// in the block, or — for the block's last instruction — the entry
    /// of the fall-through chain ([`NO_INST`] when there is none).
    pub next: u32,
}

/// A flat, pre-decoded program image (see the module docs).
#[derive(Clone, Debug)]
pub struct DecodedImage {
    insts: Vec<DecodedInst>,
    /// Per block: flat index of the first instruction executed when
    /// control enters the block (empty blocks chase their fall-through
    /// chain at build time); [`NO_INST`] when the chain dead-ends.
    block_entry: Vec<u32>,
    /// Per block: layout start address (BTB steer targets).
    block_start: Vec<u64>,
    /// Per block: immediate fall-through successor, if any.
    block_fall: Vec<Option<BlockId>>,
    /// Flat index of the program entry.
    entry: u32,
}

impl DecodedImage {
    /// Decodes a validated program into a flat image.
    pub fn build(program: &Program) -> DecodedImage {
        let layout = program.layout();
        let num_blocks = program.num_blocks();
        let mut insts = Vec::with_capacity(program.num_insts());
        let mut first_flat = vec![NO_INST; num_blocks];
        let mut block_start = vec![0u64; num_blocks];
        let mut block_fall = vec![None; num_blocks];

        for &b in program.layout_order() {
            let bb = program.block(b);
            block_start[b.index()] = layout.block_start(b);
            block_fall[b.index()] = bb.fallthrough();
            if bb.insts().is_empty() {
                continue;
            }
            first_flat[b.index()] = insts.len() as u32;
            for (i, &inst) in bb.insts().iter().enumerate() {
                insts.push(DecodedInst {
                    inst,
                    pc: layout.inst_addr(b, i),
                    block: b,
                    index: i as u32,
                    next: insts.len() as u32 + 1, // straight-line; patched below
                });
            }
        }

        // Entry of each block: chase empty-block fall-through chains.
        // The chase is bounded by the block count; a longer chain is a
        // cycle of empty blocks, which no validated program contains.
        let mut block_entry = vec![NO_INST; num_blocks];
        for (b0, entry) in block_entry.iter_mut().enumerate() {
            let mut b = b0;
            for _ in 0..=num_blocks {
                if first_flat[b] != NO_INST {
                    *entry = first_flat[b];
                    break;
                }
                match block_fall[b] {
                    Some(f) => b = f.index(),
                    None => break,
                }
            }
        }

        // Patch each block's last instruction to enter its fall-through
        // chain instead of running off the end of the flat array.
        for &b in program.layout_order() {
            let n = program.block(b).insts().len();
            if n == 0 {
                continue;
            }
            let last = (first_flat[b.index()] + n as u32 - 1) as usize;
            insts[last].next = match block_fall[b.index()] {
                Some(f) => block_entry[f.index()],
                None => NO_INST,
            };
        }

        DecodedImage {
            entry: block_entry[program.entry().index()],
            insts,
            block_entry,
            block_start,
            block_fall,
        }
    }

    /// The decoded instruction at a flat index.
    #[inline]
    pub fn get(&self, idx: u32) -> &DecodedInst {
        &self.insts[idx as usize]
    }

    /// All decoded instructions, in layout order.
    pub fn insts(&self) -> &[DecodedInst] {
        &self.insts
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Flat index of the first executed instruction.
    ///
    /// # Panics
    ///
    /// Panics if the entry block's fall-through chain has no instruction
    /// (the same walk in a nested program representation would panic on
    /// its missing fall-through).
    pub fn entry_index(&self) -> u32 {
        assert!(
            self.entry != NO_INST,
            "validated program: fall-through present"
        );
        self.entry
    }

    /// Flat index reached when control transfers to `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block's fall-through chain dead-ends in an empty
    /// block (mirrors the nested walk's missing-fall-through panic).
    #[inline]
    pub fn block_entry(&self, block: BlockId) -> u32 {
        let e = self.block_entry[block.index()];
        assert!(e != NO_INST, "validated program: fall-through present");
        e
    }

    /// The block's layout start address.
    #[inline]
    pub fn block_start(&self, block: BlockId) -> u64 {
        self.block_start[block.index()]
    }

    /// The block's immediate fall-through successor, if any.
    #[inline]
    pub fn fall_of(&self, block: BlockId) -> Option<BlockId> {
        self.block_fall[block.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Operand};
    use crate::program::ProgramBuilder;
    use crate::reg::Reg;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block("entry");
        let empty = b.block("empty");
        let body = b.block("body");
        b.push(
            e,
            Inst::alu(AluOp::Add, Reg(1), Operand::Imm(1), Operand::Imm(2)),
        );
        b.fallthrough(e, empty);
        b.fallthrough(empty, body);
        b.push(body, Inst::Nop);
        b.push(body, Inst::Halt);
        b.set_entry(e);
        b.finish().unwrap()
    }

    #[test]
    fn flat_walk_matches_nested_walk() {
        let p = sample();
        let img = DecodedImage::build(&p);
        let layout = p.layout();
        assert_eq!(img.len(), p.num_insts());
        // Walk the straight line: addresses and blocks must match the
        // nested representation's walk (empty block skipped).
        let mut idx = img.entry_index();
        let mut seen = Vec::new();
        loop {
            let di = img.get(idx);
            seen.push((di.pc, di.block, di.index));
            if matches!(di.inst, Inst::Halt) {
                break;
            }
            idx = di.next;
        }
        let blocks = p.layout_order();
        let (e, body) = (blocks[0], blocks[2]);
        assert_eq!(
            seen,
            vec![
                (layout.inst_addr(e, 0), e, 0),
                (layout.inst_addr(body, 0), body, 0),
                (layout.inst_addr(body, 1), body, 1),
            ]
        );
    }

    #[test]
    fn block_entry_resolves_empty_chains() {
        let p = sample();
        let img = DecodedImage::build(&p);
        let blocks = p.layout_order().to_vec();
        let (empty, body) = (blocks[1], blocks[2]);
        // Entering the empty block lands on the body's first instruction.
        assert_eq!(img.block_entry(empty), img.block_entry(body));
        assert_eq!(img.get(img.block_entry(empty)).block, body);
    }

    #[test]
    fn block_start_matches_layout() {
        let p = sample();
        let img = DecodedImage::build(&p);
        let layout = p.layout();
        for &b in p.layout_order() {
            assert_eq!(img.block_start(b), layout.block_start(b));
        }
    }

    #[test]
    fn halt_has_no_successor() {
        let p = sample();
        let img = DecodedImage::build(&p);
        let last = img.get(img.len() as u32 - 1);
        assert!(matches!(last.inst, Inst::Halt));
        assert_eq!(last.next, NO_INST);
    }
}
