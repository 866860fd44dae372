//! Instructions with explicit register operands and dead-operand bits.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ArchReg, Opcode, RegSet};

/// A single static instruction.
///
/// An instruction has at most one destination register, up to four source
/// registers, and a *dead-operand mask*. The dead-operand mask mirrors the
/// "dead operand bit" of the paper's LTRF+ design: bit *i* set means that
/// source operand *i* is dead after this instruction executes, so the
/// register-file cache need not write it back to the main register file.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instruction {
    opcode: Opcode,
    dst: Option<ArchReg>,
    srcs: Vec<ArchReg>,
    dead_mask: u8,
}

impl Instruction {
    /// Maximum number of source operands an instruction may carry.
    pub const MAX_SOURCES: usize = 4;

    /// Creates an instruction.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Self::MAX_SOURCES`] source operands are given.
    #[must_use]
    pub fn new(opcode: Opcode, dst: Option<ArchReg>, srcs: &[ArchReg]) -> Self {
        assert!(
            srcs.len() <= Self::MAX_SOURCES,
            "instruction has {} sources, max is {}",
            srcs.len(),
            Self::MAX_SOURCES
        );
        Instruction {
            opcode,
            dst,
            srcs: srcs.to_vec(),
            dead_mask: 0,
        }
    }

    /// Returns the opcode.
    #[must_use]
    pub const fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// Returns the destination register, if any.
    #[must_use]
    pub const fn dst(&self) -> Option<ArchReg> {
        self.dst
    }

    /// Returns the source registers.
    #[must_use]
    pub fn srcs(&self) -> &[ArchReg] {
        &self.srcs
    }

    /// Returns the dead-operand mask (bit *i* ↔ source *i* dead afterwards).
    #[must_use]
    pub const fn dead_mask(&self) -> u8 {
        self.dead_mask
    }

    /// Sets the dead-operand mask. Used by the liveness pass in
    /// `ltrf-compiler`, which computes the bits after the kernel is built.
    pub fn set_dead_mask(&mut self, mask: u8) {
        self.dead_mask = mask;
    }

    /// Returns `true` if source operand `i` is dead after this instruction.
    #[must_use]
    pub fn is_src_dead(&self, i: usize) -> bool {
        i < self.srcs.len() && self.dead_mask & (1 << i) != 0
    }

    /// Returns the set of registers read by this instruction.
    #[must_use]
    pub fn reads(&self) -> RegSet {
        self.srcs.iter().copied().collect()
    }

    /// Returns the set of registers written by this instruction.
    #[must_use]
    pub fn writes(&self) -> RegSet {
        self.dst.into_iter().collect()
    }

    /// Returns the set of all registers touched (read or written).
    #[must_use]
    pub fn touched(&self) -> RegSet {
        self.reads().union(&self.writes())
    }

    /// Returns the registers whose last use is this instruction, according to
    /// the dead-operand mask.
    #[must_use]
    pub fn dying_registers(&self) -> RegSet {
        let mut set = RegSet::new();
        for (i, &src) in self.srcs.iter().enumerate() {
            if self.dead_mask & (1 << i) != 0 {
                set.insert(src);
            }
        }
        set
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        let mut first = true;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
            first = false;
        }
        for (i, s) in self.srcs.iter().enumerate() {
            if first {
                write!(f, " {s}")?;
                first = false;
            } else {
                write!(f, ", {s}")?;
            }
            if self.is_src_dead(i) {
                write!(f, "†")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn basic_accessors() {
        let i = Instruction::new(Opcode::FFma, Some(r(3)), &[r(1), r(2), r(3)]);
        assert_eq!(i.opcode(), Opcode::FFma);
        assert_eq!(i.dst(), Some(r(3)));
        assert_eq!(i.srcs(), &[r(1), r(2), r(3)]);
        assert_eq!(i.dead_mask(), 0);
    }

    #[test]
    #[should_panic(expected = "max is 4")]
    fn too_many_sources_panics() {
        let _ = Instruction::new(Opcode::IAlu, None, &[r(0), r(1), r(2), r(3), r(4)]);
    }

    #[test]
    fn read_write_touch_sets() {
        let i = Instruction::new(Opcode::IAlu, Some(r(5)), &[r(1), r(2)]);
        assert_eq!(i.reads().len(), 2);
        assert_eq!(i.writes().to_vec(), vec![r(5)]);
        assert_eq!(i.touched().len(), 3);
        let store = Instruction::new(Opcode::StoreGlobal, None, &[r(0), r(9)]);
        assert!(store.writes().is_empty());
        assert_eq!(store.reads().len(), 2);
    }

    #[test]
    fn dead_mask_and_dying_registers() {
        let mut i = Instruction::new(Opcode::FAlu, Some(r(4)), &[r(1), r(2)]);
        i.set_dead_mask(0b10);
        assert!(!i.is_src_dead(0));
        assert!(i.is_src_dead(1));
        assert_eq!(i.dying_registers().to_vec(), vec![r(2)]);
        i.set_dead_mask(0b01);
        assert_eq!(i.dying_registers().to_vec(), vec![r(1)]);
        // out-of-range operand index is never dead
        assert!(!i.is_src_dead(7));
    }

    #[test]
    fn duplicate_source_counts_once_for_ports() {
        let i = Instruction::new(Opcode::FAlu, Some(r(4)), &[r(1), r(1)]);
        assert_eq!(i.reads().len(), 1);
    }

    #[test]
    fn display_marks_dead_operands() {
        let mut i = Instruction::new(Opcode::FAlu, Some(r(4)), &[r(1), r(2)]);
        i.set_dead_mask(0b10);
        let s = i.to_string();
        assert!(s.starts_with("fadd r4, r1"));
        assert!(s.contains("r2†"));
        let nop = Instruction::new(Opcode::Nop, None, &[]);
        assert_eq!(nop.to_string(), "nop");
    }
}
