//! Opcodes and opcode classification.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Instruction opcodes of the synthetic ISA.
///
/// The set is deliberately small: it contains exactly the operation classes
/// that the LTRF evaluation is sensitive to — integer/floating-point ALU
/// operations with different latencies, special-function operations,
/// loads/stores to the different memory spaces, synchronization, and control
/// flow. Register-file behaviour depends on the *operands* of instructions,
/// not on the arithmetic they perform, so a richer ISA would not change any
/// result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Opcode {
    /// Integer addition/subtraction/logic (single-cycle class).
    IAlu,
    /// Integer multiplication (longer ALU class).
    IMul,
    /// Single-precision floating-point add/mul (default FP class).
    FAlu,
    /// Fused multiply-add.
    FFma,
    /// Special-function unit operation (rsqrt, sin, exp, ...).
    Sfu,
    /// Register-to-register move.
    Mov,
    /// Predicate-setting comparison.
    SetP,
    /// Load from global memory.
    LoadGlobal,
    /// Load from shared memory.
    LoadShared,
    /// Load from constant memory.
    LoadConst,
    /// Load from local memory.
    LoadLocal,
    /// Store to global memory.
    StoreGlobal,
    /// Store to shared memory.
    StoreShared,
    /// Store to local memory.
    StoreLocal,
    /// Thread-block barrier.
    Barrier,
    /// A no-op placeholder (used for code-size overhead experiments).
    Nop,
}

/// Coarse classification of opcodes used by the timing simulator to pick an
/// execution latency and a functional unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpcodeClass {
    /// Short-latency integer/move/predicate operations.
    SimpleAlu,
    /// Longer-latency integer multiply.
    MulAlu,
    /// Floating-point operations.
    FpAlu,
    /// Special-function unit operations.
    Sfu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Barrier synchronization.
    Barrier,
    /// No operation.
    Nop,
}

impl Opcode {
    /// Returns the coarse class of this opcode.
    #[must_use]
    pub const fn class(self) -> OpcodeClass {
        match self {
            Opcode::IAlu | Opcode::Mov | Opcode::SetP => OpcodeClass::SimpleAlu,
            Opcode::IMul => OpcodeClass::MulAlu,
            Opcode::FAlu | Opcode::FFma => OpcodeClass::FpAlu,
            Opcode::Sfu => OpcodeClass::Sfu,
            Opcode::LoadGlobal | Opcode::LoadShared | Opcode::LoadConst | Opcode::LoadLocal => {
                OpcodeClass::Load
            }
            Opcode::StoreGlobal | Opcode::StoreShared | Opcode::StoreLocal => OpcodeClass::Store,
            Opcode::Barrier => OpcodeClass::Barrier,
            Opcode::Nop => OpcodeClass::Nop,
        }
    }

    /// Returns `true` if this opcode can stall a warp for a long, variable
    /// time (global/local memory accesses and barriers).
    ///
    /// The two-level warp scheduler demotes a warp from the active pool when
    /// it issues one of these operations, exactly as in the paper.
    #[must_use]
    pub const fn is_long_latency(self) -> bool {
        matches!(
            self,
            Opcode::LoadGlobal
                | Opcode::LoadLocal
                | Opcode::StoreGlobal
                | Opcode::StoreLocal
                | Opcode::Barrier
        )
    }

    /// Returns the mnemonic used by the disassembler.
    #[must_use]
    pub(crate) const fn mnemonic(self) -> &'static str {
        match self {
            Opcode::IAlu => "iadd",
            Opcode::IMul => "imul",
            Opcode::FAlu => "fadd",
            Opcode::FFma => "ffma",
            Opcode::Sfu => "sfu",
            Opcode::Mov => "mov",
            Opcode::SetP => "setp",
            Opcode::LoadGlobal => "ld.global",
            Opcode::LoadShared => "ld.shared",
            Opcode::LoadConst => "ld.const",
            Opcode::LoadLocal => "ld.local",
            Opcode::StoreGlobal => "st.global",
            Opcode::StoreShared => "st.shared",
            Opcode::StoreLocal => "st.local",
            Opcode::Barrier => "bar.sync",
            Opcode::Nop => "nop",
        }
    }

    /// All opcodes, useful for exhaustive tests and workload generators.
    #[must_use]
    pub const fn all() -> &'static [Opcode] {
        &[
            Opcode::IAlu,
            Opcode::IMul,
            Opcode::FAlu,
            Opcode::FFma,
            Opcode::Sfu,
            Opcode::Mov,
            Opcode::SetP,
            Opcode::LoadGlobal,
            Opcode::LoadShared,
            Opcode::LoadConst,
            Opcode::LoadLocal,
            Opcode::StoreGlobal,
            Opcode::StoreShared,
            Opcode::StoreLocal,
            Opcode::Barrier,
            Opcode::Nop,
        ]
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_covers_all_opcodes() {
        for &op in Opcode::all() {
            // Loads and stores are exactly the `ld.`/`st.` mnemonics.
            let mnemonic = op.mnemonic();
            assert_eq!(op.class() == OpcodeClass::Load, mnemonic.starts_with("ld."));
            assert_eq!(
                op.class() == OpcodeClass::Store,
                mnemonic.starts_with("st.")
            );
        }
    }

    #[test]
    fn long_latency_classification() {
        assert!(Opcode::LoadGlobal.is_long_latency());
        assert!(Opcode::Barrier.is_long_latency());
        assert!(!Opcode::LoadShared.is_long_latency());
        assert!(!Opcode::FFma.is_long_latency());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
            assert_eq!(op.to_string(), op.mnemonic());
        }
    }
}
