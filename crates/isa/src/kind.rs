//! Semantic instruction classification.
//!
//! The guardian kernels and the trace generator reason about instructions at
//! the level of *classes* (loads, stores, calls, returns, …) rather than raw
//! encodings. [`InstClass`] is that classification; it is derived from real
//! encodings by [`Instruction::class`](crate::Instruction::class) using the
//! RISC-V ABI conventions (a `jal`/`jalr` writing `ra` is a call; a `jalr`
//! through `ra` discarding its result is a return — the same conventions the
//! return-address-stack hints in the RISC-V spec use).

/// Semantic class of a committed instruction.
///
/// # Examples
///
/// ```
/// use fireguard_isa::{Instruction, InstClass};
/// assert_eq!(Instruction::ret().class(), InstClass::Ret);
/// assert!(InstClass::Ret.is_control_flow());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstClass {
    /// Simple integer ALU operation (1-cycle).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Floating-point computation.
    FpAlu,
    /// Memory load (integer or FP).
    Load,
    /// Memory store (integer or FP).
    Store,
    /// Atomic memory operation.
    Amo,
    /// Conditional branch.
    Branch,
    /// Direct jump that is not a call (`jal` with `rd != ra`).
    Jump,
    /// Indirect jump that is neither call nor return.
    IndirectJump,
    /// Function call (`jal`/`jalr` writing `ra`).
    Call,
    /// Function return (`jalr x0, ra, 0`).
    Ret,
    /// CSR access.
    Csr,
    /// Memory fence.
    Fence,
    /// `ecall`/`ebreak`.
    System,
}

impl InstClass {
    /// All classes, in a stable order (useful for per-class statistics).
    pub const ALL: [InstClass; 15] = [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::IntDiv,
        InstClass::FpAlu,
        InstClass::Load,
        InstClass::Store,
        InstClass::Amo,
        InstClass::Branch,
        InstClass::Jump,
        InstClass::IndirectJump,
        InstClass::Call,
        InstClass::Ret,
        InstClass::Csr,
        InstClass::Fence,
        InstClass::System,
    ];

    /// True for classes that access data memory.
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store | InstClass::Amo)
    }

    /// True for classes that can redirect the program counter.
    pub fn is_control_flow(self) -> bool {
        matches!(
            self,
            InstClass::Branch
                | InstClass::Jump
                | InstClass::IndirectJump
                | InstClass::Call
                | InstClass::Ret
        )
    }

    /// A short lower-case mnemonic-ish name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InstClass::IntAlu => "alu",
            InstClass::IntMul => "mul",
            InstClass::IntDiv => "div",
            InstClass::FpAlu => "fp",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Amo => "amo",
            InstClass::Branch => "branch",
            InstClass::Jump => "jump",
            InstClass::IndirectJump => "ijump",
            InstClass::Call => "call",
            InstClass::Ret => "ret",
            InstClass::Csr => "csr",
            InstClass::Fence => "fence",
            InstClass::System => "system",
        }
    }

    /// Compact dense index for table-driven per-class state.
    pub fn index(self) -> usize {
        match self {
            InstClass::IntAlu => 0,
            InstClass::IntMul => 1,
            InstClass::IntDiv => 2,
            InstClass::FpAlu => 3,
            InstClass::Load => 4,
            InstClass::Store => 5,
            InstClass::Amo => 6,
            InstClass::Branch => 7,
            InstClass::Jump => 8,
            InstClass::IndirectJump => 9,
            InstClass::Call => 10,
            InstClass::Ret => 11,
            InstClass::Csr => 12,
            InstClass::Fence => 13,
            InstClass::System => 14,
        }
    }

    /// Number of distinct classes (for sizing per-class tables).
    pub const COUNT: usize = 15;
}

impl std::fmt::Display for InstClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_classes() {
        assert!(InstClass::Load.is_mem());
        assert!(InstClass::Store.is_mem());
        assert!(InstClass::Amo.is_mem());
        assert!(!InstClass::Branch.is_mem());
        assert!(!InstClass::Call.is_mem());
    }

    #[test]
    fn control_flow_classes() {
        for c in [
            InstClass::Branch,
            InstClass::Jump,
            InstClass::IndirectJump,
            InstClass::Call,
            InstClass::Ret,
        ] {
            assert!(c.is_control_flow(), "{c} should be control flow");
        }
        assert!(!InstClass::Load.is_control_flow());
    }

    #[test]
    fn dense_indices_are_unique_and_in_range() {
        let mut seen = [false; InstClass::COUNT];
        for c in [
            InstClass::IntAlu,
            InstClass::IntMul,
            InstClass::IntDiv,
            InstClass::FpAlu,
            InstClass::Load,
            InstClass::Store,
            InstClass::Amo,
            InstClass::Branch,
            InstClass::Jump,
            InstClass::IndirectJump,
            InstClass::Call,
            InstClass::Ret,
            InstClass::Csr,
            InstClass::Fence,
            InstClass::System,
        ] {
            let i = c.index();
            assert!(i < InstClass::COUNT);
            assert!(!seen[i], "duplicate index for {c}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn names_are_nonempty_and_distinct() {
        let mut names = std::collections::BTreeSet::new();
        for i in 0..InstClass::COUNT {
            let c = *[
                InstClass::IntAlu,
                InstClass::IntMul,
                InstClass::IntDiv,
                InstClass::FpAlu,
                InstClass::Load,
                InstClass::Store,
                InstClass::Amo,
                InstClass::Branch,
                InstClass::Jump,
                InstClass::IndirectJump,
                InstClass::Call,
                InstClass::Ret,
                InstClass::Csr,
                InstClass::Fence,
                InstClass::System,
            ]
            .iter()
            .find(|c| c.index() == i)
            .unwrap();
            assert!(!c.name().is_empty());
            assert!(names.insert(c.name()));
        }
    }
}
