//! RISC-V instruction model shared across the FireGuard simulator.
//!
//! This crate provides the minimal — but real — slice of the RV64 ISA that
//! the FireGuard microarchitecture observes: 32-bit instruction encodings,
//! the opcode/funct3 fields that index the event filter's SRAM mini-filter
//! tables (paper §III-B), instruction classification used by the main-core
//! model and the guardian kernels, and register newtypes.
//!
//! # Examples
//!
//! ```
//! use fireguard_isa::{Instruction, InstClass, FilterIndex};
//!
//! // Encode a `lb x5, 8(x6)` and recover its filter-table index.
//! let inst = Instruction::load(fireguard_isa::MemWidth::B, 5.into(), 6.into(), 8);
//! assert_eq!(inst.opcode(), fireguard_isa::opcode::LOAD);
//! let idx = FilterIndex::of(&inst);
//! assert_eq!(idx.as_usize(), 0x003); // funct3=0 ‖ opcode=0x03, as in the paper
//! assert_eq!(inst.class(), InstClass::Load);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inst;
pub mod kind;
pub mod opcode;
pub mod reg;

pub use inst::{AluOp, BranchCond, Instruction, MemWidth};
pub use kind::InstClass;
pub use opcode::FilterIndex;
pub use reg::{ArchReg, PhysReg};
