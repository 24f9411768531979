//! In-order 5-stage analysis-engine (µcore) model with ISAX queue
//! instructions.
//!
//! The paper's analysis engines are RISC-V Rocket cores extended with
//! FIFO-management custom instructions (`count`, `top`, `pop`, `recent`,
//! `push` — Table I) that connect the core to FireGuard's message queues.
//! §III-D describes the key microarchitectural change: Rocket's stock ISAX
//! interface runs custom instructions *post-commit*, blocking the core for
//! 3–13 cycles per instruction; FireGuard moves the interface into the
//! Memory-Access (MA) stage, so a dependent instruction immediately after a
//! queue instruction costs a single bubble.
//!
//! This crate models that µcore as a hazard-accurate in-order interpreter:
//! a scoreboard pipeline with EX/MA/WB forwarding, a 4 KB 2-way data cache
//! with a small TLB (shadow-memory misses are what produce the paper's ASan
//! tail latencies), 32-entry message queues, and both ISAX placements for
//! the ablation study.
//!
//! # Examples
//!
//! ```
//! use fireguard_ucore::{Asm, NullBackend, QueueEntry, Ucore, UcoreConfig};
//!
//! // A kernel that pops a packet and pushes its low word back out.
//! let mut asm = Asm::new();
//! let top = asm.here();
//! asm.qpop(1, 0);     // x1 = packet bits [63:0]
//! asm.qpush(1);       // forward
//! asm.jump(top);      // loop forever
//! let mut ucore = Ucore::new(UcoreConfig::default(), asm.assemble());
//! ucore.input_mut().push(QueueEntry::from_bits(0xABCD)).unwrap();
//! ucore.advance(1_000, &mut NullBackend);
//! assert_eq!(ucore.output_mut().pop().unwrap().bits(), 0xABCD);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod msgq;
pub mod pipeline;
pub mod uisa;

pub use backend::{KernelBackend, NullBackend, SparseMem};
pub use msgq::{MessageQueue, QueueEntry};
pub use pipeline::{Alarm, IsaxMode, Ucore, UcoreConfig, UcoreStats};
pub use uisa::{Asm, Label, UInst, UProgram};
