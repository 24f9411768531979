//! Guardian kernels and baselines.
//!
//! The paper evaluates four guardian kernels on FireGuard's analysis
//! engines — a Custom Performance Counter with bounds check (PMC), a shadow
//! stack, AddressSanitizer, and a MineSweeper-style use-after-free detector
//! — plus hardware-accelerator (HA) variants and LLVM-style software
//! baselines. This crate hosts them as **plugins**: every kernel is one
//! self-contained module implementing the [`KernelSpec`] trait, registered
//! in the static [`registry`]. Two further kernels prove the fabric's
//! generality claim: a DIFT taint tracker and an MTE-style lock-and-key
//! memory tagger, both derived purely from the existing deterministic
//! trace events.
//!
//! ## The semantic-at-commit / timing-at-µcore split
//!
//! Analysis *semantics* (shadow-memory poisoning, quarantine membership,
//! shadow-stack contents, taint, memory tags) are evaluated in commit
//! order by each plugin's [`Semantics`] state machine, where they are
//! exact by construction; the resulting per-kernel verdict bits travel
//! inside the packet (see `fireguard_core::packet::layout::VERDICT`).
//! Analysis *timing* is paid on the µcores: each kernel's real µ-program
//! pops packets with the Table I instructions, touches its data
//! structures through the µcore's 4 KB D$ and TLB (shadow bytes,
//! quarantine buckets, shadow-stack slots, tag memory), branches on the
//! verdict, and raises alarms. This keeps detection exact under the
//! mapper's out-of-order engine interleavings while charging
//! cycle-accurate costs — including the shadow-memory misses behind the
//! paper's ASan tail latencies.

#![forbid(unsafe_code)]

pub mod ha;
pub mod kernel;
pub mod plugins;
pub mod programs;
pub mod semantics;
pub mod software;
pub mod spec;

pub use ha::HardwareAccelerator;
pub use kernel::{GuardianKernel, ProgrammingModel, SharedTiming};
pub use semantics::Semantics;
pub use software::{InstrumentedTrace, SoftwareScheme};
pub use spec::{canonical_names, parse as parse_kernel_name, registry, KernelId, KernelSpec};
