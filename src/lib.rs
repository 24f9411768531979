//! # FireGuard — a full-system reproduction in Rust
//!
//! This crate is the facade over a workspace that reproduces *FireGuard: A
//! Generalized Microarchitecture for Fine-Grained Security Analysis on OoO
//! Superscalar Cores* (DAC 2025) as a deterministic cycle-level simulator.
//!
//! The paper builds programmable instruction analysis into a real RISC-V
//! SonicBOOM core: commit-stage taps feed an SRAM-based superscalar event
//! filter, a broadcast-free mapper routes packets across a clock-domain
//! crossing to a sea of Rocket µcores running *guardian kernels*. This
//! workspace implements every one of those systems as a model crate and
//! regenerates every table and figure of the paper's evaluation. The
//! kernel layer is an open plugin registry
//! ([`kernels::registry`]): the paper's four kernels (PMC, shadow stack,
//! AddressSanitizer, use-after-free detection) plus a DIFT taint tracker
//! and an MTE-style lock-and-key tagger, each one self-contained module
//! implementing [`kernels::KernelSpec`].
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`isa`] | `fireguard-isa` | RV64 encodings, filter indexing |
//! | [`mem`] | `fireguard-mem` | caches, MSHRs, TLBs |
//! | [`trace`] | `fireguard-trace` | synthetic PARSEC workloads, attacks |
//! | [`boom`] | `fireguard-boom` | 4-wide OoO main-core model |
//! | [`ucore`] | `fireguard-ucore` | Rocket-like analysis engines + ISAX |
//! | [`noc`] | `fireguard-noc` | Manhattan-grid NoC |
//! | [`core_`] | `fireguard-core` | **the paper's contribution**: DFC, filter, mapper |
//! | [`kernels`] | `fireguard-kernels` | guardian-kernel plugin registry + software baselines |
//! | [`soc`] | `fireguard-soc` | full-system integration + experiments |
//! | [`server`] | `fireguard-server` | online streaming analysis service + trace replay clients |
//! | [`telemetry`] | `fireguard-telemetry` | engine counters, span tracing, metrics exposition |
//! | [`area`] | `fireguard-area` | Table III / §IV-F area model |
//!
//! ## Quickstart
//!
//! ```
//! use fireguard::soc::{run_fireguard, ExperimentConfig};
//! use fireguard::kernels::KernelId;
//!
//! let cfg = ExperimentConfig::new("swaptions")
//!     .kernel(KernelId::SHADOW_STACK, 4)
//!     .insts(20_000);
//! let result = run_fireguard(&cfg);
//! assert!(result.slowdown < 1.2);
//! ```

#![forbid(unsafe_code)]

pub use fireguard_area as area;
pub use fireguard_boom as boom;
pub use fireguard_core as core_;
pub use fireguard_isa as isa;
pub use fireguard_kernels as kernels;
pub use fireguard_mem as mem;
pub use fireguard_noc as noc;
pub use fireguard_server as server;
pub use fireguard_soc as soc;
pub use fireguard_telemetry as telemetry;
pub use fireguard_trace as trace;
pub use fireguard_ucore as ucore;
