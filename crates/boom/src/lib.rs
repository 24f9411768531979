//! Cycle-level model of a 4-wide out-of-order superscalar main core.
//!
//! This crate substitutes for the SonicBOOM RTL the paper modifies: a
//! trace-driven, deterministic model with the Table-II microarchitecture —
//! 128-entry ROB, 96-entry issue queue, 32-entry LDQ/STQ, 128 physical
//! registers, 2 integer ALUs, 1 FP/mul/div unit, 2 memory units, 1 jump
//! unit, 1 CSR unit, a TAGE branch predictor with BTB and RAS, and the
//! Table-II cache hierarchy.
//!
//! FireGuard attaches at the commit stage through the [`CommitSink`] trait:
//! the sink observes every retired instruction (the paper's data-forwarding
//! channel), may refuse an instruction (back-pressure, which stalls commit),
//! and may steal PRF read ports for the following cycle (the Fig. 2
//! contention when the forwarding channel preempts a read controller).
//!
//! # Examples
//!
//! ```
//! use fireguard_boom::{BoomConfig, Core, NullSink};
//! use fireguard_trace::{TraceGenerator, WorkloadProfile};
//!
//! let trace = TraceGenerator::new(WorkloadProfile::parsec("swaptions").unwrap(), 1);
//! let mut core = Core::new(BoomConfig::default(), trace);
//! let mut sink = NullSink;
//! let stats = core.run_insts(20_000, &mut sink);
//! assert!(stats.ipc() > 0.5 && stats.ipc() <= 4.0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod core;
pub mod predictor;
pub mod sink;
pub mod stats;

pub use crate::core::Core;
pub use config::BoomConfig;
pub use predictor::{Btb, FrontendPredictor, MispredictKind, Ras, Tage};
pub use sink::{CommitSink, NullSink, ThrottleSink};
pub use stats::{CoreStats, StallKind};
