//! Synthetic PARSEC-like workload generation and attack injection.
//!
//! The paper evaluates FireGuard by booting Linux on FPGA-emulated BOOM cores
//! and running the nine PARSEC `simmedium` workloads. This repository has no
//! FPGA, so the workloads are substituted by a *synthetic trace generator*
//! whose per-benchmark profiles reproduce the properties the evaluation
//! actually depends on: instruction mix (loads/stores drive the analysis
//! packet rate), dependency distances (drive achievable IPC), branch
//! behaviour (drives the TAGE predictor), memory locality and working-set
//! size (drive cache/TLB behaviour on both the main core and the µcores'
//! shadow accesses), and allocation churn (drives the UaF detector).
//!
//! Determinism: generators are seeded; the same seed yields the same trace.
//!
//! # Examples
//!
//! ```
//! use fireguard_trace::{TraceGenerator, WorkloadProfile};
//!
//! let profile = WorkloadProfile::parsec("x264").expect("known workload");
//! let mut generated = TraceGenerator::new(profile, 42);
//! let inst = generated.next().unwrap();
//! assert!(inst.pc != 0);
//! ```

#![forbid(unsafe_code)]

pub mod attack;
pub mod batch;
pub mod codec;
pub mod event;
pub mod gen;
pub mod profile;
pub mod rng;

pub use attack::{AttackKind, AttackPlan, AttackingTrace};
pub use batch::{EventBatch, BATCH_EVENTS};
pub use codec::{read_trace, write_trace, CodecError, EventDecoder, EventEncoder, TraceMeta};
pub use event::{ControlFlow, HeapEvent, TraceInst};
pub use gen::TraceGenerator;
pub use profile::{InstMix, WorkloadProfile, PARSEC_WORKLOADS};
pub use rng::SimRng;

// Re-exported so downstream layers (server, CLI) can label per-class
// telemetry series without a direct `fireguard-isa` dependency.
pub use fireguard_isa::InstClass;
