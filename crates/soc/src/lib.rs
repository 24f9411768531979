//! Full-system FireGuard integration: the BOOM main core, the commit-stage
//! frontend (filter + allocator), the clock-domain crossing, the fabric
//! (multicast + NoC), the analysis engines (µcores or hardware
//! accelerators) running guardian kernels, and the experiment drivers that
//! regenerate every figure of the paper's evaluation.
//!
//! # Examples
//!
//! ```no_run
//! use fireguard_soc::{ExperimentConfig, run_fireguard};
//! use fireguard_kernels::{KernelId, ProgrammingModel};
//!
//! let cfg = ExperimentConfig::new("swaptions")
//!     .kernel(KernelId::PMC, 4)
//!     .insts(50_000);
//! let result = run_fireguard(&cfg);
//! println!("slowdown {:.3}", result.slowdown);
//! ```
//!
//! Experiment *grids* (many such configs) are executed through the
//! [`sweep`] worker pool and rendered through the [`reporter`] formats:
//!
//! ```no_run
//! use fireguard_soc::sweep::{run_jobs, JobSpec};
//! use fireguard_soc::{ExperimentConfig, KernelId};
//!
//! let jobs: Vec<JobSpec> = ["swaptions", "x264"]
//!     .iter()
//!     .map(|w| JobSpec::FireGuard(ExperimentConfig::new(w).kernel(KernelId::PMC, 4)))
//!     .collect();
//! for out in run_jobs(jobs, 4) {
//!     println!("{:.3}", out.slowdown());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod judging;
pub mod report;
pub mod reporter;
pub mod sweep;
pub mod system;

pub use experiments::{
    baseline_cycles, build_system, build_system_auto, capture_events, run_fireguard,
    run_fireguard_events, run_fireguard_telemetry, run_software, try_build_system,
    ExperimentConfig, REPLAY_MARGIN,
};
pub use judging::{JudgedTrace, VerdictWindow};
pub use report::{BottleneckBreakdown, Detection, RunResult};
pub use reporter::{render, render_to_string, Block, Cell, Format, Report, Table};
pub use sweep::{default_workers, run_jobs, JobOutput, JobSpec, SweepGrid, SweepPoint};
pub use system::{
    validate_capacity, CapacityError, EngineConfig, FireGuardSystem, HostWork, SocConfig,
    MAX_ENGINES, MAX_KERNELS,
};

// Re-exported so downstream layers (server, bench, CLI, tests) consume
// engine counters without a direct `fireguard-telemetry` dependency.
pub use fireguard_telemetry::EngineCounters;

// Re-exported so sweep callers (CLI, bench, server) can reach the kernel
// registry without a direct `fireguard-kernels` dependency.
pub use fireguard_kernels::{
    canonical_names, parse_kernel_name, registry, KernelId, KernelSpec, ProgrammingModel,
    SoftwareScheme,
};
