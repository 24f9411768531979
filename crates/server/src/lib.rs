//! `fireguard-server`: the online streaming analysis service.
//!
//! FireGuard's premise is *online* fine-grained analysis — commit events
//! stream off a fast core into decoupled guardian engines at line rate.
//! This crate turns the closed-loop simulator into a long-lived service:
//! a std-only threaded TCP server ([`serve`]) accepts concurrent client
//! sessions, each declaring a per-session [`SessionConfig`] in a HELLO
//! frame, streaming framed commit events (the same binary batches a
//! `.fgt` recording holds), and receiving alarm/summary frames online
//! while the analysis runs.
//!
//! Because the server feeds the *identical* [`FireGuardSystem`] the batch
//! experiments use, a served session over loopback reports exactly the
//! detections the equivalent offline [`run_fireguard`] run produces — the
//! wire adds transport, not semantics.
//!
//! [`FireGuardSystem`]: fireguard_soc::FireGuardSystem
//! [`run_fireguard`]: fireguard_soc::run_fireguard
//!
//! # Example (loopback)
//!
//! ```no_run
//! use fireguard_server::{serve, run_session, ServeOptions, SessionConfig};
//! use fireguard_soc::{capture_events, ExperimentConfig, KernelId};
//! use std::sync::Arc;
//!
//! let handle = serve(ServeOptions {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeOptions::default()
//! }).unwrap();
//!
//! let cfg = ExperimentConfig::new("swaptions").kernel(KernelId::PMC, 4).insts(20_000);
//! let events = Arc::new(capture_events(&cfg));
//! let session = SessionConfig::from_experiment(&cfg, 0);
//! let out = run_session(&handle.local_addr().to_string(), &session, events, 512).unwrap();
//! println!("served: {} detections", out.summary.detections);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod journal;
pub mod loadgen;
pub mod metrics;
mod net;
pub mod netem;
pub mod proto;
pub mod ring;
pub mod router;
pub mod service;

pub use chaos::{run_chaos, ChaosOptions, ChaosOutcome, WireFaults};
pub use client::{
    run_routed_session, run_session, ClientError, RoutedOptions, RoutedOutcome, SessionOutcome,
    DEFAULT_BATCH,
};
pub use journal::{recover_journals, Journal};
pub use loadgen::{run_loadgen, LatencyBucket, LoadgenOptions, LoadgenOutcome};
pub use metrics::{scrape, serve_metrics, MetricsHandle, SampleSource};
pub use netem::{netem, NetemHandle, NetemOptions};
pub use proto::{SessionConfig, SessionTicket, Summary, PROTO_VERSION};
pub use ring::{Ring, DEFAULT_REPLICAS};
pub use router::{route, BackendMode, RouterHandle, RouterOptions};
pub use service::{fleet_samples, serve, ServeOptions, ServerHandle, OBSERVE_EVERY};

// Re-exported so the CLI and tests consume the telemetry vocabulary
// without a direct `fireguard-telemetry` dependency.
pub use fireguard_telemetry::{FleetCounters, Sample, TraceSink};
