//! The FireGuard observability plane.
//!
//! Three deliberately dependency-free building blocks, shared by every
//! layer from the SoC up to the fleet router:
//!
//! - [`EngineCounters`]: plain-`u64` tallies of one simulated system's
//!   activity (packets by kernel/class/verdict, queue high-water marks,
//!   µcore park/wake cycles, NoC flits, cache/TLB hits). The SoC only
//!   *writes* them — increments on the hot path, occupancy samples at
//!   slow-domain edges — so the simulation's observable behavior is
//!   independent of whether anyone ever reads a counter. That is the
//!   whole determinism argument: counters are write-only state outside
//!   the simulation's data flow, checked by the digest/replay suite.
//! - [`FleetCounters`]: relaxed-atomic service-level aggregation, folded
//!   per completed session, scraped by the metrics plane.
//! - [`Sample`] + [`render_exposition`]/[`parse_exposition`]: the
//!   Prometheus-style text wire format of the metrics endpoint, and
//!   [`TraceSink`]/[`SpanEvent`]: ring-buffered structured span events
//!   emitted as jsonl (`--trace-out`).
//!
//! Counter *names* are not invented here: per-kernel series are labeled
//! with whatever the kernel registry declares (see
//! `KernelSpec::cli_names`), passed in by the caller, so new kernels
//! appear in the exposition without touching this crate.

#![forbid(unsafe_code)]

mod counters;
mod expo;
mod span;

pub use counters::{EngineCounters, FleetCounters, KernelTally, MAX_CLASSES, MAX_KERNEL_SLOTS};
pub use expo::{parse_exposition, render_exposition, Sample};
pub use span::{FieldVal, SpanEvent, TraceSink};
