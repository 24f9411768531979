//! FireGuard's primary contribution: the commit-stage frontend that makes
//! fine-grained instruction analysis practical on an OoO superscalar core.
//!
//! The paper's three key mechanisms, each a module here:
//!
//! * **Buffer-free data-forwarding channel** (in [`filter`]): read-only
//!   bypass taps at the ROB/PRF/LSQ/FTQ that extract debug data at commit
//!   without new intermediate storage, at the cost of occasional PRF
//!   read-port preemption (Fig. 2's "added contention",
//!   [`EventFilter::prf_ports_stolen`]).
//! * **Superscalar event filter** ([`filter`], [`minifilter`]): one
//!   SRAM-based mini-filter per commit path (indexed by `funct3 ‖ opcode`),
//!   paired FIFOs and a reordering arbiter that re-serialises packets into
//!   commit order, skipping invalid placeholders for free (Fig. 4).
//! * **Broadcast-free mapper** ([`allocator`], [`cdc`]): a two-level
//!   indirection bitmap — a distributor mapping Group Indexes to Scheduling
//!   Engines, and per-kernel SEs with fixed/round-robin/block policies
//!   selecting analysis engines (Fig. 5) — feeding per-engine
//!   clock-domain-crossing queues toward the 1.6 GHz fabric.
//!
//! # Examples
//!
//! ```
//! use fireguard_core::{EventFilter, FilterConfig, Gid, DpSel, groups};
//! use fireguard_isa::InstClass;
//!
//! let mut filter = EventFilter::new(FilterConfig::default());
//! // Monitor all loads and stores as group MEM, forwarding PRF+LSQ data.
//! filter.subscribe(InstClass::Load, groups::MEM, DpSel::PRF | DpSel::LSQ);
//! filter.subscribe(InstClass::Store, groups::MEM, DpSel::PRF | DpSel::LSQ);
//! assert!(filter.is_monitored(InstClass::Load));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod cdc;
pub mod filter;
pub mod minifilter;
pub mod packet;

pub use allocator::{Allocator, Policy, SchedulingEngine, MAX_ENGINES, MAX_GIDS};
pub use cdc::{CdcQueue, ClockDivider};
pub use filter::{EventFilter, FilterConfig};
pub use minifilter::{DpSel, FilterEntry, MiniFilter};
pub use packet::{groups, layout, Gid, Packet};
