//! Memory-system models for the FireGuard simulator.
//!
//! Provides the substrate the paper's evaluation platform assumes (Table II):
//! set-associative write-allocate caches with LRU replacement, MSHR files
//! that bound outstanding misses, a small TLB with page-walk costs, and a
//! composed [`MemoryHierarchy`] (L1 → L2 → LLC → DRAM) that returns access
//! latencies in core cycles.
//!
//! All models are deterministic: the same access stream produces the same
//! latencies, which the cycle-level core models rely on.
//!
//! # Examples
//!
//! ```
//! use fireguard_mem::{MemoryHierarchy, HierarchyConfig};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::main_core());
//! let first = mem.access(0, 0x8000, false); // cold miss goes to DRAM
//! let second = mem.access(first.ready_at, 0x8000, false); // now hits in L1
//! assert!(second.latency < first.latency);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{AccessResult, HierarchyConfig, LatencyConfig, MemLevel, MemoryHierarchy};
pub use mshr::MshrFile;
pub use tlb::{Tlb, TlbConfig};

/// A cycle count in some clock domain. Plain `u64`, aliased for readability.
pub type Cycle = u64;
