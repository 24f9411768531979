//! The scalable allocator (paper §III-C, Fig. 5).
//!
//! A two-level indirection bitmap allocates packets across analysis
//! engines: the *distributor* holds an `SE_Bitmap` per Group Index,
//! activating the Scheduling Engines interested in that group; each SE is
//! one-to-one associated with a guardian kernel and holds an `AE_Bitmap`
//! over the analysis engines running that kernel, plus `PT_reg`/`CT_reg`
//! scheduling registers implementing fixed, round-robin or block policies.
//! The per-SE `AE_Bitmap`s are OR-combined into the final destination set —
//! a selective multicast with no broadcast.

use crate::packet::Gid;

/// Maximum Group Indexes the distributor supports.
pub const MAX_GIDS: usize = 16;
/// Maximum analysis engines an `AE_Bitmap` can address (16-bit, Fig. 5).
pub const MAX_ENGINES: usize = 16;

/// SE scheduling policy (paper: fixed, round-robin, and block mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Always the same engine (used with hardware accelerators).
    Fixed,
    /// Rotate engines per packet.
    RoundRobin,
    /// Keep sending to one engine until its queue is full, then move on —
    /// for kernels where message locality matters (e.g. shadow stack).
    Block,
}

/// A Scheduling Engine: one per guardian kernel.
#[derive(Debug, Clone)]
pub struct SchedulingEngine {
    /// The engines running this kernel (indices into the engine array).
    engines: Vec<usize>,
    policy: Policy,
    /// `PT_reg`: index (into `engines`) of the previous target.
    pt: usize,
}

impl SchedulingEngine {
    /// Creates an SE dispatching over `engines` with `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or any index exceeds [`MAX_ENGINES`].
    pub fn new(engines: Vec<usize>, policy: Policy) -> Self {
        assert!(!engines.is_empty(), "an SE needs at least one engine");
        assert!(engines.iter().all(|&e| e < MAX_ENGINES));
        SchedulingEngine {
            engines,
            policy,
            pt: 0,
        }
    }

    /// The engine set.
    pub fn engines(&self) -> &[usize] {
        &self.engines
    }

    /// Chooses the target engine(s) for one packet as an `AE_Bitmap`.
    /// `queue_free` reports whether each engine's message queue can accept.
    pub fn allocate(&mut self, queue_free: &dyn Fn(usize) -> bool) -> u16 {
        let ct = match self.policy {
            Policy::Fixed => self.pt,
            Policy::RoundRobin => (self.pt + 1) % self.engines.len(),
            Policy::Block => {
                if queue_free(self.engines[self.pt]) {
                    self.pt
                } else {
                    (self.pt + 1) % self.engines.len()
                }
            }
        };
        self.pt = ct;
        1 << self.engines[ct]
    }
}

/// Counters for the allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocatorStats {
    /// Packets routed.
    pub routed: u64,
    /// Packets whose GID had no interested SE (dropped, counted).
    pub unclaimed: u64,
    /// Destination-engine fan-out accumulated (for average multicast width).
    pub fanout: u64,
}

/// The allocator: distributor bitmaps plus the Scheduling Engines.
#[derive(Debug, Clone)]
pub struct Allocator {
    /// `SE_Bitmap` per GID: bit *k* activates SE *k*.
    se_bitmap: [u16; MAX_GIDS],
    /// Per-GID union of every subscribed SE's engine set, precomputed at
    /// subscription time: the mapper consults this every fast cycle for
    /// its conservative CDC space check, so it must not walk the SEs.
    candidates: [u16; MAX_GIDS],
    ses: Vec<SchedulingEngine>,
    stats: AllocatorStats,
}

impl Default for Allocator {
    fn default() -> Self {
        Self::new()
    }
}

impl Allocator {
    /// An empty allocator (no SEs, nothing routed).
    pub fn new() -> Self {
        Allocator {
            se_bitmap: [0; MAX_GIDS],
            candidates: [0; MAX_GIDS],
            ses: Vec::new(),
            stats: AllocatorStats::default(),
        }
    }

    /// Registers a Scheduling Engine (a kernel) and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if 16 SEs are already registered.
    pub fn add_se(&mut self, se: SchedulingEngine) -> usize {
        assert!(self.ses.len() < 16, "at most 16 SEs (16-bit SE_Bitmap)");
        self.ses.push(se);
        self.ses.len() - 1
    }

    /// Marks SE `se` as interested in group `gid` (sets the bitmap bit,
    /// Fig. 5 a).
    pub fn subscribe(&mut self, gid: Gid, se: usize) {
        assert!(se < self.ses.len(), "unknown SE");
        self.se_bitmap[gid.index()] |= 1 << se;
        for &e in self.ses[se].engines() {
            self.candidates[gid.index()] |= 1 << e;
        }
    }

    /// Routes one packet of group `gid`: activates every interested SE,
    /// OR-combining their `AE_Bitmap`s into the destination set.
    pub fn route(&mut self, gid: Gid, queue_free: &dyn Fn(usize) -> bool) -> u16 {
        let mask = self.se_bitmap[gid.index()];
        if mask == 0 {
            self.stats.unclaimed += 1;
            return 0;
        }
        let mut dest = 0u16;
        for (k, se) in self.ses.iter_mut().enumerate() {
            if mask & (1 << k) != 0 {
                dest |= se.allocate(queue_free);
            }
        }
        self.stats.routed += 1;
        self.stats.fanout += u64::from(dest.count_ones());
        dest
    }

    /// Counters.
    pub fn stats(&self) -> AllocatorStats {
        self.stats
    }

    /// Union of the engines any SE interested in `gid` could pick — used
    /// by the mapper to check CDC space before consuming a packet.
    /// Precomputed at subscription time (see [`Allocator::subscribe`]).
    pub fn candidate_engines(&self, gid: Gid) -> u16 {
        self.candidates[gid.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::groups;

    #[test]
    fn fixed_policy_always_picks_same_engine() {
        let mut se = SchedulingEngine::new(vec![3], Policy::Fixed);
        for _ in 0..5 {
            assert_eq!(se.allocate(&|_| true), 1 << 3);
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut se = SchedulingEngine::new(vec![0, 1, 2], Policy::RoundRobin);
        let picks: Vec<u16> = (0..6).map(|_| se.allocate(&|_| true)).collect();
        assert_eq!(picks, [2, 4, 1, 2, 4, 1]);
    }

    #[test]
    fn block_mode_sticks_until_queue_fills() {
        let mut se = SchedulingEngine::new(vec![0, 1], Policy::Block);
        // Engine 0 has room: stay.
        assert_eq!(se.allocate(&|_| true), 1);
        assert_eq!(se.allocate(&|_| true), 1);
        // Engine 0 full: advance to engine 1 and stick there.
        assert_eq!(se.allocate(&|e| e != 0), 2);
        assert_eq!(se.allocate(&|_| true), 2);
    }

    #[test]
    fn distributor_activates_all_interested_ses() {
        let mut a = Allocator::new();
        let asan = a.add_se(SchedulingEngine::new(vec![0, 1], Policy::RoundRobin));
        let uaf = a.add_se(SchedulingEngine::new(vec![2, 3], Policy::RoundRobin));
        a.subscribe(groups::MEM, asan);
        a.subscribe(groups::MEM, uaf);
        let dest = a.route(groups::MEM, &|_| true);
        // One engine from each kernel's set: multicast width 2.
        assert_eq!(dest.count_ones(), 2);
        assert!(dest & 0b0011 != 0, "one of ASan's engines");
        assert!(dest & 0b1100 != 0, "one of UaF's engines");
    }

    #[test]
    fn unsubscribed_gid_is_unclaimed() {
        let mut a = Allocator::new();
        let se = a.add_se(SchedulingEngine::new(vec![0], Policy::Fixed));
        a.subscribe(groups::MEM, se);
        assert_eq!(a.route(groups::BRANCH, &|_| true), 0);
        assert_eq!(a.stats().unclaimed, 1);
        assert_eq!(a.stats().routed, 0);
    }

    #[test]
    fn fanout_statistics_accumulate() {
        let mut a = Allocator::new();
        let k0 = a.add_se(SchedulingEngine::new(vec![0], Policy::Fixed));
        let k1 = a.add_se(SchedulingEngine::new(vec![1], Policy::Fixed));
        a.subscribe(groups::MEM, k0);
        a.subscribe(groups::MEM, k1);
        a.route(groups::MEM, &|_| true);
        a.route(groups::MEM, &|_| true);
        assert_eq!(a.stats().routed, 2);
        assert_eq!(a.stats().fanout, 4);
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_engine_set_rejected() {
        let _ = SchedulingEngine::new(vec![], Policy::Fixed);
    }
}
