//! Set-associative cache with true-LRU replacement.

/// Geometry of a cache.
///
/// # Examples
///
/// ```
/// use fireguard_mem::CacheConfig;
/// let l1d = CacheConfig::new(32 * 1024, 8, 64); // Table II: 32 KB, 8-way
/// assert_eq!(l1d.sets(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, if `line_bytes` is not a power of
    /// two, or if the capacity is not divisible into whole sets.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(size_bytes > 0 && ways > 0 && line_bytes > 0);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let cfg = CacheConfig {
            size_bytes,
            ways,
            line_bytes,
        };
        assert!(
            size_bytes % (ways * line_bytes) == 0 && cfg.sets() > 0,
            "capacity must divide into whole sets"
        );
        assert!(
            cfg.sets().is_power_of_two(),
            "set count must be a power of two"
        );
        cfg
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and allocated).
    pub misses: u64,
    /// Dirty lines evicted (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses; 0 when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// One tag-array entry, packed to 16 bytes: `tag << 2 | dirty << 1 |
/// valid` plus the LRU stamp. A [`Cache`] keeps its lines in pages of
/// [`PAGE_SETS`] consecutive sets (4 KiB at 8 ways), allocated as a run
/// first touches them: the 4 MB LLC models 8,192 sets, and a short run
/// touches a few hundred of them.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag_flags: u64,
    lru_stamp: u64,
}

impl Line {
    const VALID: u64 = 1;
    const DIRTY: u64 = 2;
    const INVALID: Line = Line {
        tag_flags: 0,
        lru_stamp: 0,
    };

    #[inline]
    fn new(tag: u64, dirty: bool, lru_stamp: u64) -> Line {
        Line {
            tag_flags: (tag << 2) | (u64::from(dirty) * Line::DIRTY) | Line::VALID,
            lru_stamp,
        }
    }

    #[inline]
    fn valid(self) -> bool {
        self.tag_flags & Line::VALID != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.tag_flags & Line::DIRTY != 0
    }

    /// True when the line is valid and holds `tag`.
    #[inline]
    fn matches(self, tag: u64) -> bool {
        self.tag_flags & !Line::DIRTY == (tag << 2) | Line::VALID
    }
}

/// Sets per tag page (a cache with fewer sets has one page of all of them).
const PAGE_SETS: usize = 32;

/// A set-associative, write-allocate, write-back cache with true LRU.
///
/// The cache tracks tags only (the simulator keeps data functionally
/// elsewhere); [`Cache::access`] reports whether the access hit and updates
/// replacement state. Its memory follows the sets a run touches, not the
/// modelled capacity: an untouched page of sets is not allocated and reads
/// as all-invalid.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `ways << page_shift` lines per page, `None` until first touched.
    pages: Vec<Option<Box<[Line]>>>,
    /// log2 of the sets per page.
    page_shift: u32,
    stamp: u64,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let page_shift = sets.min(PAGE_SETS).trailing_zeros();
        Cache {
            config,
            pages: vec![None; sets >> page_shift],
            page_shift,
            stamp: 0,
            stats: CacheStats::default(),
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. after warm-up) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The page holding `addr`'s set, the set's first line within that
    /// page, and `addr`'s tag.
    fn locate(&self, addr: u64) -> (usize, usize, u64) {
        let set = ((addr >> self.set_shift) & self.set_mask) as usize;
        let tag = addr >> self.set_shift >> self.set_mask.count_ones();
        let first = (set & ((1 << self.page_shift) - 1)) * self.config.ways;
        (set >> self.page_shift, first, tag)
    }

    /// Performs an access: returns `true` on hit. Misses allocate the line
    /// (write-allocate policy) and may evict the LRU way.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let hit = self.touch(addr, is_write);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Inserts a line without touching hit/miss statistics — used by the
    /// hierarchy's prefetcher. Updates LRU state like a normal fill.
    pub fn fill(&mut self, addr: u64) {
        self.touch(addr, false);
    }

    /// Looks `addr` up, allocating its page on first touch. A hit
    /// refreshes the line's LRU stamp (and dirties it on a write); a miss
    /// installs the line over an invalid way, else the least recently
    /// used one, counting a dirty victim's writeback. Returns the hit.
    fn touch(&mut self, addr: u64, is_write: bool) -> bool {
        self.stamp += 1;
        let (page, first, tag) = self.locate(addr);
        let page_lines = self.config.ways << self.page_shift;
        let page = self.pages[page]
            .get_or_insert_with(|| vec![Line::INVALID; page_lines].into_boxed_slice());
        let ways = &mut page[first..first + self.config.ways];

        if let Some(line) = ways.iter_mut().find(|l| l.matches(tag)) {
            line.lru_stamp = self.stamp;
            line.tag_flags |= u64::from(is_write) * Line::DIRTY;
            return true;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid() { l.lru_stamp } else { 0 })
            .expect("cache set has at least one way");
        if victim.valid() && victim.dirty() {
            self.stats.writebacks += 1;
        }
        *victim = Line::new(tag, is_write, self.stamp);
        false
    }

    /// Checks for presence without updating LRU or statistics (and
    /// without allocating an untouched page).
    pub fn probe(&self, addr: u64) -> bool {
        let (page, first, tag) = self.locate(addr);
        self.pages[page].as_deref().is_some_and(|page| {
            page[first..first + self.config.ways]
                .iter()
                .any(|l| l.matches(tag))
        })
    }

    /// Invalidates every line (e.g. context switch in failure-injection tests).
    pub fn flush(&mut self) {
        for l in self.pages.iter_mut().flatten().flat_map(|p| p.iter_mut()) {
            l.tag_flags = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64 B lines → 256 B.
        Cache::new(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn geometry_computes_sets() {
        assert_eq!(CacheConfig::new(32 * 1024, 8, 64).sets(), 64);
        assert_eq!(CacheConfig::new(4 * 1024, 2, 64).sets(), 32); // µcore L1
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_rejected() {
        let _ = CacheConfig::new(256, 2, 48);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false));
        assert!(c.access(0x1000, false));
        assert!(c.access(0x1038, false), "same 64B line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with addr bits [6]=0: 0x000, 0x080, 0x100 conflict.
        assert!(!c.access(0x000, false));
        assert!(!c.access(0x080, false));
        assert!(c.access(0x000, false)); // touch 0x000 so 0x080 is LRU
        assert!(!c.access(0x100, false)); // evicts 0x080
        assert!(c.access(0x000, false), "0x000 must survive");
        assert!(!c.access(0x080, false), "0x080 must have been evicted");
    }

    #[test]
    fn writeback_counted_only_for_dirty_victims() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x080, false); // clean
        c.access(0x100, false); // evicts dirty 0x000 (LRU)
        assert_eq!(c.stats().writebacks, 1);
        c.access(0x180, false); // evicts clean 0x080
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.access(0x000, false);
        let stats = c.stats();
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = tiny();
        c.access(0x000, true);
        c.flush();
        assert!(!c.probe(0x000));
        assert!(!c.access(0x000, false));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        assert!(!c.access(0x000, false)); // set 0
        assert!(!c.access(0x040, false)); // set 1
        assert!(!c.access(0x080, false)); // set 0
        assert!(!c.access(0x0C0, false)); // set 1
                                          // Both sets now full but nothing evicted yet.
        assert!(c.access(0x000, false));
        assert!(c.access(0x040, false));
    }

    #[test]
    fn miss_ratio_reported() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    fn allocated_pages(c: &Cache) -> usize {
        c.pages.iter().flatten().count()
    }

    #[test]
    fn pages_are_allocated_on_first_touch_only() {
        // The LLC: 8,192 sets, 256 pages of 32 sets.
        let mut c = Cache::new(crate::HierarchyConfig::main_core().llc.unwrap());
        assert_eq!((c.pages.len(), allocated_pages(&c)), (256, 0));
        assert!(!c.probe(0x1234_5678), "an untouched page reads as invalid");
        assert_eq!(allocated_pages(&c), 0, "probe does not allocate");
        c.access(0x0000, true);
        c.fill(0x0040 * 31); // set 31: the same page
        assert_eq!(allocated_pages(&c), 1);
        c.fill(0x0040 * 32); // set 32: the next page
        c.flush();
        assert_eq!(allocated_pages(&c), 2, "flush keeps the pages it clears");
        assert!(!c.probe(0x0000) && !c.probe(0x0040 * 32));
        assert_eq!(c.stats().writebacks, 0, "flush drops dirty lines silently");
    }

    /// The dense tag array the paged [`Cache`] must match exactly: every
    /// set's ways in one flat array, the victim the first invalid way,
    /// else the least recently used one.
    struct Dense {
        sets: u64,
        ways: usize,
        lines: Vec<DenseLine>,
        stamp: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy, Default)]
    struct DenseLine {
        valid: bool,
        dirty: bool,
        tag: u64,
        stamp: u64,
    }

    impl Dense {
        fn new(cfg: CacheConfig) -> Dense {
            Dense {
                sets: cfg.sets() as u64,
                ways: cfg.ways,
                lines: vec![DenseLine::default(); cfg.sets() * cfg.ways],
                stamp: 0,
                stats: CacheStats::default(),
            }
        }

        /// `access` when `count` is set, else `fill`.
        fn touch(&mut self, line: u64, write: bool, count: bool) -> bool {
            self.stamp += 1;
            let (tag, stamp) = (line / self.sets, self.stamp);
            let first = (line % self.sets) as usize * self.ways;
            let set = &mut self.lines[first..first + self.ways];
            let hit = match set.iter_mut().find(|l| l.valid && l.tag == tag) {
                Some(l) => {
                    l.stamp = stamp;
                    l.dirty |= write;
                    true
                }
                None => {
                    let victim = set
                        .iter()
                        .position(|l| !l.valid)
                        .unwrap_or_else(|| (0..set.len()).min_by_key(|&w| set[w].stamp).unwrap());
                    if set[victim].valid && set[victim].dirty {
                        self.stats.writebacks += 1;
                    }
                    set[victim] = DenseLine {
                        valid: true,
                        dirty: write,
                        tag,
                        stamp,
                    };
                    false
                }
            };
            if count {
                let n = if hit {
                    &mut self.stats.hits
                } else {
                    &mut self.stats.misses
                };
                *n += 1;
            }
            hit
        }

        fn probe(&self, line: u64) -> bool {
            let (tag, first) = (line / self.sets, (line % self.sets) as usize * self.ways);
            self.lines[first..first + self.ways]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        fn flush(&mut self) {
            self.lines.iter_mut().for_each(|l| l.valid = false);
        }
    }

    /// Every preset geometry, plus a 2-set cache smaller than one page.
    fn geometries() -> Vec<CacheConfig> {
        let (main, ucore) = (
            crate::HierarchyConfig::main_core(),
            crate::HierarchyConfig::ucore(),
        );
        let mut all = vec![main.l1, ucore.l1, tiny().config];
        all.extend([main.l2, main.llc, ucore.l2].into_iter().flatten());
        all
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The paged cache answers every `access`, `fill`, `probe` and
        /// `flush` of a stream exactly as the dense array does, with the
        /// same hits, misses and writebacks after every step. Four hot
        /// sets (a few tags more than the ways) make hits, evictions and
        /// dirty writebacks; the rest scatter over the whole cache.
        #[test]
        fn paged_cache_matches_the_dense_array(
            hot in proptest::collection::vec(0u64..1 << 16, 4),
            ops in proptest::collection::vec(
                (0u8..64, 0usize..6, 0u64..1 << 16, 0u64..12, 0u64..64),
                1..600,
            ),
        ) {
            for cfg in geometries() {
                let (mut paged, mut dense) = (Cache::new(cfg), Dense::new(cfg));
                for &(kind, pick, scatter, tag, offset) in &ops {
                    let set = hot.get(pick).copied().unwrap_or(scatter) % dense.sets;
                    let line = tag * dense.sets + set;
                    let addr = line * cfg.line_bytes as u64 + offset;
                    let answers = match kind {
                        0..=39 => {
                            let write = kind % 2 == 1;
                            Some((paged.access(addr, write), dense.touch(line, write, true)))
                        }
                        40..=51 => {
                            paged.fill(addr);
                            dense.touch(line, false, false);
                            None
                        }
                        52..=62 => Some((paged.probe(addr), dense.probe(line))),
                        _ => {
                            paged.flush();
                            dense.flush();
                            None
                        }
                    };
                    if let Some((got, want)) = answers {
                        prop_assert_eq!(got, want, "{:?}: op {} at {:#x}", cfg, kind, addr);
                    }
                    prop_assert_eq!(
                        paged.stats(),
                        dense.stats,
                        "{:?}: op {} at {:#x}",
                        cfg,
                        kind,
                        addr
                    );
                }
            }
        }
    }
}
