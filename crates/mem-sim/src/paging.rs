//! Demand paging and page-walk cost model.
//!
//! [`PageTable`] tracks which virtual pages the OS has populated; the
//! first touch of a page is a minor fault (the dominant fault class for
//! the anonymous memory the workloads allocate). [`WalkCache`] models the
//! hardware page-walk caches (PML4/PDPT/PD entries) that make most walks
//! cheap: a walk whose 2 MiB region was walked recently costs
//! `walk_fast`, a cold walk costs `walk_slow`.

use crate::fxhash::FxHashMap;

/// Result of touching a page through the OS paging layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageStatus {
    /// The page was already populated.
    Mapped,
    /// First touch: the OS serviced a minor fault.
    MinorFault,
}

/// Pages per arena chunk: 512 pages = one 2 MiB PD region, so chunk
/// granularity matches the walk-cache granule and real allocator
/// behavior (whole regions populate together).
const CHUNK_PAGES: u64 = 512;

/// One presence bit per page of a 2 MiB region.
type Bitmap = [u64; 8];

/// Sentinel for "memo empty": region numbers are `page >> 9 <= 2^43`,
/// so `u64::MAX` is never a real region.
const NO_REGION: u64 = u64::MAX;

/// The simulated OS page table: a sparse set of populated pages.
///
/// Layout is a chunked arena rather than a per-page hash map: a small
/// region index (fast `FxHasher`, one probe per 2 MiB region) points at
/// 512-page presence bitmaps, and a one-entry memo skips even that
/// lookup while successive touches stay inside the same region — the
/// common case for the sequential and strided sweeps every workload
/// performs. The previous `HashMap<u64, PageInfo>` paid a full SipHash
/// per touched page and dominated the hot-path profile.
///
/// ```
/// use mem_sim::paging::{PageTable, PageStatus};
/// let mut pt = PageTable::new();
/// assert_eq!(pt.touch(5), PageStatus::MinorFault);
/// assert_eq!(pt.touch(5), PageStatus::Mapped);
/// assert_eq!(pt.mapped_pages(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Region number (`page >> 9`) to chunk index.
    index: FxHashMap<u64, u32>,
    /// Presence bitmaps, one per region ever touched.
    chunks: Vec<Bitmap>,
    /// Last region resolved, or [`NO_REGION`].
    memo_region: u64,
    /// Chunk index for `memo_region`.
    memo_chunk: u32,
    /// Populated page count (kept incrementally; bitmaps are not
    /// rescanned).
    mapped: usize,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable {
            index: FxHashMap::default(),
            chunks: Vec::new(),
            memo_region: NO_REGION,
            memo_chunk: 0,
            mapped: 0,
        }
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating on demand) the chunk holding `page`, via the
    /// one-entry memo when possible.
    #[inline]
    fn chunk_of(&mut self, page: u64) -> usize {
        let region = page / CHUNK_PAGES;
        if region == self.memo_region {
            return self.memo_chunk as usize;
        }
        let ci = match self.index.get(&region) {
            Some(&i) => i as usize,
            None => {
                let i = self.chunks.len();
                assert!(i < u32::MAX as usize, "page-table chunk index overflow");
                self.index.insert(region, i as u32);
                self.chunks.push([0; 8]);
                i
            }
        };
        self.memo_region = region;
        self.memo_chunk = ci as u32;
        ci
    }

    /// Splits `page` into (word, bit-mask) within its chunk's bitmap.
    #[inline]
    fn bit_of(page: u64) -> (usize, u64) {
        let offset = page % CHUNK_PAGES;
        ((offset >> 6) as usize, 1u64 << (offset & 63))
    }

    /// Touches `page`, populating it on first access.
    #[inline]
    pub fn touch(&mut self, page: u64) -> PageStatus {
        let ci = self.chunk_of(page);
        let (word, mask) = Self::bit_of(page);
        let w = &mut self.chunks[ci][word];
        if *w & mask != 0 {
            PageStatus::Mapped
        } else {
            *w |= mask;
            self.mapped += 1;
            PageStatus::MinorFault
        }
    }

    /// Whether `page` has been populated.
    pub fn is_mapped(&self, page: u64) -> bool {
        let region = page / CHUNK_PAGES;
        match self.index.get(&region) {
            Some(&ci) => {
                let (word, mask) = Self::bit_of(page);
                self.chunks[ci as usize][word] & mask != 0
            }
            None => false,
        }
    }

    /// Removes `page` from the table, so the next touch faults again
    /// (models `munmap`/`madvise(DONTNEED)`).
    pub fn unmap(&mut self, page: u64) -> bool {
        let region = page / CHUNK_PAGES;
        match self.index.get(&region) {
            Some(&ci) => {
                let (word, mask) = Self::bit_of(page);
                let w = &mut self.chunks[ci as usize][word];
                if *w & mask != 0 {
                    *w &= !mask;
                    self.mapped -= 1;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    /// Number of populated pages (the resident-set size in pages).
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Pre-populates a page without counting a fault (models `mmap` with
    /// `MAP_POPULATE` or pages loaded by the enclave loader).
    pub fn populate(&mut self, page: u64) {
        let _ = self.touch(page);
    }
}

/// Hardware page-walk cache: remembers recently-walked 2 MiB regions so
/// that repeat walks only fetch the leaf PTE.
#[derive(Debug, Clone)]
pub struct WalkCache {
    /// Direct-mapped tags over `page >> 9` (the PD-entry granule).
    tags: Vec<u64>,
    /// Install epochs parallel to `tags` (O(1) flush; see `tlb`).
    epochs: Vec<u64>,
    epoch: u64,
}

impl WalkCache {
    /// Creates a walk cache with `entries` slots (rounded to a power of
    /// two).
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(1);
        WalkCache {
            tags: vec![u64::MAX; n],
            epochs: vec![0; n],
            epoch: 1,
        }
    }

    /// Records a walk of `page`; returns `true` when the upper levels were
    /// cached (fast walk).
    #[inline]
    pub fn walk(&mut self, page: u64) -> bool {
        let region = page >> 9; // 512 pages = one 2 MiB PD entry
        let slot = (region as usize) & (self.tags.len() - 1);
        if self.epochs[slot] == self.epoch && self.tags[slot] == region {
            true
        } else {
            self.tags[slot] = region;
            self.epochs[slot] = self.epoch;
            false
        }
    }

    /// Forgets everything (e.g. on address-space switch).
    pub fn flush(&mut self) {
        self.epoch += 1;
    }
}

impl Default for WalkCache {
    /// 32 cached PD entries, covering 64 MiB of recently-walked memory.
    fn default() -> Self {
        WalkCache::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_faults_once() {
        let mut pt = PageTable::new();
        assert_eq!(pt.touch(1), PageStatus::MinorFault);
        assert_eq!(pt.touch(1), PageStatus::Mapped);
        assert_eq!(pt.touch(2), PageStatus::MinorFault);
        assert_eq!(pt.mapped_pages(), 2);
    }

    #[test]
    fn unmap_faults_again() {
        let mut pt = PageTable::new();
        pt.touch(9);
        assert!(pt.unmap(9));
        assert!(!pt.unmap(9));
        assert_eq!(pt.touch(9), PageStatus::MinorFault);
    }

    #[test]
    fn populate_skips_fault() {
        let mut pt = PageTable::new();
        pt.populate(4);
        assert_eq!(pt.touch(4), PageStatus::Mapped);
    }

    #[test]
    fn walk_cache_fast_within_region() {
        let mut wc = WalkCache::new(4);
        assert!(!wc.walk(0)); // cold
        assert!(wc.walk(1)); // same 2 MiB region
        assert!(wc.walk(511));
        assert!(!wc.walk(512)); // next region
    }

    #[test]
    fn walk_cache_flush() {
        let mut wc = WalkCache::default();
        wc.walk(0);
        wc.flush();
        assert!(!wc.walk(0));
    }

    #[test]
    fn touch_counts_accumulate() {
        let mut pt = PageTable::new();
        for _ in 0..5 {
            pt.touch(3);
        }
        assert!(pt.is_mapped(3));
    }

    #[test]
    fn cross_region_touches_keep_exact_counts() {
        // Alternate between distant 2 MiB regions so every touch misses
        // the memo; counts and membership must stay exact.
        let mut pt = PageTable::new();
        let pages = [0u64, 512, 1 << 20, 513, 1, (1 << 20) + 511];
        for &p in &pages {
            assert_eq!(pt.touch(p), PageStatus::MinorFault);
        }
        for &p in &pages {
            assert_eq!(pt.touch(p), PageStatus::Mapped);
        }
        assert_eq!(pt.mapped_pages(), pages.len());
        assert!(!pt.is_mapped(2));
        assert!(!pt.is_mapped(514));
    }

    #[test]
    fn top_of_address_space_page_is_representable() {
        // The highest page number a 64-bit vaddr can produce; the memo
        // sentinel must not collide with its region.
        let top = u64::MAX >> 12;
        let mut pt = PageTable::new();
        assert_eq!(pt.touch(top), PageStatus::MinorFault);
        assert_eq!(pt.touch(top), PageStatus::Mapped);
        assert!(pt.is_mapped(top));
        assert!(pt.unmap(top));
        assert_eq!(pt.touch(top), PageStatus::MinorFault);
    }

    #[test]
    fn unmap_within_memoized_region_stays_consistent() {
        let mut pt = PageTable::new();
        pt.touch(100);
        pt.touch(101); // memo now points at region 0
        assert!(pt.unmap(100));
        assert_eq!(pt.mapped_pages(), 1);
        // The memoized chunk must see the cleared bit on the next touch.
        assert_eq!(pt.touch(100), PageStatus::MinorFault);
        assert_eq!(pt.mapped_pages(), 2);
    }
}
