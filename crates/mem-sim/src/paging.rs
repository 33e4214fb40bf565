//! Demand paging and page-walk cost model.
//!
//! [`PageTable`] tracks which virtual pages the OS has populated; the
//! first touch of a page is a minor fault (the dominant fault class for
//! the anonymous memory the workloads allocate). [`WalkCache`] models the
//! hardware page-walk caches (PML4/PDPT/PD entries) that make most walks
//! cheap: a walk whose 2 MiB region was walked recently costs
//! `walk_fast`, a cold walk costs `walk_slow`.

use crate::pagemap::PageSet;

/// Result of touching a page through the OS paging layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageStatus {
    /// The page was already populated.
    Mapped,
    /// First touch: the OS serviced a minor fault.
    MinorFault,
}

/// `page >> SLOT_SHIFT` is the page's 512 GiB PML4 slot.
const SLOT_SHIFT: u32 = 27;

/// The simulated OS page table: the set of populated pages.
///
/// One dense [`PageSet`] run cannot span the whole address space (the
/// untrusted heap sits at 256 MiB, ELRANGEs at 112 TiB), so each 512 GiB
/// PML4 slot touched gets a space of its own, in first-touch order. The
/// suite touches a handful of slots, so finding one is a short scan.
///
/// ```
/// use mem_sim::paging::{PageTable, PageStatus};
/// let mut pt = PageTable::new();
/// assert_eq!(pt.touch(5), PageStatus::MinorFault);
/// assert_eq!(pt.touch(5), PageStatus::Mapped);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// The PML4 slot of each space of `pages`.
    slots: Vec<u64>,
    pages: PageSet,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Touches `page`, populating it on first access.
    #[inline]
    pub fn touch(&mut self, page: u64) -> PageStatus {
        let slot = page >> SLOT_SHIFT;
        let space = match self.slots.iter().position(|&s| s == slot) {
            Some(space) => space,
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        if self.pages.insert(space, page) {
            PageStatus::MinorFault
        } else {
            PageStatus::Mapped
        }
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
    fn cross_region_touches_keep_exact_counts() {
        // Alternate between distant 2 MiB regions and PML4 slots; each
        // page faults exactly once, and its neighbours stay unmapped.
        let mut pt = PageTable::new();
        let pages = [0u64, 512, 1 << 20, 513, 1, (1 << 20) + 511, 1 << 27];
        for &p in &pages {
            assert_eq!(pt.touch(p), PageStatus::MinorFault);
        }
        for &p in &pages {
            assert_eq!(pt.touch(p), PageStatus::Mapped);
        }
        assert_eq!(pt.touch(2), PageStatus::MinorFault);
        assert_eq!(pt.touch(514), PageStatus::MinorFault);
    }

    #[test]
    fn top_of_address_space_page_is_representable() {
        // The highest page number a 64-bit vaddr can produce, next to
        // the bottom of the address space.
        let top = u64::MAX >> 12;
        let mut pt = PageTable::new();
        assert_eq!(pt.touch(top), PageStatus::MinorFault);
        assert_eq!(pt.touch(0), PageStatus::MinorFault);
        assert_eq!(pt.touch(top), PageStatus::Mapped);
        assert_eq!(pt.touch(top - 1), PageStatus::MinorFault);
    }
}
