//! Dense page-granular maps keyed by `(space, page)`, with no hashing.
//!
//! Every page-granular structure of the simulator is built on these
//! two types: the OS page table ([`crate::PageTable`]), and in `sgx-sim`
//! the EPC residency map, the evicted-page set and the EPCM permission
//! bytes. Their keys are anything but adversarial: a space index (an
//! enclave id, or an address-space slot) is a dense small integer, and
//! the pages of one space cluster densely. So a space indexes a vector
//! of runs, and a run is a contiguous vector of 512-page chunks (2 MiB
//! regions, the granule of the walk cache), allocated on first use. A
//! lookup is two bounds-checked array indexes and one pointer hop.
//!
//! A run grows at either end on demand; pages far from its cluster cost
//! one empty chunk slot (8 bytes) per 2 MiB region in between, which is
//! why one run should not span unrelated address ranges.
//!
//! ```
//! use mem_sim::pagemap::{PageMap, PageSet};
//! let mut frames: PageMap<u32> = PageMap::default();
//! frames.insert(0, 7, 3);
//! assert_eq!(frames.get(0, 7), Some(3));
//! assert_eq!(frames.get(1, 7), None);
//! let mut set = PageSet::default();
//! assert!(set.insert(2, 9));
//! assert!(!set.insert(2, 9));
//! assert_eq!(set.remove_space(2), 1);
//! ```

/// Pages per chunk (one 2 MiB region).
const CHUNK_PAGES: u64 = 512;

/// One space's chunks: `chunks[i]` covers chunk number `base + i`.
#[derive(Debug, Clone)]
struct Run<C> {
    base: u64,
    /// `None` = nothing in that 2 MiB region.
    chunks: Vec<Option<Box<C>>>,
    /// Live entries of this space.
    used: usize,
}

/// The runs of every space, with the live-entry count.
#[derive(Debug, Clone)]
struct Dense<C> {
    runs: Vec<Option<Run<C>>>,
    len: usize,
}

impl<C> Default for Dense<C> {
    fn default() -> Self {
        Dense {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<C> Run<C> {
    /// Index in `chunks` of the chunk holding `page`, if not below the
    /// run's start.
    #[inline]
    fn index(&self, page: u64) -> Option<usize> {
        usize::try_from((page / CHUNK_PAGES).checked_sub(self.base)?).ok()
    }
}

impl<C> Dense<C> {
    #[inline]
    fn chunk(&self, space: usize, page: u64) -> Option<&C> {
        let run = self.runs.get(space)?.as_ref()?;
        run.chunks.get(run.index(page)?)?.as_deref()
    }

    fn chunk_mut(&mut self, space: usize, page: u64) -> Option<&mut C> {
        let run = self.runs.get_mut(space)?.as_mut()?;
        let ci = run.index(page)?;
        run.chunks.get_mut(ci)?.as_deref_mut()
    }

    /// The chunk holding `page`, growing the run of `space` to cover it
    /// and allocating the chunk with `empty` if needed.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "chunk offsets index a Vec of chunks that fits in memory"
    )]
    fn chunk_or_new(&mut self, space: usize, page: u64, empty: fn() -> Box<C>) -> &mut C {
        if space >= self.runs.len() {
            self.runs.resize_with(space + 1, || None);
        }
        let chunk = page / CHUNK_PAGES;
        let run = self.runs[space].get_or_insert_with(|| Run {
            base: chunk,
            chunks: Vec::new(),
            used: 0,
        });
        if chunk < run.base {
            let grow = (run.base - chunk) as usize;
            run.chunks
                .splice(0..0, std::iter::repeat_with(|| None).take(grow));
            run.base = chunk;
        }
        let ci = (chunk - run.base) as usize;
        if ci >= run.chunks.len() {
            run.chunks.resize_with(ci + 1, || None);
        }
        run.chunks[ci].get_or_insert_with(empty)
    }

    /// Counts one entry added to (`true`) or removed from `space`.
    fn count(&mut self, space: usize, added: bool) {
        if let Some(Some(run)) = self.runs.get_mut(space) {
            if added {
                run.used += 1;
                self.len += 1;
            } else {
                run.used -= 1;
                self.len -= 1;
            }
        }
    }

    fn remove_space(&mut self, space: usize) -> usize {
        let removed = self
            .runs
            .get_mut(space)
            .and_then(Option::take)
            .map_or(0, |run| run.used);
        self.len -= removed;
        removed
    }
}

/// Splits `page` into (word, bit-mask) within its chunk's bitmap.
#[inline]
fn bit_of(page: u64) -> (usize, u64) {
    let offset = page % CHUNK_PAGES;
    ((offset >> 6) as usize, 1u64 << (offset & 63))
}

/// A value a [`PageMap`] slot holds, with one bit pattern reserved to
/// mean "no entry".
pub trait Slot: Copy + Eq {
    /// The reserved empty pattern; never stored as a value.
    const EMPTY: Self;
}

/// Indexes (EPC frames): `u32::MAX` is reserved.
impl Slot for u32 {
    const EMPTY: u32 = u32::MAX;
}

/// Flag bytes that always carry a presence bit (EPCM permissions).
impl Slot for u8 {
    const EMPTY: u8 = 0;
}

/// A `(space, page) -> V` map: one dense run of 512-slot chunks per
/// space.
#[expect(clippy::cast_possible_truncation, reason = "CHUNK_PAGES is 512")]
#[derive(Debug, Clone, Default)]
pub struct PageMap<V>(Dense<[V; CHUNK_PAGES as usize]>);

impl<V: Slot> PageMap<V> {
    /// Value stored for `page` of `space`, if any.
    #[inline]
    pub fn get(&self, space: usize, page: u64) -> Option<V> {
        let v = self.0.chunk(space, page)?[(page % CHUNK_PAGES) as usize];
        (v != V::EMPTY).then_some(v)
    }

    /// The lowest space holding `page`, with its value. Linear in the
    /// number of spaces: for callers that know only the page.
    pub fn find_page(&self, page: u64) -> Option<(usize, V)> {
        (0..self.0.runs.len()).find_map(|space| self.get(space, page).map(|v| (space, v)))
    }

    /// Inserts or overwrites `(space, page) -> value`. `value` must not
    /// be [`Slot::EMPTY`], which would read back as absent.
    #[expect(clippy::cast_possible_truncation, reason = "CHUNK_PAGES is 512")]
    pub fn insert(&mut self, space: usize, page: u64, value: V) {
        debug_assert!(value != V::EMPTY, "the empty pattern is reserved");
        let chunk = self
            .0
            .chunk_or_new(space, page, || Box::new([V::EMPTY; CHUNK_PAGES as usize]));
        let slot = &mut chunk[(page % CHUNK_PAGES) as usize];
        let fresh = *slot == V::EMPTY;
        *slot = value;
        if fresh {
            self.0.count(space, true);
        }
    }

    /// Removes `page` of `space`, returning its value if it was present.
    pub fn remove(&mut self, space: usize, page: u64) -> Option<V> {
        let slot = &mut self.0.chunk_mut(space, page)?[(page % CHUNK_PAGES) as usize];
        let v = std::mem::replace(slot, V::EMPTY);
        if v == V::EMPTY {
            return None;
        }
        self.0.count(space, false);
        Some(v)
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Drops every entry of `space`, returning how many there were.
    pub fn remove_space(&mut self, space: usize) -> usize {
        self.0.remove_space(space)
    }
}

/// A `(space, page)` set: one presence bit per page, in the same dense
/// runs as [`PageMap`].
#[derive(Debug, Clone, Default)]
pub struct PageSet(Dense<[u64; 8]>);

impl PageSet {
    /// Whether `page` of `space` is in the set.
    #[inline]
    pub fn contains(&self, space: usize, page: u64) -> bool {
        let (word, mask) = bit_of(page);
        self.0
            .chunk(space, page)
            .is_some_and(|chunk| chunk[word] & mask != 0)
    }

    /// Adds `page` of `space`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, space: usize, page: u64) -> bool {
        let (word, mask) = bit_of(page);
        let w = &mut self.0.chunk_or_new(space, page, || Box::new([0; 8]))[word];
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        self.0.count(space, true);
        true
    }

    /// Removes `page` of `space`; returns `true` if it was present.
    pub fn remove(&mut self, space: usize, page: u64) -> bool {
        let (word, mask) = bit_of(page);
        let Some(chunk) = self.0.chunk_mut(space, page) else {
            return false;
        };
        if chunk[word] & mask == 0 {
            return false;
        }
        chunk[word] &= !mask;
        self.0.count(space, false);
        true
    }

    /// Number of pages in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the set holds no page.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Drops every page of `space`, returning how many there were.
    pub fn remove_space(&mut self, space: usize) -> usize {
        self.0.remove_space(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_map_roundtrip() {
        let mut map: PageMap<u32> = PageMap::default();
        // Pages clustered near a base plus a distant straggler, across
        // two spaces.
        let base = 0x7000_0000_0000u64 >> 12;
        let pages = [base, base + 1, base + 511, base + 512, base - 3, 7];
        for (i, &p) in pages.iter().enumerate() {
            map.insert(0, p, i as u32);
            map.insert(1, p, (100 + i) as u32);
        }
        assert_eq!(map.len(), pages.len() * 2);
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(map.get(0, p), Some(i as u32));
            assert_eq!(map.get(1, p), Some((100 + i) as u32));
        }
        assert_eq!(map.get(0, base + 2), None);
        assert_eq!(map.get(2, base), None);
        // Overwrite does not double-count.
        map.insert(0, base, 42);
        assert_eq!(map.get(0, base), Some(42));
        assert_eq!(map.len(), pages.len() * 2);
        assert_eq!(map.remove(0, base), Some(42));
        assert_eq!(map.remove(0, base), None);
        assert_eq!(map.get(0, base), None);
        assert_eq!(map.len(), pages.len() * 2 - 1);
        assert_eq!(map.find_page(base + 1), Some((0, 1)));
        assert_eq!(map.find_page(base), Some((1, 100)));
    }

    #[test]
    fn remove_space_only_hits_that_space() {
        let mut map: PageMap<u32> = PageMap::default();
        map.insert(0, 10, 1);
        map.insert(1, 10, 2);
        assert_eq!(map.remove_space(0), 1);
        assert_eq!(map.get(0, 10), None);
        assert_eq!(map.get(1, 10), Some(2));
        assert_eq!(map.len(), 1);
        // Removing a space that never had pages is a no-op.
        assert_eq!(map.remove_space(9), 0);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn page_set_roundtrip() {
        let mut set = PageSet::default();
        let base = 0x7000_0000_0000u64 >> 12;
        assert!(set.insert(0, base));
        assert!(!set.insert(0, base), "double insert reports false");
        assert!(set.insert(0, base + 513));
        assert!(set.insert(3, base));
        assert_eq!(set.len(), 3);
        assert!(set.contains(0, base));
        assert!(!set.contains(0, base + 1));
        assert!(set.remove(0, base));
        assert!(!set.remove(0, base));
        assert_eq!(set.len(), 2);
        assert_eq!(set.remove_space(0), 1);
        assert_eq!(set.len(), 1);
        assert!(set.contains(3, base));
    }

    #[test]
    fn run_grows_downward_without_losing_entries() {
        let mut map: PageMap<u32> = PageMap::default();
        map.insert(0, 5_000, 1);
        map.insert(0, 100, 2); // forces a front splice
        map.insert(0, 2_500, 3);
        assert_eq!(map.get(0, 5_000), Some(1));
        assert_eq!(map.get(0, 100), Some(2));
        assert_eq!(map.get(0, 2_500), Some(3));
        assert_eq!(map.len(), 3);
    }
}
