//! Exact LRU order of one cache or TLB set, packed into a `u64`.
//!
//! Nibble `r` of a recency word names the way at rank `r`, rank 0 being
//! the most recently used. A set of `ways < 16` keeps `0xF` in its unused
//! nibbles, which no way index equals. Touching a way shifts the ranks
//! above it down by one nibble; the victim of a miss is the way at rank
//! `ways - 1`. A set starts (and restarts after a flush) invalid, with
//! its invalid ways at the LRU end: every miss consumes the LRU way and
//! every hit promotes a valid one, so the invalid ways stay the suffix
//! and are always filled before a valid way is evicted.

use crate::setidx::SetIndex;

/// Most ways a recency word can rank: one nibble per way.
pub(crate) const MAX_WAYS: usize = 16;

const ONES: u64 = 0x1111_1111_1111_1111;

/// The word of a set with way `w` at rank `w`.
fn fresh(ways: usize) -> u64 {
    0xFEDC_BA98_7654_3210 | u64::MAX.checked_shl(4 * ways as u32).unwrap_or(0)
}

/// The least recently used way of a set with `ways` ways.
#[inline]
fn lru(word: u64, ways: usize) -> usize {
    (word >> (4 * (ways - 1))) as usize & 0xF
}

/// Moves `way`, which must be ranked in `word`, to rank 0.
#[inline]
fn touch(word: u64, way: usize) -> u64 {
    // The lowest zero nibble of `x` is exact: a borrow only starts at a
    // zero nibble, so false positives appear only above the true one.
    let x = word ^ (way as u64 * ONES);
    let rank = (x.wrapping_sub(ONES) & !x & (ONES << 3)).trailing_zeros() / 4;
    let upto = u64::MAX >> (60 - 4 * rank);
    (word & !upto) | ((word << 4) & upto) | way as u64
}

/// `sets x ways` tags with exact LRU replacement in every set; a tag of
/// `u64::MAX` marks an invalid way.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    tags: Vec<u64>,
    order: Vec<u64>,
    /// Division-free `key -> set` mapping, exact against `%`.
    set_index: SetIndex,
    ways: usize,
}

impl LruSets {
    /// Creates `sets` invalid sets of `ways` ways.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!((1..=MAX_WAYS).contains(&ways), "ways must be in 1..=16");
        LruSets {
            tags: vec![u64::MAX; sets * ways],
            order: vec![fresh(ways); sets],
            set_index: SetIndex::new(sets),
            ways,
        }
    }

    #[inline]
    pub(crate) fn set_of(&self, key: u64) -> usize {
        self.set_index.index(key)
    }

    pub(crate) fn sets(&self) -> usize {
        self.set_index.sets()
    }

    /// Looks `key` up in `set`, promoting it to MRU and returning `true`
    /// on a hit; on a miss installs it over the set's LRU way.
    #[inline]
    pub(crate) fn probe(&mut self, set: usize, key: u64) -> bool {
        let tags = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        let order = &mut self.order[set];
        if let Some(w) = tags.iter().position(|&t| t == key) {
            *order = touch(*order, w);
            return true;
        }
        let victim = lru(*order, self.ways);
        tags[victim] = key;
        *order = touch(*order, victim);
        false
    }

    /// Empties `set` and installs `key` in it, with no scan.
    #[inline]
    pub(crate) fn reset_install(&mut self, set: usize, key: u64) {
        let tags = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        tags.fill(u64::MAX);
        tags[0] = key;
        self.order[set] = fresh(self.ways);
    }

    pub(crate) fn contains(&self, set: usize, key: u64) -> bool {
        self.tags[set * self.ways..(set + 1) * self.ways].contains(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_of_agrees_with_division_on_mask_and_reciprocal_paths() {
        // 16 sets take the mask, the default LLC's 12288 the reciprocal.
        for sets in [16usize, 3, 12288] {
            let s = LruSets::new(sets, 4);
            assert_eq!(s.set_index.uses_mask(), sets.is_power_of_two());
            for key in (0..10_000u64).chain([u64::MAX - 7, u64::MAX, 1 << 58]) {
                assert_eq!(s.set_of(key), (key % sets as u64) as usize);
            }
        }
    }
}
