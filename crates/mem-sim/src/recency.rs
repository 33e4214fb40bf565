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
//!
//! A set's tags fill one 64 B host line: sixteen `u32` lanes, each the
//! quotient `key / sets` of the key it holds, since the set itself is
//! `key % sets`. A probe compares all sixteen lanes at once and takes the
//! lowest matching bit. A quotient too large for a lane is stored
//! exactly on the side (see [`WIDE`]); no default geometry meets one
//! below ~2^51 bytes of address.

use crate::setidx::SetIndex;

/// Most ways a recency word can rank: one nibble per way.
pub(crate) const MAX_WAYS: usize = 16;

const ONES: u64 = 0x1111_1111_1111_1111;

/// The word of a set with way `w` at rank `w`.
#[expect(clippy::cast_possible_truncation, reason = "ways is at most MAX_WAYS")]
fn fresh(ways: usize) -> u64 {
    0xFEDC_BA98_7654_3210 | u64::MAX.checked_shl(4 * ways as u32).unwrap_or(0)
}

/// The least recently used way of a set with `ways` ways.
#[expect(
    clippy::cast_possible_truncation,
    reason = "hot path: masked to a 4-bit way index"
)]
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

/// A lane that holds no tag. No quotient narrows to it.
const INVALID: u32 = u32::MAX;

/// A lane whose quotient did not fit: the full quotient sits in
/// `LruSets::wide`, at the lane's index.
const WIDE: u32 = u32::MAX - 1;

/// The lane that stores quotient `tag`: itself when it fits below
/// [`WIDE`], else [`WIDE`].
#[inline]
fn narrow(tag: u64) -> u32 {
    match u32::try_from(tag) {
        Ok(lane) if lane < WIDE => lane,
        _ => WIDE,
    }
}

/// The tags of one set, one host cache line. Lanes at and past the set's
/// `ways` stay [`INVALID`].
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Row([u32; MAX_WAYS]);

const _: () = assert!(std::mem::size_of::<Row>() == 64 && std::mem::align_of::<Row>() == 64);

impl Row {
    const EMPTY: Row = Row([INVALID; MAX_WAYS]);

    /// Bit `w` is set when lane `w` equals `lane`: a fixed-width compare
    /// of all 16 lanes, with no early exit. (Folded from the top lane
    /// down, the compare compiles to four SSE2 `pcmpeqd` and one
    /// `pmovmskb`; folded upward with `<< w` it stays scalar.)
    #[inline]
    fn matches(&self, lane: u32) -> u32 {
        self.0
            .iter()
            .rev()
            .fold(0, |hits, &t| hits << 1 | u32::from(t == lane))
    }
}

/// `sets x ways` set-relative tags with exact LRU replacement in every
/// set. A key `k` of set `k % sets` is stored as its quotient
/// `k / sets`, which identifies it within the set.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    rows: Vec<Row>,
    order: Vec<u64>,
    /// The full quotient behind every [`WIDE`] lane, at
    /// `set * MAX_WAYS + way`. Empty until the first wide quotient; it is
    /// written whenever a lane becomes [`WIDE`] and read only for such a
    /// lane, so a stale entry is never read.
    wide: Vec<u64>,
    /// Division-free `key -> (quotient, set)` mapping, exact against `/`
    /// and `%`.
    set_index: SetIndex,
    ways: usize,
}

impl LruSets {
    /// Creates `sets` invalid sets of `ways` ways.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!((1..=MAX_WAYS).contains(&ways), "ways must be in 1..=16");
        LruSets {
            rows: vec![Row::EMPTY; sets],
            order: vec![fresh(ways); sets],
            wide: Vec::new(),
            set_index: SetIndex::new(sets),
            ways,
        }
    }

    /// `(key / sets, key % sets)`: the tag `key` is stored under, and
    /// its set.
    #[inline]
    pub(crate) fn split(&self, key: u64) -> (u64, usize) {
        self.set_index.split(key)
    }

    pub(crate) fn sets(&self) -> usize {
        self.set_index.sets()
    }

    /// The ways of `set` that hold `tag`, as a bit mask. A valid tag is
    /// never duplicated in a set, so at most one bit is set.
    #[inline]
    fn hits(&self, set: usize, tag: u64) -> u32 {
        let lane = narrow(tag);
        let hits = self.rows[set].matches(lane);
        if lane == WIDE && hits != 0 {
            self.wide_hits(set, tag, hits)
        } else {
            hits
        }
    }

    /// The ways among `lanes`, all [`WIDE`] lanes of `set`, whose full
    /// quotient is `tag`.
    #[cold]
    #[inline(never)]
    fn wide_hits(&self, set: usize, tag: u64, lanes: u32) -> u32 {
        (0..MAX_WAYS)
            .filter(|&w| (lanes >> w) & 1 == 1 && self.wide[set * MAX_WAYS + w] == tag)
            .fold(0, |hits, w| hits | 1 << w)
    }

    /// Stores `tag` in `way` of `set`.
    #[inline]
    fn store(&mut self, set: usize, way: usize, tag: u64) {
        let lane = narrow(tag);
        self.rows[set].0[way] = lane;
        if lane == WIDE {
            self.store_wide(set, way, tag);
        }
    }

    /// Records the full quotient behind a lane that just became [`WIDE`].
    #[cold]
    #[inline(never)]
    fn store_wide(&mut self, set: usize, way: usize, tag: u64) {
        if self.wide.is_empty() {
            self.wide = vec![0; self.rows.len() * MAX_WAYS];
        }
        self.wide[set * MAX_WAYS + way] = tag;
    }

    /// Looks `tag` up in `set`, promoting it to MRU and returning `true`
    /// on a hit; on a miss installs it over the set's LRU way.
    #[inline]
    pub(crate) fn probe(&mut self, set: usize, tag: u64) -> bool {
        let hits = self.hits(set, tag);
        let order = self.order[set];
        if hits != 0 {
            self.order[set] = touch(order, hits.trailing_zeros() as usize);
            return true;
        }
        let victim = lru(order, self.ways);
        self.store(set, victim, tag);
        self.order[set] = touch(order, victim);
        false
    }

    /// Empties `set` and installs `tag` in it, with no scan.
    #[inline]
    pub(crate) fn reset_install(&mut self, set: usize, tag: u64) {
        self.rows[set] = Row::EMPTY;
        self.store(set, 0, tag);
        self.order[set] = fresh(self.ways);
    }

    pub(crate) fn contains(&self, set: usize, tag: u64) -> bool {
        self.hits(set, tag) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_agrees_with_division_on_mask_and_reciprocal_paths() {
        // 16 sets take the mask, the default LLC's 12288 the reciprocal.
        for sets in [16usize, 3, 12288] {
            let s = LruSets::new(sets, 4);
            assert_eq!(s.set_index.uses_mask(), sets.is_power_of_two());
            let d = sets as u64;
            for key in (0..10_000u64).chain([u64::MAX - 7, u64::MAX, 1 << 58]) {
                assert_eq!(s.split(key), (key / d, (key % d) as usize));
            }
        }
    }
}
