//! Architectural registers and dense register sets.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Sub};

use serde::{Deserialize, Serialize};

/// Maximum number of architectural registers a thread can be allocated.
///
/// The paper's PREFETCH bit-vectors are 256 bits wide because the most recent
/// CUDA compilers can allocate up to 256 registers per thread; we adopt the
/// same limit.
pub const MAX_ARCH_REGS: usize = 256;

/// An architectural register identifier (`r0` .. `r255`).
///
/// `ArchReg` is a thin newtype over the register index; it exists so that
/// register indices cannot be confused with other small integers (block ids,
/// bank numbers, warp ids) that permeate the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ArchReg(u8);

impl ArchReg {
    /// Creates a register identifier.
    ///
    /// # Panics
    ///
    /// Never panics: every `u8` is a valid architectural register index.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        ArchReg(index)
    }

    /// Returns the register index as a `usize`, suitable for table lookups.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u8> for ArchReg {
    fn from(value: u8) -> Self {
        ArchReg(value)
    }
}

const WORDS: usize = MAX_ARCH_REGS / 64;

/// A dense set of architectural registers, stored as a 256-bit bitmap.
///
/// `RegSet` is the workhorse data structure of the reproduction: it represents
/// register working-sets of register-intervals, PREFETCH bit-vectors, the
/// per-warp working-set and liveness bit-vectors held in the Warp Control
/// Block, and the per-block `input_list`/`output_list` sets manipulated by the
/// register-interval formation algorithm.
///
/// All operations are O(1) in the number of registers (four 64-bit words).
///
/// # Example
///
/// ```
/// use ltrf_isa::{ArchReg, RegSet};
///
/// let mut ws = RegSet::new();
/// ws.insert(ArchReg::new(3));
/// ws.insert(ArchReg::new(200));
/// assert_eq!(ws.len(), 2);
/// assert!(ws.contains(ArchReg::new(3)));
/// let other = RegSet::from_iter([ArchReg::new(3), ArchReg::new(7)]);
/// assert_eq!(ws.union(&other).len(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct RegSet {
    words: [u64; WORDS],
}

impl RegSet {
    /// Creates an empty register set.
    #[must_use]
    pub const fn new() -> Self {
        RegSet { words: [0; WORDS] }
    }

    /// Returns `true` if the set contains no registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns the number of registers in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Inserts a register; returns `true` if it was newly inserted.
    pub fn insert(&mut self, reg: ArchReg) -> bool {
        let (w, b) = (reg.index() / 64, reg.index() % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes a register; returns `true` if it was present.
    pub fn remove(&mut self, reg: ArchReg) -> bool {
        let (w, b) = (reg.index() / 64, reg.index() % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Returns `true` if the set contains `reg`.
    #[must_use]
    pub fn contains(&self, reg: ArchReg) -> bool {
        let (w, b) = (reg.index() / 64, reg.index() % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Removes all registers from the set.
    pub fn clear(&mut self) {
        self.words = [0; WORDS];
    }

    /// Returns the union of `self` and `other` without modifying either.
    #[must_use]
    pub fn union(&self, other: &RegSet) -> RegSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        out
    }

    /// Returns the intersection of `self` and `other`.
    #[must_use]
    pub fn intersection(&self, other: &RegSet) -> RegSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        out
    }

    /// Returns the set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &RegSet) -> RegSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        out
    }

    /// Extends the set in place with all registers of `other`.
    pub fn union_with(&mut self, other: &RegSet) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Returns `true` if every register in `self` is also in `other`.
    #[must_use]
    pub fn is_subset(&self, other: &RegSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the two sets have no register in common.
    #[must_use]
    pub fn is_disjoint(&self, other: &RegSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Iterates over the registers in ascending index order.
    pub fn iter(&self) -> RegSetIter {
        RegSetIter {
            words: self.words,
            word: 0,
        }
    }

    /// Returns the registers as a `Vec`, in ascending index order.
    #[must_use]
    pub fn to_vec(&self) -> Vec<ArchReg> {
        self.iter().collect()
    }

    /// Returns the underlying 256-bit bitmap as four little-endian words.
    ///
    /// This is the exact encoding of a PREFETCH bit-vector as it would be
    /// embedded in the instruction stream.
    #[must_use]
    pub const fn to_words(&self) -> [u64; 4] {
        self.words
    }

    /// Reconstructs a set from the wire encoding produced by [`Self::to_words`].
    #[must_use]
    pub const fn from_words(words: [u64; 4]) -> Self {
        RegSet { words }
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegSet{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl FromIterator<ArchReg> for RegSet {
    fn from_iter<I: IntoIterator<Item = ArchReg>>(iter: I) -> Self {
        let mut set = RegSet::new();
        for r in iter {
            set.insert(r);
        }
        set
    }
}

impl Extend<ArchReg> for RegSet {
    fn extend<I: IntoIterator<Item = ArchReg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl IntoIterator for &RegSet {
    type Item = ArchReg;
    type IntoIter = RegSetIter;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl BitOr for RegSet {
    type Output = RegSet;
    fn bitor(self, rhs: RegSet) -> RegSet {
        self.union(&rhs)
    }
}

impl BitOrAssign for RegSet {
    fn bitor_assign(&mut self, rhs: RegSet) {
        self.union_with(&rhs);
    }
}

impl BitAnd for RegSet {
    type Output = RegSet;
    fn bitand(self, rhs: RegSet) -> RegSet {
        self.intersection(&rhs)
    }
}

impl Sub for RegSet {
    type Output = RegSet;
    fn sub(self, rhs: RegSet) -> RegSet {
        self.difference(&rhs)
    }
}

/// Iterator over the registers of a [`RegSet`], produced by [`RegSet::iter`].
///
/// Skips over empty words and jumps straight to the next set bit with
/// `trailing_zeros`, so iterating a sparse set costs O(population) rather
/// than O(256). The order is unchanged: ascending register index.
#[derive(Debug, Clone)]
pub struct RegSetIter {
    words: [u64; WORDS],
    word: usize,
}

impl Iterator for RegSetIter {
    type Item = ArchReg;

    fn next(&mut self) -> Option<ArchReg> {
        while self.word < WORDS {
            let bits = self.words[self.word];
            if bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                // Clear the lowest set bit; the next call resumes above it.
                self.words[self.word] = bits & (bits - 1);
                return Some(ArchReg::new((self.word * 64 + bit) as u8));
            }
            self.word += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining: usize = self.words[self.word.min(WORDS)..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RegSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_reg_display_and_index() {
        let r = ArchReg::new(42);
        assert_eq!(r.to_string(), "r42");
        assert_eq!(r.index(), 42);
        assert_eq!(r.index(), 42);
        assert_eq!(ArchReg::from(7u8), ArchReg::new(7));
    }

    #[test]
    fn empty_set_has_no_registers() {
        let s = RegSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = RegSet::new();
        assert!(s.insert(ArchReg::new(0)));
        assert!(s.insert(ArchReg::new(255)));
        assert!(!s.insert(ArchReg::new(0)), "duplicate insert returns false");
        assert!(s.contains(ArchReg::new(0)));
        assert!(s.contains(ArchReg::new(255)));
        assert!(!s.contains(ArchReg::new(100)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(ArchReg::new(0)));
        assert!(!s.remove(ArchReg::new(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = RegSet::from_iter([ArchReg::new(1), ArchReg::new(2), ArchReg::new(3)]);
        let b = RegSet::from_iter([ArchReg::new(3), ArchReg::new(4)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).to_vec(), vec![ArchReg::new(3)]);
        assert_eq!(
            a.difference(&b).to_vec(),
            vec![ArchReg::new(1), ArchReg::new(2)]
        );
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
        assert_eq!((a | b).len(), 4);
        assert_eq!((a & b).len(), 1);
        assert_eq!((a - b).len(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let s = RegSet::from_iter([ArchReg::new(200), ArchReg::new(5), ArchReg::new(63)]);
        let v = s.to_vec();
        assert_eq!(
            v,
            vec![ArchReg::new(5), ArchReg::new(63), ArchReg::new(200)]
        );
    }

    #[test]
    fn words_round_trip() {
        let s = RegSet::from_iter([
            ArchReg::new(0),
            ArchReg::new(64),
            ArchReg::new(128),
            ArchReg::new(192),
        ]);
        let words = s.to_words();
        assert_eq!(words, [1, 1, 1, 1]);
        assert_eq!(RegSet::from_words(words), s);
    }

    #[test]
    fn debug_format_lists_registers() {
        let s = RegSet::from_iter([ArchReg::new(1), ArchReg::new(2)]);
        assert_eq!(format!("{s:?}"), "RegSet{r1, r2}");
        assert!(!format!("{s}").is_empty());
    }
}
