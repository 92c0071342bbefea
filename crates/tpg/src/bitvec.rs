//! Packed bit vectors for scan images and response data.

use std::fmt;
use std::ops::BitXor;

/// A growable, packed vector of bits (LSB-first within each 32-bit word).
///
/// `BitVec` is the payload currency of the workspace: scan stimuli,
/// responses, compressed streams and fault masks are all `BitVec`s.
///
/// ```
/// use tve_tpg::BitVec;
/// let v = BitVec::from_bits([true, false, true]);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.get(0), Some(true));
/// assert_eq!(v.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u32>,
    len: usize,
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}b;", self.len)?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i).unwrap_or(false)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl BitVec {
    /// Creates an empty bit vector.
    pub(crate) fn new() -> Self {
        BitVec::default()
    }

    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(32)],
            len,
        }
    }

    /// Creates a vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![u32::MAX; len.div_ceil(32)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a vector from packed words, keeping the first `len` bits.
    ///
    /// The buffer is reused: surplus words are truncated and the bits
    /// past `len` in the last word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn from_words(mut words: Vec<u32>, len: usize) -> Self {
        assert!(words.len() * 32 >= len, "word buffer too short for len");
        words.truncate(len.div_ceil(32));
        let mut v = BitVec { words, len };
        v.mask_tail();
        v
    }

    /// Builds a vector from boolean bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut v = BitVec::new();
        for b in bits {
            v.push(b);
        }
        v
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 32;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u32 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words backing the vector (unused tail bits are zero).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Rewrites the packed words in place through `f`; unused tail bits
    /// are cleared again afterwards. For word-parallel transforms that
    /// would otherwise build a second vector.
    pub fn update_words(&mut self, f: impl FnOnce(&mut [u32])) {
        f(&mut self.words);
        self.mask_tail();
    }

    /// Consumes the vector, returning its packed words.
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// Appends a bit.
    pub(crate) fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 32, self.len % 32);
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    /// The bit at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / 32] >> (index % 32)) & 1 == 1)
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds ({})",
            self.len
        );
        let (w, b) = (index / 32, index % 32);
        if bit {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the bits.
    pub(crate) fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i).expect("in range"))
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Number of transitions between adjacent bits (scan toggle count,
    /// the basis of shift-power estimation).
    pub(crate) fn transition_count(&self) -> usize {
        if self.len < 2 {
            return 0;
        }
        (1..self.len)
            .filter(|&i| self.get(i) != self.get(i - 1))
            .count()
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;
    /// Bitwise XOR of equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    fn bitxor(self, rhs: &BitVec) -> BitVec {
        assert_eq!(self.len, rhs.len, "length mismatch");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&rhs.words)
                .map(|(a, b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bits(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut v = BitVec::new();
        for i in 0..100 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 100);
        for i in 0..100 {
            assert_eq!(v.get(i), Some(i % 3 == 0), "bit {i}");
        }
        v.set(1, true);
        assert_eq!(v.get(1), Some(true));
        assert_eq!(v.get(100), None);
    }

    #[test]
    fn zeros_ones_counts() {
        assert_eq!(BitVec::zeros(70).count_ones(), 0);
        assert_eq!(BitVec::ones(70).count_ones(), 70);
        assert_eq!(BitVec::ones(70).len(), 70);
        assert!(BitVec::new().is_empty());
    }

    #[test]
    fn ones_masks_tail_words() {
        let v = BitVec::ones(33);
        assert_eq!(v.words()[1], 1, "tail word must be masked");
    }

    #[test]
    fn from_words_truncates_and_masks() {
        let v = BitVec::from_words(vec![0xFFFF_FFFF, 0xFFFF_FFFF], 36);
        assert_eq!(v.len(), 36);
        assert_eq!(v.count_ones(), 36);
    }

    #[test]
    fn from_words_matches_pushed_bits_on_oversized_buffers() {
        for len in [0, 1, 31, 32, 33, 64, 95] {
            let words: Vec<u32> = (0..5u32)
                .map(|i| 0x9E37_79B9u32.wrapping_mul(i + 1))
                .collect();
            let mut pushed = BitVec::new();
            for i in 0..len {
                pushed.push((words[i / 32] >> (i % 32)) & 1 == 1);
            }
            let v = BitVec::from_words(words, len);
            assert_eq!(v.words().len(), len.div_ceil(32), "len {len}: truncated");
            assert_eq!(v, pushed, "len {len}: tail masked");
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn from_words_too_short_panics() {
        let _ = BitVec::from_words(vec![0], 33);
    }

    #[test]
    fn xor_and_hamming() {
        let a = BitVec::from_bits([true, false, true, true]);
        let b = BitVec::from_bits([true, true, false, true]);
        let x = &a ^ &b;
        assert_eq!(x, BitVec::from_bits([false, true, true, false]));
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn transition_count_counts_toggles() {
        let v = BitVec::from_bits([false, false, true, true, false]);
        assert_eq!(v.transition_count(), 2);
        assert_eq!(BitVec::zeros(10).transition_count(), 0);
        assert_eq!(BitVec::new().transition_count(), 0);
    }

    #[test]
    fn iterator_collect() {
        let v: BitVec = [true, false, true].into_iter().collect();
        let bits: Vec<bool> = v.iter().collect();
        assert_eq!(bits, vec![true, false, true]);
        let mut w = BitVec::new();
        w.extend([false, true]);
        assert_eq!(w.len(), 2);
    }
}
