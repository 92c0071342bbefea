//! Linear-feedback shift registers, the workhorse of logic BIST
//! (paper Section III.C: "pseudo-random patterns are generated by a
//! linear-feedback shift register").

use std::fmt;
use std::sync::OnceLock;

/// Known maximal-length (primitive polynomial) tap masks, indexed by degree.
///
/// Entry `(n, taps)`: `taps` has bit `i-1` set when `x^i` appears in the
/// feedback polynomial (the `x^n` term is implicit). Sourced from standard
/// maximal-LFSR tap tables.
pub(crate) const MAXIMAL_TAPS: &[(u32, u64)] = &[
    (3, 0b110),
    (4, 0b1100),
    (5, 0b1_0100),
    (6, 0b11_0000),
    (7, 0b110_0000),
    (8, 0b1011_1000),
    (9, 0b1_0001_0000),
    (10, 0b10_0100_0000),
    (11, 0b101_0000_0000),
    (12, 0b1110_0000_1000),
    (15, 0b110_0000_0000_0000),
    (16, 0b1101_0000_0000_1000),
    (17, 0b1_0010_0000_0000_0000),
    (20, 0b1001_0000_0000_0000_0000),
    (23, 0b100_0010_0000_0000_0000_0000),
    (24, 0b1110_0000_0100_0000_0000_0000),
    (28, 0b1001_0000_0000_0000_0000_0000_0000),
    (31, 0b100_1000_0000_0000_0000_0000_0000_0000),
    (32, 0b1000_0000_0010_0000_0000_0000_0000_0011),
    (40, 0xA000140000),
    (48, 0xC00000180000),
    (64, 0xD800000000000000),
];

/// The 64-cycle leap of one tabled Fibonacci polynomial: row `b` maps
/// byte `b` of the state to its share of the next 64 feedback bits (bit
/// `c` is the feedback of cycle `c`). The register is linear over GF(2),
/// so the XOR of the eight shares is the next 64 sequence bits.
type LeapTable = [[u64; 256]; 8];

/// One lazily built leap table per [`MAXIMAL_TAPS`] entry; a `OnceLock`
/// keeps registers `Send + Sync` for the farm.
static LEAP_TABLES: [OnceLock<LeapTable>; MAXIMAL_TAPS.len()] =
    [const { OnceLock::new() }; MAXIMAL_TAPS.len()];

/// Error constructing an [`Lfsr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyError {
    /// Degree outside `1..=64`.
    DegreeOutOfRange(u32),
    /// No maximal tap entry known for the degree.
    NoKnownMaximalTaps(u32),
    /// Tap mask has bits at or above the degree.
    TapsExceedDegree {
        /// The register degree.
        degree: u32,
        /// The offending tap mask.
        taps: u64,
    },
    /// An all-zero state never leaves zero.
    ZeroState,
}

impl fmt::Display for PolyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyError::DegreeOutOfRange(n) => write!(f, "degree {n} outside 1..=64"),
            PolyError::NoKnownMaximalTaps(n) => {
                write!(f, "no known maximal tap set for degree {n}")
            }
            PolyError::TapsExceedDegree { degree, taps } => {
                write!(f, "taps {taps:#x} exceed degree {degree}")
            }
            PolyError::ZeroState => write!(f, "initial LFSR state must be non-zero"),
        }
    }
}

impl std::error::Error for PolyError {}

/// LFSR hardware structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum LfsrForm {
    /// External-XOR (Fibonacci): feedback is the parity of the tapped bits.
    #[default]
    Fibonacci,
    /// Internal-XOR (Galois): feedback bit XORs into tapped stages.
    Galois,
}

/// A linear-feedback shift register of degree ≤ 64.
///
/// ```
/// use tve_tpg::Lfsr;
/// let mut l = Lfsr::maximal(8, 1).unwrap();
/// let mut seen = std::collections::HashSet::new();
/// for _ in 0..255 {
///     assert!(seen.insert(l.state()), "maximal LFSR repeats early");
///     l.step();
/// }
/// assert_eq!(l.state(), 1); // full period 2^8 - 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u64,
    taps: u64,
    degree: u32,
    form: LfsrForm,
    /// Index of the leap table: the [`MAXIMAL_TAPS`] entry of a
    /// Fibonacci register built on a tabled polynomial.
    table: Option<usize>,
}

impl Lfsr {
    /// Creates an LFSR with explicit taps in Fibonacci form.
    ///
    /// # Errors
    ///
    /// See [`PolyError`].
    pub(crate) fn new(
        degree: u32,
        taps: u64,
        seed: u64,
        form: LfsrForm,
    ) -> Result<Self, PolyError> {
        if degree == 0 || degree > 64 {
            return Err(PolyError::DegreeOutOfRange(degree));
        }
        let mask = Self::mask_of(degree);
        if taps & !mask != 0 {
            return Err(PolyError::TapsExceedDegree { degree, taps });
        }
        let state = seed & mask;
        if state == 0 {
            return Err(PolyError::ZeroState);
        }
        let table = MAXIMAL_TAPS
            .iter()
            .position(|&entry| entry == (degree, taps))
            .filter(|_| form == LfsrForm::Fibonacci);
        Ok(Lfsr {
            state,
            taps,
            degree,
            form,
            table,
        })
    }

    /// Creates a maximal-length Fibonacci LFSR from the built-in tap table.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::NoKnownMaximalTaps`] if the degree is not in
    /// `MAXIMAL_TAPS`, or [`PolyError::ZeroState`] for a zero seed.
    pub fn maximal(degree: u32, seed: u64) -> Result<Self, PolyError> {
        let taps = MAXIMAL_TAPS
            .iter()
            .find(|(n, _)| *n == degree)
            .map(|(_, t)| *t)
            .ok_or(PolyError::NoKnownMaximalTaps(degree))?;
        Self::new(degree, taps, seed, LfsrForm::Fibonacci)
    }

    fn mask_of(degree: u32) -> u64 {
        if degree == 64 {
            u64::MAX
        } else {
            (1u64 << degree) - 1
        }
    }

    /// The register degree (number of stages).
    pub(crate) fn degree(&self) -> u32 {
        self.degree
    }

    /// The current register contents.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Clones the register with an arbitrary state, zero allowed.
    ///
    /// Internal: a free-running LFSR must never be zero, but a MISR (which
    /// continually mixes external input) may legitimately pass through the
    /// all-zero state.
    pub(crate) fn with_state(&self, state: u64) -> Lfsr {
        Lfsr {
            state: state & Self::mask_of(self.degree),
            ..self.clone()
        }
    }

    /// Advances one cycle and returns the output bit.
    pub fn step(&mut self) -> bool {
        match self.form {
            LfsrForm::Fibonacci => {
                let fb = (self.state & self.taps).count_ones() & 1;
                let out = self.state >> (self.degree - 1) & 1 == 1;
                self.state = ((self.state << 1) | fb as u64) & Self::mask_of(self.degree);
                out
            }
            LfsrForm::Galois => {
                // Branch-free: a MISR steps this form on response data,
                // where a branch on the output bit mispredicts half the
                // time.
                let out = self.state & 1;
                self.state = (self.state >> 1) ^ (self.taps & out.wrapping_neg());
                out == 1
            }
        }
    }

    /// Advances `n ≤ 64` cycles and returns the output bits packed
    /// LSB-first (first output in bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn step_word(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "at most 64 bits per step_word");
        if n == 0 {
            return 0;
        }
        // Cycle c outputs the stage-(degree - 1) bit, the sequence bit
        // `degree` places before its own feedback.
        let outputs = (self.leap(n) >> (64 - self.degree)) as u64;
        outputs & (u64::MAX >> (64 - n))
    }

    /// Advances `cycles` cycles, 64 at a time.
    pub(crate) fn advance(&mut self, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            let block = left.min(64);
            self.leap(block as u32);
            left -= block;
        }
    }

    /// Advances `cycles ∈ 1..=64` cycles of a Fibonacci register in one
    /// table step and returns the sequence window around them: bit
    /// `64 + c` is the feedback of cycle `c`, and bit `64 - i` the
    /// feedback `i` cycles before the first (valid for `i ≤ degree`).
    /// After cycle `c` the state's stage `k` holds window bit `64 + c - k`,
    /// so a phase-shifter tap on stage `k` reads the window shifted right
    /// by `64 - k`.
    ///
    /// # Panics
    ///
    /// Panics unless the register is a Fibonacci LFSR on a tabled
    /// maximal polynomial.
    pub(crate) fn leap(&mut self, cycles: u32) -> u128 {
        debug_assert!((1..=64).contains(&cycles));
        let index = self
            .table
            .expect("leaping needs a Fibonacci LFSR on tabled maximal taps");
        let table = LEAP_TABLES[index].get_or_init(|| self.build_leap_table());
        let next = table.iter().enumerate().fold(0, |acc, (b, row)| {
            acc ^ row[(self.state >> (8 * b)) as u8 as usize]
        });
        let window = u128::from(self.state.reverse_bits()) | u128::from(next) << 64;
        self.state = ((window >> cycles) as u64).reverse_bits() & Self::mask_of(self.degree);
        window
    }

    /// Derives this register's leap table: the 64 feedback bits of each
    /// one-hot state, combined per state byte.
    fn build_leap_table(&self) -> LeapTable {
        let mut unit_words = [0u64; 64];
        for (i, word) in unit_words.iter_mut().enumerate().take(self.degree as usize) {
            let mut unit = self.with_state(1 << i);
            for c in 0..64 {
                unit.step();
                *word |= (unit.state & 1) << c;
            }
        }
        let mut table = [[0u64; 256]; 8];
        for (b, row) in table.iter_mut().enumerate() {
            for v in 1..256usize {
                row[v] = row[v & (v - 1)] ^ unit_words[8 * b + v.trailing_zeros() as usize];
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_tabled_small_degrees_are_maximal() {
        for &(n, _) in MAXIMAL_TAPS.iter().filter(|(n, _)| *n <= 17) {
            let mut l = Lfsr::maximal(n, 1).unwrap();
            let period = (1u64 << n) - 1;
            let start = l.state();
            let mut count = 0u64;
            loop {
                l.step();
                count += 1;
                if l.state() == start {
                    break;
                }
                assert!(count <= period, "degree {n}: period exceeds maximal");
            }
            assert_eq!(count, period, "degree {n} not maximal");
        }
    }

    #[test]
    fn galois_form_is_also_full_period() {
        // Galois taps for x^8+x^6+x^5+x^4+1 (reciprocal mapping keeps
        // maximality of the sequence family).
        let mut l = Lfsr::new(8, 0b1011_1000, 1, LfsrForm::Galois).unwrap();
        let mut seen = HashSet::new();
        while seen.insert(l.state()) {
            l.step();
        }
        assert_eq!(seen.len(), 255);
    }

    #[test]
    fn step_word_matches_individual_steps() {
        let mut a = Lfsr::maximal(16, 0xBEEF).unwrap();
        let mut b = a.clone();
        let w = a.step_word(48);
        let mut expect = 0u64;
        for i in 0..48 {
            if b.step() {
                expect |= 1 << i;
            }
        }
        assert_eq!(w, expect);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            Lfsr::maximal(13, 1).unwrap_err(),
            PolyError::NoKnownMaximalTaps(13)
        );
        assert_eq!(Lfsr::maximal(16, 0).unwrap_err(), PolyError::ZeroState);
        assert_eq!(
            Lfsr::new(0, 0, 1, LfsrForm::Fibonacci).unwrap_err(),
            PolyError::DegreeOutOfRange(0)
        );
        assert_eq!(
            Lfsr::new(4, 0b10000, 1, LfsrForm::Fibonacci).unwrap_err(),
            PolyError::TapsExceedDegree {
                degree: 4,
                taps: 0b10000
            }
        );
    }

    #[test]
    fn degree_64_does_not_overflow() {
        let mut l = Lfsr::maximal(64, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        let s0 = l.state();
        l.step_word(64);
        assert_ne!(l.state(), s0);
        assert_eq!(l.degree(), 64);
    }

    #[test]
    fn deterministic_sequence() {
        let mut a = Lfsr::maximal(32, 42).unwrap();
        let mut b = Lfsr::maximal(32, 42).unwrap();
        for _ in 0..100 {
            assert_eq!(a.step(), b.step());
        }
    }
}
