//! Test-data compression codecs (paper Section III.D).
//!
//! Two materializing codecs share the [`Compressor`] interface:
//!
//! * [`RunLengthCodec`] — classic variable-ratio run-length coding of the
//!   zero-filled stimulus;
//! * [`ReseedingCodec`] — EDT-style linear decompression: the stimulus is
//!   the expansion of a short LFSR seed through a phase shifter, and
//!   compression solves the care bits' linear system over GF(2).

use std::fmt;
use std::sync::OnceLock;

use crate::bitvec::BitVec;
use crate::cube::TestCube;
use crate::lfsr::{Lfsr, LfsrForm, MAXIMAL_TAPS};
use crate::pattern::{ScanConfig, ScanPattern};
use crate::prpg::{fill_pattern, phase_mask};

/// Error produced by a [`Compressor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The cube's geometry differs from the codec's.
    GeometryMismatch,
    /// The care bits are not encodable (reseeding: inconsistent or
    /// over-constrained linear system).
    Unsolvable {
        /// Number of specified bits in the cube.
        specified: usize,
        /// Seed capacity of the decompressor.
        capacity: usize,
    },
    /// A compressed stream failed to parse.
    Malformed(&'static str),
    /// The codec could not be constructed for the requested structure.
    BadStructure(&'static str),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::GeometryMismatch => write!(f, "cube geometry mismatch"),
            CompressError::Unsolvable {
                specified,
                capacity,
            } => write!(
                f,
                "care bits not encodable ({specified} specified, capacity {capacity})"
            ),
            CompressError::Malformed(what) => write!(f, "malformed stream: {what}"),
            CompressError::BadStructure(what) => write!(f, "bad codec structure: {what}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// A stimulus compression scheme: encodes a [`TestCube`] into a compressed
/// bit stream and expands a stream back into a full pattern *satisfying*
/// the cube (don't-care fill is codec-defined).
pub trait Compressor {
    /// Codec name for diagnostics.
    fn name(&self) -> &str;

    /// The geometry this codec serves.
    fn config(&self) -> ScanConfig;

    /// Compresses `cube` into a stream.
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    fn compress(&self, cube: &TestCube) -> Result<BitVec, CompressError>;

    /// Expands `stream` into a full scan pattern.
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    fn decompress(&self, stream: &BitVec) -> Result<ScanPattern, CompressError>;

    /// Achieved compression ratio for a particular stream.
    fn ratio_of(&self, stream: &BitVec) -> f64 {
        self.config().bits_per_pattern() as f64 / stream.len().max(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Run-length coding
// ---------------------------------------------------------------------------

/// Variable-ratio run-length codec over the zero-filled stimulus.
///
/// Stream layout: 1 bit initial value, then fixed-width run counts for
/// alternating values; a zero count extends the previous run past the field
/// maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLengthCodec {
    config: ScanConfig,
    count_bits: u8,
}

impl RunLengthCodec {
    /// Creates a codec with `count_bits`-wide run-length fields.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::BadStructure`] unless `1 <= count_bits <= 16`.
    pub fn new(config: ScanConfig, count_bits: u8) -> Result<Self, CompressError> {
        if count_bits == 0 || count_bits > 16 {
            return Err(CompressError::BadStructure("count_bits must be in 1..=16"));
        }
        Ok(RunLengthCodec { config, count_bits })
    }

    fn max_run(&self) -> usize {
        (1usize << self.count_bits) - 1
    }

    fn push_count(&self, out: &mut BitVec, n: usize) {
        for b in 0..self.count_bits {
            out.push((n >> b) & 1 == 1);
        }
    }

    fn read_count(&self, s: &BitVec, pos: &mut usize) -> Result<usize, CompressError> {
        let mut n = 0usize;
        for b in 0..self.count_bits {
            match s.get(*pos) {
                Some(true) => n |= 1 << b,
                Some(false) => {}
                None => return Err(CompressError::Malformed("truncated count")),
            }
            *pos += 1;
        }
        Ok(n)
    }
}

impl Compressor for RunLengthCodec {
    fn name(&self) -> &str {
        "run-length"
    }

    fn config(&self) -> ScanConfig {
        self.config
    }

    fn compress(&self, cube: &TestCube) -> Result<BitVec, CompressError> {
        if cube.config() != self.config {
            return Err(CompressError::GeometryMismatch);
        }
        let bits = cube.zero_fill();
        let data = bits.stimulus();
        let mut out = BitVec::new();
        let first = data.get(0).unwrap_or(false);
        out.push(first);
        let mut cur = first;
        let mut run = 0usize;
        let flush = |out: &mut BitVec, run: &mut usize| {
            // Emit run, splitting with zero-length opposite runs.
            self.push_count(out, (*run).min(self.max_run()));
            let mut rest = run.saturating_sub(self.max_run());
            while rest > 0 || *run > self.max_run() && rest == 0 {
                self.push_count(out, 0); // opposite-value run of length 0
                let chunk = rest.min(self.max_run());
                self.push_count(out, chunk);
                if rest <= self.max_run() {
                    break;
                }
                rest -= chunk;
            }
            *run = 0;
        };
        for b in data.iter() {
            if b == cur {
                run += 1;
            } else {
                flush(&mut out, &mut run);
                cur = b;
                run = 1;
            }
        }
        flush(&mut out, &mut run);
        Ok(out)
    }

    fn decompress(&self, stream: &BitVec) -> Result<ScanPattern, CompressError> {
        let total = self.config.bits_per_pattern() as usize;
        let mut out = BitVec::zeros(total);
        let mut pos = 0usize;
        let mut cur = stream
            .get(pos)
            .ok_or(CompressError::Malformed("empty stream"))?;
        pos += 1;
        let mut idx = 0usize;
        while idx < total {
            let n = self.read_count(stream, &mut pos)?;
            if idx + n > total {
                return Err(CompressError::Malformed("run overflows pattern"));
            }
            if cur {
                for i in idx..idx + n {
                    out.set(i, true);
                }
            }
            idx += n;
            cur = !cur;
        }
        Ok(ScanPattern::new(out, self.config))
    }
}

// ---------------------------------------------------------------------------
// LFSR reseeding (linear decompression)
// ---------------------------------------------------------------------------

/// EDT-style reseeding codec: the on-chip decompressor is an LFSR of
/// `degree ≤ 64` stages behind the same phase shifter as [`Prpg`]; the
/// compressed stream is one LFSR seed per pattern. Compression solves the
/// specified bits' linear system over GF(2) by Gaussian elimination.
///
/// Encodability requires (roughly) `specified bits ≤ degree`; real EDT
/// inserts new seed material per scan slice, which the per-pattern variant
/// here conservatively approximates.
///
/// The decompressor's symbolic expansion (one GF(2) row per scan
/// position) depends only on the structure, so it is derived once per
/// codec, on the first [`compress`](Compressor::compress), and reused for
/// every cube; a codec that only decompresses never derives it. Each
/// cube then costs one elimination step per care bit. The cache is a
/// `OnceLock`, so the codec stays `Send + Sync`.
///
/// [`Prpg`]: crate::Prpg
#[derive(Debug, Clone)]
pub struct ReseedingCodec {
    config: ScanConfig,
    degree: u32,
    taps: u64,
    masks: Vec<u64>,
    rows: OnceLock<Vec<u64>>,
}

impl ReseedingCodec {
    /// Creates a codec with an LFSR decompressor of `degree` stages.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::BadStructure`] when no maximal tap set is
    /// tabled for `degree`.
    pub fn new(config: ScanConfig, degree: u32) -> Result<Self, CompressError> {
        let taps = MAXIMAL_TAPS
            .iter()
            .find(|(n, _)| *n == degree)
            .map(|(_, t)| *t)
            .ok_or(CompressError::BadStructure("no maximal taps for degree"))?;
        let masks = (0..config.chains() as u64)
            .map(|j| phase_mask(j, degree))
            .collect();
        Ok(ReseedingCodec {
            config,
            degree,
            taps,
            masks,
            rows: OnceLock::new(),
        })
    }

    /// Stages of the decompressor LFSR: the bits of one encoded seed.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Symbolically expands the decompressor: for every scan position the
    /// GF(2) mask over seed bits that produces it.
    fn expansion_rows(&self) -> Vec<u64> {
        let len = self.config.max_chain_len() as usize;
        let chains = self.config.chains() as usize;
        // exprs[i] = mask over seed bits currently held in LFSR stage i.
        let mut exprs: Vec<u64> = (0..self.degree as usize).map(|i| 1u64 << i).collect();
        let mut rows = vec![0u64; chains * len];
        for cycle in 0..len {
            // Symbolic Fibonacci step, mirroring Lfsr::step.
            let mut fb = 0u64;
            for (i, e) in exprs.iter().enumerate() {
                if (self.taps >> i) & 1 == 1 {
                    fb ^= *e;
                }
            }
            for i in (1..self.degree as usize).rev() {
                exprs[i] = exprs[i - 1];
            }
            exprs[0] = fb;
            for (j, &mask) in self.masks.iter().enumerate() {
                let mut row = 0u64;
                for (i, e) in exprs.iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        row ^= *e;
                    }
                }
                rows[j * len + cycle] = row;
            }
        }
        rows
    }

    fn expand_seed(&self, seed: u64) -> ScanPattern {
        // Seed zero is representable on silicon (the LFSR simply stays
        // zero); model it without the free-running Lfsr zero check.
        let mut lfsr = Lfsr::new(self.degree, self.taps, 1, LfsrForm::Fibonacci)
            .expect("structure validated at construction")
            .with_state(seed);
        fill_pattern(&mut lfsr, self.config, &self.masks)
    }
}

impl Compressor for ReseedingCodec {
    fn name(&self) -> &str {
        "lfsr-reseeding"
    }

    fn config(&self) -> ScanConfig {
        self.config
    }

    fn compress(&self, cube: &TestCube) -> Result<BitVec, CompressError> {
        if cube.config() != self.config {
            return Err(CompressError::GeometryMismatch);
        }
        let rows = self.rows.get_or_init(|| self.expansion_rows());
        // Gaussian elimination over GF(2), one equation row·seed = value
        // per care bit, taken in ascending scan position. Each row is
        // reduced by every earlier pivot under a mask, not a branch: the
        // pivot bits are random, so a branch would mispredict half the
        // time.
        // (pivot bit, row, rhs); each pivot bit is new, so at most `degree`.
        let mut pivots: Vec<(u32, u64, u64)> = Vec::with_capacity(self.degree as usize);
        let care = cube.care().words();
        let value = cube.value().words();
        for (w, (&care_word, &value_word)) in care.iter().zip(value).enumerate() {
            let mut pending = care_word;
            while pending != 0 {
                let b = pending.trailing_zeros();
                pending &= pending - 1;
                let mut row = rows[w * 32 + b as usize];
                let mut rhs = u64::from((value_word >> b) & 1);
                for &(p, prow, prhs) in &pivots {
                    let hit = ((row >> p) & 1).wrapping_neg();
                    row ^= prow & hit;
                    rhs ^= prhs & hit;
                }
                if row == 0 {
                    if rhs != 0 {
                        return Err(CompressError::Unsolvable {
                            specified: cube.specified_count(),
                            capacity: self.degree as usize,
                        });
                    }
                    continue; // redundant equation
                }
                let p = 63 - row.leading_zeros();
                pivots.push((p, row, rhs));
            }
        }
        // Back-substitute with free variables = 0. Each pivot row was
        // reduced by all *earlier* pivots only, so it may still contain
        // later pivot bits — resolve in reverse insertion order, when every
        // later pivot is already assigned.
        let mut seed = 0u64;
        for &(p, row, rhs) in pivots.iter().rev() {
            // XOR in already-assigned lower bits present in the row.
            let lower = row & !(1u64 << p);
            seed |= (rhs ^ u64::from((seed & lower).count_ones() & 1)) << p;
        }
        Ok(BitVec::from_words(
            vec![seed as u32, (seed >> 32) as u32],
            self.degree as usize,
        ))
    }

    fn decompress(&self, stream: &BitVec) -> Result<ScanPattern, CompressError> {
        if stream.len() != self.degree as usize {
            return Err(CompressError::Malformed("seed length mismatch"));
        }
        let seed = stream
            .words()
            .iter()
            .enumerate()
            .fold(0u64, |seed, (i, &w)| seed | u64::from(w) << (32 * i));
        Ok(self.expand_seed(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ScanConfig {
        ScanConfig::new(4, 32)
    }

    #[test]
    fn run_length_round_trip() {
        let codec = RunLengthCodec::new(cfg(), 4).unwrap();
        for seed in 0..20 {
            let cube = TestCube::random(cfg(), 16, seed);
            let stream = codec.compress(&cube).unwrap();
            let pat = codec.decompress(&stream).unwrap();
            assert_eq!(pat.stimulus(), cube.zero_fill().stimulus(), "seed {seed}");
            assert!(cube.is_satisfied_by(&pat));
        }
    }

    #[test]
    fn run_length_long_runs_split_correctly() {
        let codec = RunLengthCodec::new(ScanConfig::new(1, 100), 3).unwrap();
        // all-zero cube: single run of 100 with 3-bit counts (max 7)
        let cube = TestCube::random(ScanConfig::new(1, 100), 0, 0);
        let stream = codec.compress(&cube).unwrap();
        let pat = codec.decompress(&stream).unwrap();
        assert_eq!(pat.stimulus().count_ones(), 0);
        assert_eq!(pat.stimulus().len(), 100);
    }

    #[test]
    fn run_length_compresses_sparse_cubes() {
        let codec = RunLengthCodec::new(ScanConfig::new(8, 128), 8).unwrap();
        let cube = TestCube::random(ScanConfig::new(8, 128), 10, 3);
        let stream = codec.compress(&cube).unwrap();
        assert!(
            codec.ratio_of(&stream) > 2.0,
            "sparse cube should compress, got ratio {}",
            codec.ratio_of(&stream)
        );
    }

    #[test]
    fn run_length_rejects_bad_structures() {
        assert!(RunLengthCodec::new(cfg(), 0).is_err());
        assert!(RunLengthCodec::new(cfg(), 17).is_err());
    }

    #[test]
    fn reseeding_round_trip_satisfies_cube() {
        let codec = ReseedingCodec::new(cfg(), 32).unwrap();
        for seed in 0..20 {
            let cube = TestCube::random(cfg(), 20, seed);
            let stream = codec.compress(&cube).unwrap();
            assert_eq!(stream.len(), 32);
            let pat = codec.decompress(&stream).unwrap();
            assert!(
                cube.is_satisfied_by(&pat),
                "expansion must satisfy cube (seed {seed})"
            );
        }
    }

    /// The per-cube solve that the cached-row [`ReseedingCodec::compress`]
    /// replaced: a fresh symbolic expansion and a scan over every
    /// position, kept as the reference it must reproduce.
    fn reference_compress(
        codec: &ReseedingCodec,
        cube: &TestCube,
    ) -> Result<BitVec, CompressError> {
        let rows = codec.expansion_rows();
        let mut eqs: Vec<(u64, bool)> = Vec::new();
        for (i, &row) in rows.iter().enumerate() {
            if cube.care().get(i) == Some(true) {
                eqs.push((row, cube.value().get(i) == Some(true)));
            }
        }
        let mut pivots: Vec<(u32, u64, bool)> = Vec::new();
        for (mut row, mut rhs) in eqs {
            for &(p, prow, prhs) in &pivots {
                if (row >> p) & 1 == 1 {
                    row ^= prow;
                    rhs ^= prhs;
                }
            }
            if row == 0 {
                if rhs {
                    return Err(CompressError::Unsolvable {
                        specified: cube.specified_count(),
                        capacity: codec.degree as usize,
                    });
                }
                continue;
            }
            pivots.push((63 - row.leading_zeros(), row, rhs));
        }
        let mut seed = 0u64;
        for &(p, row, rhs) in pivots.iter().rev() {
            let lower = row & !(1u64 << p);
            if rhs ^ ((seed & lower).count_ones() & 1 == 1) {
                seed |= 1 << p;
            }
        }
        let mut out = BitVec::new();
        for b in 0..codec.degree as usize {
            out.push((seed >> b) & 1 == 1);
        }
        Ok(out)
    }

    /// The bit-serial seed expansion that the shared word-packed fill
    /// replaced.
    fn reference_expand(codec: &ReseedingCodec, seed: u64) -> ScanPattern {
        let len = codec.config.max_chain_len() as usize;
        let chains = codec.config.chains() as usize;
        let mut bits = BitVec::zeros(chains * len);
        let mut lfsr = Lfsr::new(codec.degree, codec.taps, 1, LfsrForm::Fibonacci)
            .unwrap()
            .with_state(seed);
        for cycle in 0..len {
            lfsr.step();
            let state = lfsr.state();
            for (j, &mask) in codec.masks.iter().enumerate() {
                if (state & mask).count_ones() & 1 == 1 {
                    bits.set(j * len + cycle, true);
                }
            }
        }
        ScanPattern::new(bits, codec.config)
    }

    #[test]
    fn reseeding_expansion_matches_bit_serial_reference() {
        for (chains, len) in [(1, 1), (3, 37), (33, 5), (4, 48), (4, 64)] {
            let cfg = ScanConfig::new(chains, len);
            for degree in [16, 32, 64] {
                let codec = ReseedingCodec::new(cfg, degree).unwrap();
                for seed in [0u64, 1, 0xDEAD_BEEF_0BAD_F00D, u64::MAX] {
                    let seed = if degree == 64 {
                        seed
                    } else {
                        seed & ((1 << degree) - 1)
                    };
                    let mut stream = BitVec::new();
                    for b in 0..degree {
                        stream.push((seed >> b) & 1 == 1);
                    }
                    assert_eq!(
                        codec.decompress(&stream).unwrap(),
                        reference_expand(&codec, seed),
                        "{cfg} degree {degree} seed {seed:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_rows_compress_matches_fresh_solve() {
        let mut solved = 0;
        let mut unsolvable = 0;
        for (chains, len, degree) in [(4, 64, 64), (3, 37, 32), (33, 5, 48), (4, 48, 16)] {
            let cfg = ScanConfig::new(chains, len);
            let codec = ReseedingCodec::new(cfg, degree).unwrap();
            for seed in 0..60u64 {
                // From a handful of care bits to well past the seed
                // capacity, so both outcomes are exercised.
                let cares = 1 + (seed as usize * 7) % (degree as usize + 24);
                let cube = TestCube::random(cfg, cares, seed);
                let got = codec.compress(&cube);
                assert_eq!(got, reference_compress(&codec, &cube), "{cfg} cube {seed}");
                match got {
                    Ok(stream) => {
                        assert!(cube.is_satisfied_by(&codec.decompress(&stream).unwrap()));
                        solved += 1;
                    }
                    Err(_) => unsolvable += 1,
                }
            }
        }
        assert!(
            solved >= 100 && unsolvable >= 20,
            "{solved} solved, {unsolvable} unsolvable"
        );
    }

    #[test]
    fn reseeding_overconstrained_cube_fails_gracefully() {
        let codec = ReseedingCodec::new(cfg(), 16).unwrap();
        // 128 care bits >> 16 seed bits: essentially surely unsolvable.
        let cube = TestCube::random(cfg(), 128, 7);
        match codec.compress(&cube) {
            Err(CompressError::Unsolvable {
                specified,
                capacity,
            }) => {
                assert_eq!(specified, 128);
                assert_eq!(capacity, 16);
            }
            Ok(stream) => {
                // In the (astronomically unlikely) solvable case the
                // expansion must still satisfy the cube.
                assert!(cube.is_satisfied_by(&codec.decompress(&stream).unwrap()));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn reseeding_detects_geometry_mismatch() {
        let codec = ReseedingCodec::new(cfg(), 32).unwrap();
        let other = TestCube::random(ScanConfig::new(2, 8), 3, 0);
        assert_eq!(
            codec.compress(&other).unwrap_err(),
            CompressError::GeometryMismatch
        );
        assert!(matches!(
            codec.decompress(&BitVec::zeros(31)).unwrap_err(),
            CompressError::Malformed(_)
        ));
    }
}
