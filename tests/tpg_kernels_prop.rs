//! Property-based proof that the word-parallel Full-data pattern sources
//! are bit-exact: the 64-cycle LFSR leap behind `Prpg`, the reseeding
//! decompressor, `Prpg::skip_patterns` and `Lfsr::step_word` must equal
//! the bit-serial register, and the branchless GF(2) solve behind
//! `ReseedingCodec::compress` must equal a branchy elimination, seeds and
//! `Unsolvable` errors alike. Geometries are random and rarely
//! word-aligned; chains run longer than one 64-cycle leap. See DESIGN.md
//! § 3.3.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tve::tpg::{
    BitVec, CompressError, Compressor, Lfsr, Prpg, ReseedingCodec, ScanConfig, ScanPattern,
    TestCube,
};

/// Every degree in `3..=64` with a tabled maximal polynomial.
fn tabled_degrees() -> Vec<u32> {
    (3..=64).filter(|&d| Lfsr::maximal(d, 1).is_ok()).collect()
}

fn degree_mask(degree: u32) -> u64 {
    u64::MAX >> (64 - degree)
}

/// A non-zero register seed of `degree` bits drawn from `raw`.
fn seed_of(raw: u64, degree: u32) -> u64 {
    (raw & degree_mask(degree)).max(1)
}

/// The phase-shifter mask of chain `j`: the golden-ratio hash that `Prpg`
/// and the reseeding codec share, restated as the reference structure.
fn phase_mask(j: u64, degree: u32) -> u64 {
    let mut x = (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    match x & degree_mask(degree) {
        0 => 1,
        v => v,
    }
}

/// The bit-serial phase-shifter fill: step the register once per shift
/// cycle and give chain `j` the parity of the state under its mask.
fn reference_fill(lfsr: &mut Lfsr, config: ScanConfig, degree: u32) -> ScanPattern {
    let chains = config.chains() as usize;
    let len = config.max_chain_len() as usize;
    let masks: Vec<u64> = (0..chains as u64).map(|j| phase_mask(j, degree)).collect();
    let mut bits = BitVec::zeros(chains * len);
    for cycle in 0..len {
        lfsr.step();
        for (j, &mask) in masks.iter().enumerate() {
            if (lfsr.state() & mask).count_ones() & 1 == 1 {
                bits.set(j * len + cycle, true);
            }
        }
    }
    ScanPattern::new(bits, config)
}

/// A seed as the `degree`-bit stream the reseeding codec exchanges.
fn seed_stream(seed: u64, degree: u32) -> BitVec {
    BitVec::from_bits((0..degree).map(|b| (seed >> b) & 1 == 1))
}

/// The care mask and values of `TestCube::random(config, specified,
/// seed)`, redrawn from the same generator. The caller proves the redraw
/// faithful through the cube's public surface.
fn redraw_cube(config: ScanConfig, specified: usize, seed: u64) -> (Vec<bool>, Vec<bool>) {
    let bits = config.bits_per_pattern() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut care = vec![false; bits];
    let mut value = vec![false; bits];
    let mut placed = 0;
    while placed < specified {
        let pos = rng.gen_range(0..bits);
        if !care[pos] {
            care[pos] = true;
            value[pos] = rng.gen_bool(0.5);
            placed += 1;
        }
    }
    (care, value)
}

/// The decompressor's GF(2) rows, one per scan position, read off the
/// decompressor itself: it is linear in the seed, so the row of position
/// `i` has bit `k` set when seed `1 << k` expands to a one at `i`.
fn expansion_rows(codec: &ReseedingCodec, config: ScanConfig, degree: u32) -> Vec<u64> {
    let mut rows = vec![0u64; config.bits_per_pattern() as usize];
    for k in 0..degree {
        let unit = codec.decompress(&seed_stream(1 << k, degree)).unwrap();
        for (i, row) in rows.iter_mut().enumerate() {
            if unit.stimulus().get(i) == Some(true) {
                *row |= 1 << k;
            }
        }
    }
    rows
}

/// Branchy Gaussian elimination over the care bits in ascending scan
/// position, then back-substitution with free variables zero.
fn reference_solve(
    rows: &[u64],
    care: &[bool],
    value: &[bool],
    degree: u32,
) -> Result<BitVec, CompressError> {
    let specified = care.iter().filter(|&&c| c).count();
    let mut pivots: Vec<(u32, u64, bool)> = Vec::new();
    for i in (0..rows.len()).filter(|&i| care[i]) {
        let (mut row, mut rhs) = (rows[i], value[i]);
        for &(p, prow, prhs) in &pivots {
            if (row >> p) & 1 == 1 {
                row ^= prow;
                rhs ^= prhs;
            }
        }
        if row == 0 {
            if rhs {
                return Err(CompressError::Unsolvable {
                    specified,
                    capacity: degree as usize,
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
    Ok(seed_stream(seed, degree))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Prpg::next_pattern` equals the bit-serial fill for every tabled
    /// degree, pattern after pattern.
    #[test]
    fn prpg_fill_matches_bit_serial(chains in 1u32..=40, len in 1u32..=200,
                                    raw_seed in any::<u64>()) {
        let cfg = ScanConfig::new(chains, len);
        for degree in tabled_degrees() {
            let seed = seed_of(raw_seed, degree);
            let mut prpg = Prpg::new(degree, seed, cfg).unwrap();
            let mut lfsr = Lfsr::maximal(degree, seed).unwrap();
            for k in 0..2 {
                prop_assert_eq!(
                    prpg.next_pattern(),
                    reference_fill(&mut lfsr, cfg, degree),
                    "degree {} pattern {}", degree, k
                );
            }
        }
    }

    /// The reseeding decompressor expands every seed, zero included,
    /// exactly as the bit-serial register would.
    #[test]
    fn reseed_expansion_matches_bit_serial(chains in 1u32..=40, len in 1u32..=200,
                                           raw_seed in any::<u64>()) {
        let cfg = ScanConfig::new(chains, len);
        for degree in tabled_degrees() {
            let codec = ReseedingCodec::new(cfg, degree).unwrap();
            let seed = seed_of(raw_seed, degree);
            let mut lfsr = Lfsr::maximal(degree, seed).unwrap();
            prop_assert_eq!(
                codec.decompress(&seed_stream(seed, degree)).unwrap(),
                reference_fill(&mut lfsr, cfg, degree),
                "degree {} seed {:#x}", degree, seed
            );
            let zero = codec.decompress(&seed_stream(0, degree)).unwrap();
            prop_assert_eq!(zero.stimulus().count_ones(), 0, "degree {}", degree);
        }
    }

    /// `compress` returns the branchy elimination's seed, or its
    /// `Unsolvable`, from a handful of care bits to well past the seed
    /// capacity.
    #[test]
    fn reseed_solve_matches_branchy_elimination(chains in 1u32..=40, len in 1u32..=200,
                                                degree_pick in 0usize..64,
                                                care_pick in 0usize..=96,
                                                cube_seeds in (any::<u64>(), any::<u64>(), any::<u64>())) {
        let degrees = tabled_degrees();
        let degree = degrees[degree_pick % degrees.len()];
        let cfg = ScanConfig::new(chains, len);
        let codec = ReseedingCodec::new(cfg, degree).unwrap();
        let rows = expansion_rows(&codec, cfg, degree);
        let bits = rows.len();
        for (n, cube_seed) in [cube_seeds.0, cube_seeds.1, cube_seeds.2].into_iter().enumerate() {
            // Under, at and over the degree: the third cube always asks for
            // more care bits than the seed has, when the pattern allows.
            let specified = match n {
                0 => care_pick % (degree as usize + 1),
                1 => care_pick % (degree as usize + 33),
                _ => degree as usize + 1 + care_pick % 32,
            }
            .min(bits);
            let cube = TestCube::random(cfg, specified, cube_seed);
            let (care, value) = redraw_cube(cfg, specified, cube_seed);
            // The redraw is the cube: its values are the zero fill, and
            // flipping every position outside its care mask still
            // satisfies the cube, so the mask covers every care bit and,
            // holding `specified` bits, is exactly the cube's.
            let zero_fill = cube.zero_fill();
            prop_assert_eq!(zero_fill.stimulus(), &BitVec::from_bits(value.iter().copied()));
            let flipped = BitVec::from_bits(care.iter().zip(&value).map(|(&c, &v)| v ^ !c));
            prop_assert!(cube.is_satisfied_by(&ScanPattern::new(flipped, cfg)));

            let got = codec.compress(&cube);
            prop_assert_eq!(&got, &reference_solve(&rows, &care, &value, degree),
                            "degree {} cube {} with {} care bits", degree, n, specified);
            if let Ok(stream) = got {
                prop_assert!(cube.is_satisfied_by(&codec.decompress(&stream).unwrap()));
            }
        }
    }

    /// Skipping `n` patterns lands on the same register state as
    /// generating them.
    #[test]
    fn skip_patterns_equals_generating(chains in 1u32..=40, len in 1u32..=200,
                                       degree_pick in 0usize..64, skipped in 0u64..24,
                                       raw_seed in any::<u64>()) {
        let degrees = tabled_degrees();
        let degree = degrees[degree_pick % degrees.len()];
        let cfg = ScanConfig::new(chains, len);
        let seed = seed_of(raw_seed, degree);
        let mut generated = Prpg::new(degree, seed, cfg).unwrap();
        let mut skipping = generated.clone();
        for _ in 0..skipped {
            generated.next_pattern();
        }
        skipping.skip_patterns(skipped);
        prop_assert_eq!(skipping.next_pattern(), generated.next_pattern(),
                        "degree {} after {} patterns", degree, skipped);
    }

    /// `step_word` packs exactly the outputs of `n` single steps, for
    /// every tabled degree.
    #[test]
    fn step_word_matches_single_steps(n in 0u32..=64, raw_seed in any::<u64>()) {
        for degree in tabled_degrees() {
            let mut word = Lfsr::maximal(degree, seed_of(raw_seed, degree)).unwrap();
            let mut serial = word.clone();
            let got = word.step_word(n);
            let want = (0..n).fold(0u64, |w, i| w | u64::from(serial.step()) << i);
            prop_assert_eq!(got, want, "degree {} n {}", degree, n);
            prop_assert_eq!(word.state(), serial.state(), "degree {} n {}", degree, n);
        }
    }
}
