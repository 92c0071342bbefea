//! The functional JPEG encoding math shared by the cores and the software
//! reference: JFIF color conversion, the forward 8×8 DCT, quantization and
//! zigzag ordering.
//!
//! The SoC under test is a JPEG *encoder*; having the real math in the
//! functional TLMs lets integration tests prove that wrappers are fully
//! transparent in functional mode (an encoded block through the wrapped
//! SoC equals the software reference).

/// The standard JPEG luminance quantization table (Annex K), row-major.
pub(crate) const LUMA_QUANT: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// JFIF RGB → YCbCr conversion (full range, rounded).
pub(crate) fn rgb_to_ycbcr(rgb: [u8; 3]) -> [u8; 3] {
    let (r, g, b) = (rgb[0] as f64, rgb[1] as f64, rgb[2] as f64);
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
    let cr = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
    [
        y.round().clamp(0.0, 255.0) as u8,
        cb.round().clamp(0.0, 255.0) as u8,
        cr.round().clamp(0.0, 255.0) as u8,
    ]
}

/// The 2-D forward DCT of an 8×8 block (row-major), type-II with
/// orthonormal scaling, as in the JPEG standard.
pub(crate) fn fdct8x8(block: &[i32; 64]) -> [f64; 64] {
    let mut out = [0.0f64; 64];
    let c = |k: usize| {
        if k == 0 {
            std::f64::consts::FRAC_1_SQRT_2
        } else {
            1.0
        }
    };
    for v in 0..8 {
        for u in 0..8 {
            let mut sum = 0.0;
            for y in 0..8 {
                for x in 0..8 {
                    sum += block[y * 8 + x] as f64
                        * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * std::f64::consts::PI / 16.0).cos();
                }
            }
            out[v * 8 + u] = 0.25 * c(u) * c(v) * sum;
        }
    }
    out
}

/// Forward DCT followed by quantization: the DCT core's data path.
pub(crate) fn fdct_quantize(block: &[i32; 64], quant: &[u16; 64]) -> [i32; 64] {
    let coeffs = fdct8x8(block);
    let mut out = [0i32; 64];
    for i in 0..64 {
        out[i] = (coeffs[i] / quant[i] as f64).round() as i32;
    }
    out
}

/// The JPEG zigzag scan order: `ZIGZAG[k]` is the row-major index of the
/// `k`-th coefficient in zigzag order.
pub(crate) const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Reorders quantized coefficients into zigzag order.
pub(crate) fn zigzag_scan(coeffs: &[i32; 64]) -> [i32; 64] {
    let mut out = [0i32; 64];
    for (k, &idx) in ZIGZAG.iter().enumerate() {
        out[k] = coeffs[idx];
    }
    out
}

/// Encodes one 8×8 RGB block to quantized, zigzag-ordered luminance
/// coefficients — the software reference against which the SoC-driven
/// pipeline is validated.
pub fn encode_block_reference(rgb_block: &[[u8; 3]; 64]) -> [i32; 64] {
    let mut samples = [0i32; 64];
    for (i, px) in rgb_block.iter().enumerate() {
        let [y, _, _] = rgb_to_ycbcr(*px);
        samples[i] = y as i32 - 128; // level shift
    }
    zigzag_scan(&fdct_quantize(&samples, &LUMA_QUANT))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_color_conversions() {
        assert_eq!(rgb_to_ycbcr([0, 0, 0]), [0, 128, 128]);
        assert_eq!(rgb_to_ycbcr([255, 255, 255]), [255, 128, 128]);
        let [y, cb, cr] = rgb_to_ycbcr([255, 0, 0]);
        assert_eq!(y, 76);
        assert_eq!(cb, 85);
        assert_eq!(cr, 255);
    }

    #[test]
    fn dct_of_flat_block_is_pure_dc() {
        let block = [100i32; 64];
        let coeffs = fdct8x8(&block);
        assert!((coeffs[0] - 800.0).abs() < 1e-9, "DC = 8 * value");
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-9, "AC coefficient {i} = {c}");
        }
    }

    #[test]
    fn dct_parseval_energy_is_preserved() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i as i32 * 37) % 255) - 128;
        }
        let spatial: f64 = block.iter().map(|&x| (x as f64).powi(2)).sum();
        let coeffs = fdct8x8(&block);
        let spectral: f64 = coeffs.iter().map(|&c| c.powi(2)).sum();
        assert!(
            (spatial - spectral).abs() / spatial < 1e-9,
            "orthonormal DCT must preserve energy"
        );
    }

    #[test]
    fn quantization_shrinks_high_frequencies() {
        let mut block = [0i32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = if (i / 8 + i % 8) % 2 == 0 { 100 } else { -100 };
        }
        let q = fdct_quantize(&block, &LUMA_QUANT);
        let nonzero = q.iter().filter(|&&c| c != 0).count();
        assert!(nonzero < 64, "quantization must zero some coefficients");
        assert!(nonzero > 0);
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        // Spot checks against the standard order.
        assert_eq!(ZIGZAG[0], 0);
        assert_eq!(ZIGZAG[1], 1);
        assert_eq!(ZIGZAG[2], 8);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn reference_encoder_flat_block() {
        let block = [[128u8, 128, 128]; 64];
        let coeffs = encode_block_reference(&block);
        // Gray 128 level-shifts to ~0: everything quantizes to zero.
        assert!(coeffs.iter().all(|&c| c == 0), "{coeffs:?}");
    }
}
