//! SIMD-shaped elementwise `f32` kernels.
//!
//! Every numeric inner loop of the simulator — the PE array's
//! scalar-times-row MAC ([`axpy`]), the outer-product column update built on
//! it, and elementwise scaling ([`scale`]) — is purely elementwise: element
//! `i` of the output depends only on element `i` of the inputs, with exactly
//! one multiply and (for axpy) one add per element. There is no reduction,
//! so blocking the loop into fixed-width chunks changes neither the order
//! nor the association of any floating-point operation: the blocked kernels
//! are **bit-identical** to their scalar references on every non-NaN
//! result, infinities, signed zeros and subnormals included. A NaN result
//! is NaN in both, but its sign and payload may differ: Rust leaves them
//! unspecified for a NaN produced by arithmetic, and the vectorised and
//! scalar loops do produce different signs in optimised builds. Exactness
//! everywhere else is what makes the kernels legal inside a simulator
//! whose reports must stay bit-exact.
//!
//! The blocked shape (`chunks_exact` over [`LANES`]-wide chunks with a
//! scalar remainder) is what LLVM's auto-vectoriser wants to see: the chunk
//! loop has a compile-time trip count and no bounds checks, so it compiles
//! to packed SIMD on any target without `unsafe` or intrinsics.
//!
//! The property test at the bottom pins this across ragged widths (0, 1,
//! 15, 16, 17, 64-aligned, primes) and adversarial values; the
//! Criterion benchmark `hymm-bench/benches/kernels.rs` keeps the scalar
//! references around as baselines.

/// Chunk width of the blocked kernels: 8 lanes = one 256-bit vector of
/// `f32`, and an even divisor of the 64-byte accelerator line (16 elements).
pub const LANES: usize = 8;

/// Blocked `dst[i] += scalar * src[i]` — the PE array's scalar-vector MAC.
///
/// Bit-identical to [`axpy_scalar`] (see the module docs for why).
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
pub fn axpy(dst: &mut [f32], scalar: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy operand lengths must match");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (db, sb) in d.by_ref().zip(s.by_ref()) {
        for i in 0..LANES {
            db[i] += scalar * sb[i];
        }
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv += scalar * sv;
    }
}

/// Scalar reference for [`axpy`]; kept as the bit-identity oracle and the
/// benchmark baseline.
pub fn axpy_scalar(dst: &mut [f32], scalar: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy operand lengths must match");
    for (dv, &sv) in dst.iter_mut().zip(src) {
        *dv += scalar * sv;
    }
}

/// Blocked in-place `dst[i] *= scalar` (degree normalisation, ReLU masks).
///
/// Bit-identical to [`scale_scalar`].
pub fn scale(dst: &mut [f32], scalar: f32) {
    let mut d = dst.chunks_exact_mut(LANES);
    for db in d.by_ref() {
        for v in db.iter_mut() {
            *v *= scalar;
        }
    }
    for v in d.into_remainder() {
        *v *= scalar;
    }
}

/// Scalar reference for [`scale`].
pub fn scale_scalar(dst: &mut [f32], scalar: f32) {
    for v in dst {
        *v *= scalar;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Ragged widths the issue calls out: empty, single, just under/at/over
    /// one chunk, 64-aligned, and primes straddling several chunk counts.
    const WIDTHS: [usize; 12] = [0, 1, 7, 15, 16, 17, 31, 64, 128, 13, 97, 251];

    /// Adversarial values mixed into the random streams.
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        1.0e-40, // subnormal
        f32::MAX,
    ];

    fn random_vec(rng: &mut rand_pcg::Pcg64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_ratio(1, 8) {
                    SPECIALS[rng.gen_range(0..SPECIALS.len())]
                } else {
                    rng.gen_range(-1.0e4f32..1.0e4)
                }
            })
            .collect()
    }

    /// Exact bit patterns, except that every NaN maps to one canonical
    /// pattern: a NaN lane must stay NaN, but the sign and payload of an
    /// arithmetic NaN are unspecified. Every other lane, ±0 included,
    /// compares bit for bit.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    #[test]
    fn axpy_bit_identical_to_scalar_across_ragged_widths() {
        let mut rng = rand_pcg::Pcg64::seed_from_u64(0xB17_1DE7);
        for &w in &WIDTHS {
            for trial in 0..50 {
                let src = random_vec(&mut rng, w);
                let base = random_vec(&mut rng, w);
                let scalar = if trial % 10 == 0 {
                    SPECIALS[trial / 10 % SPECIALS.len()]
                } else {
                    rng.gen_range(-100.0f32..100.0)
                };
                let mut blocked = base.clone();
                let mut scalar_ref = base;
                axpy(&mut blocked, scalar, &src);
                axpy_scalar(&mut scalar_ref, scalar, &src);
                assert_eq!(
                    bits(&blocked),
                    bits(&scalar_ref),
                    "width {w} trial {trial} scalar {scalar}"
                );
            }
        }
    }

    #[test]
    fn scale_bit_identical_to_scalar_across_ragged_widths() {
        let mut rng = rand_pcg::Pcg64::seed_from_u64(0x5CA1E);
        for &w in &WIDTHS {
            for trial in 0..50 {
                let base = random_vec(&mut rng, w);
                let scalar = rng.gen_range(-100.0f32..100.0);
                let mut blocked = base.clone();
                let mut scalar_ref = base;
                scale(&mut blocked, scalar);
                scale_scalar(&mut scalar_ref, scalar);
                assert_eq!(bits(&blocked), bits(&scalar_ref), "width {w} trial {trial}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn axpy_rejects_mismatched_lengths() {
        axpy(&mut [0.0; 4], 1.0, &[0.0; 5]);
    }
}
