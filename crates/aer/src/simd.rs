//! Portable SIMD lanes for the statevector kernels.
//!
//! Stable-Rust "array of lanes" vectors: [`F64x4`] is a plain `[f64; 4]`
//! whose elementwise operations are small `#[inline(always)]` loops that
//! LLVM autovectorizes. One vector holds **two packed complex amplitudes**
//! `[re₀, im₀, re₁, im₁]`, so a single lane op advances two amplitude
//! pairs of a butterfly at once.
//!
//! What one op becomes depends on the ISA the code is compiled for. The
//! default x86-64 target only guarantees SSE2, so there an [`F64x4`] op is
//! two 128-bit instructions. The kernel body is therefore compiled twice,
//! once for the baseline ISA and once with AVX2 enabled (one 256-bit
//! instruction per op), and `Kernel::apply_unit` picks the AVX2 build when
//! `avx2()` finds the host supports it. Other targets run the baseline
//! build. [`lane_isa`] names the build a run uses.
//!
//! Two invariants make this layer safe to enable unconditionally:
//!
//! * **Lane safety** — vectors are built from `Complex` *field reads* and
//!   written back through `Complex::new`; no pointer casts, so the layout
//!   of `Complex` (which is not `repr(C)`) is never assumed.
//! * **Bit-identity** — every vectorized kernel formula performs exactly
//!   the same IEEE-754 operations per element as its scalar counterpart:
//!   the same products (multiplication is commutative bit-for-bit), the
//!   same association, with `a - b` replaced only by the exactly-equal
//!   `a + (-b)`. The scalar fallback selected by `QUKIT_SIMD=off` must
//!   therefore produce bit-identical amplitudes — a property the
//!   `parallel_equivalence` suite checks on 200 random circuits. Neither
//!   build enables FMA: a fused multiply-add rounds once where the scalar
//!   code rounds twice, so it would break this.

use qukit_terra::complex::Complex;
use std::sync::OnceLock;

/// Four `f64` lanes; elementwise ops autovectorize on stable Rust.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Lanewise addition.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        let a = self.0;
        let b = rhs.0;
        Self([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }

    /// Lanewise multiplication.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        let a = self.0;
        let b = rhs.0;
        Self([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }

    /// Swaps the lanes of each packed complex: `[a, b, c, d] → [b, a, d, c]`.
    ///
    /// With the `[re₀, im₀, re₁, im₁]` packing this exchanges real and
    /// imaginary parts, the shuffle every complex multiply needs.
    #[inline(always)]
    pub fn swap_pairs(self) -> Self {
        let [a, b, c, d] = self.0;
        Self([b, a, d, c])
    }

    /// Swaps the two packed complexes: `[a, b, c, d] → [c, d, a, b]`.
    ///
    /// When one vector holds both amplitudes of a butterfly pair (target
    /// qubit 0), this lines each amplitude up with its partner.
    #[inline(always)]
    pub fn swap_halves(self) -> Self {
        let [a, b, c, d] = self.0;
        Self([c, d, a, b])
    }
}

/// Multiplies two packed amplitudes by the complex constant `(re, im)`,
/// performing per element exactly the ops of `Complex::mul`:
/// `(a.re·re − a.im·im, a.re·im + a.im·re)`.
///
/// The `im` weights are passed pre-negated in the even lanes
/// (`[-im, im, -im, im]`) so the subtraction becomes an exactly-equal
/// addition of a negated product.
#[inline(always)]
pub fn complex_mul2(v: F64x4, re: f64, neg_im_im: F64x4) -> F64x4 {
    complex_mul_lanes(v, F64x4::splat(re), neg_im_im)
}

/// Multiplies each packed amplitude by its own complex constant: the
/// first by `(re[0], im[1])`, the second by `(re[2], im[3])`, with the
/// same per-element ops as [`complex_mul2`]. `re` holds each real part
/// twice, `neg_im_im` each imaginary part as `[-im, im]`.
#[inline(always)]
pub fn complex_mul_lanes(v: F64x4, re: F64x4, neg_im_im: F64x4) -> F64x4 {
    v.mul(re).add(v.swap_pairs().mul(neg_im_im))
}

/// Builds the `[-im, im, -im, im]` weight vector for [`complex_mul2`].
#[inline(always)]
pub fn neg_im_vec(im: f64) -> F64x4 {
    F64x4([-im, im, -im, im])
}

/// The real parts of `lo` and `hi`, each twice: `[lo.re, lo.re, hi.re,
/// hi.re]`, the `re` weights of [`complex_mul_lanes`].
#[inline(always)]
pub fn re_pair(lo: Complex, hi: Complex) -> F64x4 {
    F64x4([lo.re, lo.re, hi.re, hi.re])
}

/// The `[-lo.im, lo.im, -hi.im, hi.im]` weights of [`complex_mul_lanes`].
#[inline(always)]
pub fn neg_im_pair(lo: Complex, hi: Complex) -> F64x4 {
    F64x4([-lo.im, lo.im, -hi.im, hi.im])
}

/// Whether the SIMD kernels are enabled by default, from `QUKIT_SIMD`
/// (`on` unless the variable parses to false). Read once per process;
/// explicit [`crate::parallel::ParallelConfig`] values override it.
pub fn simd_default() -> bool {
    static SIMD: OnceLock<bool> = OnceLock::new();
    *SIMD.get_or_init(|| match std::env::var("QUKIT_SIMD") {
        Ok(value) => crate::parallel::parse_bool_flag(&value).unwrap_or(true),
        Err(_) => true,
    })
}

/// Whether the host supports AVX2, detected once per process; always
/// false off x86-64.
#[inline]
pub(crate) fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The lane build a kernel pass runs in on this host: `avx2`, `baseline`
/// (the target's default ISA), or `off` when `simd` is unset and the
/// scalar oracle runs.
pub fn lane_isa(simd: bool) -> &'static str {
    match (simd, avx2()) {
        (false, _) => "off",
        (true, true) => "avx2",
        (true, false) => "baseline",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_are_elementwise() {
        let a = F64x4([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4([0.5, 0.25, -1.0, 2.0]);
        assert_eq!(a.add(b), F64x4([1.5, 2.25, 2.0, 6.0]));
        assert_eq!(a.mul(b), F64x4([0.5, 0.5, -3.0, 8.0]));
        assert_eq!(a.swap_pairs(), F64x4([2.0, 1.0, 4.0, 3.0]));
        assert_eq!(a.swap_halves(), F64x4([3.0, 4.0, 1.0, 2.0]));
        assert_eq!(F64x4::splat(7.0), F64x4([7.0; 4]));
    }

    #[test]
    fn complex_mul_lanes_matches_complex_mul_bitwise() {
        let amps = [Complex::new(0.3, -0.7), Complex::new(-0.12345, 0.9999)];
        let f = [Complex::new(0.6, -0.8), Complex::new(-0.28, 0.96)];
        let v = F64x4([amps[0].re, amps[0].im, amps[1].re, amps[1].im]);
        let out = complex_mul_lanes(v, re_pair(f[0], f[1]), neg_im_pair(f[0], f[1]));
        for k in 0..2 {
            let expect = f[k] * amps[k];
            assert_eq!(out.0[2 * k].to_bits(), expect.re.to_bits());
            assert_eq!(out.0[2 * k + 1].to_bits(), expect.im.to_bits());
        }
    }

    #[test]
    fn complex_mul2_matches_complex_mul_bitwise() {
        let amps = [Complex::new(0.3, -0.7), Complex::new(-0.12345, 0.9999)];
        let f = Complex::new(0.6, -0.8);
        let v = F64x4([amps[0].re, amps[0].im, amps[1].re, amps[1].im]);
        let out = complex_mul2(v, f.re, neg_im_vec(f.im));
        for (k, amp) in amps.iter().enumerate() {
            let expect = *amp * f;
            assert_eq!(out.0[2 * k], expect.re);
            assert_eq!(out.0[2 * k + 1], expect.im);
        }
    }
}
