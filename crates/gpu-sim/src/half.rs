//! IEEE 754 binary16 ("half") implemented from scratch.
//!
//! Tensor cores take half-precision inputs and accumulate in `f32`
//! (Section 2.2: "inputs in 16-bit half floating-point format and outputs
//! in 32-bit floating-point format"). bitBSR stores matrix values as f16 —
//! that is what brings its footprint down to the paper's 2.85 bytes/nnz —
//! so a correct, tested f16 is part of the substrate rather than an
//! external dependency.

/// A 16-bit IEEE 754 binary16 value (1 sign, 5 exponent, 10 mantissa bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7bff);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Converts from `f32` with round-to-nearest-even, the rounding mode
    /// tensor-core loads use. Overflow goes to infinity; subnormals are
    /// produced below 2^-14; NaN payloads collapse to a canonical quiet NaN.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = bits & 0x007f_ffff;

        if exp == 0xff {
            // Inf or NaN.
            return if mant == 0 {
                F16(sign | 0x7c00)
            } else {
                F16(sign | 0x7e00) // canonical quiet NaN
            };
        }

        // Unbiased exponent; f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return F16(sign | 0x7c00); // overflow -> inf
        }
        if unbiased >= -14 {
            // Normal range: keep 10 mantissa bits, RNE on the dropped 13.
            let mant16 = mant >> 13;
            let rest = mant & 0x1fff;
            let halfway = 0x1000;
            let mut out = sign as u32 | (((unbiased + 15) as u32) << 10) | mant16;
            if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
                out += 1; // mantissa carry may roll into the exponent; that
                          // is correct behaviour (rounds up to next binade
                          // or to infinity).
            }
            return F16(out as u16);
        }
        if unbiased >= -25 {
            // Subnormal range: implicit leading 1 becomes explicit, shifted
            // right by the exponent deficit.
            let full = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let mant16 = full >> shift;
            let rest = full & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut out = sign as u32 | mant16;
            if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
                out += 1;
            }
            return F16(out as u16);
        }
        F16(sign) // underflow to signed zero
    }

    /// Converts to `f32`, exactly (every f16 is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1f) as u32;
        let mant = (self.0 & 0x3ff) as u32;
        let bits = match (exp, mant) {
            (0, 0) => sign,
            (0, m) => {
                // Subnormal: value = m * 2^-24; normalise so the top set
                // bit of m becomes the implicit leading 1.
                let lz = m.leading_zeros(); // in [22, 31] since m <= 0x3ff
                let shift = lz - 21; // moves the top bit to position 10
                let mant_norm = (m << shift) & 0x3ff;
                let exp32 = 134 - lz; // (31 - lz) - 24 + 127
                sign | (exp32 << 23) | (mant_norm << 13)
            }
            (0x1f, 0) => sign | 0x7f80_0000,
            (0x1f, _) => sign | 0x7fc0_0000,
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }

    /// Rounds an `f32` through f16 precision and back — the value a tensor
    /// core actually multiplies after loading `value` into a half fragment.
    ///
    /// Bit-identical to `F16::from_f32(value).to_f32()`, with two fast
    /// paths in plain bit arithmetic. In the f16 normal range (f32
    /// exponent field 113..=142) it rounds to nearest even on the 13
    /// mantissa bits f16 drops: a carry out of the mantissa moves to the
    /// next binade, and a carry into exponent 143 (2^16, past the f16
    /// range) becomes ±inf. Below half the smallest f16 subnormal
    /// (exponent field ≤ 101, including zeros) the result is a signed
    /// zero. Everything else — f16 subnormals, overflow, inf and NaN —
    /// takes the full conversion.
    #[inline]
    pub fn round_f32(value: f32) -> f32 {
        match round_fast(value.to_bits()) {
            (bits, true) => f32::from_bits(bits),
            (_, false) => F16::from_f32(value).to_f32(),
        }
    }

    /// [`F16::round_f32`] of every element, bit-identical, with the fast
    /// paths run branch-free over the whole array (so they vectorize) and
    /// the full conversion only for elements outside them.
    #[inline]
    pub(crate) fn round_f32_all<const N: usize>(values: [f32; N]) -> [f32; N] {
        let mut out = [0.0f32; N];
        let mut all_fast = true;
        for (o, v) in out.iter_mut().zip(values) {
            let (bits, fast) = round_fast(v.to_bits());
            *o = f32::from_bits(bits);
            all_fast &= fast;
        }
        if !all_fast {
            for (o, v) in out.iter_mut().zip(values) {
                if !round_fast(v.to_bits()).1 {
                    *o = F16::from_f32(v).to_f32();
                }
            }
        }
        out
    }

    /// [`F16::to_f32`] of every element, bit-identical: zeros and normals
    /// widen branch-free over the whole array (so it vectorizes), and only
    /// subnormals, infinities and NaNs take the full conversion.
    #[inline]
    pub(crate) fn to_f32_all<const N: usize>(values: [F16; N]) -> [f32; N] {
        let mut out = [0.0f32; N];
        let mut all_fast = true;
        for (o, v) in out.iter_mut().zip(values) {
            let h = v.0 as u32;
            let magnitude = h & 0x7fff;
            let normal = magnitude.wrapping_sub(0x0400) < 0x7800;
            // Rebias the exponent by 127 - 15 and widen the mantissa.
            let wide = if normal { (magnitude << 13) + (112 << 23) } else { 0 };
            *o = f32::from_bits((h & 0x8000) << 16 | wide);
            all_fast &= normal | (magnitude == 0);
        }
        if !all_fast {
            for (o, v) in out.iter_mut().zip(values) {
                let magnitude = v.0 & 0x7fff;
                if magnitude != 0 && magnitude.wrapping_sub(0x0400) >= 0x7800 {
                    *o = v.to_f32();
                }
            }
        }
        out
    }

    /// True for positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }

    /// True for neither infinity nor NaN.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7c00) != 0x7c00
    }

    /// True for NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x3ff) != 0
    }

    /// True for zero of either sign.
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7fff) == 0
    }

    /// Classifies what rounding `value` through f16 does to it — the
    /// numerical guard rail behind SimSan's per-block hazard reports:
    ///
    /// * NaN in, NaN out → [`ConvertHazard::Nan`];
    /// * infinite in, or finite in and infinite out (the f16 range tops
    ///   out at 65504) → [`ConvertHazard::Overflow`];
    /// * nonzero in with `|value| >= underflow_tol`, zero out →
    ///   [`ConvertHazard::Underflow`] (smaller magnitudes are treated as
    ///   negligible noise, not lost signal);
    /// * everything else → `None` (at worst ordinary rounding error).
    pub fn convert_hazard(value: f32, underflow_tol: f32) -> Option<ConvertHazard> {
        if value.is_nan() {
            return Some(ConvertHazard::Nan);
        }
        if value.is_infinite() {
            return Some(ConvertHazard::Overflow);
        }
        let h = F16::from_f32(value);
        if h.is_infinite() {
            return Some(ConvertHazard::Overflow);
        }
        if h.is_zero() && value != 0.0 && value.abs() >= underflow_tol {
            return Some(ConvertHazard::Underflow);
        }
        None
    }
}

/// The fast paths of [`F16::round_f32`], branch-free: the rounded bits,
/// and whether `bits` lies in a fast range at all (when it does not, the
/// returned bits are meaningless).
#[inline(always)]
fn round_fast(bits: u32) -> (u32, bool) {
    let exp = (bits >> 23) & 0xff;
    let normal = exp.wrapping_sub(113) <= 142 - 113;
    let tiny = exp <= 101;
    let sign = bits & 0x8000_0000;
    // Adding 0xfff plus the kept mantissa's last bit carries into bit 13
    // exactly when round-to-nearest-even rounds up.
    let rounded = bits.wrapping_add(0x0fff + ((bits >> 13) & 1)) & !0x1fff;
    let out = if tiny {
        sign
    } else if rounded & 0x7f80_0000 == 143 << 23 {
        sign | 0x7f80_0000
    } else {
        rounded
    };
    (out, normal | tiny)
}

/// How an f32 → f16 conversion loses information (beyond ordinary
/// rounding). See [`F16::convert_hazard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvertHazard {
    /// The value left the f16 range and became ±Inf.
    Overflow = 0,
    /// A non-negligible value rounded to zero.
    Underflow = 1,
    /// A NaN entered (or survived) the f16 datapath.
    Nan = 2,
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0).0, 0x3c00);
        assert_eq!(F16::from_f32(-1.0).0, 0xbc00);
        assert_eq!(F16::from_f32(2.0).0, 0x4000);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(65504.0).0, 0x7bff);
        assert_eq!(F16::from_f32(1.5).0, 0x3e00);
        assert_eq!(F16::from_f32(0.099975586).0, 0x2e66); // nearest to 0.1
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY); // ties-to-even up
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e30), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormals() {
        // 2^-15 is subnormal in f16: 0x0200.
        assert_eq!(F16::from_f32(2.0f32.powi(-15)).0, 0x0200);
        // Smallest subnormal 2^-24 -> 0x0001.
        assert_eq!(F16::from_f32(2.0f32.powi(-24)).0, 0x0001);
        // Half of it rounds to zero under RNE (tie, even).
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).0, 0x0000);
        // Just above half rounds up.
        assert_eq!(F16::from_f32(2.0f32.powi(-25) * 1.0001).0, 0x0001);
        // Underflow to zero.
        assert_eq!(F16::from_f32(1e-30).0, 0x0000);
    }

    #[test]
    fn subnormal_to_f32_exact() {
        assert_eq!(F16(0x0001).to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16(0x0200).to_f32(), 2.0f32.powi(-15));
        assert_eq!(F16(0x03ff).to_f32(), 2.0f32.powi(-24) * 1023.0);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10; RNE keeps
        // the even mantissa (1.0).
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie).0, 0x3c00);
        // 1 + 3*2^-11 is halfway between odd and even; rounds up to even.
        let tie2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie2).0, 0x3c02);
    }

    #[test]
    fn mantissa_carry_rolls_to_next_binade() {
        // Largest f16 below 2.0 is 1.9990234; anything closer to 2.0 than
        // the midpoint must round to exactly 2.0.
        assert_eq!(F16::from_f32(1.9998).0, 0x4000);
    }

    #[test]
    fn exhaustive_roundtrip_all_finite_f16() {
        // Every finite f16 must survive f16 -> f32 -> f16 exactly.
        for bits in 0..=0xffffu16 {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, bits, "bits {bits:#06x} -> {} -> {:#06x}", h.to_f32(), back.0);
        }
    }

    #[test]
    fn rounding_error_is_bounded() {
        // Relative error of RNE to f16 is at most 2^-11 for normal values.
        let mut v = 1.0e-4f32;
        while v < 6.0e4 {
            let r = F16::round_f32(v);
            let rel = ((r - v) / v).abs();
            assert!(rel <= 2.0f32.powi(-11) + 1e-9, "v={v} r={r} rel={rel}");
            v *= 1.37;
        }
    }

    #[test]
    fn convert_hazard_classification() {
        let tol = 1e-12;
        assert_eq!(F16::convert_hazard(1.0, tol), None);
        assert_eq!(F16::convert_hazard(0.0, tol), None);
        assert_eq!(F16::convert_hazard(-0.0, tol), None);
        assert_eq!(F16::convert_hazard(65504.0, tol), None, "f16::MAX is representable");
        assert_eq!(F16::convert_hazard(1e6, tol), Some(ConvertHazard::Overflow));
        assert_eq!(F16::convert_hazard(-1e6, tol), Some(ConvertHazard::Overflow));
        assert_eq!(F16::convert_hazard(f32::INFINITY, tol), Some(ConvertHazard::Overflow));
        assert_eq!(F16::convert_hazard(f32::NAN, tol), Some(ConvertHazard::Nan));
        // 1e-9 rounds to zero (below the 2^-25 threshold) and is above tol.
        assert_eq!(F16::convert_hazard(1e-9, tol), Some(ConvertHazard::Underflow));
        assert_eq!(F16::convert_hazard(-1e-9, tol), Some(ConvertHazard::Underflow));
        // Below the tolerance: tolerated noise.
        assert_eq!(F16::convert_hazard(1e-20, tol), None);
        // Subnormal f16 values survive the conversion: no hazard.
        assert_eq!(F16::convert_hazard(2.0f32.powi(-20), tol), None);
    }

    #[test]
    fn ordering_preserved() {
        // Monotonic: a <= b implies f16(a) <= f16(b).
        let mut prev = F16::from_f32(-70000.0).to_f32();
        let mut v = -70000.0f32;
        while v < 70000.0 {
            let r = F16::round_f32(v);
            assert!(r >= prev, "monotonicity broken at {v}");
            prev = r;
            v += 173.31;
        }
    }

    #[test]
    fn fast_round_matches_the_full_conversion() {
        let reference = |v: f32| F16::from_f32(v).to_f32();
        let check = |bits: u32| {
            let v = f32::from_bits(bits);
            let (got, want) = (F16::round_f32(v).to_bits(), reference(v).to_bits());
            assert_eq!(got, want, "input {bits:#010x}: {got:#010x} vs {want:#010x}");
        };
        // Every exponent around and inside the fast window, both signs:
        // each rounding boundary of the 13 dropped bits with both parities
        // of the kept mantissa's last bit, the mantissa extremes that carry
        // into the next binade, and a strided mantissa sweep.
        for sign in [0u32, 0x8000_0000] {
            for exp in (0u32..4).chain(99..=104).chain(111..=144) {
                let head = sign | (exp << 23);
                for kept in [0u32, 1, 2, 0x155, 0x2aa, 0x3fe, 0x3ff] {
                    for dropped in [0u32, 1, 0x0fff, 0x1000, 0x1001, 0x1fff] {
                        check(head | (kept << 13) | dropped);
                    }
                }
                for mant in (0..0x0080_0000u32).step_by(97) {
                    check(head | mant);
                }
            }
        }
        for bits in [0u32, 0x7f80_0000, 0x7fc0_0000, 0x7f80_0001, 0xffc0_0123, 0x0000_0001] {
            check(bits);
            check(bits | 0x8000_0000);
        }
    }

    #[test]
    fn array_rounding_matches_elementwise() {
        // Mixed fast and full-conversion elements in one array.
        let values: [f32; 12] = [
            1.0, -0.1, 0.0, -0.0, 1e-9, 3e-6, 65519.0, 65520.0, 1e6, f32::NAN, -f32::INFINITY,
            1.0e-40,
        ];
        let all = F16::round_f32_all(values);
        for (v, r) in values.iter().zip(all) {
            assert_eq!(r.to_bits(), F16::from_f32(*v).to_f32().to_bits(), "{v}");
        }
        let fast = F16::round_f32_all([0.1f32, -2.5, 1e-30, 7.0]);
        assert_eq!(fast, [0.1f32, -2.5, 1e-30, 7.0].map(F16::round_f32));
    }

    #[test]
    fn array_widening_matches_elementwise_on_every_f16() {
        let all: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        for chunk in all.chunks_exact(64) {
            let chunk: [F16; 64] = chunk.try_into().unwrap();
            let wide = F16::to_f32_all(chunk);
            for (h, w) in chunk.iter().zip(wide) {
                assert_eq!(w.to_bits(), h.to_f32().to_bits(), "{:#06x}", h.0);
            }
        }
        // Zeros of both signs and normals only: the branch-free path alone.
        let fast = F16::to_f32_all([F16::ONE, F16::ZERO, F16(0x8000), F16::MAX]);
        assert_eq!(fast.map(f32::to_bits), [1.0f32, 0.0, -0.0, 65504.0].map(f32::to_bits));
    }
}
