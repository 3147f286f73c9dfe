//! Leading-zero anticipation (LZA) over carry-save pairs.
//!
//! The early-anticipation variant of the FMA (Sec. III-G) must know, from
//! the *inputs alone*, a safe bound on how many leading non-significant
//! bits the sum will have — before the carry-propagating addition runs.
//! This module implements the two-sided (sign-agnostic) indicator of
//! Schmookler & Nowka \[23\]: a per-position boolean string `f` whose
//! leading one falls on the leading significant bit of `a + b`, or one
//! position above it.
//!
//! The exported [`anticipate_leading`] is clamped to the *safe* side: it
//! never reports more skippable bits than the sum actually has, and
//! undershoots by at most [`LZA_MAX_ERROR`] — the "error of up to one bit
//! position" the paper budgets for (Sec. III-G).

use csfma_bits::Bits;
use csfma_carrysave::CsNumber;

/// Maximum undershoot of [`anticipate_leading`] versus the true number of
/// redundant leading bits (excluding the all-cancel case, which the caller
/// must detect separately — the paper's "reliably detect all-0 mantissas").
pub const LZA_MAX_ERROR: usize = 1;

/// Limb `k` of the unbounded two's-complement sign extension of `x`.
#[inline]
fn sext_limb(x: &Bits, k: usize) -> u64 {
    let fill = 0u64.wrapping_sub(x.sign_bit() as u64);
    match x.limbs().get(k) {
        None => fill,
        Some(&l) => match x.width() - 64 * k {
            top @ 1..=63 => l | (fill << top),
            _ => l,
        },
    }
}

/// Raw Schmookler/Nowka general-case indicator string for `a + b` (two's
/// complement, equal widths), computed over the inputs sign-extended by
/// two bits so the top positions need no special-case boundary. The
/// leading one of the indicator falls on the leading significant bit of
/// the sum or one position above it.
///
/// Per position `i`, with `t = a^b`, `g = a&b`, `z = !(a|b)`:
/// `f(i) = t(i+1)·(g(i)·¬z(i−1) + z(i)·¬g(i−1)) + ¬t(i+1)·(z(i)·¬z(i−1) + g(i)·¬g(i−1))`.
/// Like the one-gate-level-per-digit hardware, every position is
/// evaluated at once: limb by limb, the `i+1` neighbors are a right
/// shift carrying in the next limb's bit 0 and the `i−1` neighbors a
/// left shift carrying in the previous limb's bit 63. Below position 0
/// neither generate nor zero holds (a carry-in of unknown value is
/// conservatively assumed possible); above the top, `t` replicates the
/// sign positions, so `t(we)` reads `t(we−1)`.
pub fn lza_indicator(a: &Bits, b: &Bits) -> Bits {
    assert_eq!(a.width(), b.width(), "lza width mismatch");
    let w = a.width();
    if w == 0 {
        return Bits::zero(0);
    }
    let ab = |k: usize| (sext_limb(a, k), sext_limb(b, k));
    let t = |k: usize| {
        let (x, y) = ab(k);
        x ^ y
    };
    let gz = |k: usize| {
        let (x, y) = ab(k);
        (x & y, !(x | y))
    };
    Bits::from_limb_fn(w + 2, |k| {
        let (g, z) = gz(k);
        let t_up = (t(k) >> 1) | (t(k + 1) << 63);
        let (g_lo, z_lo) = match k.checked_sub(1).map(gz) {
            Some((gp, zp)) => ((g << 1) | (gp >> 63), (z << 1) | (zp >> 63)),
            None => (g << 1, z << 1),
        };
        (t_up & ((g & !z_lo) | (z & !g_lo))) | (!t_up & ((z & !z_lo) | (g & !g_lo)))
    })
}

/// Anticipated count of leading *non-significant* bits of the **exact**
/// (non-wrapping) sum of two `w`-bit two's-complement operands, evaluated
/// in `w + 2` bits — leading zeros of a positive sum, leading ones of a
/// negative one, beyond the single sign bit.
///
/// The FMA adders are sized with headroom (Sec. III-D derives the 385-bit
/// window precisely so alignment can never overflow), so the exact sum is
/// the quantity whose normalization the unit anticipates.
///
/// Guarantees (enforced by exhaustive tests, with
/// `truth = redundant_sign_bits(sext(a, w+2) + sext(b, w+2))`):
/// * `anticipate_leading(a,b) <= truth` (safe side: never skip real bits),
/// * `truth - anticipate_leading(a,b) <= LZA_MAX_ERROR`,
///   unless the exact sum is `0` or `-1` (full cancellation — no
///   significant bit exists and the indicator may undershoot arbitrarily;
///   the FMA handles that case with an explicit zero check,
///   cf. Sec. III-G "reliably detect all-0 input mantissas").
pub fn anticipate_leading(a: &Bits, b: &Bits) -> usize {
    let w = a.width();
    let f = lza_indicator(a, b);
    if f.is_zero() {
        // no significant bit anticipated anywhere: full cancellation;
        // report the maximum redundancy of a (w+2)-bit word
        return w + 1;
    }
    let pos_f = f.width() - 1 - f.leading_zeros();
    // a (w+2)-bit word with first significant bit at `p` has `w - p`
    // redundant sign bits; the indicator may overshoot p by one, which
    // only makes this smaller (safe)
    w.saturating_sub(pos_f)
}

/// Anticipated leading non-significant bits for a carry-save value: the
/// CS pair *is* an unfinished addition, which is exactly what the LZA
/// consumes.
pub fn anticipate_leading_cs(v: &CsNumber) -> usize {
    anticipate_leading(v.sum(), v.carry())
}

/// True number of redundant leading bits of a two's complement value: how
/// many MSBs merely replicate the sign (the quantity LZA anticipates).
pub fn true_redundant(v: &Bits) -> usize {
    v.redundant_sign_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact (non-wrapping) sum and its redundancy — the LZA contract's
    /// ground truth.
    fn exact_sum_redundant(a: &Bits, b: &Bits) -> (Bits, usize) {
        let we = a.width() + 2;
        let sum = a.sext(we).wrapping_add(&b.sext(we));
        let r = true_redundant(&sum);
        (sum, r)
    }

    fn check_contract(a: &Bits, b: &Bits) {
        let (sum, truth) = exact_sum_redundant(a, b);
        if sum.is_zero() || sum.is_all_ones() {
            return; // full cancellation: no significant bit exists
        }
        let ant = anticipate_leading(a, b);
        assert!(
            ant <= truth,
            "unsafe anticipation: a={a:?} b={b:?} ant={ant} truth={truth}"
        );
        assert!(
            truth - ant <= LZA_MAX_ERROR,
            "too pessimistic: a={a:?} b={b:?} ant={ant} truth={truth}"
        );
    }

    /// Exhaustive check of the LZA contract on all 8-bit pairs.
    #[test]
    fn exhaustive_8bit_contract() {
        for av in 0u64..256 {
            for bv in 0u64..256 {
                check_contract(&Bits::from_u64(8, av), &Bits::from_u64(8, bv));
            }
        }
    }

    #[test]
    fn positive_example() {
        // 12 + 4 = 16 = 0b0000010000 in 10 bits: 5 redundant sign bits
        let a = Bits::from_u64(8, 12);
        let b = Bits::from_u64(8, 4);
        let (_, truth) = exact_sum_redundant(&a, &b);
        assert_eq!(truth, 4); // 0b0000010000: 4 redundant zeros past the sign
        let ant = anticipate_leading(&a, &b);
        assert!(ant <= truth && truth - ant <= 1, "ant={ant}");
    }

    #[test]
    fn negative_example() {
        let a = Bits::from_i128(8, -3);
        let b = Bits::from_i128(8, -4);
        let (_, truth) = exact_sum_redundant(&a, &b); // -7 = 0b1111111001
        assert_eq!(truth, 6);
        let ant = anticipate_leading(&a, &b);
        assert!(ant <= truth && truth - ant <= 1, "ant={ant}");
    }

    #[test]
    fn cs_wrapper_consistent() {
        let cs = CsNumber::new(Bits::from_u64(16, 0x00f0), Bits::from_u64(16, 0x0010));
        let ant = anticipate_leading_cs(&cs);
        let (_, truth) = exact_sum_redundant(cs.sum(), cs.carry());
        assert!(ant <= truth && truth - ant <= LZA_MAX_ERROR);
    }

    #[test]
    fn full_cancellation_is_out_of_contract_but_bounded() {
        // x + (-x) = 0: the indicator may fire anywhere (the unit detects
        // this case separately); the report must still be in range
        let a = Bits::from_i128(8, 42);
        let b = Bits::from_i128(8, -42);
        assert!(anticipate_leading(&a, &b) <= 9); // <= w + 1
    }

    /// Per-position specification of [`lza_indicator`]: the indicator
    /// formula evaluated one bit at a time on the `w + 2`-bit sign
    /// extensions, with `t` clamped at the top position.
    fn indicator_spec(a: &Bits, b: &Bits) -> Bits {
        let w = a.width();
        if w == 0 {
            return Bits::zero(0);
        }
        let we = w + 2;
        let ax = a.sext(we);
        let bx = b.sext(we);
        let t = |i: usize| {
            let i = i.min(we - 1);
            ax.bit(i) ^ bx.bit(i)
        };
        let g = |i: usize| ax.bit(i) && bx.bit(i);
        let z = |i: usize| !ax.bit(i) && !bx.bit(i);
        let mut f = Bits::zero(we);
        for i in 0..we {
            let (gi_1, zi_1) = if i == 0 {
                (false, false)
            } else {
                (g(i - 1), z(i - 1))
            };
            let ti1 = t(i + 1);
            let fi = (ti1 && ((g(i) && !zi_1) || (z(i) && !gi_1)))
                || (!ti1 && ((z(i) && !zi_1) || (g(i) && !gi_1)));
            f.set_bit(i, fi);
        }
        f
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Random `width`-bit operand; one in four is a sign run (`0…0` or
    /// `1…1` above a random-length random tail), the near-cancellation
    /// shape the indicator has to place exactly.
    fn random_operand(width: usize, next: &mut impl FnMut() -> u64) -> Bits {
        let limbs: Vec<u64> = (0..width.div_ceil(64)).map(|_| next()).collect();
        let x = Bits::from_limbs(width, &limbs);
        match next() % 4 {
            0 => {
                let tail = next() as usize % width;
                let low = x.zext(tail).zext(width);
                if next() & 1 == 1 {
                    low.wrapping_sub(&Bits::one_hot(width, tail))
                } else {
                    low
                }
            }
            _ => x,
        }
    }

    fn check_indicator(a: &Bits, b: &Bits) {
        assert_eq!(
            lza_indicator(a, b),
            indicator_spec(a, b),
            "word-level indicator diverges: a={a:?} b={b:?}"
        );
    }

    #[test]
    fn indicator_matches_spec_on_all_8bit_pairs() {
        for av in 0u64..256 {
            for bv in 0u64..256 {
                check_indicator(&Bits::from_u64(8, av), &Bits::from_u64(8, bv));
            }
        }
    }

    #[test]
    fn indicator_matches_spec_at_every_width_to_200() {
        // crosses the 64/128/192-bit limb boundaries of the inputs and of
        // the two-bit-wider indicator
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for w in 1..=200 {
            for _ in 0..64 {
                let a = random_operand(w, &mut next);
                let b = random_operand(w, &mut next);
                check_indicator(&a, &b);
                check_indicator(&a, &a.wrapping_neg());
            }
        }
    }

    #[test]
    fn indicator_matches_spec_at_cs_fma_mantissa_widths() {
        // `block_bits * mant_blocks` of PCS_55_ZD, PCS_58_LZA, FCS_29_LZA,
        // PCS_27_SP and FCS_15_SP (csfma-core's `CsFmaFormat` constants)
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for w in [110usize, 116, 87, 54, 45] {
            for _ in 0..2000 {
                let a = random_operand(w, &mut next);
                let b = random_operand(w, &mut next);
                check_indicator(&a, &b);
            }
        }
    }

    #[test]
    fn wide_words() {
        // spot-check the contract at FMA-like widths
        let mut next = xorshift(0x9e3779b97f4a7c15);
        for _ in 0..2000 {
            let a = Bits::from_limbs(116, &[next(), next()]);
            let b = Bits::from_limbs(116, &[next(), next()]);
            check_contract(&a, &b);
        }
    }
}
