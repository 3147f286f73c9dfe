//! Plane/scalar equivalence: the bit-plane chunk kernel (DESIGN.md §13)
//! must be a bit-exact drop-in for the scalar behavioral units — same
//! packed transport words, same exponents, same classes — on every
//! format, every special value, and every batch shape.
//!
//! Two layers of evidence:
//!
//! * a deterministic special-value matrix straight at the kernel
//!   (NaN / ±Inf / ±0 / subnormal / all-ones mantissas that ripple
//!   carries across PCS segment boundaries), chained so non-canonical
//!   carry-save operands flow back in as inputs;
//! * proptests over full-chunk, partial-chunk and single-row batches,
//!   both at the kernel and through the compiled tape.

use csfma::core::{
    plane_fma_chunk, CsFmaFormat, CsFmaUnit, CsOperand, FmaScratch, PlaneBank, PlaneScratch,
};
use csfma::prelude::{FmaKind, FusionConfig, Round, SoftFloat, TapeBackend};
use csfma::softfloat::{FpClass, FpFormat};
use proptest::prelude::*;

const FORMATS: [CsFmaFormat; 5] = [
    CsFmaFormat::PCS_55_ZD,
    CsFmaFormat::PCS_58_LZA,
    CsFmaFormat::FCS_29_LZA,
    CsFmaFormat::PCS_27_SP,
    CsFmaFormat::FCS_15_SP,
];

fn b_format(fmt: &CsFmaFormat) -> FpFormat {
    if fmt.b_sig_bits == 24 {
        FpFormat::BINARY32
    } else {
        FpFormat::BINARY64
    }
}

/// The adversarial operand menu. `0x3fffffffffffffff` (1.999…) and its
/// kin carry all-ones mantissas: multiplying and accumulating them
/// ripples carries through every PCS segment boundary.
const MATRIX: [f64; 14] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,               // minimal subnormal
    1.0e-310,             // mid subnormal
    f64::MIN_POSITIVE,    // normal/subnormal border
    1.9999999999999998,   // all-ones mantissa
    -1.9999999999999998,  // …negated
    6.805646932770577e38, // all-ones mantissa, high exponent
    1.0,
    -1.5,
    0.0078125,
];

fn assert_lane(fmt: &CsFmaFormat, lane: usize, scalar: &CsOperand, plane: &CsOperand) {
    assert_eq!(
        scalar.class(),
        plane.class(),
        "{}: lane {lane} class diverged",
        fmt.name
    );
    assert_eq!(
        scalar.sign_hint(),
        plane.sign_hint(),
        "{}: lane {lane} sign diverged",
        fmt.name
    );
    assert_eq!(
        scalar.exp(),
        plane.exp(),
        "{}: lane {lane} exponent diverged",
        fmt.name
    );
    assert_eq!(
        scalar.pack(),
        plane.pack(),
        "{}: lane {lane} packed transport word diverged",
        fmt.name
    );
}

/// Run `links` chained FMA rounds over a 64-lane chunk on both paths
/// and require every lane bit-identical after every link.
fn chain_and_compare(fmt: CsFmaFormat, vals: &[f64], len: usize, links: usize) {
    let unit = CsFmaUnit::new(fmt);
    let bfmt = b_format(&fmt);
    let pick = |i: usize| vals[i % vals.len()];

    // bank layout: slot 0 = acc, slot 1 = mulc, slot 2 = dst
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * 64];
    let mut scalar: Vec<CsOperand> = Vec::new();
    let mut scalar_acc: Vec<CsOperand> = Vec::new();
    let mut scalar_mulc: Vec<CsOperand> = Vec::new();
    for k in 0..len {
        let a = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, pick(3 * k)), fmt);
        let c = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, pick(3 * k + 2)), fmt);
        bank[k] = a.clone();
        bank[64 + k] = c.clone();
        scalar_acc.push(a);
        scalar_mulc.push(c);
    }
    let mut ps = PlaneScratch::default();
    let mut fs = FmaScratch::default();
    for link in 0..links {
        let b: Vec<SoftFloat> = (0..len)
            .map(|k| SoftFloat::from_f64(bfmt, pick(3 * k + 1 + link)))
            .collect();
        scalar.clear();
        for k in 0..len {
            scalar.push(unit.fma_with(&scalar_acc[k], &b[k], &scalar_mulc[k], &mut fs));
        }
        plane_fma_chunk(&unit, &mut bank, 0, 64, 128, &b, len, &mut ps);
        for k in 0..len {
            assert_lane(&fmt, k, &scalar[k], &bank[128 + k]);
        }
        // feed the (non-canonical) results back in as the accumulator
        for k in 0..len {
            bank[k] = bank[128 + k].clone();
            scalar_acc[k] = scalar[k].clone();
        }
    }
}

/// Deterministic special-value matrix: every format, every pairing from
/// the menu, three chained links so segment-boundary carries and
/// non-canonical operands appear.
#[test]
fn special_value_matrix_matches_scalar_on_all_formats() {
    for fmt in FORMATS {
        chain_and_compare(fmt, &MATRIX, 64, 3);
    }
}

/// Segment-carry boundary focus: saturating mantissas only, so the PCS
/// carry-reduction segments all produce pending carries.
#[test]
fn segment_carry_boundaries_match_scalar() {
    let vals = [
        1.9999999999999998,
        -1.9999999999999998,
        1.9999999999999996,
        3.9999999999999996,
        0.9999999999999999,
        -0.9999999999999999,
    ];
    for fmt in FORMATS {
        chain_and_compare(fmt, &vals, 64, 4);
    }
}

fn stimulus() -> impl Strategy<Value = f64> {
    (0usize..10, any::<u64>(), -1.0e6f64..1.0e6).prop_map(|(class, bits, x)| match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(bits % (1u64 << 52)),
        6 => -f64::from_bits(bits % (1u64 << 52)),
        7 => f64::from_bits(bits),
        8 => f64::MIN_POSITIVE * (1.0 + (bits % 8) as f64),
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel-level equivalence at every batch shape: single row,
    /// ragged partial chunk, full chunk — with chained links.
    #[test]
    fn plane_kernel_matches_scalar_at_any_length(
        fmt_pick in 0usize..FORMATS.len(),
        len_pick in 0usize..5,
        vals in prop::collection::vec(stimulus(), 8..24),
    ) {
        let len = [1usize, 2, 17, 63, 64][len_pick];
        chain_and_compare(FORMATS[fmt_pick], &vals, len, 2);
    }

    /// Tape-level equivalence: the bit backend (plane kernel on full
    /// chunks, scalar tail) against the all-scalar oracle backend, for
    /// batch sizes straddling the chunk boundary.
    #[test]
    fn tape_bit_backend_matches_oracle_at_any_batch_size(
        rows_pick in 0usize..6,
        kind_pick: bool,
        vals in prop::collection::vec(stimulus(), 4..16),
    ) {
        let g = csfma::hls::parse_program(
            "x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;",
        ).unwrap();
        let n_rows = [1usize, 63, 64, 65, 127, 130][rows_pick];
        let kind = if kind_pick { FmaKind::Pcs } else { FmaKind::Fcs };
        let fused = csfma::hls::fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        let tape = csfma::hls::compile(&fused).unwrap();
        let ni = tape.num_inputs();
        let rows: Vec<f64> = (0..n_rows * ni).map(|i| vals[i % vals.len()]).collect();
        let bit = tape.eval_batch(TapeBackend::BitAccurate, &rows, 2);
        let oracle = tape.eval_batch(TapeBackend::Oracle, &rows, 1);
        for (i, (x, y)) in bit.iter().zip(oracle.iter()).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "{:?} rows={}: flat output {} diverged ({:e} vs {:e})",
                kind, n_rows, i, x, y
            );
        }
    }
}

/// The transport-format round data survives the plane path too: convert
/// the chained results back to IEEE and require equality with the
/// scalar chain's conversion (a weaker but user-visible invariant,
/// checked on top of the packed-word equality above).
#[test]
fn plane_results_convert_to_identical_ieee() {
    let fmt = CsFmaFormat::PCS_55_ZD;
    let unit = CsFmaUnit::new(fmt);
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * 64];
    let mut fs = FmaScratch::default();
    let mut ps = PlaneScratch::default();
    let vals: Vec<f64> = (0..64).map(|k| (k as f64 - 31.5) * 0.3125).collect();
    for k in 0..64 {
        bank[k] = CsOperand::from_f64(vals[k], fmt);
        bank[64 + k] = CsOperand::from_f64(vals[63 - k], fmt);
    }
    let b: Vec<SoftFloat> = vals
        .iter()
        .map(|v| SoftFloat::from_f64(FpFormat::BINARY64, v * 1.75))
        .collect();
    plane_fma_chunk(&unit, &mut bank, 0, 64, 128, &b, 64, &mut ps);
    for k in 0..64 {
        let scalar = unit.fma_with(
            &CsOperand::from_f64(vals[k], fmt),
            &b[k],
            &CsOperand::from_f64(vals[63 - k], fmt),
            &mut fs,
        );
        assert_eq!(
            scalar
                .to_ieee(FpFormat::BINARY64, Round::NearestEven)
                .to_f64()
                .to_bits(),
            bank[128 + k]
                .to_ieee(FpFormat::BINARY64, Round::NearestEven)
                .to_f64()
                .to_bits(),
            "lane {k} IEEE conversion diverged"
        );
    }
}

/// Every field of a lane operand, compared exactly: class, sign hint,
/// exponent, and the widths and bits of both mantissa and rounding
/// words.
fn assert_identical(got: &CsOperand, want: &CsOperand, what: &str) {
    assert_eq!(got.format(), want.format(), "{what}: format");
    assert_eq!(got.class(), want.class(), "{what}: class");
    assert_eq!(got.sign_hint(), want.sign_hint(), "{what}: sign hint");
    assert_eq!(got.exp(), want.exp(), "{what}: exponent");
    assert_eq!(got.mant().sum(), want.mant().sum(), "{what}: mant sum");
    assert_eq!(
        got.mant().carry(),
        want.mant().carry(),
        "{what}: mant carry"
    );
    assert_eq!(got.round().sum(), want.round().sum(), "{what}: round sum");
    assert_eq!(
        got.round().carry(),
        want.round().carry(),
        "{what}: round carry"
    );
}

/// Every operand shape the engines produce in `fmt`: `IeeeToCs` of the
/// special-value matrix, and `fma_with` results over all matrix pairings
/// — which include the Zero/Inf/NaN early returns (NaN inputs,
/// `Inf * 0`, `Inf - Inf`, zero products returning the addend) and
/// chained, non-canonical carry-save results.
fn engine_shapes(fmt: CsFmaFormat) -> Vec<CsOperand> {
    let unit = CsFmaUnit::new(fmt);
    let mut fs = FmaScratch::default();
    let conv: Vec<CsOperand> = MATRIX
        .iter()
        .map(|&v| CsOperand::from_f64(v, fmt))
        .collect();
    let mut shapes = conv.clone();
    for (i, a) in conv.iter().enumerate() {
        for (j, c) in conv.iter().enumerate() {
            let b = SoftFloat::from_f64(FpFormat::BINARY64, MATRIX[(i + j) % MATRIX.len()]);
            let r = unit.fma_with(a, &b, c, &mut fs);
            shapes.push(unit.fma_with(&r, &b, c, &mut fs));
            shapes.push(r);
        }
    }
    shapes
}

/// Plane registers hold every operand shape exactly: scattering a lane
/// and gathering it back — one lane at a time or through the
/// whole-register transposes — returns the operand unchanged, and the
/// register's `IeeeToCs` conversion builds the same lanes as
/// `CsOperand::from_f64`.
#[test]
fn plane_registers_round_trip_every_engine_shape() {
    for fmt in [CsFmaFormat::PCS_55_ZD, CsFmaFormat::FCS_29_LZA] {
        let mut bank = PlaneBank::default();
        bank.configure(2, &[CsFmaFormat::PCS_55_ZD, CsFmaFormat::FCS_29_LZA]);
        let shapes = engine_shapes(fmt);
        for class in [FpClass::Normal, FpClass::Zero, FpClass::Inf, FpClass::Nan] {
            assert!(shapes.iter().any(|s| s.class() == class), "{class:?} shape");
        }
        assert!(shapes.iter().any(|s| !s.round().is_canonical_zero()));
        assert!(shapes.iter().any(|s| !s.mant().carry().is_zero()));
        for (n, group) in shapes.chunks(64).enumerate() {
            for (k, op) in group.iter().enumerate() {
                bank.scatter(0, k, op);
            }
            for (k, op) in group.iter().enumerate() {
                assert_identical(&bank.gather(0, k), op, &format!("{} #{n}/{k}", fmt.name));
            }
            bank.gather_lanes(0, group.len(), |k, got| {
                assert_identical(&got, &group[k], &format!("{} lanes #{n}/{k}", fmt.name));
            });
        }
        bank.load_f64(1, fmt, &MATRIX);
        for (k, &v) in MATRIX.iter().enumerate() {
            let want = CsOperand::from_f64(v, fmt);
            assert_identical(
                &bank.gather(1, k),
                &want,
                &format!("{} IeeeToCs {k}", fmt.name),
            );
        }
    }
}

/// A `tape-reg` strike on a plane register is one plane-bit flip: it
/// equals `fault_flip_mant_bit` on the gathered lane, for every shape
/// and position. Under a `Zero`/`Inf`/`NaN` class the flip is
/// architecturally masked — the operand's IEEE value does not change.
#[test]
fn plane_register_flip_equals_lane_flip() {
    for fmt in [CsFmaFormat::PCS_55_ZD, CsFmaFormat::FCS_29_LZA] {
        let mut bank = PlaneBank::default();
        bank.configure(1, &[fmt]);
        for (n, op) in engine_shapes(fmt).iter().enumerate().step_by(7) {
            for pos in [0usize, 13, fmt.mant_bits() - 1, fmt.mant_bits() + 5, 1000] {
                let k = (n + pos) % 64;
                bank.scatter(0, k, op);
                bank.fault_flip_mant_bit(0, k, pos);
                let mut want = op.clone();
                want.fault_flip_mant_bit(pos);
                let got = bank.gather(0, k);
                assert_identical(&got, &want, &format!("{} #{n} bit {pos}", fmt.name));
                if op.class() != FpClass::Normal {
                    let ieee = |x: &CsOperand| {
                        x.to_ieee(FpFormat::BINARY64, Round::NearestEven)
                            .to_f64()
                            .to_bits()
                    };
                    assert_eq!(ieee(&got), ieee(op), "{} #{n}: masked flip", fmt.name);
                }
            }
        }
    }
}
