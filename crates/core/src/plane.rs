//! Bit-plane (bit-sliced) chunk evaluation of the carry-save FMA.
//!
//! [`plane_fma_chunk`] computes `R = A + B * C` for up to
//! [`PLANE_LANES`] rows of a SoA chunk at once by transposing the
//! carry-save words into *bit planes* (`csfma_carrysave::plane`): plane
//! word `j` holds bit `j` of all lanes, so every fixed-wiring datapath
//! stage — the multiplier's CSA tree, the window compression, the PCS
//! segment adders, the block classifier and the result mux — runs as
//! word-parallel boolean algebra, one machine operation per gate level
//! for all 64 lanes.
//!
//! The kernel is bit-exact versus [`CsFmaUnit::fma_with`] per lane. The
//! structure mirrors the scalar engine stage by stage:
//!
//! * **Scalar preamble** — exception classes, rounding decisions and the
//!   window placement arithmetic are per-lane control logic, evaluated
//!   as such. Lanes that take an exception early-return (NaN/Inf/Zero
//!   products) are resolved by the scalar engine — they never reach the
//!   datapath in hardware either — and merged back at writeback.
//! * **Plane multiplier** — the scalar multiplier feeds a *fixed*
//!   `2·b_sig + 1` rows to its tree regardless of `B`'s bit pattern
//!   (zero rows for clear bits), so all lanes share one tree shape and
//!   level-0 rows become `ext_plane[j−i] & b_bit_mask[i]`.
//! * **Per-lane selects replace per-lane branches** — the sign stage
//!   and the conditional fifth window row (the `A` rounding one-hot)
//!   have data-dependent *outcomes* but fixed gate shapes, so the plane
//!   kernel computes both arms and muxes per lane with a lane-mask word,
//!   keeping the CS pairs bitwise identical to the scalar branches.
//! * **Per-lane alignment** — the aligner is a per-lane variable shift
//!   (the one stage whose wiring depends on lane data); each lane's
//!   window placement is a sign-extending funnel shift over its
//!   lane-major limbs (`align_lanes_to_planes`), bit-exact with the
//!   scalar `align_addend`'s sign-extend-and-place frame semantics,
//!   landing straight back in plane-major form.
//! * **Plane normalization** — block classes (Fig. 10) come from
//!   sequential per-block mask scans, the skip chain is resolved per
//!   lane over those masks, and the result/rounding blocks are selected
//!   by OR-ing windows under per-skip lane masks.
//!
//! The residue self-checks of DESIGN.md §10 stay on the scalar path:
//! this kernel computes no residues, and the oracle backend never calls
//! it. Plane-path faults are covered differently (DESIGN.md §10.5): the
//! [`PlaneStrike`] tamper points below model upsets in the kernel's own
//! stages, and the robust executor runs this kernel as a *shadow* of
//! its scalar evaluation, detecting any lane disagreement via the
//! scalar differential oracle — its output always comes from the scalar
//! engine, so a plane-path fault is contained by construction.

use crate::format::Normalizer;
use crate::obs;
use crate::operand::CsOperand;
use crate::unit::{CsFmaUnit, FmaScratch};
use csfma_bits::Bits;
use csfma_carrysave::plane::{
    align_lanes_to_planes, lanes_to_planes, plane_carry_reduce, plane_csa3_2, plane_reduce_to_cs,
    planes_to_lane_limbs, planes_to_lanes, transpose64, PLANE_LANES,
};
use csfma_carrysave::CsNumber;
use csfma_softfloat::{FpClass, SoftFloat};
use csfma_units::exponent::BiasedExp;
use csfma_units::rounding::round_up_from_block;
/// One armed plane-kernel fault, consumed by the next
/// [`plane_fma_chunk`] call on this thread (DESIGN.md §10.5).
///
/// Each strike flips exactly one bit — bit `lane` of one plane word —
/// so it corrupts exactly one lane of the chunk, mirroring how a real
/// single-event upset in a plane register is confined to the physical
/// bit it hits. The struck word is derived from `sel` at each tamper
/// point, biased toward the value-significant planes of the stage (a
/// flip that final rounding discards is architecturally masked; fault
/// campaigns report those as benign strikes).
#[cfg(feature = "fault-inject")]
#[derive(Clone, Copy, Debug)]
pub struct PlaneStrike {
    /// Which plane-path population to hit (one of
    /// [`FaultSite::PLANE`](crate::fault::FaultSite::PLANE); strikes
    /// naming other sites never fire).
    pub site: crate::fault::FaultSite,
    /// The struck lane (`0..PLANE_LANES`).
    pub lane: usize,
    /// Raw selector for the struck word within the stage.
    pub sel: u64,
}

#[cfg(feature = "fault-inject")]
thread_local! {
    static PLANE_STRIKES: std::cell::RefCell<Vec<PlaneStrike>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Arm plane-kernel strikes on this thread; the next
/// [`plane_fma_chunk`] call consumes all of them at once (a chunk with
/// several fused instructions is struck on its first, like an upset
/// that hits while the first wave of the chunk is in flight).
#[cfg(feature = "fault-inject")]
pub fn arm_plane_strikes(strikes: &[PlaneStrike]) {
    PLANE_STRIKES.with(|s| {
        let mut v = s.borrow_mut();
        v.clear();
        v.extend_from_slice(strikes);
    });
}

/// Drop any strikes still armed on this thread, returning how many were
/// never consumed (a caller that armed strikes for a chunk that took no
/// plane path uses this to keep its accounting honest).
#[cfg(feature = "fault-inject")]
pub fn disarm_plane_strikes() -> usize {
    PLANE_STRIKES.with(|s| {
        let mut v = s.borrow_mut();
        let n = v.len();
        v.clear();
        n
    })
}

/// Per-lane control state produced by the scalar preamble.
#[derive(Clone, Copy, Debug)]
struct LanePrep {
    normal: bool,
    a_zero: bool,
    up_c: bool,
    up_a: bool,
    negate: bool,
    b_sig: u64,
    p_shift: i64,
    a_shift: i64,
    wls: i64,
    /// Early-LZA anticipated skip (`usize::MAX` on the ZD path: no cap).
    skip_cap: usize,
}

impl Default for LanePrep {
    fn default() -> Self {
        LanePrep {
            normal: false,
            a_zero: true,
            up_c: false,
            up_a: false,
            negate: false,
            b_sig: 0,
            p_shift: 0,
            a_shift: 0,
            wls: 0,
            skip_cap: usize::MAX,
        }
    }
}

/// Reusable working storage for [`plane_fma_chunk`] — plane arenas,
/// lane buffers and the scalar-fallback scratch. One per batch-engine
/// worker, like [`FmaScratch`].
#[derive(Clone, Debug, Default)]
pub struct PlaneScratch {
    fma: FmaScratch,
    a_ops: Vec<CsOperand>,
    c_ops: Vec<CsOperand>,
    prep: Vec<LanePrep>,
    early: Vec<Option<CsOperand>>,
    skips: Vec<usize>,
    lane_bits: Vec<Bits>,
    lane_bits2: Vec<Bits>,
    lane_limbs: Vec<u64>,
    lane_limbs2: Vec<u64>,
    align_scratch: Vec<u64>,
    ext_s: Vec<u64>,
    ext_c: Vec<u64>,
    layer: Vec<u64>,
    spare: Vec<u64>,
    prod_s: Vec<u64>,
    prod_c: Vec<u64>,
    win: [Vec<u64>; 5],
    red_a: Vec<u64>,
    red_b: Vec<u64>,
    red_c: Vec<u64>,
    red_d: Vec<u64>,
    red_e: Vec<u64>,
    red_f: Vec<u64>,
    res_s: Vec<u64>,
    res_c: Vec<u64>,
    rnd_s: Vec<u64>,
    rnd_c: Vec<u64>,
}

#[inline]
fn timed<R>(out: &csfma_obs::Counter, f: impl FnOnce() -> R) -> R {
    if cfg!(feature = "obs") {
        let t0 = std::time::Instant::now();
        let r = f();
        out.add(t0.elapsed().as_nanos() as u64);
        r
    } else {
        f()
    }
}

/// Evaluate one FMA instruction over a SoA chunk in bit-plane form:
/// `bank[dst + k] = bank[acc + k] + b[k] * bank[mulc + k]` for
/// `k < len`, bit-identical to calling [`CsFmaUnit::fma_with`] per
/// lane (including when `dst` aliases `acc` or `mulc` — inputs are
/// latched before writeback).
///
/// # Panics
/// If `len > PLANE_LANES`, `b.len() < len`, or the bank slices are out
/// of bounds.
#[allow(clippy::too_many_arguments)] // mirrors the tape executor's operand frame
pub fn plane_fma_chunk(
    unit: &CsFmaUnit,
    bank: &mut [CsOperand],
    acc: usize,
    mulc: usize,
    dst: usize,
    b: &[SoftFloat],
    len: usize,
    s: &mut PlaneScratch,
) {
    assert!(len <= PLANE_LANES, "chunk wider than a plane word");
    #[cfg(feature = "fault-inject")]
    let strikes: Vec<PlaneStrike> = PLANE_STRIKES.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let f = *unit.format();
    let m = f.mant_bits();
    let bw = f.b_sig_bits;
    let out_w = m + bw + 2; // multiplier width incl. compressor headroom
    let w = f.window_bits();
    let bb = f.block_bits;
    let nb = f.window_blocks();
    let keep = f.mant_blocks;
    let fc = f.frac_bits() as i64;
    let right_off = (f.right_blocks * bb) as i64;
    let max_shift = (w - m) as i64 - 2;

    // ---- latch inputs (dst may alias acc/mulc) ----
    s.a_ops.clear();
    s.a_ops.extend_from_slice(&bank[acc..acc + len]);
    s.c_ops.clear();
    s.c_ops.extend_from_slice(&bank[mulc..mulc + len]);

    // ---- scalar preamble: exceptions, rounding, window placement ----
    s.prep.clear();
    s.prep.resize(len, LanePrep::default());
    s.early.clear();
    s.early.resize(len, None);
    let mut n_plane = 0u64;
    #[allow(clippy::needless_range_loop)] // k indexes four parallel lane arrays
    for k in 0..len {
        let (a, c, bv) = (&s.a_ops[k], &s.c_ops[k], &b[k]);
        let normal = a.class() != FpClass::Nan
            && a.class() != FpClass::Inf
            && bv.class() == FpClass::Normal
            && c.class() == FpClass::Normal;
        if !normal {
            // exception lanes never reach the datapath; the scalar
            // engine's early-return ladder resolves them bit-exactly
            s.early[k] = Some(unit.fma_with(a, bv, c, &mut s.fma));
            continue;
        }
        n_plane += 1;
        let a_zero = a.class() == FpClass::Zero;
        let up_c = round_up_from_block(c.round());
        let up_a = !a_zero && round_up_from_block(a.round());
        let e_p = bv.exp() as i64 + c.exp().unbiased() as i64;
        let fb_b = bv.format().frac_bits as i64;
        let mut wls = e_p - fc - fb_b - right_off;
        let shift_a_raw = if a_zero {
            0
        } else {
            a.exp().unbiased() as i64 - fc - wls
        };
        let extra = (shift_a_raw - max_shift).max(0);
        let p_shift = right_off - extra;
        let a_shift = shift_a_raw - extra;
        wls += extra;
        let skip_cap = match f.normalizer {
            Normalizer::ZeroDetect => usize::MAX,
            Normalizer::EarlyLza => unit.anticipated_skip(a, c, a_zero, a_shift, p_shift),
        };
        s.prep[k] = LanePrep {
            normal: true,
            a_zero,
            up_c,
            up_a,
            negate: bv.sign(),
            b_sig: bv.significand(),
            p_shift,
            a_shift,
            wls,
            skip_cap,
        };
    }
    if f.carry_spacing.is_some() {
        obs::PCS_FMA_OPS.add(n_plane);
    } else {
        obs::FCS_FMA_OPS.add(n_plane);
    }
    obs::PLANE_FMA_LANES.add(n_plane);
    obs::PLANE_EXCEPTION_LANES.add(len as u64 - n_plane);

    // lane masks driving the per-lane selects
    let mut up_c_mask = 0u64;
    let mut neg_mask = 0u64;
    for (k, p) in s.prep.iter().enumerate() {
        if p.up_c {
            up_c_mask |= 1 << k;
        }
        if p.negate {
            neg_mask |= 1 << k;
        }
    }

    // ---- plane multiplier (Fig. 6, fixed 2·b_sig+1-row tree) ----
    timed(&obs::PLANE_TRANSPOSE_NS, || {
        s.lane_bits.clear();
        s.lane_bits2.clear();
        for c in &s.c_ops {
            s.lane_bits.push(c.mant().sum().clone());
            s.lane_bits2.push(c.mant().carry().clone());
        }
        lanes_to_planes(&s.lane_bits, m, &mut s.ext_s);
        lanes_to_planes(&s.lane_bits2, m, &mut s.ext_c);
    });
    // sign extension is plane replication: bit j >= m reads the sign plane
    let sign_s = s.ext_s[m - 1];
    let sign_c = s.ext_c[m - 1];
    s.ext_s.resize(out_w, sign_s);
    s.ext_c.resize(out_w, sign_c);
    // B-significand bit masks: one 64x64 transpose of the lane values
    let mut bm = [0u64; PLANE_LANES];
    for (k, p) in s.prep.iter().enumerate() {
        bm[k] = p.b_sig;
    }
    transpose64(&mut bm);
    #[cfg(feature = "fault-inject")]
    for st in &strikes {
        if st.site == crate::fault::FaultSite::TransposeOut {
            // strike one of the top 16 B-significand planes: the flipped
            // bit feeds a wrong row mask to every Wallace level of the
            // struck lane, and a high partial product survives rounding
            let j = bw - 1 - (st.sel as usize % bw.min(16));
            bm[j] ^= 1u64 << (st.lane % PLANE_LANES);
        }
    }
    // Level 0 of the Wallace tree is evaluated straight off the two
    // shifted `ext` planes instead of materializing all `2·b_sig+1`
    // rows: chunk `t` compresses virtual rows `3t, 3t+1, 3t+2`, where
    // row `r` reads `ext_{s,c}[j - r/2] & bm[r/2]` (and the final row is
    // the +B rounding correction). The grouping is exactly the first
    // level `plane_reduce_to_cs` would perform, so the tree shape — and
    // therefore the CS pair — is unchanged; only the row arena traffic
    // is saved. Every word of the level-1 arena is written below.
    let n_rows = 2 * bw + 1;
    let chunks0 = n_rows / 3;
    let rem0 = n_rows % 3;
    let n1 = 2 * chunks0 + rem0;
    let corr_row = 2 * bw; // the +B rounding-correction row
    s.layer.resize(n1 * out_w, 0);
    let (ext_s, ext_c) = (&s.ext_s, &s.ext_c);
    // virtual level-0 row word, handling shifts, masks and the
    // correction row (used on the rare non-tight paths)
    let row_word = |r: usize, j: usize| -> u64 {
        if r == corr_row {
            if j < bw {
                bm[j] & up_c_mask
            } else {
                0
            }
        } else {
            let i = r >> 1;
            if j < i {
                0
            } else if r & 1 == 0 {
                ext_s[j - i] & bm[i]
            } else {
                ext_c[j - i] & bm[i]
            }
        }
    };
    for t in 0..chunks0 {
        let out = &mut s.layer[2 * t * out_w..(2 * t + 2) * out_w];
        let (out_s, out_c) = out.split_at_mut(out_w);
        let rows = [3 * t, 3 * t + 1, 3 * t + 2];
        let mut prev_maj = 0u64;
        if rows[2] == corr_row {
            // the last chunk may carry the correction row: branchy path
            for j in 0..out_w {
                let (a, b, c) = (
                    row_word(rows[0], j),
                    row_word(rows[1], j),
                    row_word(rows[2], j),
                );
                out_s[j] = a ^ b ^ c;
                out_c[j] = prev_maj;
                prev_maj = (a & b) | (b & c) | (a & c);
            }
            continue;
        }
        let pick = |r: usize| -> (&[u64], usize, u64) {
            let i = r >> 1;
            (if r & 1 == 0 { ext_s } else { ext_c }, i, bm[i])
        };
        let (e0, i0, m0) = pick(rows[0]);
        let (e1, i1, m1) = pick(rows[1]);
        let (e2, i2, m2) = pick(rows[2]);
        let start = i2.min(out_w); // i0 <= i1 <= i2
        for j in 0..start {
            let a = if j >= i0 { e0[j - i0] & m0 } else { 0 };
            let b = if j >= i1 { e1[j - i1] & m1 } else { 0 };
            out_s[j] = a ^ b;
            out_c[j] = prev_maj;
            prev_maj = a & b;
        }
        for j in start..out_w {
            let a = e0[j - i0] & m0;
            let b = e1[j - i1] & m1;
            let c = e2[j - i2] & m2;
            out_s[j] = a ^ b ^ c;
            out_c[j] = prev_maj;
            prev_maj = (a & b) | (b & c) | (a & c);
        }
    }
    // remainder rows ride along to the next level verbatim
    for (q, r) in (3 * chunks0..n_rows).enumerate() {
        let out = &mut s.layer[(2 * chunks0 + q) * out_w..][..out_w];
        for (j, o) in out.iter_mut().enumerate() {
            *o = row_word(r, j);
        }
    }
    plane_reduce_to_cs(
        &mut s.layer,
        n1,
        out_w,
        &mut s.spare,
        &mut s.prod_s,
        &mut s.prod_c,
    );
    #[cfg(feature = "fault-inject")]
    for st in &strikes {
        if st.site == crate::fault::FaultSite::PlaneCsaWord {
            // strike one of the top 32 product-sum planes — within the
            // 53 bits the final rounding keeps, so the flip is visible
            let top = s.prod_s.len();
            let j = top - 1 - (st.sel as usize % top.min(32));
            s.prod_s[j] ^= 1u64 << (st.lane % PLANE_LANES);
        }
    }

    // ---- sign stage: compute the negation arm, select per lane ----
    // negate() = csa3_2(!sum, !carry, 2); the non-negating arm must
    // pass the pair through untouched (see `apply_sign`)
    if neg_mask != 0 {
        let mut prev_maj = 0u64; // maj plane j-1 (the scalar `<< 1`)
        for j in 0..out_w {
            let (ps, pc) = (s.prod_s[j], s.prod_c[j]);
            let two = if j == 1 { !0u64 } else { 0 };
            let neg_s = ps ^ pc ^ two;
            let (x, y) = (!ps, !pc);
            let maj = (x & y) | (two & (x | y));
            let neg_c = prev_maj;
            prev_maj = maj;
            s.prod_s[j] = (neg_s & neg_mask) | (ps & !neg_mask);
            s.prod_c[j] = (neg_c & neg_mask) | (pc & !neg_mask);
        }
    }

    // ---- per-lane alignment (the one variable-shift stage) ----
    // done without leaving word arithmetic: each lane's window placement
    // is a sign-extending funnel shift over its lane-major limbs
    // (`align_lanes_to_planes`), bit-exact with `align_addend`'s
    // sign-extend-and-place frame semantics
    let mut p_shifts = [0i64; PLANE_LANES];
    let mut a_shifts = [0i64; PLANE_LANES];
    let mut act_p = 0u64; // lanes with a product in the window
    let mut act_a = 0u64; // lanes with a nonzero addend in the window
    for (k, p) in s.prep.iter().enumerate() {
        if !p.normal {
            continue;
        }
        act_p |= 1 << k;
        p_shifts[k] = p.p_shift;
        if !p.a_zero {
            act_a |= 1 << k;
            a_shifts[k] = p.a_shift;
        }
    }
    timed(&obs::PLANE_TRANSPOSE_NS, || {
        planes_to_lane_limbs(&s.prod_s, out_w, &mut s.lane_limbs);
        align_lanes_to_planes(
            &s.lane_limbs,
            out_w,
            &p_shifts[..len],
            act_p,
            w,
            &mut s.align_scratch,
            &mut s.win[0],
        );
        planes_to_lane_limbs(&s.prod_c, out_w, &mut s.lane_limbs);
        align_lanes_to_planes(
            &s.lane_limbs,
            out_w,
            &p_shifts[..len],
            act_p,
            w,
            &mut s.align_scratch,
            &mut s.win[1],
        );
    });
    // the addend's lane-major limbs come straight from the operands
    let mg = m.div_ceil(64);
    s.lane_limbs.clear();
    s.lane_limbs.resize(PLANE_LANES * mg, 0);
    s.lane_limbs2.clear();
    s.lane_limbs2.resize(PLANE_LANES * mg, 0);
    for (k, a) in s.a_ops.iter().enumerate().take(len) {
        if act_a & (1 << k) == 0 {
            continue;
        }
        let (sl, cl) = (a.mant().sum().limbs(), a.mant().carry().limbs());
        s.lane_limbs[k * mg..k * mg + sl.len()].copy_from_slice(sl);
        s.lane_limbs2[k * mg..k * mg + cl.len()].copy_from_slice(cl);
    }
    timed(&obs::PLANE_TRANSPOSE_NS, || {
        align_lanes_to_planes(
            &s.lane_limbs,
            m,
            &a_shifts[..len],
            act_a,
            w,
            &mut s.align_scratch,
            &mut s.win[2],
        );
        align_lanes_to_planes(
            &s.lane_limbs2,
            m,
            &a_shifts[..len],
            act_a,
            w,
            &mut s.align_scratch,
            &mut s.win[3],
        );
    });

    // ---- window compression with the A-rounding one-hot select ----
    s.win[4].clear();
    s.win[4].resize(w, 0);
    let mut m5 = 0u64; // lanes whose fifth row (A round one-hot) exists
    for (k, p) in s.prep.iter().enumerate() {
        if p.normal && p.up_a && (0..w as i64).contains(&p.a_shift) {
            m5 |= 1 << k;
            s.win[4][p.a_shift as usize] |= 1 << k;
        }
    }
    // shared tree prefix: csa(r0,r1,r2) -> csa(.,r3) is the 4-row
    // result; one more csa over the one-hot is the 5-row result
    for v in [
        &mut s.red_a,
        &mut s.red_b,
        &mut s.red_c,
        &mut s.red_d,
        &mut s.red_e,
        &mut s.red_f,
    ] {
        v.clear();
        v.resize(w, 0);
    }
    plane_csa3_2(&s.win[0], &s.win[1], &s.win[2], &mut s.red_a, &mut s.red_b);
    plane_csa3_2(&s.red_a, &s.red_b, &s.win[3], &mut s.red_c, &mut s.red_d);
    plane_csa3_2(&s.red_c, &s.red_d, &s.win[4], &mut s.red_e, &mut s.red_f);
    // win_s/win_c live in red_a/red_b from here on
    for j in 0..w {
        s.red_a[j] = (s.red_e[j] & m5) | (s.red_c[j] & !m5);
        s.red_b[j] = (s.red_f[j] & m5) | (s.red_d[j] & !m5);
    }

    // ---- Carry Reduce (PCS only) ----
    if let Some(k) = f.carry_spacing {
        plane_carry_reduce(&mut s.red_a, &mut s.red_b, k);
    }
    let win_s = &s.red_a;
    let win_c = &s.red_b;

    // ---- block classification (Fig. 10) over digit planes ----
    let is0 = |ws: &[u64], wc: &[u64], p: usize| !ws[p] & !wc[p];
    let is1 = |ws: &[u64], wc: &[u64], p: usize| ws[p] ^ wc[p];
    let is2 = |ws: &[u64], wc: &[u64], p: usize| ws[p] & wc[p];
    // MSB-first block k covers digits [(nb-1-k)*bb, (nb-k)*bb)
    let mut az = [0u64; 16];
    let mut ao = [0u64; 16];
    let mut rz = [0u64; 16];
    let mut top0 = [0u64; 16];
    let mut top1 = [0u64; 16];
    assert!(nb <= 16, "window block count exceeds classifier arrays");
    for k in 0..nb {
        let base = (nb - 1 - k) * bb;
        let top = base + bb - 1;
        let (mut all0, mut all1) = (!0u64, !0u64);
        for p in base..=top {
            all0 &= is0(win_s, win_c, p);
            all1 &= is1(win_s, win_c, p);
        }
        // ripple-zero: a leading run of 1s closed by a 2, zeros below
        let mut in_run = is1(win_s, win_c, top);
        let mut await0 = 0u64;
        for p in (base..top).rev() {
            let next_await = (await0 & is0(win_s, win_c, p)) | (in_run & is2(win_s, win_c, p));
            in_run &= is1(win_s, win_c, p);
            await0 = next_await;
        }
        az[k] = all0;
        ao[k] = all1;
        rz[k] = await0 & !all1;
        top0[k] = is0(win_s, win_c, top);
        top1[k] = is1(win_s, win_c, top);
    }
    #[cfg(feature = "fault-inject")]
    for st in &strikes {
        if st.site == crate::fault::FaultSite::PlaneClassifyMask {
            // strike an all-zero mask the struck lane's skip chain will
            // actually consume: a flip below the chain's stop point is
            // architecturally masked and tells a campaign nothing, so
            // walk the skippable range (starting from the seeded block)
            // for a flip that changes the lane's resolved skip — halting
            // the chain early (low mantissa bits fall out of the kept
            // slice) or driving it past a live block (leading bits lost)
            let k = st.lane % PLANE_LANES;
            let range = (nb - keep).max(1);
            let lane_skip = |az: &[u64; 16]| -> usize {
                if k >= len || !s.prep[k].normal {
                    return 0;
                }
                let lane = 1u64 << k;
                let mut skip = 0usize;
                while nb - skip > keep {
                    let ok = if (az[skip] | rz[skip]) & lane != 0 {
                        top0[skip + 1] & lane != 0
                    } else if ao[skip] & lane != 0 {
                        top1[skip + 1] & lane != 0
                    } else {
                        false
                    };
                    if !ok {
                        break;
                    }
                    skip += 1;
                }
                skip.min(s.prep[k].skip_cap)
            };
            let clean = lane_skip(&az);
            let mut j = st.sel as usize % range;
            for off in 0..range {
                let cand = (st.sel as usize + off) % range;
                let mut flipped = az;
                flipped[cand] ^= 1u64 << k;
                if lane_skip(&flipped) != clean {
                    j = cand;
                    break;
                }
            }
            az[j] ^= 1u64 << k;
        }
    }

    // ---- per-lane skip chain over the block-class masks ----
    s.skips.clear();
    s.skips.resize(len, 0);
    for (k, p) in s.prep.iter().enumerate() {
        if !p.normal {
            continue;
        }
        let lane = 1u64 << k;
        let mut skip = 0usize;
        while nb - skip > keep {
            let ok = if (az[skip] | rz[skip]) & lane != 0 {
                top0[skip + 1] & lane != 0
            } else if ao[skip] & lane != 0 {
                top1[skip + 1] & lane != 0
            } else {
                false
            };
            if !ok {
                break;
            }
            skip += 1;
        }
        s.skips[k] = skip.min(p.skip_cap);
    }

    // ---- result block mux: OR the windows under per-skip lane masks ----
    let mut sel = [0u64; 16];
    for (k, p) in s.prep.iter().enumerate() {
        if p.normal {
            sel[s.skips[k]] |= 1 << k;
        }
    }
    let rw = keep * bb;
    s.res_s.clear();
    s.res_s.resize(rw, 0);
    s.res_c.clear();
    s.res_c.resize(rw, 0);
    s.rnd_s.clear();
    s.rnd_s.resize(bb, 0);
    s.rnd_c.clear();
    s.rnd_c.resize(bb, 0);
    #[allow(clippy::needless_range_loop)] // sk also derives the window base offset
    for sk in 0..=(nb - keep) {
        let mask = sel[sk];
        if mask == 0 {
            continue;
        }
        let base = (nb - keep - sk) * bb;
        for r in 0..rw {
            s.res_s[r] |= win_s[base + r] & mask;
            s.res_c[r] |= win_c[base + r] & mask;
        }
        if sk + keep < nb {
            // the block below the selected slice is the rounding data
            for r in 0..bb {
                s.rnd_s[r] |= win_s[base - bb + r] & mask;
                s.rnd_c[r] |= win_c[base - bb + r] & mask;
            }
        }
    }

    // ---- untranspose + scalar postamble ----
    let mut res_s_l: Vec<Bits> = Vec::new();
    let mut res_c_l: Vec<Bits> = Vec::new();
    let mut rnd_s_l: Vec<Bits> = Vec::new();
    let mut rnd_c_l: Vec<Bits> = Vec::new();
    timed(&obs::PLANE_TRANSPOSE_NS, || {
        planes_to_lanes(&s.res_s, rw, len, &mut res_s_l);
        planes_to_lanes(&s.res_c, rw, len, &mut res_c_l);
        planes_to_lanes(&s.rnd_s, bb, len, &mut rnd_s_l);
        planes_to_lanes(&s.rnd_c, bb, len, &mut rnd_c_l);
    });
    for k in 0..len {
        if let Some(r) = s.early[k].take() {
            bank[dst + k] = r;
            continue;
        }
        let p = &s.prep[k];
        let mant = CsNumber::new(
            std::mem::replace(&mut res_s_l[k], Bits::zero(0)),
            std::mem::replace(&mut res_c_l[k], Bits::zero(0)),
        );
        let round = CsNumber::new(
            std::mem::replace(&mut rnd_s_l[k], Bits::zero(0)),
            std::mem::replace(&mut rnd_c_l[k], Bits::zero(0)),
        );
        let sign_hint = mant.resolve_signed_extended().sign_bit();
        let e_r = (nb - s.skips[k] - keep) as i64 * bb as i64 + p.wls + fc;
        let exp = BiasedExp::from_unbiased_saturating(e_r);
        bank[dst + k] = CsOperand::from_raw(f, FpClass::Normal, sign_hint, mant, round, exp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::CsFmaFormat;
    use csfma_softfloat::FpFormat;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn gen_f64(state: &mut u64) -> f64 {
        let r = splitmix(state);
        match r % 12 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => f64::MIN_POSITIVE / 2.0, // subnormal (flushed on input)
            6 => 1.0,
            7 => -1.0,
            _ => {
                let mag = ((r >> 8) % 2001) as f64 - 1000.0;
                mag * 1.5e-2
            }
        }
    }

    fn assert_same(lhs: &CsOperand, rhs: &CsOperand, what: &str) {
        assert_eq!(lhs.class(), rhs.class(), "{what}: class");
        assert_eq!(lhs.sign_hint(), rhs.sign_hint(), "{what}: sign hint");
        assert_eq!(lhs.exp(), rhs.exp(), "{what}: exponent");
        assert_eq!(lhs.mant().sum(), rhs.mant().sum(), "{what}: mant sum");
        assert_eq!(lhs.mant().carry(), rhs.mant().carry(), "{what}: mant carry");
        assert_eq!(lhs.round().sum(), rhs.round().sum(), "{what}: round sum");
        assert_eq!(
            lhs.round().carry(),
            rhs.round().carry(),
            "{what}: round carry"
        );
    }

    /// Chain three FMAs per lane so the plane kernel sees operands in
    /// genuine (non-canonical) carry-save form, with the full special-
    /// value mix, and compare every link against the scalar engine.
    #[test]
    fn plane_chunk_matches_scalar_on_all_formats() {
        for fmt in [
            CsFmaFormat::PCS_55_ZD,
            CsFmaFormat::PCS_58_LZA,
            CsFmaFormat::FCS_29_LZA,
            CsFmaFormat::PCS_27_SP,
            CsFmaFormat::FCS_15_SP,
        ] {
            let unit = CsFmaUnit::new(fmt);
            let bfmt = if fmt.b_sig_bits == 24 {
                FpFormat::BINARY32
            } else {
                FpFormat::BINARY64
            };
            let mut plane_scratch = PlaneScratch::default();
            let mut fma_scratch = FmaScratch::default();
            for &len in &[64usize, 17, 1] {
                let mut state = 0xc0ff_ee00 ^ fmt.mant_bits() as u64 ^ (len as u64) << 32;
                let mut plane_bank: Vec<CsOperand> = (0..3 * len)
                    .map(|_| {
                        CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, gen_f64(&mut state)), fmt)
                    })
                    .collect();
                let mut scalar_bank = plane_bank.clone();
                for link in 0..3 {
                    let b: Vec<SoftFloat> = (0..len)
                        .map(|_| SoftFloat::from_f64(bfmt, gen_f64(&mut state)))
                        .collect();
                    // acc = previous dst, so CS-form results feed back in
                    plane_fma_chunk(
                        &unit,
                        &mut plane_bank,
                        0,
                        len,
                        0,
                        &b,
                        len,
                        &mut plane_scratch,
                    );
                    for k in 0..len {
                        let r = unit.fma_with(
                            &scalar_bank[k].clone(),
                            &b[k],
                            &scalar_bank[len + k],
                            &mut fma_scratch,
                        );
                        scalar_bank[k] = r;
                        assert_same(
                            &plane_bank[k],
                            &scalar_bank[k],
                            &format!("{} len {len} link {link} lane {k}", fmt.name),
                        );
                    }
                }
            }
        }
    }

    /// An armed plane strike must change exactly the targeted lane, and
    /// be consumed by the call it was armed for.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn plane_strike_flips_lane_zero() {
        let fmt = CsFmaFormat::PCS_55_ZD;
        let unit = CsFmaUnit::new(fmt);
        let mut scratch = PlaneScratch::default();
        let mk = |v: f64| CsOperand::from_f64(v, fmt);
        let mut bank = vec![mk(1.5), mk(0.25), mk(3.0), mk(2.0), mk(0.0), mk(0.0)];
        let b = vec![SoftFloat::from_f64(FpFormat::BINARY64, 1.25); 2];
        let clean = {
            let mut bank = bank.clone();
            plane_fma_chunk(&unit, &mut bank, 0, 2, 4, &b, 2, &mut scratch);
            (bank[4].clone(), bank[5].clone())
        };
        arm_plane_strikes(&[PlaneStrike {
            site: crate::fault::FaultSite::PlaneCsaWord,
            lane: 0,
            sel: 0,
        }]);
        plane_fma_chunk(&unit, &mut bank, 0, 2, 4, &b, 2, &mut scratch);
        assert_eq!(disarm_plane_strikes(), 0, "strike was never consumed");
        assert_ne!(
            bank[4].mant().sum(),
            clean.0.mant().sum(),
            "lane 0 must be corrupted"
        );
        assert_eq!(bank[5].mant().sum(), clean.1.mant().sum());
    }
}
