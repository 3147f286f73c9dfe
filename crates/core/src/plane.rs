//! Bit-plane (bit-sliced) chunk evaluation of the carry-save FMA over a
//! plane-resident carry-save register file.
//!
//! A [`PlaneBank`] keeps carry-save registers of up to [`PLANE_LANES`]
//! lanes each in *bit-plane* form (`csfma_carrysave::plane`): plane word
//! `j` of a register holds bit `j` of all lanes, for the mantissa sum
//! and carry words and for the rounding block's two words. Beside the
//! planes sit the per-lane exponents, the exception-class lane masks, a
//! sign-hint mask and the transport format the register was written in.
//! Operands stay in this form from `IeeeToCs` to `CsToIeee`, the way the
//! paper's chained units keep mantissas in carry-save form between
//! operators and convert only at format boundaries (Secs. III-C, III-H).
//!
//! [`plane_fma`] computes `R = A + B * C` for up to 64 lanes, reading
//! `A` and `C` straight from their registers and writing `R` straight
//! into its register. Every fixed-wiring datapath stage — the
//! multiplier's CSA tree, the window compression, the PCS segment
//! adders, the block classifier and the result mux — runs as
//! word-parallel boolean algebra, one machine operation per gate level
//! for all 64 lanes.
//!
//! The kernel is bit-exact versus [`CsFmaUnit::fma_with`] per lane. The
//! structure mirrors the scalar engine stage by stage:
//!
//! * **Preamble from planes** — exception classes are lane masks; the
//!   rounding decisions of `A` and `C` (`round_up_from_block`) are one
//!   plane ripple over each rounding block; the early-LZA anticipation
//!   evaluates the Schmookler–Nowka indicator as its neighbour-bit
//!   boolean formula over the mantissa planes, and a top-down plane scan
//!   finds each lane's leading position. Only the window placement
//!   arithmetic (exponent sums and shifts) runs lane by lane. Lanes that
//!   take an exception early-return (NaN/Inf/Zero products) are gathered
//!   into [`CsOperand`]s and resolved by the scalar engine — they never
//!   reach the datapath in hardware either — and scattered back at
//!   writeback.
//! * **Plane multiplier** — the scalar multiplier feeds a *fixed*
//!   `2·b_sig + 1` rows to its tree regardless of `B`'s bit pattern
//!   (zero rows for clear bits), so all lanes share one tree shape and
//!   level-0 rows become `ext_plane[j−i] & b_bit_mask[i]`, with `ext`
//!   the `C` register's planes plus sign-plane replication.
//! * **Per-lane selects replace per-lane branches** — the sign stage
//!   and the conditional fifth window row (the `A` rounding one-hot)
//!   have data-dependent *outcomes* but fixed gate shapes, so the plane
//!   kernel computes both arms and muxes per lane with a lane-mask word,
//!   keeping the CS pairs bitwise identical to the scalar branches.
//! * **Per-lane alignment** — the aligner is a per-lane variable shift
//!   (the one stage whose wiring depends on lane data) and the one place
//!   inside the kernel that may transpose. A source whose active lanes
//!   all share one shift (the product, nearly always) is placed in plane
//!   form by one masked pass; otherwise its planes become lane-major
//!   limbs, each lane's window placement is a sign-extending funnel
//!   shift over them (`align_lanes_to_planes`) and the result is
//!   transposed back. Both
//!   are bit-exact with the scalar `align_addend`'s sign-extend-and-place
//!   frame semantics.
//! * **Plane normalization** — block classes (Fig. 10) come from
//!   sequential per-block mask scans, the skip chain is resolved per
//!   lane over those masks, and the result/rounding blocks are selected
//!   by OR-ing windows under per-skip lane masks straight into the
//!   destination register's planes. Each lane's sign hint is one plane
//!   ripple over the result mantissa.
//!
//! `dst` may alias `acc` or `mulc`: the kernel reads every input plane
//! before the writeback.
//!
//! Outside the kernel, lanes leave plane form only at the format
//! boundaries and on the scalar paths: [`PlaneBank::load_f64`]
//! (`IeeeToCs`: lane limbs, then a transpose),
//! [`PlaneBank::gather_lanes`] (`CsToIeee`), and the per-lane
//! [`PlaneBank::gather`]/[`PlaneBank::scatter`] pair used for exception
//! lanes, short chunks and checked evaluation. [`plane_fma_chunk`] wraps
//! the kernel for lane-major operand slices (scatter, kernel, gather).
//!
//! The residue self-checks of DESIGN.md §10 stay on the scalar path:
//! this kernel computes no residues, and the oracle backend never calls
//! it. Plane-path faults are covered differently (DESIGN.md §10.5): the
//! [`PlaneStrike`] tamper points below model upsets in the kernel's own
//! stages, and the robust executor runs this kernel as a *shadow* of
//! its scalar evaluation, detecting any lane disagreement via the
//! scalar differential oracle — its output always comes from the scalar
//! engine, so a plane-path fault is contained by construction.

use crate::format::{CsFmaFormat, Normalizer};
use crate::obs;
use crate::operand::CsOperand;
use crate::unit::{CsFmaUnit, FmaScratch};
use csfma_bits::Bits;
use csfma_carrysave::plane::{
    align_lanes_to_planes, align_planes_or, lane_limbs_to_planes, plane_carry_reduce, plane_csa3_2,
    plane_reduce_to_cs, planes_to_lane_limbs, transpose64, PLANE_LANES,
};
use csfma_carrysave::CsNumber;
use csfma_softfloat::{FpClass, FpFormat, SoftFloat};
use csfma_units::exponent::BiasedExp;
/// One armed plane-kernel fault, consumed by the next
/// [`plane_fma`] call on this thread (DESIGN.md §10.5).
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
/// [`plane_fma`] call consumes all of them at once (a chunk with
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

/// Everything a [`PlaneBank`] register holds besides its bit planes.
#[derive(Clone, Copy, Debug)]
struct RegMeta {
    /// Transport format the register was last written in.
    format: CsFmaFormat,
    /// Exception-class lane masks; a lane in none of them is `Normal`.
    nan: u64,
    inf: u64,
    zero: u64,
    /// Sign-hint lane mask.
    sign: u64,
    /// Per-lane exponents.
    exp: [BiasedExp; PLANE_LANES],
}

impl RegMeta {
    fn new(format: CsFmaFormat) -> Self {
        RegMeta {
            format,
            nan: 0,
            inf: 0,
            zero: 0,
            sign: 0,
            exp: [BiasedExp::from_unbiased(0); PLANE_LANES],
        }
    }

    /// Lanes of class `Normal`.
    fn normal(&self) -> u64 {
        !(self.nan | self.inf | self.zero)
    }

    fn class(&self, lane: usize) -> FpClass {
        let bit = 1u64 << lane;
        if self.nan & bit != 0 {
            FpClass::Nan
        } else if self.inf & bit != 0 {
            FpClass::Inf
        } else if self.zero & bit != 0 {
            FpClass::Zero
        } else {
            FpClass::Normal
        }
    }

    /// Write lane `lane`'s class, sign hint and exponent.
    fn set_lane(&mut self, lane: usize, class: FpClass, sign: bool, exp: BiasedExp) {
        let bit = 1u64 << lane;
        let put = |mask: &mut u64, on: bool| *mask = (*mask & !bit) | if on { bit } else { 0 };
        put(&mut self.nan, class == FpClass::Nan);
        put(&mut self.inf, class == FpClass::Inf);
        put(&mut self.zero, class == FpClass::Zero);
        put(&mut self.sign, sign);
        self.exp[lane] = exp;
    }

    fn lane(&self, lane: usize) -> (FpClass, bool, BiasedExp) {
        (self.class(lane), self.sign >> lane & 1 != 0, self.exp[lane])
    }
}

/// A plane-resident carry-save register file (DESIGN.md §13.1): each
/// register holds up to [`PLANE_LANES`] [`CsOperand`] lanes as four
/// plane arrays — mantissa sum and carry, rounding-block sum and carry —
/// sized for the widest format the bank was configured for, plus
/// per-lane exponents, class lane masks, a sign-hint mask and the format
/// the register was last written in. A register holds one format at a
/// time; its lanes are read in that format.
///
/// Registers start dirty: every reader relies on a register being
/// written before it is read (the tape validator's def-before-use rule).
#[derive(Clone, Debug, Default)]
pub struct PlaneBank {
    /// Mantissa planes per word.
    mw: usize,
    /// Rounding-block planes per word.
    rw: usize,
    /// Per register: mantissa sum, mantissa carry, rounding sum,
    /// rounding carry (`mw, mw, rw, rw` words).
    planes: Vec<u64>,
    meta: Vec<RegMeta>,
    /// Lane-major limb matrices for whole-register conversions.
    limbs: [Vec<u64>; 4],
}

impl PlaneBank {
    /// Size the bank for `regs` registers holding values of any of
    /// `formats`. Register contents are left dirty.
    ///
    /// # Panics
    /// If `formats` is empty.
    pub fn configure(&mut self, regs: usize, formats: &[CsFmaFormat]) {
        self.mw = formats
            .iter()
            .map(|f| f.mant_bits())
            .max()
            .expect("a format");
        self.rw = formats
            .iter()
            .map(|f| f.block_bits)
            .max()
            .expect("a format");
        self.planes.resize(regs * self.stride(), 0);
        self.meta.resize(regs, RegMeta::new(formats[0]));
    }

    fn stride(&self) -> usize {
        2 * (self.mw + self.rw)
    }

    /// Offsets of register `reg`'s mantissa-sum, mantissa-carry,
    /// rounding-sum and rounding-carry planes.
    fn offsets(&self, reg: usize) -> [usize; 4] {
        let base = reg * self.stride();
        [
            base,
            base + self.mw,
            base + 2 * self.mw,
            base + 2 * self.mw + self.rw,
        ]
    }

    fn check_fits(&self, f: &CsFmaFormat) {
        assert!(
            f.mant_bits() <= self.mw && f.block_bits <= self.rw,
            "{} is wider than the plane bank",
            f.name
        );
    }

    /// Lane `lane` of register `reg` as a [`CsOperand`] in the
    /// register's format (one bit per plane word).
    pub fn gather(&self, reg: usize, lane: usize) -> CsOperand {
        let meta = &self.meta[reg];
        let f = meta.format;
        let (m, bb) = (f.mant_bits(), f.block_bits);
        let [ms, mc, rs, rc] = self.offsets(reg);
        let col = |at: usize, w: usize| lane_column(&self.planes[at..at + w], lane);
        let (class, sign, exp) = meta.lane(lane);
        CsOperand::from_raw(
            f,
            class,
            sign,
            CsNumber::new(col(ms, m), col(mc, m)),
            CsNumber::new(col(rs, bb), col(rc, bb)),
            exp,
        )
    }

    /// Write `op` into lane `lane` of register `reg`, which takes `op`'s
    /// format (one bit per plane word).
    ///
    /// # Panics
    /// If `op`'s format is wider than the bank was configured for.
    pub fn scatter(&mut self, reg: usize, lane: usize, op: &CsOperand) {
        let f = *op.format();
        self.check_fits(&f);
        let (m, bb) = (f.mant_bits(), f.block_bits);
        let [ms, mc, rs, rc] = self.offsets(reg);
        let p = &mut self.planes;
        set_lane_column(&mut p[ms..ms + m], lane, op.mant().sum());
        set_lane_column(&mut p[mc..mc + m], lane, op.mant().carry());
        set_lane_column(&mut p[rs..rs + bb], lane, op.round().sum());
        set_lane_column(&mut p[rc..rc + bb], lane, op.round().carry());
        let meta = &mut self.meta[reg];
        meta.format = f;
        meta.set_lane(lane, op.class(), op.sign_hint(), op.exp());
    }

    /// Visit lanes `0..len` of register `reg` as [`CsOperand`]s,
    /// converted with one transpose per 64-plane group of each word (the
    /// `CsToIeee` gather).
    pub fn gather_lanes(
        &mut self,
        reg: usize,
        len: usize,
        mut visit: impl FnMut(usize, CsOperand),
    ) {
        assert!(len <= PLANE_LANES, "more lanes than a plane word");
        let meta = self.meta[reg];
        let f = meta.format;
        let (m, bb) = (f.mant_bits(), f.block_bits);
        let [ms, mc, rs, rc] = self.offsets(reg);
        let planes = &self.planes;
        let [l_ms, l_mc, l_rs, l_rc] = &mut self.limbs;
        timed(&obs::PLANE_TRANSPOSE_NS, || {
            planes_to_lane_limbs(&planes[ms..ms + m], m, l_ms);
            planes_to_lane_limbs(&planes[mc..mc + m], m, l_mc);
            planes_to_lane_limbs(&planes[rs..rs + bb], bb, l_rs);
            planes_to_lane_limbs(&planes[rc..rc + bb], bb, l_rc);
        });
        let (mg, rg) = (m.div_ceil(64), bb.div_ceil(64));
        for k in 0..len {
            let word = |l: &[u64], w: usize, g: usize| Bits::from_limbs(w, &l[k * g..(k + 1) * g]);
            let (class, sign, exp) = meta.lane(k);
            visit(
                k,
                CsOperand::from_raw(
                    f,
                    class,
                    sign,
                    CsNumber::new(word(l_ms, m, mg), word(l_mc, m, mg)),
                    CsNumber::new(word(l_rs, bb, rg), word(l_rc, bb, rg)),
                    exp,
                ),
            );
        }
    }

    /// The `IeeeToCs` conversion into register `reg`: lane `k` becomes
    /// binary64 `src[k]` in `format`, bit-identical to
    /// [`CsOperand::from_f64`] per lane. The significands are placed as
    /// lane-major limbs and transposed once into the mantissa-sum planes;
    /// carry and rounding planes are cleared.
    ///
    /// # Panics
    /// If `src` has more than [`PLANE_LANES`] lanes or `format` is wider
    /// than the bank.
    pub fn load_f64(&mut self, reg: usize, format: CsFmaFormat, src: &[f64]) {
        assert!(src.len() <= PLANE_LANES, "more lanes than a plane word");
        self.check_fits(&format);
        let (m, bb) = (format.mant_bits(), format.block_bits);
        let groups = m.div_ceil(64);
        let [ms, mc, rs, rc] = self.offsets(reg);
        let mut meta = RegMeta::new(format);
        let limbs = &mut self.limbs[0];
        limbs.clear();
        limbs.resize(PLANE_LANES * groups, 0);
        for (k, &v) in src.iter().enumerate() {
            let x = SoftFloat::from_f64(FpFormat::BINARY64, v);
            let lane = 1u64 << k;
            match x.class() {
                FpClass::Nan => meta.nan |= lane,
                FpClass::Inf => meta.inf |= lane,
                FpClass::Zero => meta.zero |= lane,
                FpClass::Normal => {
                    // the significand with its integer bit at
                    // `frac_bits`, two's-complemented in `m` bits when
                    // negative
                    let lane_limbs = &mut limbs[k * groups..(k + 1) * groups];
                    let shift = format.frac_bits() - x.format().frac_bits as usize;
                    let (q, r) = (shift / 64, shift % 64);
                    lane_limbs[q] = x.significand() << r;
                    if r != 0 && q + 1 < groups {
                        lane_limbs[q + 1] = x.significand() >> (64 - r);
                    }
                    if x.sign() {
                        let mut carry = true;
                        for l in lane_limbs.iter_mut() {
                            (*l, carry) = (!*l).overflowing_add(u64::from(carry));
                        }
                    }
                    if m % 64 != 0 {
                        lane_limbs[groups - 1] &= (1u64 << (m % 64)) - 1;
                    }
                    meta.exp[k] = BiasedExp::from_unbiased(x.exp());
                }
            }
            if x.sign() && x.class() != FpClass::Nan {
                meta.sign |= lane;
            }
        }
        let p = &mut self.planes;
        timed(&obs::PLANE_TRANSPOSE_NS, || {
            lane_limbs_to_planes(limbs, m, &mut p[ms..ms + m])
        });
        p[mc..mc + m].fill(0);
        p[rs..rs + bb].fill(0);
        p[rc..rc + bb].fill(0);
        self.meta[reg] = meta;
    }

    /// Fault-injection support: flip mantissa-sum bit `pos` (modulo the
    /// register format's mantissa width) of lane `lane` of register
    /// `reg` — one plane-bit flip, the plane form of
    /// [`CsOperand::fault_flip_mant_bit`]. The class masks are left
    /// alone, so a flip under a `Zero`/`Inf`/`NaN` class is
    /// architecturally masked.
    #[cfg(feature = "fault-inject")]
    pub fn fault_flip_mant_bit(&mut self, reg: usize, lane: usize, pos: usize) {
        let m = self.meta[reg].format.mant_bits();
        if m == 0 {
            return;
        }
        let [ms, ..] = self.offsets(reg);
        self.planes[ms + pos % m] ^= 1u64 << lane;
    }
}

/// Bit `lane` of every word of `planes`, as a `planes.len()`-bit value.
fn lane_column(planes: &[u64], lane: usize) -> Bits {
    Bits::from_limb_fn(planes.len(), |g| {
        planes
            .iter()
            .skip(g * 64)
            .take(64)
            .enumerate()
            .fold(0u64, |v, (i, p)| v | ((p >> lane) & 1) << i)
    })
}

/// Write `value`'s bits into bit `lane` of the words of `planes`.
fn set_lane_column(planes: &mut [u64], lane: usize, value: &Bits) {
    debug_assert_eq!(value.width(), planes.len(), "lane width mismatch");
    let limbs = value.limbs();
    for (j, p) in planes.iter_mut().enumerate() {
        let b = (limbs[j / 64] >> (j % 64)) & 1;
        *p = (*p & !(1u64 << lane)) | (b << lane);
    }
}

/// The lanes set in `mask`, in increasing order.
fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            k
        })
    })
}

/// Mask of lanes `0..len`.
fn lane_mask(len: usize) -> u64 {
    if len >= PLANE_LANES {
        !0
    } else {
        (1u64 << len) - 1
    }
}

/// `round_up_from_block` per lane over a rounding block's sum and carry
/// planes: the unsigned two-word sum, resolved in `width + 1` bits by
/// one ripple, has its top or next bit set.
fn round_up_lanes(sum: &[u64], carry: &[u64]) -> u64 {
    let (mut c, mut top) = (0u64, 0u64);
    for (&x, &y) in sum.iter().zip(carry) {
        top = x ^ y ^ c;
        c = (x & y) | (c & (x ^ y));
    }
    c | top
}

/// `resolve_signed_extended().sign_bit()` per lane: the sign of
/// `sext(sum) + sext(carry)` in `width + 1` bits, by one ripple over the
/// planes (bit `width` of each word replicates its top bit).
fn signed_sum_sign(sum: &[u64], carry: &[u64]) -> u64 {
    let (Some(&xs), Some(&yc)) = (sum.last(), carry.last()) else {
        return 0;
    };
    let mut c = 0u64;
    for (&x, &y) in sum.iter().zip(carry) {
        c = (x & y) | (c & (x ^ y));
    }
    xs ^ yc ^ c
}

/// `anticipate_leading_cs` for every lane of `active` over the digit
/// planes of a width-`w` CS pair (`units::lza`): the Schmookler–Nowka
/// indicator `f(i)` over the pair sign-extended to `w + 2` positions is
/// evaluated plane by plane from the top (no generate or zero below
/// position 0, sign positions replicated above `w − 1`), and each lane's
/// first set position `p` gives `w − p` (`w + 1` if the indicator never
/// fires). Writes `red[k]` for every returned lane: the lanes of
/// `active` whose mantissa is not canonically zero.
fn anticipate_lanes(
    sum: &[u64],
    carry: &[u64],
    active: u64,
    red: &mut [usize; PLANE_LANES],
) -> u64 {
    let w = sum.len();
    let nonzero = sum.iter().zip(carry).fold(0u64, |v, (&x, &y)| v | x | y) & active;
    if nonzero == 0 {
        return 0;
    }
    let at = |j: usize| {
        let j = j.min(w - 1);
        (sum[j], carry[j])
    };
    let gz = |j: usize| {
        let (x, y) = at(j);
        (x & y, !(x | y))
    };
    let mut found = 0u64;
    for i in (0..w + 2).rev() {
        let (x, y) = at(i + 1);
        let t_up = x ^ y;
        let (g, z) = gz(i);
        let (g_lo, z_lo) = if i == 0 { (0, 0) } else { gz(i - 1) };
        let f = (t_up & ((g & !z_lo) | (z & !g_lo))) | (!t_up & ((z & !z_lo) | (g & !g_lo)));
        let new = f & nonzero & !found;
        for k in lanes(new) {
            red[k] = w.saturating_sub(i);
        }
        found |= new;
        if found == nonzero {
            return nonzero;
        }
    }
    for k in lanes(nonzero & !found) {
        red[k] = w + 1;
    }
    nonzero
}

/// Place each lane of `active` of the planes `src` into the `w`-plane
/// window `out` at its own `shifts[k]`, bit-exact with `align_addend`'s
/// sign-extend-and-place frame semantics. When all active lanes share
/// one shift — always for the product, whose placement moves only in
/// the dominant-addend case — the placement is one masked plane pass
/// (`align_planes_or`); otherwise each lane is a sign-extending funnel
/// shift over its lane-major limbs (`align_lanes_to_planes`), between
/// two transposes. DESIGN.md §13.1 has the measured shift counts.
fn align_window(
    src: &[u64],
    shifts: &[i64; PLANE_LANES],
    active: u64,
    w: usize,
    limbs: &mut Vec<u64>,
    scratch: &mut Vec<u64>,
    out: &mut Vec<u64>,
) {
    let shift = shifts[active.trailing_zeros() as usize % PLANE_LANES];
    if lanes(active).all(|k| shifts[k] == shift) {
        out.clear();
        out.resize(w, 0);
        align_planes_or(src, shift, active, out);
    } else {
        timed(&obs::PLANE_TRANSPOSE_NS, || {
            planes_to_lane_limbs(src, src.len(), limbs);
            align_lanes_to_planes(limbs, src.len(), shifts, active, w, scratch, out);
        });
    }
}

/// Per-lane control state produced by the preamble.
#[derive(Clone, Copy, Debug)]
struct LanePrep {
    normal: bool,
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
            b_sig: 0,
            p_shift: 0,
            a_shift: 0,
            wls: 0,
            skip_cap: usize::MAX,
        }
    }
}

/// Reusable working storage for [`plane_fma`] — plane arenas, lane
/// buffers and the scalar-fallback scratch. One per batch-engine
/// worker, like [`FmaScratch`].
#[derive(Clone, Debug, Default)]
pub struct PlaneScratch {
    fma: FmaScratch,
    prep: Vec<LanePrep>,
    early: Vec<(usize, CsOperand)>,
    skips: Vec<usize>,
    lane_limbs: Vec<u64>,
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

/// Evaluate one FMA instruction over a chunk of plane registers:
/// lane `k` of register `dst` becomes `A + b[k] * C` with `A`, `C` lane
/// `k` of registers `acc` and `mulc`, for `k < len` — bit-identical to
/// [`CsFmaUnit::fma_with`] per lane, including when `dst` aliases `acc`
/// or `mulc`. `dst` takes the unit's format; lanes `len..` of `dst` are
/// left undefined.
///
/// # Panics
/// If `len > PLANE_LANES`, `b.len() < len`, a register is out of range,
/// or `acc`/`mulc` hold another format than the unit's (the scalar
/// engine's "operand format mismatch").
#[allow(clippy::too_many_arguments)] // mirrors the tape executor's operand frame
pub fn plane_fma(
    unit: &CsFmaUnit,
    bank: &mut PlaneBank,
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

    let (a_meta, c_meta) = (bank.meta[acc], bank.meta[mulc]);
    assert_eq!(a_meta.format, f, "A operand format mismatch");
    assert_eq!(c_meta.format, f, "C operand format mismatch");
    let [a_ms, a_mc, a_rs, a_rc] = bank.offsets(acc);
    let [c_ms, c_mc, c_rs, c_rc] = bank.offsets(mulc);

    // ---- preamble: classes, rounding, anticipation from planes ----
    let live = lane_mask(len);
    let b_normal = b[..len].iter().enumerate().fold(0u64, |v, (k, bv)| {
        v | u64::from(bv.class() == FpClass::Normal) << k
    });
    let normal = live & !a_meta.nan & !a_meta.inf & b_normal & c_meta.normal();
    // exception lanes never reach the datapath; the scalar engine's
    // early-return ladder resolves them bit-exactly
    s.early.clear();
    for k in lanes(live & !normal) {
        let (a, c) = (bank.gather(acc, k), bank.gather(mulc, k));
        s.early.push((k, unit.fma_with(&a, &b[k], &c, &mut s.fma)));
    }
    let n_plane = u64::from(normal.count_ones());
    if f.carry_spacing.is_some() {
        obs::PCS_FMA_OPS.add(n_plane);
    } else {
        obs::FCS_FMA_OPS.add(n_plane);
    }
    obs::PLANE_FMA_LANES.add(n_plane);
    obs::PLANE_EXCEPTION_LANES.add(len as u64 - n_plane);

    let planes = &bank.planes;
    let a_zero = a_meta.zero & normal;
    let up_c_mask = round_up_lanes(&planes[c_rs..c_rs + bb], &planes[c_rc..c_rc + bb]) & normal;
    let up_a_mask =
        round_up_lanes(&planes[a_rs..a_rs + bb], &planes[a_rc..a_rc + bb]) & normal & !a_zero;
    let mut red_a = [0usize; PLANE_LANES];
    let mut red_c = [0usize; PLANE_LANES];
    let (nz_a, nz_c) = match f.normalizer {
        Normalizer::EarlyLza => (
            anticipate_lanes(
                &planes[a_ms..a_ms + m],
                &planes[a_mc..a_mc + m],
                normal & !a_zero,
                &mut red_a,
            ),
            anticipate_lanes(
                &planes[c_ms..c_ms + m],
                &planes[c_mc..c_mc + m],
                normal,
                &mut red_c,
            ),
        ),
        Normalizer::ZeroDetect => (0, 0),
    };
    // window placement: the per-lane exponent arithmetic
    s.prep.clear();
    s.prep.resize(len, LanePrep::default());
    let mut neg_mask = 0u64;
    for k in lanes(normal) {
        let bv = &b[k];
        let a_zero_k = a_zero >> k & 1 != 0;
        let e_p = bv.exp() as i64 + c_meta.exp[k].unbiased() as i64;
        let fb_b = bv.format().frac_bits as i64;
        let mut wls = e_p - fc - fb_b - right_off;
        let shift_a_raw = if a_zero_k {
            0
        } else {
            a_meta.exp[k].unbiased() as i64 - fc - wls
        };
        let extra = (shift_a_raw - max_shift).max(0);
        let p_shift = right_off - extra;
        let a_shift = shift_a_raw - extra;
        wls += extra;
        let skip_cap = match f.normalizer {
            Normalizer::ZeroDetect => usize::MAX,
            Normalizer::EarlyLza => unit.skip_from_anticipation(
                (nz_a >> k & 1 != 0).then_some(red_a[k]),
                (nz_c >> k & 1 != 0).then_some(red_c[k]),
                a_shift,
                p_shift,
            ),
        };
        if bv.sign() {
            neg_mask |= 1 << k;
        }
        s.prep[k] = LanePrep {
            normal: true,
            b_sig: bv.significand(),
            p_shift,
            a_shift,
            wls,
            skip_cap,
        };
    }

    // ---- plane multiplier (Fig. 6, fixed 2·b_sig+1-row tree) ----
    // sign extension is plane replication: bit j >= m reads the sign plane
    s.ext_s.clear();
    s.ext_s.extend_from_slice(&planes[c_ms..c_ms + m]);
    s.ext_c.clear();
    s.ext_c.extend_from_slice(&planes[c_mc..c_mc + m]);
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
    let mut p_shifts = [0i64; PLANE_LANES];
    let mut a_shifts = [0i64; PLANE_LANES];
    let act_p = normal; // lanes with a product in the window
    let act_a = normal & !a_zero; // lanes with a nonzero addend in the window
    for k in lanes(act_p) {
        p_shifts[k] = s.prep[k].p_shift;
        a_shifts[k] = s.prep[k].a_shift;
    }
    let sources: [(&[u64], &[i64; PLANE_LANES], u64); 4] = [
        (&s.prod_s, &p_shifts, act_p),
        (&s.prod_c, &p_shifts, act_p),
        (&planes[a_ms..a_ms + m], &a_shifts, act_a),
        (&planes[a_mc..a_mc + m], &a_shifts, act_a),
    ];
    for ((src, shifts, active), win) in sources.into_iter().zip(&mut s.win) {
        align_window(
            src,
            shifts,
            active,
            w,
            &mut s.lane_limbs,
            &mut s.align_scratch,
            win,
        );
    }

    // ---- window compression with the A-rounding one-hot select ----
    s.win[4].clear();
    s.win[4].resize(w, 0);
    let mut m5 = 0u64; // lanes whose fifth row (A round one-hot) exists
    for k in lanes(up_a_mask) {
        let a_shift = s.prep[k].a_shift;
        if (0..w as i64).contains(&a_shift) {
            m5 |= 1 << k;
            s.win[4][a_shift as usize] |= 1 << k;
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
    for k in lanes(normal) {
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
        s.skips[k] = skip.min(s.prep[k].skip_cap);
    }

    // ---- result block mux: OR the windows under per-skip lane masks,
    // straight into the destination planes (every input is read) ----
    let mut sel = [0u64; 16];
    for k in lanes(normal) {
        sel[s.skips[k]] |= 1 << k;
    }
    let rw = keep * bb;
    let [d_ms, d_mc, d_rs, d_rc] = bank.offsets(dst);
    let p = &mut bank.planes;
    p[d_ms..d_ms + rw].fill(0);
    p[d_mc..d_mc + rw].fill(0);
    p[d_rs..d_rs + bb].fill(0);
    p[d_rc..d_rc + bb].fill(0);
    #[allow(clippy::needless_range_loop)] // sk also derives the window base offset
    for sk in 0..=(nb - keep) {
        let mask = sel[sk];
        if mask == 0 {
            continue;
        }
        let base = (nb - keep - sk) * bb;
        for r in 0..rw {
            p[d_ms + r] |= win_s[base + r] & mask;
            p[d_mc + r] |= win_c[base + r] & mask;
        }
        if sk + keep < nb {
            // the block below the selected slice is the rounding data
            for r in 0..bb {
                p[d_rs + r] |= win_s[base - bb + r] & mask;
                p[d_rc + r] |= win_c[base - bb + r] & mask;
            }
        }
    }

    // ---- lane state: sign hints, exponents, classes ----
    let sign = signed_sum_sign(&p[d_ms..d_ms + rw], &p[d_mc..d_mc + rw]) & normal;
    let d = &mut bank.meta[dst];
    d.format = f;
    d.nan &= !normal;
    d.inf &= !normal;
    d.zero &= !normal;
    d.sign = (d.sign & !normal) | sign;
    for k in lanes(normal) {
        let e_r = (nb - s.skips[k] - keep) as i64 * bb as i64 + s.prep[k].wls + fc;
        d.exp[k] = BiasedExp::from_unbiased_saturating(e_r);
    }
    for (k, r) in s.early.drain(..) {
        bank.scatter(dst, k, &r);
    }
}

/// [`plane_fma`] over lane-major operands:
/// `bank[dst + k] = bank[acc + k] + b[k] * bank[mulc + k]` for
/// `k < len`, bit-identical to calling [`CsFmaUnit::fma_with`] per lane
/// (including when `dst` aliases `acc` or `mulc`). A thin wrapper that
/// scatters `A` and `C` into a three-register [`PlaneBank`], runs the
/// kernel and gathers the result — the entry point of the golden and
/// equivalence suites. The tape executor keeps its registers in a bank
/// and calls [`plane_fma`] directly.
///
/// # Panics
/// As [`plane_fma`], or if the bank slices are out of bounds.
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
    let mut regs = PlaneBank::default();
    regs.configure(3, &[*unit.format()]);
    for k in 0..len {
        regs.scatter(0, k, &bank[acc + k]);
        regs.scatter(1, k, &bank[mulc + k]);
    }
    plane_fma(unit, &mut regs, 0, 1, 2, b, len, s);
    for k in 0..len {
        bank[dst + k] = regs.gather(2, k);
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

    fn random_lanes(width: usize, state: &mut u64) -> Vec<Bits> {
        (0..PLANE_LANES)
            .map(|l| {
                let limbs: Vec<u64> = (0..width.div_ceil(64)).map(|_| splitmix(state)).collect();
                // a few lanes are zero, all-ones or a small value so
                // canonical zeros, cancellation and sign runs appear
                match l % 8 {
                    0 => Bits::zero(width),
                    1 => Bits::ones(width),
                    2 => Bits::from_u64(width, limbs[0] & 7),
                    _ => Bits::from_limbs(width, &limbs),
                }
            })
            .collect()
    }

    fn to_planes(lanes: &[Bits], width: usize) -> Vec<u64> {
        let mut out = Vec::new();
        csfma_carrysave::plane::lanes_to_planes(lanes, width, &mut out);
        out
    }

    /// The preamble and writeback plane helpers agree lane by lane with
    /// the scalar functions they replace.
    #[test]
    fn plane_helpers_match_scalar_per_lane() {
        use csfma_units::lza::anticipate_leading_cs;
        use csfma_units::rounding::round_up_from_block;
        let mut state = 0x51_6e;
        for width in [1usize, 15, 29, 45, 55, 58, 64, 87, 110, 116] {
            let sums = random_lanes(width, &mut state);
            let mut carries = random_lanes(width, &mut state);
            // lane 5 cancels exactly: carry = -sum
            carries[5] = sums[5].wrapping_neg();
            let (ps, pc) = (to_planes(&sums, width), to_planes(&carries, width));
            let up = round_up_lanes(&ps, &pc);
            let sign = signed_sum_sign(&ps, &pc);
            let mut red = [0usize; PLANE_LANES];
            let active = !0u64 ^ (1 << 3); // lane 3 not asked for
            let nonzero = anticipate_lanes(&ps, &pc, active, &mut red);
            for l in 0..PLANE_LANES {
                let cs = CsNumber::new(sums[l].clone(), carries[l].clone());
                let what = format!("width {width} lane {l}");
                assert_eq!(
                    up >> l & 1 != 0,
                    round_up_from_block(&cs),
                    "{what}: round up"
                );
                assert_eq!(
                    sign >> l & 1 != 0,
                    cs.resolve_signed_extended().sign_bit(),
                    "{what}: sign"
                );
                let want_nz = active >> l & 1 != 0 && !cs.is_canonical_zero();
                assert_eq!(nonzero >> l & 1 != 0, want_nz, "{what}: nonzero");
                if want_nz {
                    assert_eq!(red[l], anticipate_leading_cs(&cs), "{what}: anticipation");
                }
            }
        }
    }

    /// `load_f64` builds exactly the planes `from_f64` + `scatter` would,
    /// and both gathers read them back unchanged.
    #[test]
    fn bank_conversions_match_lane_operands() {
        for fmt in [CsFmaFormat::PCS_55_ZD, CsFmaFormat::FCS_29_LZA] {
            let mut bank = PlaneBank::default();
            bank.configure(2, &[CsFmaFormat::PCS_55_ZD, CsFmaFormat::FCS_29_LZA]);
            let mut state = 0xfeed;
            for len in [64usize, 41, 1] {
                let vals: Vec<f64> = (0..len).map(|_| gen_f64(&mut state)).collect();
                bank.load_f64(0, fmt, &vals);
                for (k, &v) in vals.iter().enumerate() {
                    let want = CsOperand::from_f64(v, fmt);
                    assert_same(
                        &bank.gather(0, k),
                        &want,
                        &format!("{} gather {k}", fmt.name),
                    );
                    bank.scatter(1, k, &want);
                }
                let mut seen = 0;
                bank.gather_lanes(0, len, |k, op| {
                    assert_same(
                        &op,
                        &CsOperand::from_f64(vals[k], fmt),
                        &format!("{} lanes {k}", fmt.name),
                    );
                    seen += 1;
                });
                assert_eq!(seen, len);
                for k in 0..len {
                    assert_same(&bank.gather(1, k), &bank.gather(0, k), "scatter");
                }
            }
        }
    }
}
