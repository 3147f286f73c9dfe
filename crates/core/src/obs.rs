//! Process-wide behavioral-unit op counters (the `obs` feature).
//!
//! One relaxed atomic increment per FMA call — noise next to the
//! compressor-tree work a call performs — keyed by architecture class:
//! classic (Fig. 4), PCS (partial carry-save, `carry_spacing = Some`),
//! FCS (full carry-save, `carry_spacing = None`). All increments are
//! no-ops when the `obs` feature is compiled out.

use csfma_obs::{Counter, Histogram};

pub(crate) static CLASSIC_FMA_OPS: Counter = Counter::new();
pub(crate) static PCS_FMA_OPS: Counter = Counter::new();
pub(crate) static FCS_FMA_OPS: Counter = Counter::new();

// Bit-plane chunk-kernel counters (DESIGN.md §13): how many FMA lanes
// went through the plane kernel, how many it resolved on the scalar
// exception path, how many the batch executor evaluated scalar because
// the chunk had too few lanes, and the time spent transposing between
// lane-major and plane-major form.
pub(crate) static PLANE_FMA_LANES: Counter = Counter::new();
pub(crate) static PLANE_EXCEPTION_LANES: Counter = Counter::new();
pub(crate) static PLANE_FALLBACK_LANES: Counter = Counter::new();
pub(crate) static PLANE_TRANSPOSE_NS: Counter = Counter::new();

// Work-stealing scheduler counters (DESIGN.md §14): jobs that fielded
// multiple workers vs. jobs that ran inline on the caller, owner-side
// front claims, successful back-of-deque steals, and steal attempts
// that lost the race to a concurrent claim (starvation pressure).
pub(crate) static SCHED_JOBS: Counter = Counter::new();
pub(crate) static SCHED_INLINE_JOBS: Counter = Counter::new();
pub(crate) static SCHED_CLAIMS: Counter = Counter::new();
pub(crate) static SCHED_STEALS: Counter = Counter::new();
pub(crate) static SCHED_STEAL_MISSES: Counter = Counter::new();

/// Grain (work items per owner claim) chosen per job, bucketed by
/// `log2(grain)`: bucket 0 is grain 1, bucket 6 is grain 64, the last
/// bucket collects the inline path's whole-batch grains.
pub(crate) static SCHED_GRAIN: Histogram<8> = Histogram::new();

/// Snapshot of the work-stealing scheduler counters (all zeros when the
/// `obs` feature is compiled out). See DESIGN.md §14.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounts {
    /// Scheduler invocations that fielded ≥ 2 workers.
    pub jobs: u64,
    /// Invocations that ran inline on the calling thread (1 worker).
    pub inline_jobs: u64,
    /// Owner-side front claims across all jobs.
    pub claims: u64,
    /// Successful back-of-deque steals.
    pub steals: u64,
    /// Steal attempts that lost the race to a concurrent claim.
    pub steal_misses: u64,
}

/// Read the process-wide work-stealing scheduler counters.
pub fn sched_counts() -> SchedCounts {
    SchedCounts {
        jobs: SCHED_JOBS.get(),
        inline_jobs: SCHED_INLINE_JOBS.get(),
        claims: SCHED_CLAIMS.get(),
        steals: SCHED_STEALS.get(),
        steal_misses: SCHED_STEAL_MISSES.get(),
    }
}

/// Snapshot the per-job grain histogram (bucket `i` counts jobs whose
/// grain was in `[2^i, 2^(i+1))`; the last bucket is open-ended).
pub fn sched_grain_histogram() -> [u64; 8] {
    SCHED_GRAIN.snapshot()
}

/// Snapshot of the per-architecture FMA op counters (all zeros when the
/// `obs` feature is compiled out).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitOpCounts {
    /// Calls through [`ClassicFma::fma`](crate::ClassicFma::fma).
    pub classic: u64,
    /// [`CsFmaUnit`](crate::CsFmaUnit) calls on a partial carry-save
    /// format (`carry_spacing = Some(_)`: PCS-ZD and PCS-LZA).
    pub pcs: u64,
    /// [`CsFmaUnit`](crate::CsFmaUnit) calls on a full carry-save format
    /// (`carry_spacing = None`: FCS).
    pub fcs: u64,
}

impl UnitOpCounts {
    /// Total behavioral FMA calls across all architectures.
    pub fn total(&self) -> u64 {
        self.classic + self.pcs + self.fcs
    }
}

/// Read the process-wide per-architecture FMA op counters.
pub fn unit_op_counts() -> UnitOpCounts {
    UnitOpCounts {
        classic: CLASSIC_FMA_OPS.get(),
        pcs: PCS_FMA_OPS.get(),
        fcs: FCS_FMA_OPS.get(),
    }
}

/// Snapshot of the bit-plane kernel counters (all zeros when the `obs`
/// feature is compiled out). See DESIGN.md §13.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneCounts {
    /// FMA lanes evaluated fully by the plane kernel.
    pub plane_lanes: u64,
    /// Lanes inside a plane chunk resolved by the scalar exception path
    /// (NaN / Inf / zero products never reach the datapath).
    pub exception_lanes: u64,
    /// Fused-FMA lanes the batch executor evaluated scalar because the
    /// chunk had fewer lanes than the plane threshold (1–3: single rows,
    /// JIT bailouts, tiny batches) or the instruction was not
    /// plane-eligible.
    pub fallback_lanes: u64,
    /// Nanoseconds spent transposing between lane-major and plane-major
    /// form inside the plane kernel.
    pub transpose_ns: u64,
}

/// Read the process-wide bit-plane kernel counters.
pub fn plane_counts() -> PlaneCounts {
    PlaneCounts {
        plane_lanes: PLANE_FMA_LANES.get(),
        exception_lanes: PLANE_EXCEPTION_LANES.get(),
        fallback_lanes: PLANE_FALLBACK_LANES.get(),
        transpose_ns: PLANE_TRANSPOSE_NS.get(),
    }
}

/// Tally fused-FMA lanes that took the scalar fallback inside the
/// bit-accurate batch executor (chunks below the plane threshold or
/// instructions the plane-eligibility analysis rejected).
pub fn count_plane_fallback(lanes: usize) {
    PLANE_FALLBACK_LANES.add(lanes as u64);
}
