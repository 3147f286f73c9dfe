//! Graceful-degradation batch execution: self-checking evaluation with a
//! per-row fallback ladder.
//!
//! [`Tape::eval_batch`] is the fast path — it trusts the datapath. This
//! module is the *robust* path for runs where the datapath may be faulty
//! (fault-injection campaigns, or hardware under test): every FMA runs
//! with the mod-3 residue / recompute-and-compare checks of
//! `csfma_core::fault` enabled, every chunk runs under `catch_unwind`
//! with bounded retry, and a row whose checks fire is re-evaluated down a
//! ladder of increasingly conservative engines:
//!
//! 1. **chunk** — the chunk interpreter with the checked semantics: each
//!    fused instruction runs the self-checking unit per lane with that
//!    lane's fault hook. A panicking chunk is retried up to
//!    [`RobustOptions::chunk_retries`] times (transient faults have been
//!    claimed, so the retry runs clean). On full bit-accurate chunks the
//!    bit-plane kernel then runs as a shadow, and any lane it disagrees
//!    on is flagged (the plane differential, DESIGN.md §10.5).
//! 2. **row** — the flagged row alone, re-evaluated on the same backend
//!    (`Recovered { backend: "row-bit" | "row-f64" | "row-oracle" }`).
//!    Transient faults cannot strike twice; only sticky faults re-arm.
//! 3. **oracle** — [`TapeBackend::Oracle`]: the pure soft-float operator
//!    stack plus the allocating behavioral units
//!    (`Recovered { backend: "oracle" }`). It runs through the same
//!    interpreter loop as every other rung; its independence from the
//!    rungs above is by operator stack, not by dispatch loop.
//! 4. **quarantine** — the row's outputs are poisoned with NaN and a
//!    structured `F001` [`Diagnostic`] names the offending source-graph
//!    node (via [`Tape::source_node_of`]). One bad row never corrupts or
//!    aborts its neighbors.
//!
//! Recovered outputs are bit-identical to a fault-free evaluation: rung 2
//! replays the exact row semantics and rung 3 is bit-identical to the
//! bit-accurate backend by construction. Chunking follows
//! `par_chunks_indexed`, so the filled buffer — and the whole
//! [`BatchReport`] — is byte-identical for any worker count.
//!
//! Coverage boundary: the residue and duplicate-compute checks guard the
//! *arithmetic datapath* (multiplier words, PCS carry lanes, block-mux
//! selects, the exponent path). A [`FaultSite::TapeReg`](csfma_core::fault::FaultSite::TapeReg)
//! upset corrupts a stored register plane *between* operations; no check
//! covers that class (it needs ECC on the register file). On full
//! bit-accurate chunks the plane differential catches most of those
//! upsets anyway; campaigns report the rest as the undetected remainder
//! (DESIGN.md §10.4).

use crate::compile::{flip_f64, Bit, CsBank, Instr, Tape, TapeBackend, TapeScratch, F64};
use csfma_core::batch::{par_chunks_indexed, CHUNK_ROWS};
use csfma_core::fault::{CheckKind, FaultDetected, FaultHook, FaultPlan, FaultStage, RowFaults};
use csfma_verify::{Diagnostic, Rule, Span};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Knobs for [`Tape::eval_batch_robust`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RobustOptions<'a> {
    /// Worker threads (same semantics as [`Tape::eval_batch`]; `0`/`1`
    /// runs inline). The result is byte-identical for any value.
    pub threads: usize,
    /// How many times a panicking chunk is re-run before every row in it
    /// falls back to the per-row ladder.
    pub chunk_retries: u32,
    /// Fault plan to inject while evaluating (`None` = run clean with
    /// checks enabled).
    pub fault: Option<&'a FaultPlan>,
}

impl<'a> RobustOptions<'a> {
    /// Defaults (1 thread, 2 chunk retries) with a fault plan attached.
    pub fn with_fault(plan: &'a FaultPlan) -> Self {
        RobustOptions {
            threads: 1,
            chunk_retries: 2,
            fault: Some(plan),
        }
    }
}

/// What happened to one batch row.
#[derive(Clone, Debug, PartialEq)]
pub enum RowOutcome {
    /// Computed by the primary chunked executor, no check fired.
    Ok,
    /// A check (or chunk panic) fired; the row was re-computed cleanly
    /// by the named fallback engine. The value is bit-identical to a
    /// fault-free evaluation.
    Recovered {
        /// Ladder rung that produced the value: `"row-bit"`,
        /// `"row-f64"`, `"row-oracle"` or `"oracle"`.
        backend: &'static str,
    },
    /// Every rung failed; the row's outputs are NaN and the diagnostic
    /// names the offending source-graph node.
    Quarantined {
        /// The structured `F001` finding.
        diag: Diagnostic,
    },
}

/// Per-row outcomes and aggregate counters of one
/// [`Tape::eval_batch_robust`] run.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Rows evaluated.
    pub rows: usize,
    /// One outcome per row, in row order.
    pub outcomes: Vec<RowOutcome>,
    /// Self-check detections observed across all rungs (a sticky fault
    /// detected on two rungs counts twice).
    pub detections: usize,
    /// Chunk evaluations that panicked.
    pub chunk_panics: usize,
    /// Chunk-level retries performed after a panic.
    pub chunk_retries: usize,
}

impl BatchReport {
    /// `(ok, recovered, quarantined)` row counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0usize, 0usize, 0usize);
        for o in &self.outcomes {
            match o {
                RowOutcome::Ok => c.0 += 1,
                RowOutcome::Recovered { .. } => c.1 += 1,
                RowOutcome::Quarantined { .. } => c.2 += 1,
            }
        }
        c
    }

    /// True when anything at all went wrong (detection, panic, non-`Ok`
    /// outcome).
    pub fn has_faults(&self) -> bool {
        self.detections != 0
            || self.chunk_panics != 0
            || self.outcomes.iter().any(|o| !matches!(o, RowOutcome::Ok))
    }

    /// The quarantined rows' diagnostics, with their row indices.
    pub fn quarantined(&self) -> Vec<(usize, &Diagnostic)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                RowOutcome::Quarantined { diag } => Some((i, diag)),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ok, recovered, quarantined) = self.counts();
        write!(
            f,
            "rows={} ok={ok} recovered={recovered} quarantined={quarantined} \
             detections={} chunk_panics={} chunk_retries={}",
            self.rows, self.detections, self.chunk_panics, self.chunk_retries
        )
    }
}

/// What one chunk contributed to the report (only non-`Ok` rows are
/// recorded; `outcomes` carries absolute row indices).
#[derive(Default)]
struct ChunkRecord {
    outcomes: Vec<(usize, RowOutcome)>,
    detections: usize,
    panics: usize,
    retries: usize,
}

impl ChunkRecord {
    fn nontrivial(&self) -> bool {
        !self.outcomes.is_empty() || self.detections != 0 || self.panics != 0 || self.retries != 0
    }
}

/// Per-lane fault state of one checked [`Tape::run_chunk`] evaluation:
/// each lane's armed hook, its register-plane upset and the detections
/// its fused instructions report.
#[derive(Default)]
pub(crate) struct ChunkFaults<'p> {
    /// The armed hook per lane (`None`: checks only, no injection).
    pub(crate) hooks: Vec<Option<RowFaults<'p>>>,
    /// The register-plane upset per lane: `(instruction, bit)`.
    upsets: Vec<Option<(usize, u32)>>,
    /// Detections per lane, tagged with the instruction that saw them.
    pub(crate) findings: Vec<Vec<(usize, FaultDetected)>>,
}

impl ChunkFaults<'_> {
    /// Apply every lane's register upset that strikes right after
    /// instruction `i`: flip one bit of the lane's destination register
    /// — in a carry-save register, one bit of a mantissa-sum plane (a
    /// `Store` writes caller memory, not a register — masked).
    pub(crate) fn strike_registers<C: CsBank>(
        &self,
        i: usize,
        ins: &Instr,
        f: &mut [f64],
        cs: &mut C,
    ) {
        for (k, upset) in self.upsets.iter().enumerate() {
            let Some((at, bit)) = *upset else { continue };
            if at != i {
                continue;
            }
            match *ins {
                Instr::LoadInput { dst, .. }
                | Instr::LoadConst { dst, .. }
                | Instr::Add { dst, .. }
                | Instr::Sub { dst, .. }
                | Instr::Mul { dst, .. }
                | Instr::Div { dst, .. }
                | Instr::Neg { dst, .. }
                | Instr::CsToIeee { dst, .. } => {
                    flip_f64(&mut f[dst as usize * CHUNK_ROWS + k], bit)
                }
                Instr::Fma { dst, .. } | Instr::IeeeToCs { dst, .. } => {
                    cs.flip(dst as usize, k, bit)
                }
                Instr::Store { .. } => {}
            }
        }
    }
}

impl Tape {
    /// Evaluate a batch with self-checks, fault injection and the
    /// per-row fallback ladder (module docs). Same layout contract as
    /// [`Tape::eval_batch`]; additionally returns a [`BatchReport`] with
    /// one [`RowOutcome`] per row. Both the buffer and the report are
    /// byte-identical for any `opts.threads`.
    ///
    /// # Panics
    /// As [`Tape::eval_batch`]: no inputs, or `rows.len()` not a
    /// multiple of `num_inputs()`.
    pub fn eval_batch_robust(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        opts: &RobustOptions,
    ) -> (Vec<f64>, BatchReport) {
        let ni = self.num_inputs();
        assert!(ni > 0, "eval_batch_robust on a tape with no inputs");
        assert_eq!(rows.len() % ni, 0, "rows not a multiple of num_inputs");
        let n = rows.len() / ni;
        let no = self.num_outputs();
        let mut out = vec![0.0f64; n * no];
        let mut report = BatchReport {
            rows: n,
            outcomes: vec![RowOutcome::Ok; n],
            ..Default::default()
        };
        if no == 0 || n == 0 {
            return (out, report);
        }
        let records: Mutex<Vec<ChunkRecord>> = Mutex::new(Vec::new());
        // The stealing scheduler hands chunks to whichever worker claims
        // them; records are pushed in completion order and then merged
        // below by absolute row index, so the report — like the output
        // buffer — is independent of steal timing.
        par_chunks_indexed(
            &mut out,
            CHUNK_ROWS * no,
            opts.threads,
            || self.chunk_scratch(),
            |scratch, chunk_idx, chunk| {
                let base = chunk_idx * CHUNK_ROWS;
                let len = chunk.len() / no;
                let rec = self.robust_chunk(backend, rows, base, len, chunk, scratch, opts);
                if rec.nontrivial() {
                    records.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
                }
            },
        );
        for rec in records.into_inner().unwrap_or_else(|e| e.into_inner()) {
            report.detections += rec.detections;
            report.chunk_panics += rec.panics;
            report.chunk_retries += rec.retries;
            for (row, outcome) in rec.outcomes {
                report.outcomes[row] = outcome;
            }
        }
        (out, report)
    }

    /// [`Tape::eval_batch_robust`] wrapped in an `eval_robust` stage
    /// span, with the [`BatchReport`]'s fault tallies (detections, chunk
    /// panics/retries, recovered and quarantined row counts) recorded as
    /// `fault_*` counters into `prof`. Buffer and report are
    /// byte-identical to the unprofiled call.
    pub fn eval_batch_robust_profiled(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        opts: &RobustOptions,
        prof: &mut csfma_obs::Profiler,
    ) -> (Vec<f64>, BatchReport) {
        let tok = prof.enter("eval_robust");
        let ((out, report), wall_us) =
            csfma_obs::time_us(|| self.eval_batch_robust(backend, rows, opts));
        prof.exit(tok);
        let (ok, recovered, quarantined) = report.counts();
        prof.set_counter("rows", report.rows as f64);
        prof.set_counter("threads", opts.threads as f64);
        if wall_us > 0.0 {
            prof.set_counter("rows_per_sec", report.rows as f64 / (wall_us * 1e-6));
        }
        prof.set_counter("rows_ok", ok as f64);
        prof.set_counter("fault_detections", report.detections as f64);
        prof.set_counter("fault_chunk_panics", report.chunk_panics as f64);
        prof.set_counter("fault_chunk_retries", report.chunk_retries as f64);
        prof.set_counter("fault_rows_recovered", recovered as f64);
        prof.set_counter("fault_rows_quarantined", quarantined as f64);
        (out, report)
    }

    /// Checked evaluation of rows `base..base + len` at `stage` — rungs
    /// 1 and 2 of the ladder — with the per-lane state kept in `faults`.
    /// Lanes are armed in order, each consulting its executor-panic
    /// fault and then its register upset, as if the rows ran one after
    /// another: at the first lane `p` whose panic fires, lanes `0..p`
    /// run and then the panic is raised, so the transient faults of
    /// later lanes stay unclaimed for the retry. Robust mode on the
    /// oracle and JIT backends runs the checked bit-accurate semantics:
    /// same bits, and the tamper points stay armed.
    #[allow(clippy::too_many_arguments)]
    fn run_checked<'p>(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        base: usize,
        len: usize,
        out: &mut [f64],
        s: &mut TapeScratch,
        plan: Option<&'p FaultPlan>,
        stage: FaultStage,
        faults: &mut ChunkFaults<'p>,
    ) {
        faults.hooks.clear();
        faults.upsets.clear();
        faults.findings.iter_mut().for_each(Vec::clear);
        faults.findings.resize_with(len, Vec::new);
        let mut panic_lane = None;
        for k in 0..len {
            let hook = plan.and_then(|p| p.for_row((base + k) as u64, stage));
            if hook.as_ref().is_some_and(|h| h.wants_panic()) {
                panic_lane = Some(k);
                break;
            }
            let upset = hook.as_ref().and_then(|h| h.tape_fault(self.instrs.len()));
            faults.upsets.push(upset);
            faults.hooks.push(hook);
        }
        let ran = faults.hooks.len();
        match backend {
            TapeBackend::F64 => self.run_chunk::<F64>(rows, base, ran, out, s, Some(faults)),
            TapeBackend::BitAccurate | TapeBackend::Oracle | TapeBackend::Jit => {
                self.run_chunk::<Bit>(rows, base, ran, out, s, Some(faults))
            }
        }
        if let Some(k) = panic_lane {
            panic!("injected executor panic at row {}", base + k);
        }
    }

    /// One chunk of the robust executor: checked evaluation with bounded
    /// retry, then the ladder for every flagged lane.
    #[allow(clippy::too_many_arguments)]
    fn robust_chunk(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        base: usize,
        len: usize,
        chunk_out: &mut [f64],
        s: &mut TapeScratch,
        opts: &RobustOptions,
    ) -> ChunkRecord {
        let no = self.num_outputs();
        let mut rec = ChunkRecord::default();
        let mut faults = ChunkFaults::default();

        // rung 1: the whole chunk, checks on, catch_unwind + retry. A
        // transient fault claimed during a panicked attempt stays
        // claimed, so the retry runs clean.
        let mut attempts = 0u32;
        let chunk_ok = loop {
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.run_checked(
                    backend,
                    rows,
                    base,
                    len,
                    chunk_out,
                    s,
                    opts.fault,
                    FaultStage::Primary,
                    &mut faults,
                );
            }));
            match result {
                Ok(()) => break true,
                Err(_) => {
                    rec.panics += 1;
                    if attempts >= opts.chunk_retries {
                        break false;
                    }
                    attempts += 1;
                    rec.retries += 1;
                }
            }
        };
        let mut lane_findings = std::mem::take(&mut faults.findings);

        // rung 1.5: the scalar-vs-plane differential oracle (§10.5). Run
        // the production bit-plane kernel as a *shadow* of the scalar
        // evaluation above and flag any lane whose bits disagree. The
        // committed output always comes from the scalar engine, so a
        // plane-path fault — injected via the `PlaneStrike` tamper
        // points, or a genuine kernel defect — is contained by
        // construction; the differential turns that into a detection.
        if chunk_ok
            && backend == TapeBackend::BitAccurate
            && len == CHUNK_ROWS
            && self.plane_eligible_count() > 0
        {
            #[cfg(feature = "fault-inject")]
            if let Some(plan) = opts.fault {
                let mut strikes: Vec<csfma_core::PlaneStrike> = Vec::new();
                for k in 0..len {
                    if let Some(rf) = plan.for_row((base + k) as u64, FaultStage::Primary) {
                        if let Some((site, sel)) = rf.plane_strike() {
                            strikes.push(csfma_core::PlaneStrike { site, lane: k, sel });
                        }
                    }
                }
                if !strikes.is_empty() {
                    csfma_core::arm_plane_strikes(&strikes);
                }
            }
            // the shadow may reuse the scratch: every register is
            // written before it is read
            let mut shadow = vec![0.0f64; len * no];
            let ran = catch_unwind(AssertUnwindSafe(|| {
                self.eval_chunk(backend, rows, base, len, &mut shadow, s);
            }));
            #[cfg(feature = "fault-inject")]
            csfma_core::disarm_plane_strikes();
            match ran {
                Ok(()) => {
                    let instr_idx = self.plane_eligible.iter().position(|&p| p).unwrap_or(0);
                    for k in 0..len {
                        let differs = (0..no).any(|o| {
                            shadow[k * no + o].to_bits() != chunk_out[k * no + o].to_bits()
                        });
                        if differs {
                            lane_findings[k].push((
                                instr_idx,
                                FaultDetected {
                                    check: CheckKind::PlaneDifferential,
                                    message: format!(
                                        "plane kernel disagrees with the scalar engine \
                                         at row {}",
                                        base + k
                                    ),
                                },
                            ));
                        }
                    }
                }
                // a panicking shadow never touches the committed output;
                // record it like any other absorbed chunk panic
                Err(_) => rec.panics += 1,
            }
        }

        // rungs 2..4 for every lane the chunk could not vouch for
        for k in 0..len {
            if chunk_ok && lane_findings[k].is_empty() {
                continue;
            }
            let row_idx = base + k;
            let findings = std::mem::take(&mut lane_findings[k]);
            rec.detections += findings.len();
            let outcome = self.ladder_row(
                backend,
                rows,
                row_idx,
                &mut chunk_out[k * no..(k + 1) * no],
                s,
                opts,
                findings,
                &mut rec,
            );
            rec.outcomes.push((row_idx, outcome));
        }
        // tally on the worker that ran the chunk, so the process-wide
        // counters travel through the stealing path with the work
        let (recovered, quarantined) =
            rec.outcomes
                .iter()
                .fold((0u64, 0u64), |(r, q), (_, o)| match o {
                    RowOutcome::Recovered { .. } => (r + 1, q),
                    RowOutcome::Quarantined { .. } => (r, q + 1),
                    RowOutcome::Ok => (r, q),
                });
        crate::profile::count_robust_chunk(rec.detections as u64, recovered, quarantined);
        rec
    }

    /// Rungs 2 (isolated row on the primary backend), 3 (oracle) and 4
    /// (quarantine) for one flagged row.
    #[allow(clippy::too_many_arguments)]
    fn ladder_row(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        row_idx: usize,
        out: &mut [f64],
        s: &mut TapeScratch,
        opts: &RobustOptions,
        mut findings: Vec<(usize, FaultDetected)>,
        rec: &mut ChunkRecord,
    ) -> RowOutcome {
        // rung 2: the row alone, same backend. Only sticky faults re-arm
        // at this stage, so a transiently-hit row recovers here.
        let label = match backend {
            TapeBackend::F64 => "row-f64",
            TapeBackend::BitAccurate => "row-bit",
            TapeBackend::Oracle => "row-oracle",
            TapeBackend::Jit => "row-jit",
        };
        let mut retry = ChunkFaults::default();
        let retried = catch_unwind(AssertUnwindSafe(|| {
            self.run_checked(
                backend,
                rows,
                row_idx,
                1,
                out,
                s,
                opts.fault,
                FaultStage::Fallback,
                &mut retry,
            );
        }));
        let mut retry_findings: Vec<_> = retry.findings.into_iter().flatten().collect();
        rec.detections += retry_findings.len();
        match retried {
            Ok(()) if retry_findings.is_empty() => return RowOutcome::Recovered { backend: label },
            Ok(()) => findings.append(&mut retry_findings),
            Err(_) => {}
        }

        // rung 3: the oracle stack. Only a sticky ExecPanic fault still
        // arms here — a sticky datapath fault cannot reach it.
        let ni = self.num_inputs();
        let oracle = catch_unwind(AssertUnwindSafe(|| {
            if let Some(h) = opts
                .fault
                .and_then(|p| p.for_row(row_idx as u64, FaultStage::Oracle))
            {
                if h.wants_panic() {
                    panic!("injected executor panic at row {row_idx} (oracle)");
                }
            }
            self.eval_row(
                TapeBackend::Oracle,
                &rows[row_idx * ni..(row_idx + 1) * ni],
                out,
                s,
            );
        }));
        if oracle.is_ok() {
            return RowOutcome::Recovered { backend: "oracle" };
        }

        // rung 4: quarantine — poison the outputs, name the node
        out.fill(f64::NAN);
        let diag = match findings.last() {
            Some((instr_idx, det)) => {
                let span = self
                    .source_node_of(*instr_idx)
                    .map(Span::Node)
                    .unwrap_or(Span::Global);
                Diagnostic::error(
                    Rule::FaultDetected,
                    span,
                    format!(
                        "row {row_idx}: {} ({} check, instruction {instr_idx})",
                        det.message,
                        det.check.name()
                    ),
                )
            }
            None => Diagnostic::error(
                Rule::FaultDetected,
                Span::Global,
                format!("row {row_idx}: executor panicked and the oracle retry also panicked"),
            ),
        };
        RowOutcome::Quarantined { diag }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdfg::FmaKind;
    use crate::compile::compile;
    use crate::fuse::{fuse_critical_paths, FusionConfig};
    use crate::parse_program;
    use csfma_core::fault::{FaultSite, FaultSpec};

    fn fused_listing1() -> Tape {
        let src = "x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;\n";
        let g = parse_program(src).unwrap();
        let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
        compile(&fused).unwrap()
    }

    fn stimulus(tape: &Tape, n: usize) -> Vec<f64> {
        (0..n * tape.num_inputs())
            .map(|i| ((i * 2654435761) % 1000) as f64 * 0.31 - 155.0)
            .collect()
    }

    #[test]
    fn clean_robust_run_matches_eval_batch_bitwise() {
        let tape = fused_listing1();
        let n = 2 * CHUNK_ROWS + 11;
        let rows = stimulus(&tape, n);
        for backend in [
            TapeBackend::F64,
            TapeBackend::BitAccurate,
            TapeBackend::Oracle,
            TapeBackend::Jit,
        ] {
            let want = tape.eval_batch(backend, &rows, 1);
            let (got, report) = tape.eval_batch_robust(
                backend,
                &rows,
                &RobustOptions {
                    threads: 2,
                    chunk_retries: 2,
                    fault: None,
                },
            );
            assert!(
                want.iter()
                    .zip(got.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{backend:?} robust run diverged from eval_batch"
            );
            assert!(!report.has_faults(), "{report}");
            assert_eq!(report.counts(), (n, 0, 0));
        }
    }

    #[test]
    fn transient_mantissa_fault_recovers_bit_identically() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS + 5;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        for site in FaultSite::MANTISSA {
            let plan = FaultPlan::single(0xC0FFEE, site, 7);
            let (got, report) = tape.eval_batch_robust(
                TapeBackend::BitAccurate,
                &rows,
                &RobustOptions::with_fault(&plan),
            );
            assert!(
                clean
                    .iter()
                    .zip(got.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{site:?}: recovered output not bit-identical"
            );
            assert!(report.detections >= 1, "{site:?}: no detection");
            assert_eq!(
                report.outcomes[7],
                RowOutcome::Recovered { backend: "row-bit" },
                "{site:?}"
            );
            // neighbors untouched
            assert_eq!(report.outcomes[6], RowOutcome::Ok, "{site:?}");
            assert_eq!(report.outcomes[8], RowOutcome::Ok, "{site:?}");
        }
    }

    #[test]
    fn sticky_datapath_fault_falls_back_to_oracle() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let plan = FaultPlan::new(7).with_fault(FaultSpec::stuck(FaultSite::MulSum, 3));
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert_eq!(
            report.outcomes[3],
            RowOutcome::Recovered { backend: "oracle" }
        );
        assert!(
            clean
                .iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "oracle recovery must be bit-identical"
        );
        // detected on the primary rung and again on the row rung
        assert!(report.detections >= 2, "{report}");
    }

    #[test]
    fn sticky_panic_quarantines_one_row_and_names_a_node() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS + 3;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let plan = FaultPlan::new(11).with_fault(FaultSpec::stuck(FaultSite::ExecPanic, 5));
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert!(matches!(report.outcomes[5], RowOutcome::Quarantined { .. }));
        assert!(got[5].is_nan(), "quarantined row must be poisoned");
        assert!(report.chunk_panics >= 1);
        // every other row in the batch still carries the clean value
        for r in 0..n {
            if r == 5 {
                continue;
            }
            assert_eq!(
                got[r].to_bits(),
                clean[r].to_bits(),
                "row {r} corrupted by a neighbor's quarantine"
            );
        }
        if let RowOutcome::Quarantined { diag } = &report.outcomes[5] {
            assert_eq!(diag.rule, Rule::FaultDetected);
        }
    }

    #[test]
    fn transient_panic_recovers_via_chunk_retry() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let plan = FaultPlan::single(99, FaultSite::ExecPanic, 9);
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert!(report.chunk_panics >= 1, "{report}");
        assert!(report.chunk_retries >= 1, "{report}");
        assert!(
            clean
                .iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "retried chunk must be bit-identical"
        );
    }

    #[test]
    fn pinned_claim_order_report() {
        let tape = fused_listing1();
        let rows = stimulus(&tape, CHUNK_ROWS);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let plan = FaultPlan::new(0x5EED)
            .with_fault(FaultSpec::transient(FaultSite::ExecPanic, 9))
            .with_fault(FaultSpec::transient(FaultSite::MulSum, 3))
            .with_fault(FaultSpec::stuck(FaultSite::TapeReg, 20));
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        // lane 9's panic fires after lanes 0..9 ran, so row 3's transient
        // MulSum strike is claimed by the panicked attempt and its
        // detection is discarded; the retry runs row 3 clean. Row 20 is
        // first reached by the retry: the plane shadow catches the stuck
        // register upset, and rung 2 re-strikes it — the register-file
        // gap of DESIGN.md §10.4, pinned here as it stands.
        let mut want_outcomes = vec![RowOutcome::Ok; CHUNK_ROWS];
        want_outcomes[20] = RowOutcome::Recovered { backend: "row-bit" };
        assert_eq!(report.outcomes, want_outcomes);
        assert_eq!(report.detections, 1, "{report}");
        assert_eq!(report.chunk_panics, 1, "{report}");
        assert_eq!(report.chunk_retries, 1, "{report}");
        assert_eq!((plan.fired(0), plan.fired(1), plan.fired(2)), (1, 1, 2));
        for r in 0..CHUNK_ROWS {
            let want = if r == 20 {
                0x41a2_8fbd_7dc7_7b2f
            } else {
                clean[r].to_bits()
            };
            assert_eq!(got[r].to_bits(), want, "row {r}");
        }
        assert_eq!(clean[20].to_bits(), 0x41a2_8fa7_d21e_50ff);
    }

    #[test]
    fn report_is_thread_invariant() {
        let tape = fused_listing1();
        let n = 3 * CHUNK_ROWS + 17;
        let rows = stimulus(&tape, n);
        let plan = FaultPlan::new(0xDEAD)
            .with_fault(FaultSpec::transient(FaultSite::MulCarry, 2))
            .with_fault(FaultSpec::stuck(FaultSite::PcsCarry, 70))
            .with_fault(FaultSpec::stuck(FaultSite::ExecPanic, 140));
        let run = |threads: usize| {
            plan.reset();
            tape.eval_batch_robust(
                TapeBackend::BitAccurate,
                &rows,
                &RobustOptions {
                    threads,
                    chunk_retries: 2,
                    fault: Some(&plan),
                },
            )
        };
        let (out1, rep1) = run(1);
        for threads in [4, 8] {
            let (out, rep) = run(threads);
            assert!(
                out1.iter()
                    .zip(out.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "outputs diverged at {threads} threads"
            );
            assert_eq!(
                rep1.outcomes, rep.outcomes,
                "outcomes diverged at {threads}"
            );
            assert_eq!(rep1.detections, rep.detections);
        }
    }
}
