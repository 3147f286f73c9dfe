//! `plane-batch`: the bit-plane kernel does nearly all the work.
//!
//! `listing1` and `horner8`, each fused to PCS and to FCS, are compiled
//! once in set-up. An op is one `Tape::eval_batch(BitAccurate, …, 2
//! threads)` call. Each tape has an even variant (a whole number of
//! 64-row chunks, every fused FMA on the plane kernel) and a ragged one
//! (41 rows left over, which take the scalar fallback).

use std::time::Instant;

use csfma_core::plane_counts;
use csfma_hls::{
    compile, fuse_critical_paths, parse_program, Cdfg, FmaKind, FusionConfig, Instr, Tape,
    TapeBackend,
};

use crate::common::{
    digest, end_to_end, mixed_rows, oracle_check, ratio, rounds, timed_setups, us_since, Breakdown,
    Layers, Mismatches, Outcome, Rng, Samples, THREADS,
};
use crate::programs::EXAMPLES;
use crate::Args;

/// Even-variant rows per tape, sized so every op costs about the same
/// (a few ms at two threads): the per-row cost grows with the FMA count
/// and the FCS window.
const ROWS: [(&str, FmaKind, usize); 4] = [
    ("listing1", FmaKind::Pcs, 2048),
    ("listing1", FmaKind::Fcs, 576),
    ("horner8", FmaKind::Pcs, 768),
    ("horner8", FmaKind::Fcs, 256),
];

/// The ragged variant drops this many rows, leaving a 41-row tail chunk.
const RAGGED_CUT: usize = 23;

/// Distinct input batches per variant; ops cycle through them.
const POOL: usize = 4;

/// Rows per input batch checked against the scalar oracle in set-up, on
/// top of every special-value row.
const ORACLE_ROWS: usize = 8;

struct Variant {
    tape: Tape,
    kind: FmaKind,
    rows: usize,
    /// Fused-FMA lanes one op evaluates (`rows` × FMA instructions).
    fma_lanes: u64,
    /// (input batch, reference digest)
    pool: Vec<(Vec<f64>, u64)>,
    next: usize,
}

struct Fixture {
    variants: Vec<Variant>,
    mismatches: Mismatches,
}

fn setup(seed: u64) -> Fixture {
    let mut rng = Rng::new(seed);
    let mut mismatches = Mismatches::default();
    let mut variants = Vec::new();
    for &(name, kind, even_rows) in &ROWS {
        let src = EXAMPLES
            .iter()
            .find(|(n, _)| *n == name)
            .expect("example")
            .1;
        let g = parse_program(src).expect("example datapaths parse");
        let fused: Cdfg = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        let tape = compile(&fused).expect("fused examples compile");
        let fmas = tape
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Fma { .. }))
            .count();
        for rows in [even_rows, even_rows - RAGGED_CUT] {
            let label = format!("{name}-{kind:?}-{rows}");
            let mut pool = Vec::with_capacity(POOL);
            for _ in 0..POOL {
                let (data, special) = mixed_rows(&mut rng, tape.num_inputs(), rows);
                // evaluating every batch once is also the warm-up
                let out = tape.eval_batch(TapeBackend::BitAccurate, &data, THREADS);
                let sample = (0..ORACLE_ROWS).map(|_| rng.below(rows));
                if let Err(e) = oracle_check(
                    &fused,
                    TapeBackend::BitAccurate,
                    tape.input_names(),
                    tape.output_names(),
                    &data,
                    &out,
                    special.into_iter().chain(sample),
                ) {
                    mismatches.record(format!("{label} oracle: {e}"));
                }
                pool.push((data, digest(&out)));
            }
            variants.push(Variant {
                tape: tape.clone(),
                kind,
                rows,
                fma_lanes: (rows * fmas) as u64,
                pool,
                next: 0,
            });
        }
    }
    Fixture {
        variants,
        mismatches,
    }
}

/// Per-layer tallies of a traced phase.
#[derive(Default)]
struct Tally {
    breakdown: Breakdown,
    /// (eval ns, FMA lanes) per FMA kind: PCS, FCS.
    ns_lanes: [(f64, f64); 2],
    plane_lanes: f64,
    fma_lanes: f64,
    fallback_lanes: f64,
    transpose_ns: f64,
    busy_ns: f64,
    workers: f64,
    steals: f64,
    us_1t: f64,
    us_2t: f64,
}

fn measure(
    fx: &mut Fixture,
    rng: &mut Rng,
    seconds: f64,
    mut tally: Option<&mut Tally>,
) -> Samples {
    let mut s = Samples::default();
    let Fixture {
        variants,
        mismatches,
    } = fx;
    rounds(rng, variants.len(), seconds, &mut s, |vi| {
        let v = &mut variants[vi];
        let (data, want) = &v.pool[v.next];
        v.next = (v.next + 1) % v.pool.len();
        let (out, wall) = match tally.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let out = v.tape.eval_batch(TapeBackend::BitAccurate, data, THREADS);
                (out, us_since(t0))
            }
            Some(t) => {
                let p0 = plane_counts();
                let t0 = Instant::now();
                let (out, st) =
                    v.tape
                        .eval_batch_with_stats(TapeBackend::BitAccurate, data, THREADS);
                let wall = us_since(t0);
                let p1 = plane_counts();
                t.breakdown.op(wall, &[("hls.eval.us", wall)]);
                let k = (v.kind == FmaKind::Fcs) as usize;
                t.ns_lanes[k].0 += wall * 1e3;
                t.ns_lanes[k].1 += v.fma_lanes as f64;
                t.fma_lanes += v.fma_lanes as f64;
                t.plane_lanes += (p1.plane_lanes - p0.plane_lanes) as f64;
                t.fallback_lanes += (p1.fallback_lanes - p0.fallback_lanes) as f64;
                t.transpose_ns += (p1.transpose_ns - p0.transpose_ns) as f64;
                t.busy_ns += wall * 1e3 * st.workers as f64;
                t.workers += st.workers as f64;
                t.steals += st.steals as f64;
                // the same op at one thread, outside the op's wall time
                let t1 = Instant::now();
                let one = v.tape.eval_batch(TapeBackend::BitAccurate, data, 1);
                t.us_1t += us_since(t1);
                t.us_2t += wall;
                mismatches.check(
                    || format!("one-thread digest, {} rows", v.rows),
                    digest(&one),
                    *want,
                );
                (out, wall)
            }
        };
        mismatches.check(|| format!("digest, {} rows", v.rows), digest(&out), *want);
        Some((wall / 1e3, v.rows as u64))
    });
    s
}

pub fn run(args: &Args) -> Outcome {
    let (mut fx, setup_s) = if args.trace {
        (setup(args.seed), 0.0)
    } else {
        timed_setups(|| setup(args.seed))
    };
    if args.corrupt_reference {
        fx.variants[0].pool[0].1 ^= 1;
    }
    let mut rng = Rng::new(args.seed ^ 0x5eed);
    let (samples, metrics) = if args.trace {
        let untraced = measure(&mut fx, &mut rng, args.seconds / 2.0, None);
        let mut t = Tally::default();
        let traced = measure(&mut fx, &mut rng, args.seconds / 2.0, Some(&mut t));
        let ops = traced.lat_ms.len() as f64;
        let mut l = Layers::default();
        t.breakdown.report(&mut l);
        l.set_phases(&untraced, &traced);
        l.set(
            "core.plane.pcs_ns_per_fma_lane",
            ratio(t.ns_lanes[0].0, t.ns_lanes[0].1),
        );
        l.set(
            "core.plane.fcs_ns_per_fma_lane",
            ratio(t.ns_lanes[1].0, t.ns_lanes[1].1),
        );
        l.set(
            "core.plane.transpose_share",
            ratio(t.transpose_ns, t.busy_ns),
        );
        l.set("core.plane.lane_share", ratio(t.plane_lanes, t.fma_lanes));
        l.set("core.plane.fallback_lanes", ratio(t.fallback_lanes, ops));
        l.set("core.batch.workers", ratio(t.workers, ops));
        l.set("core.batch.steals", ratio(t.steals, ops));
        l.set("core.batch.speedup_2t", ratio(t.us_1t, t.us_2t));
        (traced, l.metrics())
    } else {
        let s = measure(&mut fx, &mut rng, args.seconds, None);
        let m = end_to_end(&s, 1, setup_s);
        (s, m)
    };
    Outcome {
        attempted: samples.attempted(),
        failed: samples.failed,
        mismatches: fx.mismatches.into_vec(),
        metrics,
        samples,
        loops: 1,
    }
}
