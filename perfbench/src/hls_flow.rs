//! `hls-flow`: the front end does most of the work.
//!
//! An op takes one program through the cold `csfma-run` path with the
//! tape cache cleared first: `parse_program` → (optional)
//! `fuse_critical_paths` → `compile_cached_with` (codegen on when
//! unfused) → `verify_tape` → a 64-row batch (fused tapes on `bit`,
//! unfused on `jit`) → digest. The programs are the four example
//! datapaths and the three `ldlsolve` kernels, each run unfused, PCS and
//! FCS: graph size (up to 1740 nodes) is the property this workload
//! varies, and fusion grows super-linearly with it.

use std::time::Instant;

use csfma_core::plane_counts;
use csfma_hls::profile::{jit_bailouts, jit_rows};
use csfma_hls::{
    clear_tape_cache, compile_cached_with, compile_cached_with_profiled, fuse_critical_paths,
    parse_program, tape_cache_stats, verify_tape, CompileOptions, FmaKind, FusionConfig, Instr,
    Profiler, TapeBackend,
};
use csfma_verify::has_errors;

use crate::common::{
    digest, end_to_end, oracle_check, ratio, rounds, timed_setups, us_since, Breakdown, Layers,
    Mismatches, Outcome, Rng, Samples, THREADS,
};
use crate::programs::{examples, solvers};
use crate::Args;

const ROWS: usize = 64;

/// Rows per variant checked against the scalar oracle in set-up.
const ORACLE_ROWS: usize = 4;

struct Variant {
    label: String,
    text: String,
    fuse: Option<FmaKind>,
    data: Vec<f64>,
    /// Set-up's output digest and fused-graph fingerprint.
    want: (u64, u64),
}

struct Fixture {
    variants: Vec<Variant>,
    mismatches: Mismatches,
}

/// What the traced run reads off one op.
#[derive(Default)]
struct OpTrace {
    spans: Vec<(&'static str, f64)>,
    fuse_passes: usize,
    fma_nodes: usize,
    instrs: usize,
    nodes_removed: usize,
    native_instrs: Option<usize>,
    plane_lanes: u64,
    fallback_lanes: u64,
    transpose_ns: u64,
    fma_lanes: u64,
    workers: u64,
    steals: u64,
}

struct OpOutput {
    digest: u64,
    fingerprint: u64,
    graph: csfma_hls::Cdfg,
    out: Vec<f64>,
    inputs: Vec<String>,
    outputs: Vec<String>,
}

/// Record the time since `t0` as span `name` of a traced op.
fn span(trace: &mut Option<&mut OpTrace>, name: &'static str, t0: Instant) {
    let us = us_since(t0);
    if let Some(t) = trace.as_deref_mut() {
        t.spans.push((name, us));
    }
}

/// One op. With `trace`, every layer call is timed into `trace.spans`.
fn op(v: &Variant, mut trace: Option<&mut OpTrace>) -> Result<OpOutput, String> {
    let t0 = Instant::now();
    let g = parse_program(&v.text).map_err(|e| format!("parse: {e}"))?;
    span(&mut trace, "hls.parser.us", t0);
    let (g, fused) = match v.fuse {
        Some(kind) => {
            let t0 = Instant::now();
            let rep = fuse_critical_paths(&g, &FusionConfig::new(kind));
            span(&mut trace, "hls.fuse.us", t0);
            (rep.fused, Some((rep.passes, rep.fma_nodes)))
        }
        None => (g, None),
    };
    let opts = CompileOptions {
        optimize: true,
        codegen: v.fuse.is_none(),
    };
    let t0 = Instant::now();
    let tape = if trace.is_some() {
        let mut prof = Profiler::new();
        let tape = compile_cached_with_profiled(&g, opts, &mut prof);
        let wall = us_since(t0);
        let rep = prof.finish();
        let stage = |n: &str| rep.stage(n).map_or(0.0, |s| s.wall_us);
        let parts = [
            ("hls.compile.gate_us", stage("gate")),
            ("hls.compile.optimize_us", stage("optimize")),
            ("hls.compile.lower_us", stage("lower")),
            ("hls.jit.codegen_us", stage("codegen")),
        ];
        let t = trace.as_deref_mut().expect("traced");
        t.spans.extend(parts);
        t.spans.push((
            "hls.compile.self_us",
            wall - parts.iter().map(|p| p.1).sum::<f64>(),
        ));
        tape
    } else {
        compile_cached_with(&g, opts)
    }
    .map_err(|e| format!("compile: {e}"))?;
    let t0 = Instant::now();
    let diags = verify_tape(&tape, &g);
    span(&mut trace, "verify.tape_us", t0);
    if has_errors(&diags) {
        return Err(format!("verify_tape: {} finding(s)", diags.len()));
    }
    let backend = if v.fuse.is_some() {
        TapeBackend::BitAccurate
    } else {
        TapeBackend::Jit
    };
    let p0 = plane_counts();
    let t0 = Instant::now();
    let (out, st) = tape.eval_batch_with_stats(backend, &v.data, THREADS);
    span(&mut trace, "hls.eval.us", t0);
    let p1 = plane_counts();
    let d = digest(&out);
    if let Some(t) = trace {
        if let Some((passes, fmas)) = fused {
            t.fuse_passes = passes;
            t.fma_nodes = fmas;
        }
        t.instrs = tape.instrs().len();
        let o = tape.opt_stats();
        t.nodes_removed = o.nodes_before - o.nodes_after;
        if backend == TapeBackend::Jit {
            t.native_instrs = Some(tape.jit_module().map_or(0, |m| m.native_instr_count()));
        }
        t.plane_lanes = p1.plane_lanes - p0.plane_lanes;
        t.fallback_lanes = p1.fallback_lanes - p0.fallback_lanes;
        t.transpose_ns = p1.transpose_ns - p0.transpose_ns;
        let fmas = tape
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Fma { .. }))
            .count();
        t.fma_lanes = (ROWS * fmas) as u64;
        t.workers = st.workers;
        t.steals = st.steals;
    }
    Ok(OpOutput {
        digest: d,
        fingerprint: tape.fingerprint(),
        inputs: tape.input_names().to_vec(),
        outputs: tape.output_names().to_vec(),
        graph: g,
        out,
    })
}

fn setup(seed: u64) -> Fixture {
    let mut rng = Rng::new(seed);
    let mut mismatches = Mismatches::default();
    let mut variants = Vec::new();
    for program in examples().into_iter().chain(solvers(3)) {
        // the row layout is the parsed program's input order, which
        // fusion keeps
        let names = parse_program(&program.text)
            .map(|g| {
                g.nodes()
                    .iter()
                    .filter_map(|n| match &n.op {
                        csfma_hls::Op::Input(name) => Some(name.clone()),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .expect("benchmark programs parse");
        let data = program.rows(&mut rng, &names, ROWS);
        for fuse in [None, Some(FmaKind::Pcs), Some(FmaKind::Fcs)] {
            let label = format!(
                "{}-{}",
                program.name,
                fuse.map_or("none".to_string(), |k| format!("{k:?}").to_lowercase())
            );
            let mut v = Variant {
                label,
                text: program.text.clone(),
                fuse,
                data: data.clone(),
                want: (0, 0),
            };
            clear_tape_cache();
            // the reference run is also the warm-up
            match op(&v, None) {
                Ok(o) => {
                    if o.inputs != names {
                        mismatches.record(format!("{}: tape input order differs", v.label));
                    }
                    let backend = if fuse.is_some() {
                        TapeBackend::BitAccurate
                    } else {
                        TapeBackend::Jit
                    };
                    let sample = (0..ORACLE_ROWS).map(|_| rng.below(ROWS));
                    if let Err(e) = oracle_check(
                        &o.graph, backend, &o.inputs, &o.outputs, &v.data, &o.out, sample,
                    ) {
                        mismatches.record(format!("{} oracle: {e}", v.label));
                    }
                    v.want = (o.digest, o.fingerprint);
                }
                Err(e) => mismatches.record(format!("{} set-up: {e}", v.label)),
            }
            variants.push(v);
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
    fused_ops: f64,
    fuse_us: f64,
    fuse_passes: f64,
    fma_nodes: f64,
    instrs: f64,
    nodes_removed: f64,
    jit_ops: f64,
    native_instrs: f64,
    parse_bytes: f64,
    parse_us: f64,
    ns_lanes: [(f64, f64); 2],
    plane_lanes: f64,
    fma_lanes: f64,
    fallback_lanes: f64,
    transpose_ns: f64,
    busy_ns: f64,
    workers: f64,
    steals: f64,
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
        let v = &variants[vi];
        clear_tape_cache();
        let mut trace = tally.as_ref().map(|_| OpTrace::default());
        let t0 = Instant::now();
        let result = op(v, trace.as_mut());
        let wall = us_since(t0);
        let o = match result {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", v.label);
                return None;
            }
        };
        mismatches.check(|| format!("{} digest", v.label), o.digest, v.want.0);
        mismatches.check(
            || format!("{} fingerprint", v.label),
            o.fingerprint,
            v.want.1,
        );
        if let (Some(t), Some(tr)) = (tally.as_deref_mut(), trace) {
            t.breakdown.op(wall, &tr.spans);
            let span = |n: &str| tr.spans.iter().find(|s| s.0 == n).map_or(0.0, |s| s.1);
            t.parse_bytes += v.text.len() as f64;
            t.parse_us += span("hls.parser.us");
            t.instrs += tr.instrs as f64;
            t.nodes_removed += tr.nodes_removed as f64;
            if let Some(kind) = v.fuse {
                t.fused_ops += 1.0;
                t.fuse_us += span("hls.fuse.us");
                t.fuse_passes += tr.fuse_passes as f64;
                t.fma_nodes += tr.fma_nodes as f64;
                let eval_ns = span("hls.eval.us") * 1e3;
                let k = (kind == FmaKind::Fcs) as usize;
                t.ns_lanes[k].0 += eval_ns;
                t.ns_lanes[k].1 += tr.fma_lanes as f64;
                t.busy_ns += eval_ns * tr.workers as f64;
            }
            if let Some(n) = tr.native_instrs {
                t.jit_ops += 1.0;
                t.native_instrs += n as f64;
            }
            t.plane_lanes += tr.plane_lanes as f64;
            t.fma_lanes += tr.fma_lanes as f64;
            t.fallback_lanes += tr.fallback_lanes as f64;
            t.transpose_ns += tr.transpose_ns as f64;
            t.workers += tr.workers as f64;
            t.steals += tr.steals as f64;
        }
        Some((wall / 1e3, ROWS as u64))
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
        fx.variants[0].want.0 ^= 1;
    }
    let mut rng = Rng::new(args.seed ^ 0x5eed);
    let (samples, metrics) = if args.trace {
        let untraced = measure(&mut fx, &mut rng, args.seconds / 2.0, None);
        let mut t = Tally::default();
        let (jr0, jb0, c0) = (jit_rows(), jit_bailouts(), tape_cache_stats());
        let traced = measure(&mut fx, &mut rng, args.seconds / 2.0, Some(&mut t));
        let (jr1, jb1, c1) = (jit_rows(), jit_bailouts(), tape_cache_stats());
        let ops = traced.lat_ms.len() as f64;
        let mut l = Layers::default();
        t.breakdown.report(&mut l);
        l.set_phases(&untraced, &traced);
        l.set("hls.fuse.passes", ratio(t.fuse_passes, t.fused_ops));
        l.set("hls.fuse.us_per_pass", ratio(t.fuse_us, t.fuse_passes));
        l.set("hls.fuse.fma_nodes", ratio(t.fma_nodes, t.fused_ops));
        l.set("hls.compile.instrs", ratio(t.instrs, ops));
        l.set("hls.opt.nodes_removed", ratio(t.nodes_removed, ops));
        l.set("hls.jit.native_instrs", ratio(t.native_instrs, t.jit_ops));
        l.set(
            "hls.jit.bailout_ratio",
            ratio((jb1 - jb0) as f64, (jr1 - jr0) as f64),
        );
        l.set("hls.parser.mb_per_s", ratio(t.parse_bytes, t.parse_us));
        let lookups = (c1.hits + c1.misses - c0.hits - c0.misses) as f64;
        l.set(
            "hls.tape_cache.hit_ratio",
            ratio((c1.hits - c0.hits) as f64, lookups),
        );
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
