//! Developer profiling aid (not part of the reported results): measures
//! the raw bit-plane chunk kernel against the scalar unit loop, then the
//! compiled-tape bit path with its observability counters — the first
//! place to look when the throughput gate regresses.

use csfma_core::{
    plane_fma, CsFmaFormat, CsFmaUnit, CsOperand, FmaScratch, PlaneBank, PlaneScratch,
};
use csfma_hls::{compile, fuse_critical_paths, parse_program, FmaKind, FusionConfig, TapeBackend};
use csfma_obs::Profiler;
use csfma_softfloat::{FpFormat, SoftFloat};
use std::time::Instant;

fn main() {
    let fmt = CsFmaFormat::PCS_55_ZD;
    let unit = CsFmaUnit::new(fmt);
    let mut bank: Vec<CsOperand> = (0..3 * 64)
        .map(|i| CsOperand::from_f64((i as f64 - 96.0) * 0.37 + 0.5, fmt))
        .collect();
    let b: Vec<SoftFloat> = (0..64)
        .map(|i| SoftFloat::from_f64(FpFormat::BINARY64, (i as f64 - 31.0) * 1.17 + 0.25))
        .collect();
    let mut ps = PlaneScratch::default();
    let iters = 2000;

    // raw plane kernel on plane-resident registers, as the tape
    // executor runs it
    let mut regs = PlaneBank::default();
    regs.configure(3, &[fmt]);
    for k in 0..64 {
        regs.scatter(0, k, &bank[k]);
        regs.scatter(1, k, &bank[64 + k]);
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        plane_fma(&unit, &mut regs, 0, 1, 2, &b, 64, &mut ps);
    }
    let plane_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // scalar unit loop over the same lanes
    let mut fs = FmaScratch::default();
    let t0 = Instant::now();
    for _ in 0..iters {
        for k in 0..64 {
            let r = unit.fma_with(&bank[k].clone(), &b[k], &bank[64 + k], &mut fs);
            bank[128 + k] = r;
        }
    }
    let scalar_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    println!(
        "kernel: plane {:.1} ns/lane, scalar {:.1} ns/lane, speedup {:.2}x",
        plane_ns / 64.0,
        scalar_ns / 64.0,
        scalar_ns / plane_ns
    );

    // tape level: listing1 fused PCS
    let g = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;").unwrap();
    let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
    let tape = compile(&fused).unwrap();
    let ni = tape.num_inputs();
    let rows = 10_000usize;
    let stim: Vec<f64> = (0..rows * ni)
        .map(|i| {
            let k = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((k % 4001) as f64 - 2000.0) * 7.25e-3
        })
        .collect();
    let mut best = f64::INFINITY;
    let mut prof_out = None;
    for _ in 0..3 {
        let mut prof = Profiler::new();
        let t0 = Instant::now();
        let _ = tape.eval_batch_profiled(TapeBackend::BitAccurate, &stim, 1, &mut prof);
        let us = t0.elapsed().as_micros() as f64;
        if us < best {
            best = us;
            prof_out = Some(prof.finish());
        }
    }
    let rep = prof_out.unwrap();
    println!("tape 1t: {:.2} us/row over {rows} rows", best / rows as f64);
    for s in &rep.stages {
        println!("  stage {:<10} {:>10.1} us", s.name, s.wall_us);
    }
    for (k, v) in &rep.counters {
        println!("  counter {k} = {v}");
    }
    // expected plane share: 3 fused FMAs/row, each one plane chunk per 64 rows
    let plane_share = 3.0 * plane_ns / 64.0 / 1000.0;
    println!(
        "  3 kernel calls/row account for {:.2} us/row of {:.2}",
        plane_share,
        best / rows as f64
    );
}
