//! The csfma benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload plane-batch|hls-flow|serve-closed --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! The untraced run (`--trace 0`) sets up [`common::SETUP_REPS`] times,
//! measures a closed loop for `S` seconds and prints every end-to-end
//! metric. The traced run (`--trace 1`) measures half the time untraced
//! and half with spans around every layer call, and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; any wrong output
//! makes `correct` false and the exit status 1. See `NOTES.md`.

mod common;
mod hls_flow;
mod plane_batch;
mod programs;
mod serve_closed;

use std::process::ExitCode;

use common::Outcome;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Flip one reference digest after set-up, so every run of that
    /// input must be reported wrong (the benchmark's own self-test).
    corrupt_reference: bool,
}

const WORKLOADS: [&str; 3] = ["plane-batch", "hls-flow", "serve-closed"];

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            args.corrupt_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let outcome: Outcome = match args.workload.as_str() {
        "plane-batch" => plane_batch::run(&args),
        "hls-flow" => hls_flow::run(&args),
        _ => serve_closed::run(&args),
    };
    for m in &outcome.mismatches {
        eprintln!("perfbench: WRONG OUTPUT: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    let s = &outcome.samples;
    println!(
        "# {} seed {} trace {}: {} op(s) attempted, {} failed, outputs {}; \
         {} round(s), {} latency sample(s); hypervisor steal {} tick(s) \
         against {} CPU tick(s) of this process; without the steal \
         correction: ops_per_s {:.6}, op_ms_p50 {:.6}",
        args.workload,
        args.seed,
        args.trace as u8,
        outcome.attempted,
        outcome.failed,
        if correct { "correct" } else { "WRONG" },
        s.rounds.len(),
        s.lat_ms.len(),
        s.rounds.iter().map(|r| r.steal).sum::<u64>(),
        s.rounds.iter().map(|r| r.cpu).sum::<u64>(),
        outcome.loops as f64 * s.round_rates().0,
        s.p50_ms(),
    );
    if args.trace {
        if let Some(m) = outcome
            .metrics
            .iter()
            .find(|m| m.name == "breakdown.covered_share")
        {
            println!(
                "# layer spans cover {:.2}% of op wall time ({} tolerance: {:.0}% unattributed)",
                m.value * 100.0,
                if 1.0 - m.value <= common::BREAKDOWN_TOLERANCE {
                    "within"
                } else {
                    "OUTSIDE"
                },
                common::BREAKDOWN_TOLERANCE * 100.0
            );
        }
    }
    let mut json = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        // non-finite values are not JSON; they only arise from a bug
        let v = if m.value.is_finite() { m.value } else { -1.0 };
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            v,
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
