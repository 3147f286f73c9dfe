//! Pieces every workload shares: the seeded generator and stimulus, the
//! scalar-oracle check, percentiles, the closed-loop round driver, the
//! traced-run breakdown and the metric tables.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::Instant;

use csfma_hls::interp::{eval_bit_accurate, eval_f64};
use csfma_hls::{Cdfg, TapeBackend};

/// Load threads (batch workers, server workers, client connections): the
/// benchmark is sized for a two-core host.
pub const THREADS: usize = 2;

/// Set-up runs per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Largest share of traced op wall time the layer spans may leave
/// unattributed before the breakdown counts as not covering the op.
pub const BREAKDOWN_TOLERANCE: f64 = 0.10;

/// SplitMix64: small, seedable and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `±(1 + m)·2^e` with `e` in `[-8, 8]`: mixed signs and exponents that
/// stay clear of overflow through the example datapaths.
pub fn mixed_value(rng: &mut Rng) -> f64 {
    let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
    let e = rng.below(17) as i32 - 8;
    sign * (1.0 + rng.unit()) * 2f64.powi(e)
}

const SPECIALS: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    // a subnormal: 0.75 · 2^-1022
    f64::MIN_POSITIVE * 0.75,
];

/// `rows` rows of `ni` mixed values, of which `rows.div_ceil(100)` (a
/// fixed ~1%) carry one NaN/inf/zero/subnormal input at a seeded
/// position. Returns the row-major data and the special rows' indices.
pub fn mixed_rows(rng: &mut Rng, ni: usize, rows: usize) -> (Vec<f64>, Vec<usize>) {
    let mut data: Vec<f64> = (0..rows * ni).map(|_| mixed_value(rng)).collect();
    let mut order: Vec<usize> = (0..rows).collect();
    rng.shuffle(&mut order);
    let mut special: Vec<usize> = order[..rows.div_ceil(100)].to_vec();
    special.sort_unstable();
    for &r in &special {
        data[r * ni + rng.below(ni)] = SPECIALS[rng.below(SPECIALS.len())];
    }
    (data, special)
}

/// The FNV-1a output digest `csfma-run` prints and RESULT frames carry.
pub use csfma_serve::digest;

/// Check `rows` of a batch bit for bit against the CDFG interpreter
/// (`eval_f64` for the F64 backend, `eval_bit_accurate` otherwise),
/// which shares no code with the tape compiler. Returns the first
/// mismatch.
pub fn oracle_check(
    g: &Cdfg,
    backend: TapeBackend,
    inputs: &[String],
    outputs: &[String],
    data: &[f64],
    out: &[f64],
    rows: impl IntoIterator<Item = usize>,
) -> Result<(), String> {
    let (ni, no) = (inputs.len(), outputs.len());
    for r in rows {
        let row: HashMap<String, f64> = inputs
            .iter()
            .cloned()
            .zip(data[r * ni..(r + 1) * ni].iter().copied())
            .collect();
        let want = match backend {
            TapeBackend::F64 => eval_f64(g, &row),
            _ => eval_bit_accurate(g, &row),
        };
        for (k, name) in outputs.iter().enumerate() {
            let got = out[r * no + k];
            if want[name].to_bits() != got.to_bits() {
                return Err(format!(
                    "row {r} output {name}: tape {got:?} ({:#018x}), oracle {:?} ({:#018x})",
                    got.to_bits(),
                    want[name],
                    want[name].to_bits()
                ));
            }
        }
    }
    Ok(())
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `setup` [`SETUP_REPS`] times and keep the last result; earlier
/// ones are dropped. Returns the result and the median set-up seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS >= 1"), median(&secs))
}

/// Hypervisor steal time of this machine so far, in clock ticks: the
/// `steal` column of `/proc/stat` (0 where there is none). Steal is time
/// the host ran something else on our virtual CPUs.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time this process has run so far (user + system, every thread),
/// in clock ticks; steal is not part of it.
pub fn cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let f: Vec<u64> = s
                .rsplit(')')
                .next()?
                .split_whitespace()
                .skip(11)
                .take(2)
                .map(|v| v.parse().ok())
                .collect::<Option<_>>()?;
            Some(f.iter().sum())
        })
        .unwrap_or(0)
}

/// Closed loop in rounds: every round runs each of `variants` once, in
/// a seeded order, and the loop stops at the first round boundary after
/// `seconds`. Whole rounds keep each variant's share of the samples
/// fixed, so a percentile never sits on the edge between two variants'
/// latency bands. `op` returns the op's latency (ms) and rows, or
/// `None` for a failed op.
pub fn rounds(
    rng: &mut Rng,
    variants: usize,
    seconds: f64,
    s: &mut Samples,
    mut op: impl FnMut(usize) -> Option<(f64, u64)>,
) {
    let mut order: Vec<usize> = (0..variants).collect();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        let (t, steal, cpu, first) = (Instant::now(), steal_ticks(), cpu_ticks(), s.lat_ms.len());
        let (mut ops, mut rows) = (0, 0);
        for &v in &order {
            match op(v) {
                Some((ms, r)) => {
                    s.lat_ms.push(ms);
                    ops += 1;
                    rows += r;
                }
                None => s.failed += 1,
            }
        }
        s.rounds.push(Round {
            secs: t.elapsed().as_secs_f64(),
            ops,
            rows,
            steal: steal_ticks() - steal,
            cpu: cpu_ticks() - cpu,
            lat: first..s.lat_ms.len(),
        });
    }
}

/// Microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// One round of a closed loop.
#[derive(Clone)]
pub struct Round {
    pub secs: f64,
    /// Answered ops, and the input rows they evaluated.
    pub ops: u64,
    pub rows: u64,
    /// Hypervisor steal ticks, and this process's CPU ticks, while the
    /// round ran.
    pub steal: u64,
    pub cpu: u64,
    /// The round's ops in `Samples::lat_ms`.
    pub lat: Range<usize>,
}

/// What a measured phase produced, before it becomes metrics.
#[derive(Default)]
pub struct Samples {
    /// Per-op latency of the answered ops, ms.
    pub lat_ms: Vec<f64>,
    /// Ops refused or errored (shed, deadline, error, client error).
    pub failed: u64,
    pub rounds: Vec<Round>,
}

impl Samples {
    pub fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64 + self.failed
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// The run with the hypervisor's steal taken out. Each round's op
    /// latencies and duration are scaled by the share of the process's
    /// busy CPU time the host did not steal, `cpu / (cpu + steal)`; with
    /// no steal the factor is 1.
    pub fn unstolen(&self) -> Samples {
        let mut q = Samples {
            lat_ms: self.lat_ms.clone(),
            failed: self.failed,
            rounds: self.rounds.clone(),
        };
        for r in &mut q.rounds {
            let kept = if r.steal == 0 {
                1.0
            } else {
                r.cpu as f64 / (r.cpu + r.steal) as f64
            };
            r.secs *= kept;
            for ms in &mut q.lat_ms[r.lat.clone()] {
                *ms *= kept;
            }
        }
        q
    }

    /// Median over rounds of (ops, rows) per second. Every round runs the
    /// same mix, so the median shrugs off a burst of host noise that a
    /// whole-run mean would absorb.
    pub fn round_rates(&self) -> (f64, f64) {
        let per = |f: fn(&Round) -> u64| {
            median(
                &self
                    .rounds
                    .iter()
                    .map(|r| f(r) as f64 / r.secs)
                    .collect::<Vec<_>>(),
            )
        };
        (per(|r| r.ops), per(|r| r.rows))
    }

    pub fn absorb(&mut self, other: Samples) {
        let offset = self.lat_ms.len();
        self.lat_ms.extend(other.lat_ms);
        self.failed += other.failed;
        self.rounds.extend(other.rounds.into_iter().map(|r| Round {
            lat: r.lat.start + offset..r.lat.end + offset,
            ..r
        }));
    }
}

/// Per-layer self times of traced ops. Each op's wall time is split
/// into named spans timed around calls into the layers; whatever the
/// spans miss is `unattributed_us`.
#[derive(Default)]
pub struct Breakdown {
    ops: u64,
    wall_us: f64,
    spans: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    pub fn op(&mut self, wall_us: f64, spans: &[(&'static str, f64)]) {
        self.ops += 1;
        self.wall_us += wall_us;
        for &(name, us) in spans {
            *self.spans.entry(name).or_default() += us;
        }
    }

    /// Mean self time per op of one span.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }

    /// Mean per op of op wall time minus every span.
    pub fn unattributed_us(&self) -> f64 {
        (self.wall_us - self.spans.values().sum::<f64>()) / self.ops.max(1) as f64
    }

    /// Share of op wall time the spans account for.
    pub fn covered_share(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.spans.values().sum::<f64>() / self.wall_us
        } else {
            0.0
        }
    }

    /// Record every span mean plus the remainder into `layers`.
    pub fn report(&self, layers: &mut Layers) {
        for name in self.spans.keys() {
            layers.set(name, self.mean_us(name));
        }
        layers.set("unattributed_us", self.unattributed_us());
        layers.set("breakdown.covered_share", self.covered_share());
    }
}

/// Mean of `num / den` over a run, `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("op_ms_p99", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, in `BENCHMARK.json` order. A
/// layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.plane.pcs_ns_per_fma_lane", "ns"),
    ("core.plane.fcs_ns_per_fma_lane", "ns"),
    ("core.plane.transpose_share", "ratio"),
    ("core.plane.lane_share", "ratio"),
    ("core.plane.fallback_lanes", "count"),
    ("core.batch.workers", "count"),
    ("core.batch.steals", "count"),
    ("core.batch.speedup_2t", "ratio"),
    ("hls.fuse.us", "us"),
    ("hls.fuse.passes", "count"),
    ("hls.fuse.us_per_pass", "us"),
    ("hls.fuse.fma_nodes", "count"),
    ("hls.compile.gate_us", "us"),
    ("hls.compile.optimize_us", "us"),
    ("hls.compile.lower_us", "us"),
    ("hls.compile.self_us", "us"),
    ("hls.compile.instrs", "count"),
    ("hls.opt.nodes_removed", "count"),
    ("verify.tape_us", "us"),
    ("hls.jit.codegen_us", "us"),
    ("hls.jit.native_instrs", "count"),
    ("hls.jit.bailout_ratio", "ratio"),
    ("hls.parser.us", "us"),
    ("hls.parser.mb_per_s", "MB/s"),
    ("hls.eval.us", "us"),
    ("hls.tape_cache.hit_ratio", "ratio"),
    ("hls.compile.cache_hit_us", "us"),
    ("hls.robust.eval_us", "us"),
    ("serve.frame.encode_us", "us"),
    ("serve.frame.decode_us", "us"),
    ("serve.engine.us", "us"),
    ("serve.transport_us", "us"),
    ("serve.contention_us", "us"),
    ("serve.server.shed", "count"),
    ("serve.server.deadline", "count"),
    ("serve.server.errors", "count"),
    ("serve.server.retries", "count"),
    ("serve.server.rate_limited", "count"),
    ("serve.server.queue_depth_mean", "count"),
    ("unattributed_us", "us"),
    ("breakdown.covered_share", "ratio"),
    ("failed_ratio", "ratio"),
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer values a traced run filled in.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a [`PER_LAYER`] metric. Panics on a name outside the table: a
    /// typo would otherwise print as a silent 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(key, value);
    }

    /// Fill the trace-wide entries shared by every workload: failed
    /// share and the tracing overhead (traced minus untraced p50).
    pub fn set_phases(&mut self, untraced: &Samples, traced: &Samples) {
        self.set(
            "failed_ratio",
            ratio(traced.failed as f64, traced.attempted() as f64),
        );
        let p50 = traced.unstolen().p50_ms();
        self.set("trace.op_ms_p50", p50);
        self.set("trace.overhead_ms", p50 - untraced.unstolen().p50_ms());
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// The end-to-end metrics of one untraced run; `loops` closed loops ran
/// concurrently, so the system's rate is `loops` times one loop's. Rates
/// and latencies have the steal taken out ([`Samples::unstolen`]).
pub fn end_to_end(s: &Samples, loops: usize, setup_s: f64) -> Vec<Metric> {
    let unstolen = s.unstolen();
    let mut v = unstolen.lat_ms.clone();
    v.sort_by(f64::total_cmp);
    let (ops_per_s, rows_per_s) = unstolen.round_rates();
    let values = [
        loops as f64 * ops_per_s,
        loops as f64 * rows_per_s,
        quantile(&v, 0.50),
        quantile(&v, 0.90),
        quantile(&v, 0.99),
        ratio(s.lat_ms.len() as f64, s.attempted() as f64),
        setup_s,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Everything one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs: any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The measured phase, for the summary line.
    pub samples: Samples,
    /// Closed loops that ran concurrently (see [`end_to_end`]).
    pub loops: usize,
}

/// Collects wrong outputs without stopping the run, keeping the first
/// few messages.
#[derive(Default)]
pub struct Mismatches {
    pub count: u64,
    pub first: Vec<String>,
}

impl Mismatches {
    pub fn record(&mut self, msg: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(msg);
        }
    }

    pub fn check(&mut self, what: impl FnOnce() -> String, got: u64, want: u64) {
        if got != want {
            self.record(format!("{}: {got:#018x} != {want:#018x}", what()));
        }
    }

    pub fn absorb(&mut self, other: Mismatches) {
        self.count += other.count;
        for m in other.first {
            if self.first.len() < 8 {
                self.first.push(m);
            }
        }
    }

    pub fn into_vec(self) -> Vec<String> {
        let mut v = self.first;
        if self.count as usize > v.len() {
            v.push(format!("... {} mismatch(es) in total", self.count));
        }
        v
    }
}
