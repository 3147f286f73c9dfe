//! `serve-closed`: the server's per-request overhead and the robust
//! executor, in a closed loop.
//!
//! An in-process `Server` on loopback serves two client connections;
//! each client sends its next SUBMIT only after it has the reply. A
//! client round is 22 small requests (64–256 rows of an example
//! datapath, on `bit` or `f64`) and 3 large ones (2048 rows of the
//! `ldlsolve`-s1 text, on `bit`), in a seeded order. No fusion: the wire
//! format cannot express fused nodes. `ServeConfig` keeps its defaults
//! (fault injection off) except the per-connection frame rate, raised
//! so the token bucket never engages: at the default 500 frames/s the
//! benchmark would time the throttle's sleep, not the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use csfma_hls::{
    clear_tape_cache, compile_cached, parse_program, tape_cache_stats, RobustOptions, TapeBackend,
};
use csfma_serve::engine::{process_submit, EngineConfig};
use csfma_serve::frame::{backend, decode, encode};
use csfma_serve::{
    backend_from_tag, Client, Frame, ServeConfig, ServeStats, Server, ServerHandle, StatsSnapshot,
    DEFAULT_MAX_FRAME_LEN,
};

use crate::common::{
    digest, end_to_end, median, oracle_check, ratio, rounds, timed_setups, us_since, Breakdown,
    Layers, Mismatches, Outcome, Rng, Samples, THREADS,
};
use crate::programs::{examples, solvers};
use crate::Args;

const SMALL_POOL: usize = 24;
const LARGE_POOL: usize = 4;
const LARGE_ROWS: usize = 2048;

/// Requests per client round: small, then large, shuffled per round
/// (slots `0..22` are small). The large share (12%)
/// keeps p90 and p99 inside the large requests' latency band and p50
/// inside the small ones', so no percentile sits on the edge between
/// the two.
const ROUND: (usize, usize) = (22, 3);

/// Rows per request checked against the scalar oracle in set-up.
const ORACLE_ROWS: usize = 4;

/// Replays of each request when splitting a traced round trip into
/// layers; the median counts. The lone round trip through the server
/// varies more than the in-process calls: with 3 replays, the share of
/// op time left unattributed moved between 7% and 22% from run to run.
const REPLAYS: usize = 9;

/// Large enough that the per-connection token bucket never runs dry.
const UNTHROTTLED_FRAMES_PER_SEC: f64 = 1e9;

struct Request {
    label: String,
    frame: Frame,
    rows: usize,
    want: u64,
}

struct Fixture {
    /// `SMALL_POOL` small requests, then `LARGE_POOL` large ones.
    requests: Vec<Request>,
    mismatches: Mismatches,
    addr: SocketAddr,
    handle: ServerHandle,
    server: Option<JoinHandle<StatsSnapshot>>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(t) = self.server.take() {
            let _ = t.join();
        }
    }
}

fn request(
    rng: &mut Rng,
    program: &crate::programs::Program,
    rows: usize,
    tag: u8,
    mismatches: &mut Mismatches,
) -> Request {
    let label = format!("{} {rows} rows backend {tag}", program.name);
    let g = parse_program(&program.text).expect("benchmark programs parse");
    let tape = compile_cached(&g).expect("benchmark programs compile");
    let data = program.rows(rng, tape.input_names(), rows);
    let backend = backend_from_tag(tag).expect("known backend tag");
    let out = tape.eval_batch(backend, &data, THREADS);
    let sample = (0..ORACLE_ROWS).map(|_| rng.below(rows));
    if let Err(e) = oracle_check(
        &g,
        backend,
        tape.input_names(),
        tape.output_names(),
        &data,
        &out,
        sample,
    ) {
        mismatches.record(format!("{label} oracle: {e}"));
    }
    Request {
        label,
        rows,
        want: digest(&out),
        frame: Frame::Submit {
            backend: tag,
            deadline_ms: 0,
            rows: rows as u32,
            graph: program.text.clone(),
            data,
        },
    }
}

fn setup(seed: u64) -> Fixture {
    clear_tape_cache();
    let mut rng = Rng::new(seed);
    let mut mismatches = Mismatches::default();
    let small = examples();
    let ldl = solvers(1);
    let mut requests = Vec::with_capacity(SMALL_POOL + LARGE_POOL);
    for _ in 0..SMALL_POOL {
        let p = &small[rng.below(small.len())];
        let rows = 64 + rng.below(193);
        let tag = if rng.below(2) == 0 {
            backend::BIT
        } else {
            backend::F64
        };
        requests.push(request(&mut rng, p, rows, tag, &mut mismatches));
    }
    for _ in 0..LARGE_POOL {
        requests.push(request(
            &mut rng,
            &ldl[0],
            LARGE_ROWS,
            backend::BIT,
            &mut mismatches,
        ));
    }
    let server = Server::bind(ServeConfig {
        max_frames_per_sec: UNTHROTTLED_FRAMES_PER_SEC,
        ..ServeConfig::default()
    })
    .expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let mut fx = Fixture {
        requests,
        mismatches,
        addr,
        handle,
        server: Some(std::thread::spawn(move || server.run())),
    };
    // warm-up: every request once through the server
    let mut client = Client::connect(addr).expect("connect to the benchmark server");
    for r in &fx.requests {
        let reply = client.send(&r.frame).and_then(|()| client.recv());
        check_reply(&mut fx.mismatches, r, reply.ok());
    }
    fx
}

/// `Some(rows)` for a RESULT, checked against the reference digest;
/// `None` for anything else (a failed op).
fn check_reply(m: &mut Mismatches, r: &Request, reply: Option<Frame>) -> Option<usize> {
    match reply {
        Some(Frame::Result {
            digest: d,
            rows,
            quarantined,
            data,
        }) => {
            m.check(|| format!("{} RESULT digest", r.label), d, r.want);
            m.check(|| format!("{} RESULT data", r.label), digest(&data), r.want);
            if quarantined != 0 || rows as usize != r.rows {
                m.record(format!(
                    "{}: {rows} rows, {quarantined} quarantined",
                    r.label
                ));
            }
            Some(rows as usize)
        }
        _ => None,
    }
}

/// One client's closed loop: rounds of `ROUND` requests until `seconds`
/// have passed. Returns its samples and `(request, round-trip us)` per
/// answered op.
fn client_loop(
    fx: &Fixture,
    seed: u64,
    client_id: usize,
    seconds: f64,
) -> (Samples, Mismatches, Vec<(usize, f64)>) {
    let mut rng = Rng::new(seed ^ (0x00c1_1e47 + client_id as u64));
    let mut s = Samples::default();
    let mut m = Mismatches::default();
    let mut trips = Vec::new();
    let (mut next_small, mut next_large) = (client_id * SMALL_POOL / THREADS, client_id);
    let mut client: Option<Client> = None;
    rounds(&mut rng, ROUND.0 + ROUND.1, seconds, &mut s, |slot| {
        let ri = if slot >= ROUND.0 {
            next_large = (next_large + 1) % LARGE_POOL;
            SMALL_POOL + next_large
        } else {
            next_small = (next_small + 1) % SMALL_POOL;
            next_small
        };
        let r = &fx.requests[ri];
        if client.is_none() {
            client = Client::connect(fx.addr).ok();
        }
        let c = client.as_mut()?;
        let t = Instant::now();
        let reply = c.send(&r.frame).and_then(|()| c.recv());
        let rtt = us_since(t);
        if reply.is_err() {
            // a lost connection fails this op; the next op reconnects
            client = None;
        }
        let rows = check_reply(&mut m, r, reply.ok())?;
        trips.push((ri, rtt));
        Some((rtt / 1e3, rows as u64))
    });
    (s, m, trips)
}

/// Both clients, concurrently.
fn measure(fx: &mut Fixture, seed: u64, seconds: f64) -> (Samples, Vec<(usize, f64)>) {
    let results: Vec<_> = std::thread::scope(|scope| {
        let fx = &*fx;
        let workers: Vec<_> = (0..THREADS)
            .map(|c| scope.spawn(move || client_loop(fx, seed, c, seconds)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut all = Samples::default();
    let mut trips = Vec::new();
    for (s, m, t) in results {
        all.absorb(s);
        fx.mismatches.absorb(m);
        trips.extend(t);
    }
    (all, trips)
}

/// A loopback TCP connection of the benchmark's own, to time moving a
/// request's bytes without the server. The peer reads a reply length
/// (`u64`) and one length-prefixed frame, then writes that many bytes.
/// Both ends receive the way the server and `Client` do: 64 KiB reads
/// appended to a buffer that starts empty.
struct Loopback {
    sock: TcpStream,
    peer: Option<JoinHandle<()>>,
}

/// Read `n` bytes in 64 KiB reads into a fresh buffer.
fn receive(sock: &mut TcpStream, n: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    while buf.len() < n {
        let k = sock.read(&mut scratch[..(n - buf.len()).min(64 * 1024)])?;
        if k == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&scratch[..k]);
    }
    Ok(buf)
}

impl Loopback {
    fn open() -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let sock = TcpStream::connect(listener.local_addr()?)?;
        sock.set_nodelay(true)?;
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let peer = std::thread::spawn(move || {
            while let Ok(head) = receive(&mut peer, 12) {
                let reply = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
                let len = u32::from_le_bytes(head[8..].try_into().expect("4 bytes"));
                if receive(&mut peer, len as usize).is_err()
                    || peer.write_all(&vec![0u8; reply as usize]).is_err()
                {
                    return;
                }
            }
        });
        Ok(Loopback {
            sock,
            peer: Some(peer),
        })
    }

    /// Microseconds to send `frame` (encoded, length-prefixed) and get
    /// `reply` bytes back.
    fn round_trip(&mut self, frame: &[u8], reply: usize) -> std::io::Result<f64> {
        let t = Instant::now();
        self.sock.write_all(&(reply as u64).to_le_bytes())?;
        self.sock.write_all(frame)?;
        receive(&mut self.sock, reply)?;
        Ok(us_since(t))
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
        if let Some(p) = self.peer.take() {
            let _ = p.join();
        }
    }
}

/// Per-request layer times, from replaying the request's calls one at a
/// time: `[encode, decode, engine, parse, cache hit, robust eval,
/// loopback transfer, round trip alone]`, us.
fn replay(addr: SocketAddr, lo: &mut Loopback, r: &Request, m: &mut Mismatches) -> [f64; 8] {
    let Frame::Submit {
        backend: tag,
        rows,
        graph,
        data,
        ..
    } = &r.frame
    else {
        unreachable!("requests are SUBMIT frames")
    };
    let engine_cfg = EngineConfig {
        workers: THREADS,
        ..EngineConfig::default()
    };
    let stats = ServeStats::default();
    let backend: TapeBackend = backend_from_tag(*tag).expect("known backend tag");
    let mut alone = Client::connect(addr).expect("connect to the benchmark server");
    let mut reps: Vec<[f64; 8]> = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        let mut us = [0.0; 8];
        let t = Instant::now();
        let submit = encode(&r.frame);
        us[0] += us_since(t);
        let t = Instant::now();
        let decoded = decode(&submit, DEFAULT_MAX_FRAME_LEN);
        us[1] += us_since(t);
        if !matches!(decoded, Ok(Some((Frame::Submit { .. }, _)))) {
            m.record(format!("{}: SUBMIT does not decode", r.label));
        }
        let t = Instant::now();
        let now = Instant::now();
        let result = process_submit(
            &engine_cfg,
            &stats,
            0,
            *tag,
            *rows,
            graph,
            data,
            now + Duration::from_secs(3600),
            now,
        );
        us[2] = us_since(t);
        let t = Instant::now();
        let reply = encode(&result);
        us[0] += us_since(t);
        let t = Instant::now();
        let decoded = decode(&reply, DEFAULT_MAX_FRAME_LEN);
        us[1] += us_since(t);
        check_reply(m, r, decoded.ok().flatten().map(|(f, _)| f));
        us[6] = lo
            .round_trip(&submit, reply.len())
            .expect("loopback transfer");
        let t = Instant::now();
        let got = alone.send(&r.frame).and_then(|()| alone.recv());
        us[7] = us_since(t);
        check_reply(m, r, got.ok());
        let t = Instant::now();
        let g = parse_program(graph).expect("benchmark programs parse");
        us[3] = us_since(t);
        let t = Instant::now();
        let tape = compile_cached(&g).expect("benchmark programs compile");
        us[4] = us_since(t);
        let t = Instant::now();
        let (out, _) = tape.eval_batch_robust(
            backend,
            data,
            &RobustOptions {
                threads: THREADS,
                chunk_retries: engine_cfg.chunk_retries,
                fault: None,
            },
        );
        us[5] = us_since(t);
        m.check(
            || format!("{} robust replay", r.label),
            digest(&out),
            r.want,
        );
        reps.push(us);
    }
    std::array::from_fn(|k| median(&reps.iter().map(|u| u[k]).collect::<Vec<_>>()))
}

fn server_stats(addr: SocketAddr) -> StatsSnapshot {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .ok()
        .and_then(|json| StatsSnapshot::from_json(&json))
        .unwrap_or_default()
}

pub fn run(args: &Args) -> Outcome {
    let (mut fx, setup_s) = if args.trace {
        (setup(args.seed), 0.0)
    } else {
        timed_setups(|| setup(args.seed))
    };
    if args.corrupt_reference {
        fx.requests[0].want ^= 1;
    }
    let (samples, metrics) = if args.trace {
        let (untraced, _) = measure(&mut fx, args.seed, args.seconds / 2.0);
        let (st0, c0) = (server_stats(fx.addr), tape_cache_stats());
        let (traced, trips) = measure(&mut fx, args.seed ^ 1, args.seconds / 2.0);
        let (st1, c1) = (server_stats(fx.addr), tape_cache_stats());
        let mut replays = Vec::with_capacity(fx.requests.len());
        let mut lo = Loopback::open().expect("open a loopback connection");
        for r in &fx.requests {
            replays.push(replay(fx.addr, &mut lo, r, &mut fx.mismatches));
        }
        let mut b = Breakdown::default();
        let mut sub = [0.0f64; 3];
        for &(ri, rtt) in &trips {
            let [enc, dec, engine, parse, cache, eval, wire, alone] = replays[ri];
            b.op(
                rtt,
                &[
                    ("serve.frame.encode_us", enc),
                    ("serve.frame.decode_us", dec),
                    ("serve.engine.us", engine),
                    ("serve.transport_us", wire),
                    ("serve.contention_us", rtt - alone),
                ],
            );
            sub[0] += parse;
            sub[1] += cache;
            sub[2] += eval;
        }
        let ops = trips.len() as f64;
        let mut l = Layers::default();
        b.report(&mut l);
        l.set_phases(&untraced, &traced);
        let bytes: f64 = trips
            .iter()
            .map(|&(ri, _)| match &fx.requests[ri].frame {
                Frame::Submit { graph, .. } => graph.len() as f64,
                _ => 0.0,
            })
            .sum();
        l.set("hls.parser.us", ratio(sub[0], ops));
        l.set("hls.parser.mb_per_s", ratio(bytes, sub[0]));
        l.set("hls.compile.cache_hit_us", ratio(sub[1], ops));
        l.set("hls.robust.eval_us", ratio(sub[2], ops));
        let lookups = (c1.hits + c1.misses - c0.hits - c0.misses) as f64;
        l.set(
            "hls.tape_cache.hit_ratio",
            ratio((c1.hits - c0.hits) as f64, lookups),
        );
        l.set("serve.server.shed", (st1.shed - st0.shed) as f64);
        l.set(
            "serve.server.deadline",
            (st1.deadline - st0.deadline) as f64,
        );
        l.set("serve.server.errors", (st1.errors - st0.errors) as f64);
        l.set("serve.server.retries", (st1.retries - st0.retries) as f64);
        l.set(
            "serve.server.rate_limited",
            (st1.rate_limited - st0.rate_limited) as f64,
        );
        let (mut n, mut sum) = (0.0, 0.0);
        for (depth, (a, b)) in st0.queue_depth.iter().zip(st1.queue_depth).enumerate() {
            n += (b - a) as f64;
            sum += depth as f64 * (b - a) as f64;
        }
        l.set("serve.server.queue_depth_mean", ratio(sum, n));
        (traced, l.metrics())
    } else {
        let (s, _) = measure(&mut fx, args.seed, args.seconds);
        let m = end_to_end(&s, THREADS, setup_s);
        (s, m)
    };
    let mismatches = std::mem::take(&mut fx.mismatches);
    drop(fx);
    Outcome {
        attempted: samples.attempted(),
        failed: samples.failed,
        mismatches: mismatches.into_vec(),
        metrics,
        samples,
        loops: THREADS,
    }
}
