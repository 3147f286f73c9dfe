//! The TCP server: accept loop, admission control, graceful drain.
//!
//! Concurrency model (std-only, no async runtime): one OS thread per
//! connection, each wrapped in `catch_unwind` so no panic ever reaches
//! the accept loop; requests from all connections funnel into the
//! process-wide scheduler pool through the robust executor, and the
//! tape cache is sharded per worker at startup
//! ([`set_tape_cache_shards`]) so concurrent compile lookups do not
//! convoy on one mutex.
//!
//! Admission is a bounded gate: at most `max_inflight` requests
//! evaluate at once, at most `max_queue` more may wait (bounded, so
//! waiting cannot pile up memory), and an in-flight byte budget bounds
//! the row data resident at once. Anything beyond sheds with a
//! retry-after hint — the one response a client can always rely on
//! costing the server almost nothing.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use csfma_hls::set_tape_cache_shards;

use crate::engine::{self, EngineConfig};
use crate::frame::{self, Frame, FrameError, DEFAULT_MAX_FRAME_LEN};
use crate::stats::{ServeStats, StatsSnapshot};

/// Everything a [`Server`] needs to know, with defaults tuned for the
/// integration tests (small and fast; the CLI raises them).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads per request (robust-executor `threads`).
    pub workers: usize,
    /// Requests evaluating concurrently before the queue forms.
    pub max_inflight: usize,
    /// Bounded admission-queue length; beyond it, submits shed at once.
    pub max_queue: usize,
    /// Longest a queued submit waits for a slot before shedding.
    pub queue_wait: Duration,
    /// Total row-data bytes admitted at once (in-flight byte budget).
    pub max_inflight_bytes: usize,
    /// Deadline applied when a SUBMIT carries `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Per-connection frame-size limit (payload bytes).
    pub max_frame_len: usize,
    /// Per-connection SUBMIT rate limit (token bucket, frames/second);
    /// excess frames are throttled, not dropped.
    pub max_frames_per_sec: f64,
    /// A connection with a stalled partial frame (slowloris) or no
    /// traffic at all is closed after this long.
    pub idle_timeout: Duration,
    /// Robust-executor chunk retries per request.
    pub chunk_retries: u32,
    /// Server-side fault-injection seed (`None` = clean).
    pub fault_seed: Option<u64>,
    /// How long `run` waits for in-flight connections after drain
    /// begins before giving up on them.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_inflight: 4,
            max_queue: 8,
            queue_wait: Duration::from_millis(200),
            max_inflight_bytes: 64 << 20,
            default_deadline: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_frames_per_sec: 500.0,
            idle_timeout: Duration::from_secs(10),
            chunk_retries: 2,
            fault_seed: None,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Why the admission gate refused a request.
enum Refusal {
    Shed { retry_after_ms: u32 },
    Draining,
}

#[derive(Default)]
struct GateInner {
    inflight: usize,
    inflight_bytes: usize,
    queued: usize,
}

struct Gate {
    inner: Mutex<GateInner>,
    freed: Condvar,
}

struct Shared {
    cfg: ServeConfig,
    engine: EngineConfig,
    stats: ServeStats,
    draining: AtomicBool,
    gate: Gate,
    live_conns: AtomicUsize,
    next_request_id: AtomicU64,
}

impl Shared {
    fn admit(&self, bytes: usize) -> Result<usize, Refusal> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(Refusal::Draining);
        }
        let cfg = &self.cfg;
        let mut g = self.gate.inner.lock().unwrap_or_else(|e| e.into_inner());
        let depth_seen = g.queued;
        let fits = |g: &GateInner| {
            g.inflight < cfg.max_inflight
                && g.inflight_bytes + bytes <= cfg.max_inflight_bytes.max(bytes)
        };
        if fits(&g) {
            g.inflight += 1;
            g.inflight_bytes += bytes;
            return Ok(depth_seen);
        }
        if g.queued >= cfg.max_queue {
            return Err(Refusal::Shed {
                retry_after_ms: retry_hint(cfg, g.queued),
            });
        }
        g.queued += 1;
        let deadline = Instant::now() + cfg.queue_wait;
        loop {
            let now = Instant::now();
            if fits(&g) {
                g.queued -= 1;
                g.inflight += 1;
                g.inflight_bytes += bytes;
                return Ok(depth_seen);
            }
            if now >= deadline || self.draining.load(Ordering::SeqCst) {
                g.queued -= 1;
                let draining = self.draining.load(Ordering::SeqCst);
                let depth = g.queued;
                drop(g);
                return Err(if draining {
                    Refusal::Draining
                } else {
                    Refusal::Shed {
                        retry_after_ms: retry_hint(cfg, depth),
                    }
                });
            }
            let (guard, _) = self
                .gate
                .freed
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }

    fn release(&self, bytes: usize) {
        let mut g = self.gate.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.inflight -= 1;
        g.inflight_bytes -= bytes;
        drop(g);
        self.gate.freed.notify_all();
    }
}

fn retry_hint(cfg: &ServeConfig, queue_depth: usize) -> u32 {
    // the hint scales with how far behind the server is; clients that
    // honor it spread their retries instead of stampeding
    (cfg.queue_wait.as_millis() as u32 / 2).max(10) * (queue_depth as u32 + 1)
}

/// Handle for requesting drain from another thread (or a signal).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful drain: stop admitting, finish (or deadline out)
    /// in-flight requests, then let [`Server::run`] return.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.gate.freed.notify_all();
    }

    /// Current stats.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }
}

/// Set by the SIGTERM/SIGINT handler; polled by every running server.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Install SIGTERM + SIGINT handlers that trigger graceful drain in
/// every [`Server::run`] loop in the process. Uses the C `signal(2)`
/// entry point directly — the workspace is std-only and the handler
/// body is one atomic store, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_drain() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: *const ()) -> *const ();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const ();
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// The batch-evaluation server. Construct with [`Server::bind`], then
/// [`Server::run`] the accept loop to completion (it returns after a
/// drain finishes).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and size the tape cache's shard count to the
    /// worker pool. Does not accept yet.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        set_tape_cache_shards(cfg.workers.max(cfg.max_inflight));
        let engine = EngineConfig {
            workers: cfg.workers,
            chunk_retries: cfg.chunk_retries,
            fault_seed: cfg.fault_seed,
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                engine,
                stats: ServeStats::default(),
                draining: AtomicBool::new(false),
                gate: Gate {
                    inner: Mutex::new(GateInner::default()),
                    freed: Condvar::new(),
                },
                live_conns: AtomicUsize::new(0),
                next_request_id: AtomicU64::new(0),
                cfg,
            }),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for draining/inspecting the server from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run the accept loop until a drain completes; returns the final
    /// stats. No connection panic can escape this loop.
    pub fn run(self) -> StatsSnapshot {
        let Server { listener, shared } = self;
        let mut conn_threads: VecDeque<std::thread::JoinHandle<()>> = VecDeque::new();
        loop {
            if SIGNAL_DRAIN.load(Ordering::SeqCst) {
                shared.draining.store(true, Ordering::SeqCst);
                shared.gate.freed.notify_all();
            }
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((sock, _peer)) => {
                    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                    shared.live_conns.fetch_add(1, Ordering::SeqCst);
                    let sh = Arc::clone(&shared);
                    conn_threads.push_back(std::thread::spawn(move || {
                        let contained =
                            catch_unwind(AssertUnwindSafe(|| handle_connection(&sh, sock)));
                        if contained.is_err() {
                            sh.stats.panics_contained.fetch_add(1, Ordering::Relaxed);
                        }
                        sh.live_conns.fetch_sub(1, Ordering::SeqCst);
                    }));
                    // reap finished handlers so the list stays bounded
                    while conn_threads.front().is_some_and(|t| t.is_finished()) {
                        let _ = conn_threads.pop_front().map(|t| t.join());
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // drain: stop accepting (we already have), then wait for
        // in-flight connections to finish or for the grace period
        let grace_end = Instant::now() + shared.cfg.drain_grace;
        while shared.live_conns.load(Ordering::SeqCst) > 0 && Instant::now() < grace_end {
            std::thread::sleep(Duration::from_millis(5));
        }
        for t in conn_threads {
            if t.is_finished() {
                let _ = t.join();
            }
        }
        shared.stats.snapshot()
    }
}

/// One connection's read loop. Decode errors answer with a structured
/// ERROR frame and close (a corrupt length-prefixed stream cannot be
/// resynchronized); panics are contained one level up.
fn handle_connection(sh: &Shared, mut sock: TcpStream) {
    let _ = sock.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = sock.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    let mut last_progress = Instant::now();
    // token bucket for the per-connection frame rate limit
    let mut allowance = sh.cfg.max_frames_per_sec;
    let mut last_refill = Instant::now();
    loop {
        // decode every complete frame already buffered
        loop {
            match frame::decode(&buf, sh.cfg.max_frame_len) {
                Ok(Some((f, consumed))) => {
                    buf.drain(..consumed);
                    last_progress = Instant::now();
                    allowance = (allowance
                        + last_refill.elapsed().as_secs_f64() * sh.cfg.max_frames_per_sec)
                        .min(sh.cfg.max_frames_per_sec.max(1.0));
                    last_refill = Instant::now();
                    if allowance < 1.0 {
                        // throttle, don't drop: sleep off the deficit
                        sh.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
                        let wait = (1.0 - allowance) / sh.cfg.max_frames_per_sec;
                        std::thread::sleep(Duration::from_secs_f64(wait.min(1.0)));
                    }
                    allowance = (allowance - 1.0).max(0.0);
                    if !handle_frame(sh, &mut sock, f) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let code: u16 = match e {
                        FrameError::TooLarge { .. } => 1,
                        _ => 2,
                    };
                    sh.stats.refusals.fetch_add(1, Ordering::Relaxed);
                    let reply = Frame::Error {
                        code,
                        message: format!("SV{code:03}: {e}"),
                    };
                    let _ = sock.write_all(&frame::encode(&reply));
                    return;
                }
            }
        }
        if sh.draining.load(Ordering::SeqCst) && buf.is_empty() {
            return;
        }
        match sock.read(&mut scratch) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // a stalled partial frame (slowloris) or a dead idle
                // connection: both close after the idle timeout
                if last_progress.elapsed() > sh.cfg.idle_timeout {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Dispatch one decoded frame; `false` means close the connection.
fn handle_frame(sh: &Shared, sock: &mut TcpStream, f: Frame) -> bool {
    let reply = match f {
        Frame::Ping { token } => Frame::Ping { token },
        Frame::Stats { .. } => Frame::Stats {
            json: sh.stats.snapshot().to_json(),
        },
        Frame::Drain => {
            sh.draining.store(true, Ordering::SeqCst);
            sh.gate.freed.notify_all();
            Frame::Drain
        }
        Frame::Submit {
            backend,
            deadline_ms,
            rows,
            graph,
            data,
        } => {
            let bytes = data.len() * 8 + graph.len();
            match sh.admit(bytes) {
                Err(Refusal::Draining) => {
                    sh.stats.refusals.fetch_add(1, Ordering::Relaxed);
                    Frame::Error {
                        code: 6,
                        message: "SV006: server is draining; no new work accepted".into(),
                    }
                }
                Err(Refusal::Shed { retry_after_ms }) => {
                    sh.stats.shed.fetch_add(1, Ordering::Relaxed);
                    Frame::Shed { retry_after_ms }
                }
                Ok(queue_depth) => {
                    sh.stats.record_queue_depth(queue_depth);
                    sh.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let started = Instant::now();
                    let deadline = started
                        + if deadline_ms == 0 {
                            sh.cfg.default_deadline
                        } else {
                            Duration::from_millis(deadline_ms as u64)
                        };
                    let request_id = sh.next_request_id.fetch_add(1, Ordering::Relaxed);
                    // contain engine panics so `release` always runs and
                    // the client always gets a terminal response
                    let reply = catch_unwind(AssertUnwindSafe(|| {
                        engine::process_submit(
                            &sh.engine, &sh.stats, request_id, backend, rows, &graph, &data,
                            deadline, started,
                        )
                    }))
                    .unwrap_or_else(|_| {
                        sh.stats.panics_contained.fetch_add(1, Ordering::Relaxed);
                        Frame::Error {
                            code: 3,
                            message: "SV003: evaluation failed after containment".into(),
                        }
                    });
                    sh.release(bytes);
                    if matches!(reply, Frame::Result { .. }) {
                        sh.stats.results.fetch_add(1, Ordering::Relaxed);
                    } else if matches!(reply, Frame::Error { .. }) {
                        sh.stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    reply
                }
            }
        }
        // server-to-client frames arriving at the server are protocol
        // violations
        Frame::Result { .. }
        | Frame::Error { .. }
        | Frame::Shed { .. }
        | Frame::Deadline { .. } => {
            sh.stats.refusals.fetch_add(1, Ordering::Relaxed);
            let reply = Frame::Error {
                code: 2,
                message: "SV002: response-typed frame sent to the server".into(),
            };
            let _ = sock.write_all(&frame::encode(&reply));
            return false;
        }
    };
    let close_after = matches!(reply, Frame::Drain);
    if sock.write_all(&frame::encode(&reply)).is_err() {
        return false;
    }
    !close_after
}
