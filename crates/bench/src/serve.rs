//! Load generator and acceptance audit for `csfma-serve`
//! (DESIGN.md §15).
//!
//! Each scenario points N concurrent clients at one in-process server
//! started with a **nonzero fault seed**, so every request runs with a
//! seeded transient-fault sprinkle across the checker-covered sites.
//! The harness then audits the protocol's whole contract, not just
//! throughput:
//!
//! * **exactly-one terminal response** — every submitted frame ends in
//!   RESULT / SHED / DEADLINE / ERROR; a connection torn mid-response
//!   counts as `unanswered` and fails the gate;
//! * **digest fidelity** — every RESULT with zero quarantined rows must
//!   carry the same FNV digest a local [`Tape::eval_batch`] of the same
//!   stimulus produces (the formula `csfma-run` prints), bit for bit;
//! * **reconciliation** — the server's own counters must balance:
//!   `accepted == results + deadline + errors`, and the client-observed
//!   shed/deadline/result counts must equal the server's;
//! * **containment** — zero `panics_contained` after all of it, and a
//!   kill-mid-flight drill (partial frame, dropped connection, reply
//!   never read) must leave the server serving.
//!
//! [`run_serve_bench`] returns the full report; `bin/serve_bench`
//! writes it to `results/BENCH_serve.json` and exits nonzero when the
//! gate fails.
//!
//! [`Tape::eval_batch`]: csfma_hls::Tape::eval_batch

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use csfma_hls::{compile_cached, parse_program, TapeBackend};
use csfma_obs::Json;
use csfma_serve::frame::{self, backend, tag, Frame};
use csfma_serve::{digest, Client, ServeConfig, Server, StatsSnapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The benchmark datapath: Listing 1 of the paper, the same graph every
/// other harness drives (10 inputs, 1 output, 3 fused FMA sites).
pub const GRAPH: &str = "x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;";
const NUM_INPUTS: usize = 10;

/// Rows per ordinary request (a whole number of scheduler chunks).
pub const ROWS_PER_REQUEST: usize = 192;
/// Rows in the tight-deadline probe each client fires once: enough
/// evaluation work that a 1 ms deadline is unmeetable on any host.
pub const DEADLINE_PROBE_ROWS: usize = 8192;
/// Ordinary requests per client, plus one tight-deadline probe.
pub const REQUESTS_PER_CLIENT: usize = 5;

/// The `csfma-run` stimulus formula (seeded `StdRng`, default span).
fn stimulus(seed: u64, rows: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * NUM_INPUTS)
        .map(|_| rng.gen_range(-1000.0..1000.0))
        .collect()
}

fn request_seed(clients: usize, client: usize, req: usize) -> u64 {
    (clients as u64) << 32 | (client as u64) << 16 | req as u64
}

/// What one scenario's fleet of clients observed, merged with the
/// server's own post-drain snapshot.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Concurrent clients.
    pub clients: usize,
    /// Submits sent across all clients (including shed retries and the
    /// per-client deadline probe).
    pub submits: usize,
    /// RESULT frames received.
    pub results: usize,
    /// SHED frames received (each was retried after its hint).
    pub shed: usize,
    /// DEADLINE frames received.
    pub deadline: usize,
    /// Structured ERROR frames received.
    pub errors: usize,
    /// Submits that never got a terminal response — must be zero.
    pub unanswered: usize,
    /// Quarantined rows summed over all RESULTs.
    pub quarantined_rows: u64,
    /// RESULTs with zero quarantined rows whose digest differed from
    /// the local evaluation — must be zero.
    pub digest_mismatches: usize,
    /// Median RESULT round-trip latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile RESULT round-trip latency, milliseconds.
    pub p99_ms: f64,
    /// Result rows delivered per wall-clock second.
    pub rows_per_sec: f64,
    /// Scenario wall time, milliseconds.
    pub elapsed_ms: f64,
    /// The server's own counters after drain.
    pub server: StatsSnapshot,
}

impl ScenarioReport {
    /// Client-observed and server-counted outcomes agree, and the
    /// server's ledger balances: every accepted request ended in
    /// exactly one terminal response.
    pub fn reconciled(&self) -> bool {
        self.server.accepted == self.server.results + self.server.deadline + self.server.errors
            && self.results as u64 == self.server.results
            && self.shed as u64 == self.server.shed
            && self.deadline as u64 == self.server.deadline
            && self.errors as u64 == self.server.errors
    }

    /// The per-scenario gate.
    pub fn passes(&self) -> bool {
        self.reconciled()
            && self.unanswered == 0
            && self.digest_mismatches == 0
            && self.server.panics_contained == 0
    }
}

/// What the kill-mid-flight drill observed.
#[derive(Clone, Debug)]
pub struct KillReport {
    /// Connections torn mid-protocol (partial frame / unread reply).
    pub torn_connections: usize,
    /// A fresh client got a PING echo after the abuse.
    pub server_survived: bool,
    /// Panics the server had to contain — must be zero.
    pub panics_contained: u64,
}

impl KillReport {
    /// The drill's gate.
    pub fn passes(&self) -> bool {
        self.server_survived && self.panics_contained == 0
    }
}

/// The full benchmark: one scenario per client count, plus the drill.
#[derive(Clone, Debug)]
pub struct ServeBench {
    /// Server-side fault-injection seed (nonzero: this is a drill under
    /// fire, not a clean-room run).
    pub fault_seed: u64,
    /// One report per client count.
    pub scenarios: Vec<ScenarioReport>,
    /// Kill-mid-flight drill report.
    pub kill: KillReport,
}

impl ServeBench {
    /// The headline gate the report's `pass` field carries.
    pub fn passes(&self) -> bool {
        self.kill.passes() && self.scenarios.iter().all(|s| s.passes())
    }
}

fn bench_config(fault_seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_inflight: 4,
        max_queue: 8,
        queue_wait: Duration::from_millis(100),
        fault_seed: Some(fault_seed),
        drain_grace: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Per-client tally, merged into the scenario report.
#[derive(Default)]
struct ClientTally {
    submits: usize,
    results: usize,
    shed: usize,
    deadline: usize,
    errors: usize,
    unanswered: usize,
    quarantined_rows: u64,
    digest_mismatches: usize,
    result_rows: usize,
    latencies_ms: Vec<f64>,
}

/// Run one scenario: `clients` concurrent clients, each sending
/// [`REQUESTS_PER_CLIENT`] ordinary requests (retrying after every
/// SHED) plus one 1 ms-deadline probe that must come back DEADLINE.
pub fn run_scenario(clients: usize, fault_seed: u64) -> ScenarioReport {
    let server = Server::bind(bench_config(fault_seed)).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    // expected digests computed up front from the same stimulus
    // formula, so client threads only compare
    let g = parse_program(GRAPH).expect("benchmark graph parses");
    let tape = compile_cached(&g).expect("benchmark graph compiles");
    let expected: Vec<Vec<u64>> = (0..clients)
        .map(|c| {
            (0..REQUESTS_PER_CLIENT)
                .map(|r| {
                    let data = stimulus(request_seed(clients, c, r), ROWS_PER_REQUEST);
                    digest(&tape.eval_batch(TapeBackend::BitAccurate, &data, 1))
                })
                .collect()
        })
        .collect();

    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let expect = expected[c].clone();
            std::thread::spawn(move || {
                let mut tally = ClientTally::default();
                let mut cl = match Client::connect(addr) {
                    Ok(cl) => cl,
                    Err(_) => {
                        tally.unanswered = REQUESTS_PER_CLIENT + 1;
                        return tally;
                    }
                };
                for (r, want) in expect.iter().enumerate() {
                    let data = stimulus(request_seed(clients, c, r), ROWS_PER_REQUEST);
                    // bounded retry-after-shed loop: the hint is the
                    // contract, so honor it
                    let mut attempts = 0usize;
                    loop {
                        attempts += 1;
                        tally.submits += 1;
                        let sent = Instant::now();
                        match cl.submit(backend::BIT, 0, ROWS_PER_REQUEST as u32, GRAPH, &data) {
                            Ok(Frame::Result {
                                digest: d,
                                quarantined,
                                ..
                            }) => {
                                tally.results += 1;
                                tally.result_rows += ROWS_PER_REQUEST;
                                tally.quarantined_rows += quarantined as u64;
                                tally.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                                if quarantined == 0 && d != *want {
                                    tally.digest_mismatches += 1;
                                }
                                break;
                            }
                            Ok(Frame::Shed { retry_after_ms }) => {
                                tally.shed += 1;
                                if attempts > 32 {
                                    break; // pathological; reconcile will still hold
                                }
                                std::thread::sleep(Duration::from_millis(
                                    retry_after_ms.min(200) as u64
                                ));
                            }
                            Ok(Frame::Deadline { .. }) => {
                                tally.deadline += 1;
                                break;
                            }
                            Ok(Frame::Error { .. }) => {
                                tally.errors += 1;
                                break;
                            }
                            Ok(_) | Err(_) => {
                                tally.unanswered += 1;
                                break;
                            }
                        }
                    }
                }
                // the tight-deadline probe: 1 ms on a batch needing far
                // more evaluation than that
                let probe = stimulus(
                    request_seed(clients, c, REQUESTS_PER_CLIENT),
                    DEADLINE_PROBE_ROWS,
                );
                let mut attempts = 0usize;
                loop {
                    attempts += 1;
                    tally.submits += 1;
                    match cl.submit(backend::BIT, 1, DEADLINE_PROBE_ROWS as u32, GRAPH, &probe) {
                        Ok(Frame::Deadline { .. }) => {
                            tally.deadline += 1;
                            break;
                        }
                        Ok(Frame::Shed { retry_after_ms }) => {
                            tally.shed += 1;
                            if attempts > 32 {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(
                                retry_after_ms.min(200) as u64
                            ));
                        }
                        Ok(Frame::Result { quarantined, .. }) => {
                            // legal if the host is absurdly fast; count
                            // it as a result so the ledger still balances
                            tally.results += 1;
                            tally.result_rows += DEADLINE_PROBE_ROWS;
                            tally.quarantined_rows += quarantined as u64;
                            break;
                        }
                        Ok(Frame::Error { .. }) => {
                            tally.errors += 1;
                            break;
                        }
                        Ok(_) | Err(_) => {
                            tally.unanswered += 1;
                            break;
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let mut merged = ClientTally::default();
    for t in threads {
        let tally = t.join().expect("client thread");
        merged.submits += tally.submits;
        merged.results += tally.results;
        merged.shed += tally.shed;
        merged.deadline += tally.deadline;
        merged.errors += tally.errors;
        merged.unanswered += tally.unanswered;
        merged.quarantined_rows += tally.quarantined_rows;
        merged.digest_mismatches += tally.digest_mismatches;
        merged.result_rows += tally.result_rows;
        merged.latencies_ms.extend(tally.latencies_ms);
    }
    let elapsed = t0.elapsed();

    handle.drain();
    let server = runner.join().expect("server runner");

    merged.latencies_ms.sort_by(|a, b| a.total_cmp(b));
    ScenarioReport {
        clients,
        submits: merged.submits,
        results: merged.results,
        shed: merged.shed,
        deadline: merged.deadline,
        errors: merged.errors,
        unanswered: merged.unanswered,
        quarantined_rows: merged.quarantined_rows,
        digest_mismatches: merged.digest_mismatches,
        p50_ms: percentile(&merged.latencies_ms, 0.50),
        p99_ms: percentile(&merged.latencies_ms, 0.99),
        rows_per_sec: merged.result_rows as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        server,
    }
}

/// The kill-mid-flight drill: three hostile connection teardowns on a
/// fresh server, then proof it still serves.
pub fn run_kill_drill(fault_seed: u64) -> KillReport {
    let server = Server::bind(bench_config(fault_seed)).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut torn = 0usize;

    // (1) a declared frame whose body never arrives, then a hard drop
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(&1024u32.to_le_bytes());
        let _ = s.write_all(&[tag::SUBMIT, 0, 0, 0]);
        drop(s);
        torn += 1;
    }
    // (2) a full submit whose reply is never read: the client vanishes
    // while the engine is mid-evaluation
    if let Ok(mut s) = TcpStream::connect(addr) {
        let f = Frame::Submit {
            backend: backend::BIT,
            deadline_ms: 0,
            rows: ROWS_PER_REQUEST as u32,
            graph: GRAPH.into(),
            data: stimulus(0xDEAD, ROWS_PER_REQUEST),
        };
        let _ = s.write_all(&frame::encode(&f));
        drop(s);
        torn += 1;
    }
    // (3) a length prefix alone, then silence and a drop
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(&(512u32).to_le_bytes());
        drop(s);
        torn += 1;
    }

    // the engine may still be chewing on (2); the gate is that a fresh
    // client gets service afterwards
    let survived = (|| -> Option<bool> {
        let mut c = Client::connect(addr).ok()?;
        let echoed = c.ping(0xBEEF).ok()?;
        let reply = c
            .submit(backend::BIT, 0, 4, GRAPH, &stimulus(0xF00D, 4))
            .ok()?;
        Some(echoed == 0xBEEF && matches!(reply, Frame::Result { .. }))
    })()
    .unwrap_or(false);

    handle.drain();
    let stats = runner.join().expect("server runner");
    KillReport {
        torn_connections: torn,
        server_survived: survived,
        panics_contained: stats.panics_contained,
    }
}

/// Run the whole benchmark: one scenario per entry of `client_counts`
/// (1–64 supported; the default list is `[1, 4, 16]`), plus the
/// kill-mid-flight drill.
pub fn run_serve_bench(fault_seed: u64, client_counts: &[usize]) -> ServeBench {
    let scenarios = client_counts
        .iter()
        .map(|&n| run_scenario(n.clamp(1, 64), fault_seed))
        .collect();
    ServeBench {
        fault_seed,
        scenarios,
        kill: run_kill_drill(fault_seed),
    }
}

/// The `results/BENCH_serve.json` document.
pub fn to_json(b: &ServeBench) -> String {
    let scenarios = b.scenarios.iter().map(|r| {
        let st = &r.server;
        Json::obj([
            ("clients", r.clients.into()),
            ("submits", r.submits.into()),
            ("results", r.results.into()),
            ("shed", r.shed.into()),
            ("deadline", r.deadline.into()),
            ("errors", r.errors.into()),
            ("unanswered", r.unanswered.into()),
            ("quarantined_rows", r.quarantined_rows.into()),
            ("digest_mismatches", r.digest_mismatches.into()),
            ("p50_ms", Json::fixed(r.p50_ms, 3)),
            ("p99_ms", Json::fixed(r.p99_ms, 3)),
            ("rows_per_sec", Json::fixed(r.rows_per_sec, 0)),
            ("elapsed_ms", Json::fixed(r.elapsed_ms, 1)),
            (
                "server",
                Json::obj([
                    ("accepted", st.accepted.into()),
                    ("results", st.results.into()),
                    ("shed", st.shed.into()),
                    ("deadline", st.deadline.into()),
                    ("errors", st.errors.into()),
                    ("refusals", st.refusals.into()),
                    ("retries", st.retries.into()),
                    ("quarantined_rows", st.quarantined_rows.into()),
                    ("panics_contained", st.panics_contained.into()),
                ]),
            ),
            ("reconciled", r.reconciled().into()),
        ])
    });
    Json::obj([
        ("bench", "serve".into()),
        ("graph", "listing1".into()),
        ("fault_seed", b.fault_seed.into()),
        ("rows_per_request", ROWS_PER_REQUEST.into()),
        ("requests_per_client", REQUESTS_PER_CLIENT.into()),
        ("deadline_probe_rows", DEADLINE_PROBE_ROWS.into()),
        ("scenarios", Json::arr(scenarios)),
        (
            "kill_mid_flight",
            Json::obj([
                ("torn_connections", b.kill.torn_connections.into()),
                ("server_survived", b.kill.server_survived.into()),
                ("panics_contained", b.kill.panics_contained.into()),
            ]),
        ),
        ("pass", b.passes().into()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_small_scenario_reconciles_and_matches_digests() {
        let r = run_scenario(2, 0xC0FFEE);
        assert!(r.passes(), "{r:?}");
        assert!(r.results >= 2 * REQUESTS_PER_CLIENT - r.shed.min(2 * REQUESTS_PER_CLIENT));
        assert_eq!(r.digest_mismatches, 0);
        assert_eq!(r.unanswered, 0);
    }

    #[test]
    fn kill_drill_leaves_the_server_serving() {
        let k = run_kill_drill(0xC0FFEE);
        assert!(k.passes(), "{k:?}");
        assert_eq!(k.torn_connections, 3);
    }

    #[test]
    fn json_carries_the_shape_fields() {
        let b = ServeBench {
            fault_seed: 7,
            scenarios: vec![run_scenario(1, 7)],
            kill: run_kill_drill(7),
        };
        let doc = Json::parse(&to_json(&b)).unwrap();
        let scenario = &doc.get("scenarios").and_then(Json::as_arr).unwrap()[0];
        for field in [
            "p50_ms",
            "p99_ms",
            "rows_per_sec",
            "shed",
            "deadline",
            "quarantined_rows",
        ] {
            let v = scenario.get(field).and_then(Json::as_f64);
            assert!(v.is_some(), "missing numeric {field} in {scenario}");
        }
        assert!(doc.get("kill_mid_flight").is_some(), "{doc}");
        assert_eq!(scenario.get("reconciled"), Some(&Json::Bool(true)));
    }
}
