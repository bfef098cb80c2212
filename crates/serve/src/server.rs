//! The TCP server: accept loop, per-connection handlers, admission
//! control, and graceful drain.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xbar_core::oracle::QueryKey;
use xbar_obs::json::JsonValue;
use xbar_obs::metrics::SERVER_SCOPE;
use xbar_obs::names;
use xbar_runtime::jsonl::JsonlAppender;

use crate::coalesce::{CoalescePolicy, Coalescer, Job, WorkerPool};
use crate::metrics::{json_to_value, ServeMetrics, METRICS_RECORD_KIND};
use crate::protocol::{codes, Request, Response};
use crate::registry::VictimRegistry;
use crate::session::SessionManager;
use crate::Result;

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Evaluation worker threads.
    pub workers: usize,
    /// Admission control: maximum concurrently attached sessions.
    pub max_sessions: usize,
    /// Backpressure: maximum queued-but-unevaluated query samples.
    pub max_inflight: usize,
    /// Cross-session batch coalescing policy.
    pub coalesce: CoalescePolicy,
    /// Session journal path (`None` = in-memory sessions only).
    pub journal: Option<PathBuf>,
    /// Observability sink for the server's threads (`None` = unobserved).
    pub collector: Option<Arc<dyn xbar_obs::Collector>>,
    /// Periodic live-metrics snapshot file (`None` = no snapshots). A
    /// [`METRICS_RECORD_KIND`] JSONL record is appended every
    /// [`ServeConfig::metrics_every`], plus a final one on drain.
    pub metrics: Option<PathBuf>,
    /// Interval between periodic metrics snapshots.
    pub metrics_every: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_sessions: 256,
            max_inflight: 4096,
            coalesce: CoalescePolicy::default(),
            journal: None,
            collector: None,
            metrics: None,
            metrics_every: Duration::from_secs(1),
        }
    }
}

struct Shared {
    registry: VictimRegistry,
    sessions: Mutex<SessionManager>,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
}

impl Shared {
    /// Refreshes the point-in-time gauges and returns a coherent merged
    /// snapshot of the live metrics plane. Safe at any lifecycle point:
    /// during drain the session lock and shard locks still exist, so a
    /// scrape racing a shutdown sees a consistent (if final) picture.
    fn scrape(&self, coalescer: &Coalescer) -> xbar_obs::MetricsSnapshot {
        let attached = self
            .sessions
            .lock()
            .expect("sessions lock")
            .attached_count();
        self.metrics.refresh_gauges(
            attached,
            coalescer.inflight(),
            self.shutdown.load(Ordering::SeqCst),
        );
        self.metrics.registry().snapshot()
    }
}

/// A running campaign service.
///
/// Lifecycle: [`Server::start`] binds and spawns everything;
/// [`Server::shutdown`] (or a client `shutdown` op followed by
/// [`Server::run_until_shutdown`]) drains gracefully — the accept loop
/// stops, in-flight evaluation batches finish and are journaled, then
/// every thread is joined.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    pool: Option<WorkerPool>,
    accept_handle: Option<JoinHandle<()>>,
    metrics_handle: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// A clone of each live connection's stream, keyed by accept
    /// ordinal, so drain can unblock handler reads.
    conns: Arc<Mutex<LiveConns>>,
}

type LiveConns = HashMap<usize, TcpStream>;

/// Removes a connection's drain clone from the live table when its
/// handler exits, whether it returns or panics.
struct LiveConn(Arc<Mutex<LiveConns>>, usize);

impl Drop for LiveConn {
    fn drop(&mut self) {
        if let Ok(mut conns) = self.0.lock() {
            conns.remove(&self.1);
        }
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop and worker pool.
    pub fn start(addr: &str, registry: VictimRegistry, config: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let metrics = ServeMetrics::new(config.workers);
        let mut sessions = match &config.journal {
            Some(path) => SessionManager::with_journal(config.max_sessions, path)?,
            None => SessionManager::new(config.max_sessions),
        };
        sessions.set_metrics_shard(metrics.server_shard());
        let shared = Arc::new(Shared {
            registry,
            sessions: Mutex::new(sessions),
            shutdown: AtomicBool::new(false),
            metrics: metrics.clone(),
        });
        let pool = WorkerPool::start(
            config.workers,
            config.coalesce,
            config.max_inflight,
            config.collector.clone(),
            Some(&metrics),
        );
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let conns: Arc<Mutex<LiveConns>> = Arc::default();

        let accept_handle = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            let conns = Arc::clone(&conns);
            let coalescer = pool.coalescer();
            let collector = config.collector.clone();
            std::thread::spawn(move || {
                accept_loop(&listener, &shared, &coalescer, &handlers, &conns, collector)
            })
        };

        let metrics_handle = match &config.metrics {
            Some(path) => {
                let appender = JsonlAppender::create(path)
                    .map_err(|e| crate::ServeError::Protocol(e.to_string()))?;
                let shared = Arc::clone(&shared);
                let coalescer = pool.coalescer();
                let every = config.metrics_every;
                Some(std::thread::spawn(move || {
                    snapshot_loop(appender, &shared, &coalescer, every)
                }))
            }
            None => None,
        };

        Ok(Server {
            addr: local_addr,
            shared,
            pool: Some(pool),
            accept_handle: Some(accept_handle),
            metrics_handle,
            handlers,
            conns,
        })
    }

    /// The bound address (the ephemeral port when started on `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until some client issues the `shutdown` op, then drains.
    pub fn run_until_shutdown(self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.drain();
    }

    /// Initiates and completes a graceful drain: stop accepting, let
    /// in-flight requests finish, join every thread.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.drain();
    }

    fn drain(mut self) {
        // 1. The accept loop polls the flag and exits.
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // 2. Unblock handler reads; handlers finish their current
        //    request (workers are still alive to answer it), detach
        //    their sessions, drop their coalescer clones, and exit.
        for (_, stream) in self.conns.lock().expect("conns lock").drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = self
            .handlers
            .lock()
            .expect("handlers lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        // 3. The snapshot thread sees the shutdown flag, writes its
        //    final snapshot, and drops its coalescer clone.
        if let Some(handle) = self.metrics_handle.take() {
            let _ = handle.join();
        }
        // 4. Every sender is gone: the workers drain the queue and exit.
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

/// Appends one [`METRICS_RECORD_KIND`] snapshot record to the metrics
/// file every `every`, polling the shutdown flag between ticks, and a
/// final record once drain begins. Records carry a monotone `seq` so
/// consumers can assert snapshot counts only ever grow.
fn snapshot_loop(
    mut appender: JsonlAppender,
    shared: &Shared,
    coalescer: &Coalescer,
    every: Duration,
) {
    let mut seq = 0u64;
    let write_snapshot = |seq: u64, appender: &mut JsonlAppender| {
        let snapshot = shared.scrape(coalescer);
        let mut record = JsonValue::object();
        record
            .push("kind", METRICS_RECORD_KIND)
            .push("seq", seq)
            .push("stats", snapshot.to_json());
        let _ = appender.write_line(&record.render());
    };
    loop {
        let deadline = Instant::now() + every;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                write_snapshot(seq, &mut appender);
                return;
            }
            std::thread::sleep(Duration::from_millis(25).min(every));
        }
        write_snapshot(seq, &mut appender);
        seq += 1;
    }
}

/// Longest pause between retries after a failed `accept`.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    coalescer: &Coalescer,
    handlers: &Mutex<Vec<JoinHandle<()>>>,
    conns: &Arc<Mutex<LiveConns>>,
    collector: Option<Arc<dyn xbar_obs::Collector>>,
) {
    // Connection ordinal: keys the drain clone and spreads handlers
    // over the metrics shard pool.
    let mut next_ordinal = 0usize;
    let mut backoff = Duration::ZERO;
    let mut reported: Vec<ErrorKind> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = Duration::ZERO;
                let ordinal = next_ordinal;
                next_ordinal += 1;
                let live = stream.try_clone().ok().map(|clone| {
                    conns.lock().expect("conns lock").insert(ordinal, clone);
                    LiveConn(Arc::clone(conns), ordinal)
                });
                let shared = Arc::clone(shared);
                let coalescer = coalescer.clone();
                let collector = collector.clone();
                let shard = shared.metrics.handler_shard(ordinal);
                let handle = std::thread::spawn(move || {
                    let _live = live;
                    match collector {
                        Some(collector) => xbar_obs::with_scope(collector, None, || {
                            handle_connection(stream, &shared, &coalescer, &shard)
                        }),
                        None => handle_connection(stream, &shared, &coalescer, &shard),
                    }
                });
                let mut handlers = handlers.lock().expect("handlers lock");
                handlers.retain(|handle| !handle.is_finished());
                handlers.push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                // Typically fd exhaustion (EMFILE) or a peer that reset
                // before accept: count, back off and retry.
                let server_shard = shared.metrics.server_shard();
                server_shard.counter_add(SERVER_SCOPE, names::SERVE_ACCEPT_ERRORS, 1);
                if !reported.contains(&e.kind()) {
                    reported.push(e.kind());
                    eprintln!("xbar-serve: accept failed, retrying with backoff: {e}");
                }
                backoff = (backoff * 2).clamp(Duration::from_millis(5), ACCEPT_BACKOFF_MAX);
                std::thread::sleep(backoff);
            }
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    shared: &Shared,
    coalescer: &Coalescer,
    shard: &xbar_obs::MetricsShard,
) {
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    // Sessions this connection attached, detached when it goes away so
    // their admission slots free up (state persists for resume).
    let mut attached: Vec<String> = Vec::new();
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let response = {
            let _span = xbar_obs::span(names::SPAN_SERVE_REQUEST);
            match serde_json::from_str::<Request>(&line) {
                Ok(request) => handle_request(&request, shared, coalescer, &mut attached),
                Err(e) => Response::failure("?", codes::USAGE, format!("bad request: {e}")),
            }
        };
        record_request_metrics(shard, &response, started);
        let Ok(mut line) = serde_json::to_string(&response) else {
            break;
        };
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
    }
    let mut sessions = shared.sessions.lock().expect("sessions lock");
    for id in attached {
        sessions.detach(&id);
    }
}

/// Records the live-metrics view of one handled request: a request
/// counter, end-to-end latency, per-code rejection counters, and — for
/// successful queries — the per-victim query count. Attribution is by
/// the victim the request resolved to ([`SERVER_SCOPE`] when it never
/// resolved one: stats/shutdown ops, usage errors, unknown sessions).
fn record_request_metrics(shard: &xbar_obs::MetricsShard, response: &Response, started: Instant) {
    let victim = response
        .status
        .as_ref()
        .map_or(SERVER_SCOPE, |status| status.victim.as_str());
    shard.counter_add(victim, names::SERVE_REQUESTS, 1);
    shard.record(
        victim,
        names::SERVE_REQUEST_NS,
        started.elapsed().as_nanos() as u64,
    );
    if response.ok {
        if response.op == "query" {
            let queries = response.records.as_ref().map_or(0, Vec::len) as u64;
            shard.counter_add(victim, names::SERVE_QUERIES, queries);
        }
    } else if let Some(code) = &response.code {
        let name = format!("{}{code}", names::SERVE_REJECT_PREFIX);
        shard.counter_add(victim, &name, 1);
    }
}

fn handle_request(
    request: &Request,
    shared: &Shared,
    coalescer: &Coalescer,
    attached: &mut Vec<String>,
) -> Response {
    let op = request.op.as_str();
    let draining = shared.shutdown.load(Ordering::SeqCst);
    match op {
        // `stats` is read-only and consumes no budget or admission
        // slot, so it is answered unconditionally — before the drain
        // check (operators scrape *during* drain to watch it finish)
        // and regardless of session-table occupancy.
        "stats" => {
            let snapshot = shared.scrape(coalescer);
            match request.format.as_deref() {
                Some("prom") => Response::success(op).with_text(snapshot.to_prometheus()),
                None | Some("json") => {
                    Response::success(op).with_stats(json_to_value(&snapshot.to_json()))
                }
                Some(other) => Response::failure(
                    op,
                    codes::USAGE,
                    format!("unknown stats format {other:?} (expected \"json\" or \"prom\")"),
                ),
            }
        }
        "hello" if draining => Response::failure(op, codes::SHUTTING_DOWN, "server is draining"),
        "query" if draining => Response::failure(op, codes::SHUTTING_DOWN, "server is draining"),
        "hello" => {
            let Some(id) = request.session.as_deref() else {
                return Response::failure(op, codes::USAGE, "hello requires a session id");
            };
            let opened = shared.sessions.lock().expect("sessions lock").open(
                id,
                request.victim.as_deref(),
                request.seed,
                request.budget,
                &shared.registry,
            );
            match opened {
                Ok(status) => {
                    if !attached.iter().any(|a| a == id) {
                        attached.push(id.to_string());
                    }
                    Response::success(op).with_status(status)
                }
                Err(reject) => {
                    if reject.code == codes::SESSION_TABLE_FULL {
                        xbar_obs::count(names::SERVE_ADMISSION_REJECT, 1);
                    }
                    Response::failure(op, reject.code, reject.message)
                }
            }
        }
        "query" => handle_query(request, shared, coalescer),
        "close" => {
            let Some(id) = request.session.as_deref() else {
                return Response::failure(op, codes::USAGE, "close requires a session id");
            };
            attached.retain(|a| a != id);
            match shared.sessions.lock().expect("sessions lock").detach(id) {
                Some(status) => Response::success(op).with_status(status),
                None => Response::failure(op, codes::UNKNOWN_SESSION, format!("no session {id:?}")),
            }
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::success(op)
        }
        other => Response::failure(other, codes::USAGE, format!("unknown op {other:?}")),
    }
}

fn handle_query(request: &Request, shared: &Shared, coalescer: &Coalescer) -> Response {
    let op = "query";
    let Some(id) = request.session.as_deref() else {
        return Response::failure(op, codes::USAGE, "query requires a session id");
    };
    let Some(inputs) = request.inputs.as_ref().filter(|inputs| !inputs.is_empty()) else {
        return Response::failure(op, codes::USAGE, "query requires non-empty inputs");
    };
    let count = inputs.len() as u64;

    // Reservation and enqueue happen under the session lock so a
    // session's query indices are assigned exactly once, in order, even
    // if two connections drive the same session.
    let reply_rx: mpsc::Receiver<std::result::Result<_, String>>;
    let status;
    {
        let mut sessions = shared.sessions.lock().expect("sessions lock");
        let Some(current) = sessions.status(id) else {
            return Response::failure(op, codes::UNKNOWN_SESSION, format!("no session {id:?}"));
        };
        let Some(oracle) = shared.registry.get(&current.victim) else {
            return Response::failure(
                op,
                codes::UNKNOWN_VICTIM,
                format!("victim {:?} is not hosted here", current.victim),
            );
        };
        let dim = oracle.num_inputs();
        if let Some(bad) = inputs.iter().find(|u| u.len() != dim) {
            return Response::failure(
                op,
                codes::USAGE,
                format!("input has {} elements, victim takes {dim}", bad.len()),
            );
        }
        status = match sessions.reserve(id, count) {
            Ok(status) => status,
            Err(reject) => return Response::failure(op, reject.code, reject.message),
        };
        let base = status.used - count;
        let keys: Vec<QueryKey> = (0..count)
            .map(|i| QueryKey::new(status.seed, base + i))
            .collect();
        let (reply_tx, rx) = mpsc::channel();
        reply_rx = rx;
        let job = Job {
            oracle,
            victim: current.victim.clone(),
            inputs: inputs.clone(),
            keys,
            reply: reply_tx,
        };
        if coalescer.enqueue(job).is_err() {
            // Nothing was (or will be) evaluated: roll the reservation
            // back so backpressure consumes no budget.
            sessions.unreserve(id, count);
            return Response::failure(op, codes::BUSY, "evaluation queue is full, retry");
        }
    }

    match reply_rx.recv() {
        Ok(Ok(observations)) => {
            let base = status.used - count;
            let records = observations
                .into_iter()
                .enumerate()
                .map(|(i, observation)| xbar_core::oracle::QueryRecord {
                    index: base + i as u64,
                    observation,
                })
                .collect();
            Response::success(op)
                .with_status(status)
                .with_records(records)
        }
        Ok(Err(message)) => Response::failure(op, codes::INTERNAL, message),
        Err(_) => Response::failure(op, codes::SHUTTING_DOWN, "evaluation aborted by shutdown"),
    }
}
