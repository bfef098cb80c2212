//! `serve_paper`: open-loop NDJSON traffic over loopback to an
//! in-process `xbar_serve::Server` running `ServeConfig::default()` with
//! the session journal on. The server hosts two power-only victims (the
//! paper's attacker model): digits 784×10 and objects 3072×10, at 3:1
//! traffic.
//!
//! Load comes from `nproc` lanes, each one thread and at most one
//! connection at a time. A lane runs sessions back to back — connect,
//! `hello`, one 64-input probe (the paper's one-hot column probe), single
//! dense queries, `close`, disconnect — pipelining requests on the
//! connection. Arrivals follow a seeded Poisson schedule; every request
//! line is serialized before timing starts, and latency runs from when a
//! request was due, so a lagging generator cannot hide queueing.
//!
//! Phases: `low` and `high` at fixed rates, then a fixed ascending rate
//! ladder for `max_qps`. Each phase gets a fresh server (so its `stats`
//! scrape covers that phase alone) and a fresh journal.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess, QueryKey, QueryRecord};
use xbar_crossbar::backend::BackendKind;
use xbar_crossbar::power::PowerModel;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_serve::{Client, Request, Response, ServeConfig, Server, VictimRegistry};

use crate::host;
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

/// p99 limit a ladder rung must meet to count towards `max_qps`.
const RUNG_P99_LIMIT_MS: f64 = 20.0;
/// A low/high phase whose generator lag p99 exceeds the latency limit
/// is flagged as having fallen behind its schedule.
const BEHIND_LAG_MS: f64 = RUNG_P99_LIMIT_MS;
const PROBE_INPUTS: usize = 64;
/// Stretches a phase is cut into for its p99 as a ladder rung (see
/// [`PhaseRun::windowed_quantile_ms`]).
const TAIL_WINDOWS: usize = 5;

/// Phase sizes, as shares of `--seconds`, and session length.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub low_share: f64,
    pub high_share: f64,
    /// A ladder rung lasts until it has scheduled this many queries, so
    /// its p99 has at least ten samples beyond it.
    pub rung_queries: f64,
    pub queries_per_session: usize,
    /// Set-up is timed in `setup_blocks` blocks of `setup_block_reps`
    /// repetitions (see [`run_plan`]).
    pub setup_blocks: usize,
    pub setup_block_reps: usize,
}

pub const FULL: Plan = Plan {
    low_share: 0.4,
    high_share: 0.3,
    rung_queries: 1500.0,
    queries_per_session: 64,
    setup_blocks: 7,
    setup_block_reps: 5,
};

const VICTIMS: [(&str, usize); 2] = [("digits", 784), ("objects", 3072)];

/// The two deployed victims, kept so each phase's registry (and the
/// correctness check) uses the same hardware.
struct Victims {
    oracles: Vec<(&'static str, Arc<Oracle>)>,
}

impl Victims {
    fn deploy(seed: u64) -> Result<Self, String> {
        let mut oracles = Vec::new();
        for (i, (name, inputs)) in VICTIMS.into_iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x5E7E + i as u64));
            let net = SingleLayerNet::new_random(inputs, 10, Activation::Softmax, &mut rng);
            let config = OracleConfig::ideal()
                .with_access(OutputAccess::None)
                .with_backend(BackendKind::Blocked)
                .with_power(PowerModel::default().with_noise(0.05));
            let oracle = Oracle::new(net, &config, seed ^ 0x0AC1E).map_err(|e| e.to_string())?;
            oracles.push((name, Arc::new(oracle)));
        }
        Ok(Victims { oracles })
    }

    fn get(&self, name: &str) -> &Oracle {
        &self
            .oracles
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known victim")
            .1
    }

    fn registry(&self) -> Result<VictimRegistry, String> {
        let mut registry = VictimRegistry::new();
        for (name, oracle) in &self.oracles {
            registry
                .insert(name, Oracle::clone(oracle))
                .map_err(|e| e.to_string())?;
        }
        Ok(registry)
    }
}

fn journal_path(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("serve-journal-{}-{tag}.jsonl", std::process::id()))
}

fn start_server(victims: &Victims, journal: &PathBuf) -> Result<Server, String> {
    let _ = std::fs::remove_file(journal);
    let config = ServeConfig {
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", victims.registry()?, config).map_err(|e| e.to_string())
}

/// One `hello`, query and `close` per victim.
fn warm(server: &Server) -> Result<(), String> {
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for (i, (name, dim)) in VICTIMS.into_iter().enumerate() {
        let id = format!("setup-{i}");
        client
            .hello(&id, Some(name), Some(i as u64), None)
            .map_err(|e| e.to_string())?;
        client
            .query(&id, &[vec![0.5; dim]])
            .map_err(|e| e.to_string())?;
        client.close(&id).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hello,
    Probe,
    Query,
    Close,
}

struct PlannedRequest {
    kind: Kind,
    due: Duration,
    line: Vec<u8>,
}

struct SessionPlan {
    victim: &'static str,
    seed: u64,
    /// Where the session's one-hot probe starts.
    probe_offset: usize,
    /// Seeds the session's query inputs (regenerated for the check
    /// rather than kept in memory).
    input_seed: u64,
    queries: usize,
    requests: Vec<PlannedRequest>,
}

impl SessionPlan {
    /// Probe inputs then query inputs, in query-index order.
    fn inputs(&self) -> Vec<Vec<f64>> {
        let dim = VICTIMS
            .iter()
            .find(|v| v.0 == self.victim)
            .expect("known victim")
            .1;
        let mut inputs: Vec<Vec<f64>> = (0..PROBE_INPUTS)
            .map(|j| {
                let mut e = vec![0.0; dim];
                e[(self.probe_offset + j) % dim] = 1.0;
                e
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.input_seed);
        inputs.extend((0..self.queries).map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect()));
        inputs
    }
}

/// What one request got back.
struct RequestOutcome {
    kind: Kind,
    due: Duration,
    sent: Duration,
    done: Duration,
    response: Option<Response>,
}

impl RequestOutcome {
    fn ok(&self) -> bool {
        self.response.as_ref().is_some_and(|r| r.ok)
    }

    fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn line(request: &Request) -> Vec<u8> {
    let mut line = serde_json::to_string(request).expect("requests serialize");
    line.push('\n');
    line.into_bytes()
}

/// `n` arrival offsets of a Poisson process conditioned on `n`
/// arrivals in `[0, seconds]`.
fn arrivals(n: usize, seconds: f64, rng: &mut ChaCha8Rng) -> Vec<Duration> {
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.gen::<f64>()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            at += g;
            Duration::from_secs_f64(seconds * at / total)
        })
        .collect()
}

/// The serialized sessions of one lane for one phase.
fn plan_lane(
    rate: f64,
    seconds: f64,
    lane: usize,
    lanes: usize,
    phase_key: u64,
    plan: Plan,
) -> Vec<SessionPlan> {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(phase_key, lane as u64));
    let n = ((rate * seconds / lanes as f64).round() as usize).max(1);
    let times = arrivals(n, seconds, &mut rng);
    let mut sessions = Vec::new();
    let mut previous = Duration::ZERO;
    for (k, chunk) in times.chunks(plan.queries_per_session).enumerate() {
        // Query offsets run from the end of the session's setup and keep
        // the schedule's gaps, including the one before the first query.
        let offsets: Vec<Duration> = chunk.iter().map(|&t| t - previous).collect();
        previous = *chunk.last().expect("non-empty chunk");
        let ordinal = k * lanes + lane;
        let (victim, dim) = VICTIMS[usize::from(ordinal % 4 == 3)];
        let seed = mix(phase_key ^ 0x5E55, ordinal as u64);
        let id = format!("{phase_key:x}-{lane}-{k}");
        let mut session = SessionPlan {
            victim,
            seed,
            probe_offset: (k * PROBE_INPUTS) % dim,
            input_seed: mix(seed, 0x1A9E),
            queries: chunk.len(),
            requests: Vec::with_capacity(chunk.len() + 3),
        };
        let inputs = session.inputs();

        let mut hello = Request::new("hello");
        hello.session = Some(id.clone());
        hello.victim = Some(victim.to_string());
        hello.seed = Some(seed);
        let query = |inputs: &[Vec<f64>]| {
            let mut q = Request::new("query");
            q.session = Some(id.clone());
            q.inputs = Some(inputs.to_vec());
            line(&q)
        };
        let mut close = Request::new("close");
        close.session = Some(id.clone());
        let mut requests = vec![
            PlannedRequest {
                kind: Kind::Hello,
                due: Duration::ZERO,
                line: line(&hello),
            },
            PlannedRequest {
                kind: Kind::Probe,
                due: Duration::ZERO,
                line: query(&inputs[..PROBE_INPUTS]),
            },
        ];
        for (i, &due) in offsets.iter().enumerate() {
            requests.push(PlannedRequest {
                kind: Kind::Query,
                due,
                line: query(&inputs[PROBE_INPUTS + i..PROBE_INPUTS + i + 1]),
            });
        }
        requests.push(PlannedRequest {
            kind: Kind::Close,
            due: *offsets.last().expect("non-empty chunk"),
            line: line(&close),
        });
        session.requests = requests;
        sessions.push(session);
    }
    sessions
}

/// Sleeps until `due` (returns at once if it has passed).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one session on its own connection: `hello` and the probe are
/// closed-loop (the attacker needs the probe's norms before it crafts
/// queries), the single queries are open-loop at their due times and
/// pipelined, and `close` follows the last reply. A reader thread takes
/// the replies off the connection as they arrive.
fn run_session(
    addr: SocketAddr,
    session: &SessionPlan,
    t0: Instant,
    quickack: bool,
) -> Result<Vec<RequestOutcome>, String> {
    let since = |t: Instant| t.saturating_duration_since(t0);
    let mut writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    writer.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = writer.try_clone().map_err(|e| e.to_string())?;
    let n = session.requests.len();
    let (tx, rx) = mpsc::channel::<usize>();
    std::thread::scope(|scope| {
        let reader = scope.spawn(
            move || -> Result<Vec<(Duration, Option<Response>)>, String> {
                let mut reader = BufReader::new(read_half);
                let mut replies = Vec::with_capacity(n);
                let mut line = String::new();
                for i in 0..n {
                    line.clear();
                    if quickack {
                        reader
                            .get_ref()
                            .set_quickack(true)
                            .map_err(|e| e.to_string())?;
                    }
                    if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                        return Err("server closed the connection".into());
                    }
                    replies.push((
                        since(Instant::now()),
                        serde_json::from_str::<Response>(line.trim()).ok(),
                    ));
                    let _ = tx.send(i);
                }
                Ok(replies)
            },
        );
        let mut received = 0usize;
        let mut wait_for = |count: usize| -> Result<(), String> {
            while received < count {
                rx.recv_timeout(Duration::from_secs(60))
                    .map_err(|_| "timed out waiting for a reply".to_string())?;
                received += 1;
            }
            Ok(())
        };
        // Sent time and (for queries) absolute due time of each request;
        // query offsets count from the moment the probe's reply arrived.
        let mut sent = Vec::with_capacity(n);
        let mut due = Vec::with_capacity(n);
        let mut epoch = Instant::now();
        let mut drive = || -> Result<(), String> {
            for (i, request) in session.requests.iter().enumerate() {
                if request.kind == Kind::Close {
                    wait_for(i)?;
                }
                let at = if request.kind == Kind::Query {
                    let at = epoch + request.due;
                    sleep_until(at);
                    Some(at)
                } else {
                    None
                };
                writer.write_all(&request.line).map_err(|e| e.to_string())?;
                let now = Instant::now();
                sent.push(since(now));
                due.push(since(at.unwrap_or(now)));
                if matches!(request.kind, Kind::Hello | Kind::Probe) {
                    wait_for(i + 1)?;
                    epoch = Instant::now();
                }
            }
            Ok(())
        };
        let driven = drive();
        if driven.is_err() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let replies = reader.join().map_err(|_| "reader panicked".to_string())?;
        driven?;
        let replies = replies?;
        Ok(session
            .requests
            .iter()
            .zip(sent.into_iter().zip(due))
            .zip(replies)
            .map(
                |((request, (sent, due)), (done, response))| RequestOutcome {
                    kind: request.kind,
                    due,
                    sent,
                    done,
                    response,
                },
            )
            .collect())
    })
}

/// The scopes (one per victim, plus the server's) of a `stats` reply.
fn scopes(stats: &serde::Value) -> impl Iterator<Item = &serde::Value> {
    stats
        .get("victims")
        .and_then(|v| v.as_object())
        .unwrap_or(&[])
        .iter()
        .map(|(_, scope)| scope)
}

/// Merged histogram buckets `(upper bound, count)` of `metric` across
/// every scope of a `stats` reply.
fn buckets(stats: &serde::Value, metric: &str) -> Vec<(f64, u64)> {
    let mut out = Vec::new();
    for scope in scopes(stats) {
        let Some(list) = scope
            .get("histograms")
            .and_then(|h| h.get(metric))
            .and_then(|h| h.get("buckets"))
            .and_then(|b| b.as_array())
        else {
            continue;
        };
        for pair in list {
            if let Some([le, count]) = pair.as_array() {
                if let (Some(le), Some(count)) = (num(le), num(count)) {
                    out.push((le, count as u64));
                }
            }
        }
    }
    out
}

fn num(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::U64(x) => Some(*x as f64),
        serde::Value::I64(x) => Some(*x as f64),
        serde::Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Counter `name` summed across every scope.
fn counter(stats: &serde::Value, name: &str) -> f64 {
    scopes(stats)
        .filter_map(|scope| scope.get("counters")?.get(name).and_then(num))
        .sum()
}

/// The exact `field` (`sum` or `count`) of histogram `metric`, summed
/// across every scope.
fn histogram_total(stats: &serde::Value, metric: &str, field: &str) -> f64 {
    scopes(stats)
        .filter_map(|scope| {
            scope
                .get("histograms")?
                .get(metric)?
                .get(field)
                .and_then(num)
        })
        .sum()
}

/// Quantile of merged log buckets (growth 2^(1/4)): the geometric
/// midpoint of the bucket holding the `q` rank.
fn bucket_quantile(buckets: &[(f64, u64)], q: f64) -> f64 {
    let mut merged = buckets.to_vec();
    merged.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = merged.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (le, count) in &merged {
        seen += count;
        if seen >= rank {
            return le * 2f64.powf(-0.125);
        }
    }
    merged.last().map_or(0.0, |b| b.0)
}

/// One phase's results.
struct PhaseRun {
    rate: f64,
    sessions: Vec<SessionPlan>,
    outcomes: Vec<Vec<RequestOutcome>>,
    stats: serde::Value,
    fds_delta: f64,
    rss_delta_mb: f64,
    t0: Instant,
    wall_s: f64,
}

impl PhaseRun {
    fn all(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.outcomes.iter().flatten()
    }

    fn query_latencies_ms(&self) -> Vec<f64> {
        self.all()
            .filter(|o| o.kind == Kind::Query)
            .map(RequestOutcome::latency_ms)
            .collect()
    }

    /// The median over `windows` consecutive stretches of the phase (by
    /// due time) of each stretch's `q`-quantile of single-query latency:
    /// a host hiccup confined to one stretch moves only that stretch.
    fn windowed_quantile_ms(&self, q: f64, windows: usize) -> f64 {
        let mut timed: Vec<(Duration, f64)> = self
            .all()
            .filter(|o| o.kind == Kind::Query)
            .map(|o| (o.due, o.latency_ms()))
            .collect();
        timed.sort_by_key(|t| t.0);
        let per = timed.len().div_ceil(windows.max(1)).max(1);
        let stretches: Vec<f64> = timed
            .chunks(per)
            .map(|chunk| quantile(&chunk.iter().map(|t| t.1).collect::<Vec<_>>(), q))
            .collect();
        median(&stretches)
    }

    fn failed(&self) -> usize {
        self.all().filter(|o| !o.ok()).count()
    }

    /// Requests sent, succeeded and failed.
    fn counts(&self) -> String {
        let sent = self.all().count();
        let failed = self.failed();
        format!("{sent} sent, {} succeeded, {failed} failed,", sent - failed)
    }

    fn lags_ms(&self) -> Vec<f64> {
        self.all().map(RequestOutcome::lag_ms).collect()
    }

    /// Completed single queries per second of phase wall time.
    fn achieved_qps(&self) -> f64 {
        self.all()
            .filter(|o| o.kind == Kind::Query && o.ok())
            .count() as f64
            / self.wall_s
    }

    /// Whether queueing grew over the phase: the last quarter's mean
    /// latency more than doubles the first quarter's (plus 2 ms).
    fn backlog_grew(&self) -> bool {
        let mut timed: Vec<(Duration, f64)> = self
            .all()
            .filter(|o| o.kind == Kind::Query)
            .map(|o| (o.due, o.latency_ms()))
            .collect();
        timed.sort_by_key(|t| t.0);
        let quarter = timed.len() / 4;
        if quarter == 0 {
            return false;
        }
        let head: Vec<f64> = timed[..quarter].iter().map(|t| t.1).collect();
        let tail: Vec<f64> = timed[timed.len() - quarter..].iter().map(|t| t.1).collect();
        mean(&tail) > 2.0 * mean(&head) + 2.0
    }
}

fn run_phase(
    victims: &Victims,
    rate: f64,
    seconds: f64,
    phase_key: u64,
    plan: Plan,
    quickack: bool,
) -> Result<PhaseRun, String> {
    let lanes = host::nproc();
    let lane_plans: Vec<Vec<SessionPlan>> = (0..lanes)
        .map(|lane| plan_lane(rate, seconds, lane, lanes, phase_key, plan))
        .collect();
    let journal = journal_path(&format!("{phase_key:x}"));
    let fds_before = host::open_fds() as f64;
    let rss_before = host::rss_mb();
    let server = start_server(victims, &journal)?;
    let addr = server.local_addr();
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Vec<Vec<RequestOutcome>>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lane_plans
            .iter()
            .map(|sessions| {
                // A lane runs its sessions back to back.
                scope.spawn(move || {
                    sessions
                        .iter()
                        .map(|session| run_session(addr, session, t0, quickack))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("lane panicked".into())))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let fds_delta = host::open_fds() as f64 - fds_before;
    let rss_delta_mb = host::rss_mb() - rss_before;
    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| e.to_string());
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
    let mut outcomes = Vec::new();
    for lane in results {
        outcomes.extend(lane?);
    }
    Ok(PhaseRun {
        rate,
        sessions: lane_plans.into_iter().flatten().collect(),
        outcomes,
        stats: stats?,
        fds_delta,
        rss_delta_mb,
        t0,
        wall_s,
    })
}

/// Every reply must be bit-identical to the victim's session view
/// evaluated directly on the same keys.
fn check_replies(
    victims: &Victims,
    phase: &PhaseRun,
    label: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut mismatched = 0;
    for (session, outcomes) in phase.sessions.iter().zip(&phase.outcomes) {
        let records: Vec<QueryRecord> = outcomes
            .iter()
            .filter(|o| matches!(o.kind, Kind::Probe | Kind::Query))
            .flat_map(|o| {
                o.response
                    .as_ref()
                    .and_then(|r| r.records.clone())
                    .unwrap_or_default()
            })
            .collect();
        let view = victims.get(session.victim).session_view(session.seed, None);
        let inputs = session.inputs();
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let keys: Vec<QueryKey> = (0..refs.len() as u64)
            .map(|i| QueryKey::new(session.seed, i))
            .collect();
        let expected = view
            .observe_batch_keyed(&refs, &keys)
            .map_err(|e| e.to_string())?;
        let identical = records.len() == expected.len()
            && records
                .iter()
                .zip(&expected)
                .enumerate()
                .all(|(i, (r, e))| r.index == i as u64 && r.observation == *e);
        if !identical {
            mismatched += 1;
        }
    }
    out.check(
        mismatched == 0,
        format!("serve_paper {label}: {mismatched} sessions' replies differ from direct keyed evaluation"),
    );
    Ok(())
}

/// The low and high phases of one run, and what the ladder found. A
/// rung's phase is dropped once summarized: its request lines would
/// otherwise count towards the run's peak RSS.
struct Pass {
    low: PhaseRun,
    high: PhaseRun,
    /// Requests the ladder's rungs sent, and how many of them failed.
    ladder_sent: usize,
    ladder_failed: usize,
    max_qps: f64,
}

/// How one phase fares against the `max_qps` limit.
struct Rung {
    achieved: f64,
    p99: f64,
    passed: bool,
}

impl Rung {
    fn of(phase: &PhaseRun) -> Rung {
        let p99 = phase.windowed_quantile_ms(0.99, TAIL_WINDOWS);
        // A failed request, or a growing backlog, misses the limit.
        let refused = phase.failed() > 0 || phase.backlog_grew();
        Rung {
            achieved: phase.achieved_qps(),
            p99,
            passed: !refused && p99 <= RUNG_P99_LIMIT_MS,
        }
    }
}

/// The rate at which p99 reaches the limit, from phases in ascending
/// offered rate; `None` if none of them meets it. Between the highest
/// passing phase and the one above it the rate is interpolated (p99
/// grows roughly exponentially with rate near the knee, so in log p99);
/// a refused phase above counts with its measured p99, or, if that is
/// within the limit, pins the rate to the passing phase's.
fn max_qps(rungs: &[Rung]) -> Option<f64> {
    let k = rungs.iter().rposition(|r| r.passed)?;
    let ok = &rungs[k];
    Some(match rungs.get(k + 1) {
        Some(bad) if bad.p99 > RUNG_P99_LIMIT_MS => {
            let at = (RUNG_P99_LIMIT_MS.ln() - ok.p99.ln()) / (bad.p99.ln() - ok.p99.ln());
            ok.achieved + (bad.achieved - ok.achieved) * at
        }
        _ => ok.achieved,
    })
}

fn run_pass(victims: &Victims, opts: &Opts, plan: Plan, out: &mut Outcome) -> Result<Pass, String> {
    let key = |phase: u64| mix(opts.seed, phase);
    let low = run_phase(
        victims,
        opts.low_qps,
        opts.seconds * plan.low_share,
        key(1),
        plan,
        true,
    )?;
    check_replies(victims, &low, "low", out)?;
    out.check(
        low.failed() == 0,
        format!("serve_paper low: {}", low.counts()),
    );
    let high = run_phase(
        victims,
        opts.high_qps,
        opts.seconds * plan.high_share,
        key(2),
        plan,
        true,
    )?;
    check_replies(victims, &high, "high", out)?;
    out.check(
        high.failed() == 0,
        format!("serve_paper high: {}", high.counts()),
    );
    // The low and high phases are the ladder's first two rungs. The
    // ladder climbs until two rungs in a row miss the limit, so one noisy
    // rung below the knee cannot end it.
    let mut rungs = vec![Rung::of(&low), Rung::of(&high)];
    let (mut ladder_sent, mut ladder_failed) = (0, 0);
    for (i, &rate) in opts.ladder.iter().enumerate() {
        let phase = run_phase(
            victims,
            rate,
            plan.rung_queries / rate,
            key(10 + i as u64),
            plan,
            true,
        )?;
        check_replies(victims, &phase, &format!("rung {rate}"), out)?;
        let rung = Rung::of(&phase);
        eprintln!(
            "  rung {rate} q/s: {} achieved {:.1} q/s, p99 {:.2} ms, {}",
            phase.counts(),
            rung.achieved,
            rung.p99,
            if rung.passed { "pass" } else { "fail" }
        );
        rungs.push(rung);
        ladder_sent += phase.all().count();
        ladder_failed += phase.failed();
        if rungs.iter().rev().take(2).all(|r| !r.passed) {
            break;
        }
    }
    if rungs.last().is_some_and(|r| r.passed) {
        out.notes.push(
            "serve_paper: the top ladder rung met the limit; max_qps is capped at its rate".into(),
        );
    }
    let max_qps = max_qps(&rungs);
    out.check(
        max_qps.is_some(),
        format!(
            "serve_paper: no phase met p99 <= {RUNG_P99_LIMIT_MS} ms, so max_qps is unmeasured"
        ),
    );
    Ok(Pass {
        max_qps: max_qps.unwrap_or(f64::NAN),
        low,
        high,
        ladder_sent,
        ladder_failed,
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    run_plan(opts, FULL)
}

pub fn run_plan(opts: &Opts, plan: Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    std::fs::create_dir_all(crate::out_dir()).map_err(|e| e.to_string())?;
    // Set-up: deploy both victims, start the journaled server, and take
    // one reply from each victim (so prepared handles are warm). Each
    // repetition's server is shut down, untimed, before the next starts;
    // the run keeps the last repetition's victims (deployment is a
    // function of the seed). The server's accept loop polls every 5 ms,
    // so a set-up takes one poll longer or not depending on whether the
    // loop's first poll beats the client's connect: single times are
    // bimodal, and their median flips between the modes. `setup_s` is
    // therefore the median of block means, which follow the share of
    // slow set-ups smoothly.
    let setup_journal = journal_path("setup");
    let reps = plan.setup_blocks.max(1) * plan.setup_block_reps.max(1);
    let mut setup_times = Vec::with_capacity(reps);
    let mut deployed = None;
    for _ in 0..reps {
        let start = Instant::now();
        let victims = Victims::deploy(opts.seed)?;
        let server = start_server(&victims, &setup_journal)?;
        let warmed = warm(&server);
        setup_times.push(start.elapsed().as_secs_f64());
        server.shutdown();
        let _ = std::fs::remove_file(&setup_journal);
        warmed?;
        deployed = Some(victims);
    }
    let victims = deployed.expect("at least one set-up repetition");
    let block_means: Vec<f64> = setup_times
        .chunks(plan.setup_block_reps.max(1))
        .map(mean)
        .collect();
    out.named(
        "serve_paper.setup_s",
        median(&block_means),
        "s",
        Some("setup_s"),
    );

    // Created before the pass: spans recorded after it may only start
    // after the tracer's epoch.
    let tracer = Tracer::new(opts.trace);
    let pass = run_pass(&victims, opts, plan, &mut out)?;
    report_e2e(&pass, &mut out);

    if opts.trace {
        // The client spans are built from the timestamps every pass
        // keeps anyway, so the layer figures come from the pass above
        // and no second pass is needed.
        let record_start = Instant::now();
        record_spans(&pass, &tracer);
        let record_s = record_start.elapsed().as_secs_f64();
        layer_metrics(&victims, &pass, &tracer, record_s, &mut out)?;
        // The high phase again, with a client that leaves delayed ACKs
        // on: replies the server holds back (Nagle) wait for them.
        let default_ack = run_phase(
            &victims,
            opts.high_qps,
            opts.seconds * plan.high_share,
            mix(opts.seed, 0xDE1A),
            plan,
            false,
        )?;
        check_replies(&victims, &default_ack, "high, delayed ACKs", &mut out)?;
        out.layers.insert(
            "serve.default_ack.p99_ms",
            quantile(&default_ack.query_latencies_ms(), 0.99),
        );
        let path = crate::out_dir().join(format!("trace-serve_paper-seed{}.jsonl", opts.seed));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

fn report_e2e(pass: &Pass, out: &mut Outcome) {
    out.attempted += pass.ladder_sent as u64;
    out.failed += pass.ladder_failed as u64;
    for phase in [&pass.low, &pass.high] {
        out.attempted += phase.all().count() as u64;
        out.failed += phase.failed() as u64;
    }
    let (low, high) = (
        pass.low.query_latencies_ms(),
        pass.high.query_latencies_ms(),
    );
    out.named("max_qps", pass.max_qps, "1/s", Some("rate_per_s"));
    eprintln!("  low: {} {} single queries", pass.low.counts(), low.len());
    eprintln!(
        "  high: {} {} single queries",
        pass.high.counts(),
        high.len()
    );
    out.named("low.p50_ms", median(&low), "ms", Some("light_p50_ms"));
    out.named("low.p90_ms", quantile(&low, 0.90), "ms", None);
    out.named("low.p95_ms", quantile(&low, 0.95), "ms", None);
    out.named("low.p99_ms", quantile(&low, 0.99), "ms", None);
    out.named("high.p50_ms", median(&high), "ms", Some("heavy_p50_ms"));
    out.named("high.p90_ms", quantile(&high, 0.90), "ms", None);
    out.named("high.p95_ms", quantile(&high, 0.95), "ms", None);
    out.named("high.p99_ms", quantile(&high, 0.99), "ms", None);
    out.named("low.wall_s", pass.low.wall_s, "s", Some("light_wall_s"));
    out.named("high.wall_s", pass.high.wall_s, "s", Some("heavy_wall_s"));
    out.named("low.offered_qps", pass.low.rate, "1/s", None);
    out.named("high.offered_qps", pass.high.rate, "1/s", None);
    for (label, phase) in [("low", &pass.low), ("high", &pass.high)] {
        let lag = quantile(&phase.lags_ms(), 0.99);
        if lag > BEHIND_LAG_MS {
            out.notes.push(format!(
                "serve_paper {label}: generator fell behind its schedule (lag p99 {lag:.2} ms > {BEHIND_LAG_MS} ms)"
            ));
        }
    }
}

/// Client-side spans of the low and high phases, built from the
/// timestamps `run_session` keeps: each request from due to reply
/// (`client.request`), with the generator's lag before sending as a
/// child (`gen.lag`).
fn record_spans(pass: &Pass, tracer: &Tracer) {
    let mut key = 0u64;
    for phase in [&pass.low, &pass.high] {
        for o in phase.all() {
            let at = |d: Duration| phase.t0 + d;
            let parent = tracer.record("client.request", key, None, at(o.due), at(o.done));
            tracer.record("gen.lag", key, parent, at(o.due), at(o.sent));
            key += 1;
        }
    }
}

/// Per-layer figures of the low and high phases of `pass`. `record_s`
/// is the time taken to record the pass's client spans: the tracing
/// overhead those phases would have carried had the spans been recorded
/// as the requests ran.
fn layer_metrics(
    victims: &Victims,
    pass: &Pass,
    tracer: &Tracer,
    record_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let phases = [&pass.low, &pass.high];
    let merged = |metric: &str| -> Vec<(f64, u64)> {
        phases
            .iter()
            .flat_map(|p| buckets(&p.stats, metric))
            .collect()
    };
    let counters = |name: &str| -> f64 { phases.iter().map(|p| counter(&p.stats, name)).sum() };
    let request_ns = merged("serve.request_ns");
    let queue_ns = merged("serve.queue_wait_ns");
    let occupancy = merged("serve.flush_occupancy");
    let (by_size, by_deadline) = (
        counters("serve.flush_size"),
        counters("serve.flush_deadline"),
    );

    // Wire replay: decode a sample of the recorded request lines and
    // re-encode their replies.
    let mut lines: Vec<&[u8]> = Vec::new();
    let mut replies: Vec<&Response> = Vec::new();
    for phase in phases {
        for (session, outcomes) in phase.sessions.iter().zip(&phase.outcomes) {
            for (request, o) in session.requests.iter().zip(outcomes) {
                lines.push(&request.line);
                replies.extend(o.response.as_ref());
            }
        }
    }
    let stride = (lines.len() / 400).max(1);
    let decode_start = Instant::now();
    let mut decoded = 0usize;
    for line in lines.iter().step_by(stride) {
        let text = std::str::from_utf8(&line[..line.len() - 1]).map_err(|e| e.to_string())?;
        let _span = tracer.span("serve.wire_decode", decoded as u64, None);
        serde_json::from_str::<Request>(text).map_err(|e| e.to_string())?;
        decoded += 1;
    }
    let decode_us = decode_start.elapsed().as_secs_f64() * 1e6 / decoded.max(1) as f64;
    let encode_start = Instant::now();
    let mut encoded = 0usize;
    for reply in replies.iter().step_by(stride) {
        let _span = tracer.span("serve.wire_encode", encoded as u64, None);
        serde_json::to_string(*reply).map_err(|e| e.to_string())?;
        encoded += 1;
    }
    let encode_us = encode_start.elapsed().as_secs_f64() * 1e6 / encoded.max(1) as f64;

    // Keyed evaluation replayed at the observed flush sizes, 3:1 digits
    // to objects like the traffic.
    let total: u64 = occupancy.iter().map(|b| b.1).sum();
    let mut observe_s = Vec::new();
    for &(le, count) in &occupancy {
        let size = (le * 2f64.powf(-0.125)).round().max(1.0) as usize;
        let reps = ((200 * count) as f64 / total.max(1) as f64)
            .round()
            .max(1.0) as usize;
        for r in 0..reps {
            let (name, dim) = VICTIMS[usize::from(r % 4 == 3)];
            let inputs: Vec<Vec<f64>> =
                (0..size).map(|i| vec![(i % 7) as f64 / 7.0; dim]).collect();
            let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
            let keys: Vec<QueryKey> = (0..size as u64)
                .map(|i| QueryKey::new(r as u64, i))
                .collect();
            let oracle = victims.get(name);
            let _span = tracer.span("core.observe", r as u64, None);
            let t = Instant::now();
            oracle
                .observe_batch_keyed(&refs, &keys)
                .map_err(|e| e.to_string())?;
            observe_s.push(t.elapsed().as_secs_f64());
        }
    }

    let requests: f64 = phases.iter().map(|p| p.all().count() as f64).sum();
    let failed: f64 = phases.iter().map(|p| p.failed() as f64).sum();
    let lags: Vec<f64> = phases.iter().flat_map(|p| p.lags_ms()).collect();
    let behind = phases
        .iter()
        .filter(|p| quantile(&p.lags_ms(), 0.99) > BEHIND_LAG_MS)
        .count();

    // Layer accounting over the low and high phases: client-observed
    // time is covered by generator lag (spans), the server's handler
    // time (`serve.request_ns` sum: decode, admission, journal, queue
    // wait, evaluation) and reply encoding (replayed); the rest —
    // socket transfer and waiting behind earlier pipelined requests —
    // is unattributed.
    let e2e_s = tracer.total_seconds("client.request");
    let handler_s: f64 = phases
        .iter()
        .map(|p| histogram_total(&p.stats, "serve.request_ns", "sum"))
        .sum::<f64>()
        / 1e9;
    let attributed_s = tracer.self_seconds().get("gen.lag").copied().unwrap_or(0.0)
        + handler_s
        + encode_us * 1e-6 * requests;

    let layers = &mut out.layers;
    layers.insert("serve.request_ns.p50", bucket_quantile(&request_ns, 0.5));
    layers.insert("serve.queue_wait_ns.p50", bucket_quantile(&queue_ns, 0.5));
    layers.insert("serve.queue_wait_ns.p99", bucket_quantile(&queue_ns, 0.99));
    let flushed = |field: &str| -> f64 {
        phases
            .iter()
            .map(|p| histogram_total(&p.stats, "serve.flush_occupancy", field))
            .sum()
    };
    layers.insert(
        "serve.flush_occupancy.mean",
        flushed("sum") / flushed("count").max(1.0),
    );
    layers.insert(
        "serve.flush_deadline_share",
        by_deadline / (by_size + by_deadline).max(1.0),
    );
    layers.insert(
        "serve.journal_write_ns.p99",
        bucket_quantile(&merged("serve.journal_write_ns"), 0.99),
    );
    layers.insert("serve.wire_decode_us", decode_us);
    layers.insert("serve.wire_encode_us", encode_us);
    layers.insert("serve.fds_delta", phases.iter().map(|p| p.fds_delta).sum());
    layers.insert(
        "serve.rss_delta_mb",
        phases.iter().map(|p| p.rss_delta_mb).sum(),
    );
    layers.insert("serve.failed_share", failed / requests.max(1.0));
    layers.insert("gen.lag_ms.p99", quantile(&lags, 0.99));
    layers.insert("gen.behind_phases", behind as f64);
    layers.insert("core.observe_us", mean(&observe_s) * 1e6);
    layers.insert("unattributed_share", 1.0 - attributed_s / e2e_s);
    layers.insert(
        "trace_overhead_share",
        record_s / phases.iter().map(|p| p.wall_s).sum::<f64>(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sized_run_is_correct_and_complete() {
        let opts = crate::tests::opts("serve_paper", 1.0, true);
        let plan = Plan {
            low_share: 0.3,
            high_share: 0.3,
            rung_queries: 20.0,
            queries_per_session: 8,
            setup_blocks: 1,
            setup_block_reps: 2,
        };
        let out = run_plan(&opts, plan).unwrap();
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        crate::tests::assert_slots_filled(&out);
        assert!(out.layers["serve.request_ns.p50"] > 0.0);
        assert!(out.layers["core.observe_us"] > 0.0);
    }

    #[test]
    fn max_qps_interpolates_past_the_highest_passing_rung() {
        let rung = |achieved, p99: f64| Rung {
            achieved,
            p99,
            passed: p99 <= RUNG_P99_LIMIT_MS,
        };
        assert_eq!(max_qps(&[rung(70.0, 40.0), rung(250.0, 60.0)]), None);
        assert_eq!(max_qps(&[rung(70.0, 5.0), rung(250.0, 10.0)]), Some(250.0));
        // p99 10 -> 40 ms: the 20 ms limit is halfway in log p99.
        let q = max_qps(&[rung(250.0, 10.0), rung(400.0, 40.0), rung(500.0, 90.0)]);
        assert!((q.unwrap() - 325.0).abs() < 1e-9);
        // A noisy miss below the highest passing rung does not count.
        let q = max_qps(&[rung(250.0, 30.0), rung(400.0, 10.0), rung(500.0, 10.0)]);
        assert_eq!(q, Some(500.0));
    }

    #[test]
    fn bucket_quantiles_pick_the_rank_holding_bucket() {
        let b = [(10.0, 1), (20.0, 98), (40.0, 1)];
        assert!(bucket_quantile(&b, 0.5) < 20.0 && bucket_quantile(&b, 0.5) > 10.0);
        assert!(bucket_quantile(&b, 1.0) > 20.0);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }
}
