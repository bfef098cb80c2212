//! The cross-session batch coalescer.
//!
//! Sessions enqueue evaluation jobs; a pool of worker threads drains
//! the queue. A worker blocks for one job, then takes whatever other
//! sessions' jobs are *already* queued — up to `MAX_BATCH` (256)
//! samples — and evaluates them together. It never waits for more
//! work: a lone job is evaluated at once, and batches form under load
//! because jobs pile up while the workers are busy evaluating. Jobs for
//! different victims never share a batch; jobs for the same victim do,
//! which is where the throughput comes from: the `Blocked` backend
//! materialises the victim's effective weights and line conductances
//! once per batch, so a batch carrying 64 sessions' queries costs
//! barely more than one session's.
//!
//! Correctness does not depend on what lands in a batch: every sample
//! carries its own [`QueryKey`] and
//! [`Oracle::observe_batch_keyed`] draws each sample's noise from its
//! key's stream, so results are bit-identical however jobs are grouped
//! — the property the solo-vs-interleaved integration test pins down.
//!
//! Shutdown is by sender-drop: workers block on the queue until every
//! [`Coalescer`] clone is gone, then drain what remains and exit —
//! in-flight jobs are always answered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use xbar_core::oracle::{Observation, Oracle, QueryKey};
use xbar_obs::names;
use xbar_obs::MetricsShard;

use crate::metrics::ServeMetrics;

/// One evaluation job: a contiguous slice of one session's reserved
/// queries, plus the channel its observations go back on.
pub struct Job {
    /// The deployed victim the queries target.
    pub oracle: Arc<Oracle>,
    /// Registry name of the victim (batches group by this).
    pub victim: String,
    /// Query inputs, one per sample.
    pub inputs: Vec<Vec<f64>>,
    /// Per-sample noise keys, parallel to `inputs`.
    pub keys: Vec<QueryKey>,
    /// Where the observations (or an evaluation error) are delivered.
    pub reply: mpsc::Sender<std::result::Result<Vec<Observation>, String>>,
}

/// A [`Job`] plus the instant it entered the queue, so the dequeuing
/// worker can attribute queue-wait latency to the job's victim.
struct QueuedJob {
    job: Job,
    enqueued: Instant,
}

/// Most samples a worker takes off the queue for one flush.
const MAX_BATCH: usize = 256;

/// Handle for enqueuing jobs onto the worker pool. Clone one per
/// connection; drop every clone (and the pool's own) to initiate drain.
#[derive(Clone)]
pub struct Coalescer {
    tx: mpsc::Sender<QueuedJob>,
    inflight: Arc<AtomicUsize>,
    max_inflight: usize,
}

impl Coalescer {
    /// Tries to enqueue `job`, enforcing the in-flight sample cap.
    ///
    /// Returns `Err(job)` (backpressure — nothing enqueued, nothing
    /// consumed downstream) when the queue already holds
    /// `max_inflight` samples or the pool is gone.
    pub fn enqueue(&self, job: Job) -> std::result::Result<(), Job> {
        let samples = job.inputs.len();
        // Optimistic reservation: bump, then back out on overflow. Two
        // racing enqueues can both back out slightly early, which errs
        // on the side of shedding load — acceptable for a cap.
        let occupied = self.inflight.fetch_add(samples, Ordering::SeqCst);
        if occupied + samples > self.max_inflight {
            self.inflight.fetch_sub(samples, Ordering::SeqCst);
            return Err(job);
        }
        let queued = QueuedJob {
            job,
            enqueued: Instant::now(),
        };
        match self.tx.send(queued) {
            Ok(()) => Ok(()),
            Err(mpsc::SendError(queued)) => {
                self.inflight.fetch_sub(samples, Ordering::SeqCst);
                Err(queued.job)
            }
        }
    }

    /// Samples currently enqueued-but-unevaluated (the backpressure
    /// level) — scraped as the `serve.inflight` gauge.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }
}

/// The worker pool: owns the threads and the sending half handed to
/// connections via [`WorkerPool::coalescer`].
pub struct WorkerPool {
    coalescer: Option<Coalescer>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` evaluation threads. `max_inflight` caps queued
    /// samples across the pool (backpressure); `metrics`, when given,
    /// receives the pool's live metrics (each worker records into its
    /// own shard).
    pub fn start(workers: usize, max_inflight: usize, metrics: Option<&ServeMetrics>) -> Self {
        let (tx, rx) = mpsc::channel::<QueuedJob>();
        let rx = Arc::new(Mutex::new(rx));
        let inflight = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers.max(1))
            .map(|index| {
                let rx = Arc::clone(&rx);
                let inflight = Arc::clone(&inflight);
                let shard = metrics.map(|m| m.worker_shard(index));
                std::thread::spawn(move || worker_loop(&rx, &inflight, shard.as_deref()))
            })
            .collect();
        WorkerPool {
            coalescer: Some(Coalescer {
                tx,
                inflight,
                max_inflight,
            }),
            workers: handles,
        }
    }

    /// A cloneable enqueue handle.
    pub fn coalescer(&self) -> Coalescer {
        self.coalescer.clone().expect("pool not yet shut down")
    }

    /// Drains and joins the pool: in-flight jobs are evaluated and
    /// answered first. Callers must drop every [`Coalescer`] clone they
    /// handed out, or this blocks until those clones die.
    pub fn shutdown(mut self) {
        self.coalescer.take();
        for handle in self.workers.drain(..) {
            crate::join_reporting(handle, "evaluation worker");
        }
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<QueuedJob>>,
    inflight: &AtomicUsize,
    shard: Option<&MetricsShard>,
) {
    loop {
        // One worker at a time owns the receiver, from blocking recv
        // through draining what is already queued; it releases before
        // evaluating, so dequeueing serialises while evaluation
        // parallelises. The lock holder never waits for work beyond the
        // first job — it stops at an empty queue or at MAX_BATCH
        // samples — so waiters queue behind one drain at most.
        let (queued, samples) = {
            let queue = rx.lock().expect("queue lock");
            // Every sender gone: drained, exit.
            let Ok(first) = queue.recv() else { return };
            let mut samples = first.job.inputs.len();
            let mut queued = vec![first];
            while samples < MAX_BATCH {
                let Ok(job) = queue.try_recv() else { break };
                samples += job.job.inputs.len();
                queued.push(job);
            }
            (queued, samples)
        };
        if let Some(shard) = shard {
            // Flush reason: did the batch fill, or did the queue run dry
            // before the cap?
            let reason = if samples >= MAX_BATCH {
                names::SERVE_FLUSH_SIZE
            } else {
                names::SERVE_FLUSH_DEADLINE
            };
            shard.counter_add(xbar_obs::metrics::SERVER_SCOPE, reason, 1);
            let now = Instant::now();
            for q in &queued {
                let wait = now.saturating_duration_since(q.enqueued);
                shard.record(
                    &q.job.victim,
                    names::SERVE_QUEUE_WAIT_NS,
                    wait.as_nanos() as u64,
                );
            }
        }
        let jobs: Vec<Job> = queued.into_iter().map(|q| q.job).collect();
        evaluate(&jobs, shard);
        inflight.fetch_sub(samples, Ordering::SeqCst);
    }
}

/// Evaluates a flush group: one keyed batch per victim, results split
/// back per job.
fn evaluate(jobs: &[Job], shard: Option<&MetricsShard>) {
    // Group job indices by victim name, preserving arrival order.
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|(name, _)| *name == job.victim) {
            Some((_, members)) => members.push(i),
            None => groups.push((&job.victim, vec![i])),
        }
    }
    for (victim, members) in &groups {
        let oracle = &jobs[members[0]].oracle;
        let mut inputs: Vec<&[f64]> = Vec::new();
        let mut keys: Vec<QueryKey> = Vec::new();
        for &i in members {
            inputs.extend(jobs[i].inputs.iter().map(Vec::as_slice));
            keys.extend_from_slice(&jobs[i].keys);
        }
        if let Some(shard) = shard {
            // The occupancy histogram's *sum* is the total samples
            // evaluated for this victim (deterministic); its count and
            // spread describe how coalescing happened to batch them.
            shard.record(victim, names::SERVE_FLUSH_OCCUPANCY, inputs.len() as u64);
        }
        match oracle.observe_batch_keyed(&inputs, &keys) {
            Ok(mut observations) => {
                for &i in members {
                    let take = jobs[i].inputs.len();
                    let rest = observations.split_off(take);
                    let own = std::mem::replace(&mut observations, rest);
                    let _ = jobs[i].reply.send(Ok(own));
                }
            }
            Err(e) => {
                for &i in members {
                    let _ = jobs[i].reply.send(Err(e.to_string()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::oracle::OracleConfig;
    use xbar_crossbar::power::PowerModel;
    use xbar_linalg::Matrix;
    use xbar_nn::activation::Activation;
    use xbar_nn::network::SingleLayerNet;

    fn victim() -> Arc<Oracle> {
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let cfg = OracleConfig::ideal().with_power(PowerModel::default().with_noise(0.05));
        Arc::new(Oracle::new(net, &cfg, 77).unwrap())
    }

    fn job(
        oracle: &Arc<Oracle>,
        seed: u64,
        base: u64,
        inputs: Vec<Vec<f64>>,
    ) -> (
        Job,
        mpsc::Receiver<std::result::Result<Vec<Observation>, String>>,
    ) {
        let (reply, rx) = mpsc::channel();
        let keys = (0..inputs.len() as u64)
            .map(|i| QueryKey::new(seed, base + i))
            .collect();
        (
            Job {
                oracle: Arc::clone(oracle),
                victim: "toy".to_string(),
                inputs,
                keys,
                reply,
            },
            rx,
        )
    }

    #[test]
    fn coalesced_results_match_direct_keyed_evaluation() {
        let oracle = victim();
        let pool = WorkerPool::start(2, 1024, None);
        let coalescer = pool.coalescer();
        let inputs_a = vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]];
        let inputs_b = vec![vec![-0.1, 0.7, 0.0]];
        let (job_a, rx_a) = job(&oracle, 1, 0, inputs_a.clone());
        let (job_b, rx_b) = job(&oracle, 2, 5, inputs_b.clone());
        coalescer.enqueue(job_a).map_err(|_| ()).unwrap();
        coalescer.enqueue(job_b).map_err(|_| ()).unwrap();
        let got_a = rx_a.recv().unwrap().unwrap();
        let got_b = rx_b.recv().unwrap().unwrap();
        drop(coalescer);
        pool.shutdown();

        let refs_a: Vec<&[f64]> = inputs_a.iter().map(Vec::as_slice).collect();
        let want_a = oracle
            .observe_batch_keyed(&refs_a, &[QueryKey::new(1, 0), QueryKey::new(1, 1)])
            .unwrap();
        assert_eq!(got_a, want_a);
        let refs_b: Vec<&[f64]> = inputs_b.iter().map(Vec::as_slice).collect();
        let want_b = oracle
            .observe_batch_keyed(&refs_b, &[QueryKey::new(2, 5)])
            .unwrap();
        assert_eq!(got_b, want_b);
    }

    #[test]
    fn backpressure_rejects_without_losing_jobs() {
        let oracle = victim();
        // One worker, tiny in-flight cap.
        let pool = WorkerPool::start(1, 2, None);
        let coalescer = pool.coalescer();
        let (job_big, _rx) = job(&oracle, 1, 0, vec![vec![0.0; 3]; 3]);
        // 3 samples > cap of 2: rejected, job returned intact.
        let rejected = coalescer.enqueue(job_big).unwrap_err();
        assert_eq!(rejected.inputs.len(), 3);
        // Within the cap still works.
        let (job_ok, rx) = job(&oracle, 1, 0, vec![vec![0.0; 3]; 2]);
        coalescer.enqueue(job_ok).map_err(|_| ()).unwrap();
        assert!(rx.recv().unwrap().is_ok());
        drop(coalescer);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let oracle = victim();
        let pool = WorkerPool::start(1, 4096, None);
        let coalescer = pool.coalescer();
        let receivers: Vec<_> = (0..32)
            .map(|i| {
                let (j, rx) = job(&oracle, i, 0, vec![vec![0.1, 0.1, 0.1]]);
                coalescer.enqueue(j).map_err(|_| ()).unwrap();
                rx
            })
            .collect();
        drop(coalescer);
        pool.shutdown();
        for rx in receivers {
            assert!(rx.recv().unwrap().is_ok(), "job dropped during drain");
        }
    }
}
