//! `oracle_1m`: in-process attacker batches through
//! `Oracle::query_batch` against a 1024×1024 victim (1,048,576 devices)
//! with stuck-at faults, programming variation and drift, on the
//! `parallel:<nproc>` backend. A `DriftSchedule` advances every eight
//! batches, so one batch in eight re-deploys the array (fault plan
//! recompiled and re-applied) and pays `prepare` again — the write
//! beside the kernel's reads.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_core::oracle::{DriftSchedule, Observation, Oracle, OracleConfig, OutputAccess};
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::{BackendKind, BackendSpec};
use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;

use crate::host::{self, Roofline};
use crate::stats::{mean, median, median_time, quantile};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

/// Victim and batch geometry.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub outputs: usize,
    pub inputs: usize,
    pub batch: usize,
    /// Batches per drift epoch.
    pub batches_per_epoch: u64,
}

pub const FULL: Shape = Shape {
    outputs: 1024,
    inputs: 1024,
    batch: 256,
    batches_per_epoch: 8,
};

/// Drift time added per epoch.
const DRIFT_STEP: f64 = 1.0;
/// Distinct input batches cycled through the timed loop.
const INPUT_BATCHES: usize = 8;
/// Every `SAMPLE_EVERY`-th batch keeps its first `SAMPLE_INPUTS`
/// observations for the naive-backend check.
const SAMPLE_EVERY: u64 = 4;
const SAMPLE_INPUTS: usize = 4;

fn fault_spec() -> FaultSpec {
    FaultSpec::none()
        .with_stuck_on_rate(0.01)
        .with_stuck_off_rate(0.01)
        .with_variation_sigma(0.05)
        .with_drift(0.3, 0.1, 1.0)
}

/// The victim's deployment recipe: network, config and oracle seed.
struct Victim {
    net: SingleLayerNet,
    config: OracleConfig,
    seed: u64,
}

impl Victim {
    fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net =
            SingleLayerNet::new_random(shape.inputs, shape.outputs, Activation::Identity, &mut rng);
        let backend = BackendSpec::new(BackendKind::Parallel).with_threads(host::nproc());
        let config = OracleConfig::ideal()
            .with_access(OutputAccess::Raw)
            .with_backend(backend)
            .with_faults(FaultInjection::new(fault_spec(), FaultKey::new(seed, 0)))
            .with_drift_schedule(DriftSchedule::every(
                shape.batches_per_epoch * shape.batch as u64,
                DRIFT_STEP,
            ));
        Victim {
            net,
            config,
            seed: seed ^ 0x0A11,
        }
    }

    fn deploy(&self) -> Result<Oracle, String> {
        Oracle::new(self.net.clone(), &self.config, self.seed).map_err(|e| e.to_string())
    }

    /// The fault injection the drifting oracle deploys in `epoch`,
    /// advanced exactly as the oracle advances it.
    fn injection_at(&self, epoch: u64) -> FaultInjection {
        let base = self.config.faults.expect("victim has faults");
        let mut spec = base.spec;
        spec.drift_time += epoch as f64 * self.config.drift.time_step;
        FaultInjection::new(spec, base.key)
    }

    /// A naive-backend, non-drifting oracle deployed on the hardware the
    /// drifting oracle has in `epoch`.
    fn naive_reference(&self, epoch: u64) -> Result<Oracle, String> {
        let mut config = self.config.with_backend(BackendKind::Naive);
        config.drift = DriftSchedule::never();
        config.faults = Some(self.injection_at(epoch));
        Oracle::new(self.net.clone(), &config, self.seed).map_err(|e| e.to_string())
    }
}

struct Sample {
    epoch: u64,
    inputs: Vec<Vec<f64>>,
    observations: Vec<Observation>,
}

/// One timed pass over whole drift epochs.
struct Pass {
    batch_s: Vec<f64>,
    redeploy: Vec<bool>,
    epochs: f64,
    samples: Vec<Sample>,
}

impl Pass {
    fn mean_batch_ms(&self) -> f64 {
        mean(&self.batch_s) * 1e3
    }
}

fn timed_pass(
    oracle: &mut Oracle,
    batches: &[Vec<Vec<f64>>],
    shape: Shape,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Pass, String> {
    let interval = shape.batches_per_epoch * shape.batch as u64;
    let mut pass = Pass {
        batch_s: Vec::new(),
        redeploy: Vec::new(),
        epochs: 0.0,
        samples: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let first = oracle.queries_issued();
        let k = first / shape.batch as u64;
        let inputs = &batches[k as usize % batches.len()];
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let drift_before = oracle.drift_time();
        let span = tracer.span("core.query_batch", k, None);
        let t = Instant::now();
        let records = oracle.query_batch(&refs).map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_secs_f64();
        drop(span);
        pass.batch_s.push(dt);
        pass.redeploy.push(oracle.drift_time() != drift_before);
        if k.is_multiple_of(SAMPLE_EVERY) {
            pass.samples.push(Sample {
                epoch: first / interval,
                inputs: inputs[..SAMPLE_INPUTS].to_vec(),
                observations: records[..SAMPLE_INPUTS]
                    .iter()
                    .map(|r| r.observation.clone())
                    .collect(),
            });
        }
        let at_epoch_end = oracle.queries_issued().is_multiple_of(interval);
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && at_epoch_end) || elapsed >= 3.0 * seconds {
            break;
        }
    }
    pass.epochs = pass.batch_s.len() as f64 / shape.batches_per_epoch as f64;
    Ok(pass)
}

/// Compares sampled observations with a naive-backend deployment of the
/// same epoch's hardware, for at most three epochs (the first sampled
/// one, the first re-deployed one and the last one).
fn check_against_naive(
    victim: &Victim,
    samples: &[Sample],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut epochs: Vec<u64> = Vec::new();
    for candidate in [
        samples.first().map(|s| s.epoch),
        samples.iter().map(|s| s.epoch).find(|&e| e > 0),
        samples.last().map(|s| s.epoch),
    ]
    .into_iter()
    .flatten()
    {
        if !epochs.contains(&candidate) {
            epochs.push(candidate);
        }
    }
    let mut checked = 0;
    for epoch in epochs {
        let mut reference = victim.naive_reference(epoch)?;
        for sample in samples.iter().filter(|s| s.epoch == epoch) {
            let refs: Vec<&[f64]> = sample.inputs.iter().map(Vec::as_slice).collect();
            let expected: Vec<Observation> = reference
                .query_batch(&refs)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|r| r.observation)
                .collect();
            out.check(
                expected == sample.observations,
                format!("oracle_1m: epoch {epoch} batch differs from the naive backend"),
            );
            checked += 1;
        }
    }
    out.check(
        checked > 0,
        "oracle_1m: no batch was checked against the naive backend",
    );
    Ok(())
}

fn input_batches(shape: Shape, seed: u64) -> Vec<Vec<Vec<f64>>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBA7C);
    (0..INPUT_BATCHES)
        .map(|_| {
            (0..shape.batch)
                .map(|_| (0..shape.inputs).map(|_| rng.gen::<f64>()).collect())
                .collect()
        })
        .collect()
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    run_shape(opts, FULL)
}

pub fn run_shape(opts: &Opts, shape: Shape) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let victim = Victim::new(shape, opts.seed);
    let (setup_s, oracle) = median_time(3, || victim.deploy());
    let mut oracle = oracle?;
    out.named("oracle_1m.setup_s", setup_s, "s", Some("setup_s"));
    let batches = input_batches(shape, opts.seed);

    // Warm-up: the first batch builds the prepared handle.
    let refs: Vec<&[f64]> = batches[0].iter().map(Vec::as_slice).collect();
    oracle.query_batch(&refs).map_err(|e| e.to_string())?;

    let off = Tracer::new(false);
    let pass = timed_pass(&mut oracle, &batches, shape, opts.seconds, &off)?;
    check_against_naive(&victim, &pass.samples, &mut out)?;
    report_e2e(&pass, shape, &mut out);

    if opts.trace {
        let tracer = Tracer::new(true);
        let traced = timed_pass(&mut oracle, &batches, shape, opts.seconds, &tracer)?;
        check_against_naive(&victim, &traced.samples, &mut out)?;
        layer_metrics(
            &victim,
            &batches[0],
            shape,
            &pass,
            &traced,
            &tracer,
            &mut out,
        )?;
        let path = crate::out_dir().join(format!("trace-oracle_1m-seed{}.jsonl", opts.seed));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

fn report_e2e(pass: &Pass, shape: Shape, out: &mut Outcome) {
    let n = pass.batch_s.len();
    let total_s: f64 = pass.batch_s.iter().sum();
    let ms: Vec<f64> = pass.batch_s.iter().map(|s| s * 1e3).collect();
    let redeploy_ms: Vec<f64> = ms
        .iter()
        .zip(&pass.redeploy)
        .filter_map(|(&m, &r)| r.then_some(m))
        .collect();
    let queries = (n * shape.batch) as u64;
    out.attempted += queries;
    out.named(
        "oracle_1m.queries_per_s",
        queries as f64 / total_s,
        "1/s",
        Some("rate_per_s"),
    );
    out.named(
        "oracle_1m.batch_p50_ms",
        median(&ms),
        "ms",
        Some("light_p50_ms"),
    );
    out.named("oracle_1m.batch_p95_ms", quantile(&ms, 0.95), "ms", None);
    out.named(
        "oracle_1m.redeploy_batch_p50_ms",
        median(&redeploy_ms),
        "ms",
        Some("heavy_p50_ms"),
    );
    out.named(
        "oracle_1m.redeploy_batch_p95_ms",
        quantile(&redeploy_ms, 0.95),
        "ms",
        None,
    );
    out.named(
        "oracle_1m.epoch_wall_s",
        total_s / pass.epochs,
        "s",
        Some("light_wall_s"),
    );
    out.named(
        "oracle_1m.redeploy_s_per_epoch",
        redeploy_ms.iter().sum::<f64>() / 1e3 / pass.epochs,
        "s",
        Some("heavy_wall_s"),
    );
    out.named("oracle_1m.batches", n as f64, "count", None);
    out.check(
        !redeploy_ms.is_empty(),
        "oracle_1m: no batch re-deployed the array",
    );
}

/// Per-layer figures: the crossbar kernel and `prepare`, and the fault
/// plan's compile and apply, each timed on a copy of the victim array
/// through the layers' public functions; the core layer's share is what
/// `query_batch` spends beyond them.
fn layer_metrics(
    victim: &Victim,
    batch: &[Vec<f64>],
    shape: Shape,
    untraced: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let config = &victim.config;
    let mut rng = ChaCha8Rng::seed_from_u64(victim.seed);
    let pristine = CrossbarArray::program(victim.net.weights(), &config.device, &mut rng)
        .map_err(|e| e.to_string())?;
    let injection = victim.injection_at(0);
    let (compile_s, plan) = median_time(3, || {
        let _span = tracer.span("faults.compile", 0, None);
        injection.compile(shape.outputs, shape.inputs)
    });
    let plan = plan.map_err(|e| e.to_string())?;
    let (apply_s, array) = median_time(3, || {
        let _span = tracer.span("faults.apply", 0, None);
        plan.apply(&pristine)
    });
    let array = array.map_err(|e| e.to_string())?;
    let backend = config.backend.build().map_err(|e| e.to_string())?;
    let (prepare_s, prepared) = median_time(5, || {
        let _span = tracer.span("crossbar.prepare", 0, None);
        backend.prepare(&array)
    });
    let prepared = prepared.map_err(|e| e.to_string())?;
    let refs: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();
    let (kernel_s, ok) = median_time(9, || {
        let _span = tracer.span("crossbar.kernel", 0, None);
        backend.mvm_prepared(&prepared, &array, &refs).is_ok()
            && backend
                .power_prepared(&config.power, &prepared, &array, &refs)
                .is_ok()
    });
    out.check(ok, "oracle_1m: crossbar kernel replay failed");

    let (b, m, n) = (
        shape.batch as f64,
        shape.outputs as f64,
        shape.inputs as f64,
    );
    let macs = b * m * n + b * n;
    let bytes = 8.0 * (m * n + b * n + b * m);
    let gmacs = macs / kernel_s / 1e9;
    let roof = Roofline::measure(host::nproc());
    let miss_share =
        traced.redeploy.iter().filter(|&&r| r).count() as f64 / traced.redeploy.len() as f64;
    let redeploy_ms = (prepare_s + compile_s + apply_s) * 1e3;
    let batch_ms = traced.mean_batch_ms();
    // A warm batch is the kernel plus the core layer's own work.
    let warm_ms: Vec<f64> = traced
        .batch_s
        .iter()
        .zip(&traced.redeploy)
        .filter_map(|(&s, &r)| (!r).then_some(s * 1e3))
        .collect();
    let overhead_ms = median(&warm_ms) - kernel_s * 1e3;
    let attributed_ms = kernel_s * 1e3 + miss_share * redeploy_ms;

    let layers = &mut out.layers;
    layers.insert("crossbar.kernel_ms", kernel_s * 1e3);
    layers.insert("crossbar.gmacs", gmacs);
    layers.insert(
        "crossbar.roofline_frac",
        gmacs / roof.attainable_gmacs(macs, bytes),
    );
    layers.insert("crossbar.prepare_ms", prepare_s * 1e3);
    layers.insert("crossbar.prepare_miss_share", miss_share);
    layers.insert("faults.compile_ms", compile_s * 1e3);
    layers.insert("faults.apply_ms", apply_s * 1e3);
    layers.insert("core.query_overhead_ms", overhead_ms);
    layers.insert("host.triad_gbs", roof.triad_gbs);
    layers.insert("host.madd_gmacs", roof.madd_gmacs);
    layers.insert("unattributed_share", 1.0 - attributed_ms / batch_ms);
    layers.insert(
        "trace_overhead_share",
        batch_ms / untraced.mean_batch_ms() - 1.0,
    );
    out.notes.push(format!(
        "oracle_1m: unattributed_share is query_batch time not explained by the kernel, prepare and fault re-deploy replays (the core layer's own work); {} traced batches; kernel replay {:.0} MMAC, {:.1} MB compulsory traffic per batch",
        traced.batch_s.len(),
        macs / 1e6,
        bytes / 1e6
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sized_run_is_correct_and_complete() {
        let opts = crate::tests::opts("oracle_1m", 0.3, true);
        let shape = Shape {
            outputs: 64,
            inputs: 48,
            batch: 16,
            batches_per_epoch: 2,
        };
        let out = run_shape(&opts, shape).unwrap();
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        crate::tests::assert_slots_filled(&out);
        assert!(out.layers["crossbar.prepare_miss_share"] > 0.0);
    }
}
