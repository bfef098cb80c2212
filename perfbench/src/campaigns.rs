//! `paper_campaigns`: the fig4 and infer-sweep `--quick` grids through
//! `xbar_runtime::run_campaign` at `nproc` threads — the attacker's two
//! halves, power probe plus pixel attacks (Fig. 4) and power-aided
//! posterior recovery (the infer sweep). nn training and MCMC do the
//! work here; the crossbar kernel does almost none.
//!
//! The untraced pass runs the library's own `Fig4Runner` and
//! `InferSweepRunner`, wrapped only to time each trial. The traced pass
//! runs [`TracedFig4`] and [`TracedInfer`]: benchmark-side copies of the
//! two trial bodies that make the same public calls in the same order
//! with a span around each layer call. Their outputs go through the same
//! checks (and the self-test asserts they equal the library runners').

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_bench::campaign::{
    fig4_campaign, Fig4Runner, Fig4Spec, Fig4TrialOutput, FIG4_ORACLE_SEED, FIG4_VICTIM_SEED,
};
use xbar_bench::figures::fig4_panels;
use xbar_bench::infersweep::{
    infer_chain_config, infer_subset, infer_sweep_campaign, infer_sweep_curves, infer_sweep_params,
    InferSweepOutput, InferSweepRunner, InferSweepSpec, INFER_CI_LEVEL,
};
use xbar_bench::{victim_sgd, DatasetKind, HeadKind, TrainedVictim};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::probe::probe_column_norms;
use xbar_core::sweep::{attack_and_eval, method_reps};
use xbar_crossbar::backend::{BackendKind, BackendSpec};
use xbar_crossbar::power::PowerModel;
use xbar_infer::{
    estimate_noise_sigma, evenly_spaced_draws, random_design, run_chains, summarize, ChainConfig,
    Kernel, NormPosterior, PowerObservations, Prior,
};
use xbar_nn::network::SingleLayerNet;
use xbar_runtime::{run_campaign, Campaign, ExecutorConfig, NullSink, TrialContext, TrialRunner};

use crate::host;
use crate::stats::{median, median_time, quantile};
use crate::trace::Tracer;
use crate::{Opts, Outcome, DEFAULT_SEED};

/// The committed artifact the default-seed infer sweep must reproduce.
const INFER_ARTIFACT: &str = "results/infer-sweep.json";

/// The infer sweep's pixel-attack strength (`InferSweepRunner::new`).
const INFER_STRENGTH: f64 = 4.0;

fn backend() -> BackendSpec {
    BackendSpec::new(BackendKind::Blocked)
}

/// Wraps a trial runner to record each trial's wall time by trial index.
struct Timed<R> {
    inner: R,
    trial_s: Mutex<Vec<(usize, f64)>>,
}

impl<R> Timed<R> {
    fn new(inner: R) -> Self {
        Timed {
            inner,
            trial_s: Mutex::new(Vec::new()),
        }
    }

    /// Trial times in ms, for the trials `keep` selects by index.
    fn trial_ms(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        let times = self.trial_s.lock().expect("trial times");
        times
            .iter()
            .filter(|t| keep(t.0))
            .map(|t| t.1 * 1e3)
            .collect()
    }
}

impl<R: TrialRunner> TrialRunner for Timed<R> {
    type Spec = R::Spec;
    type Output = R::Output;

    fn run(&self, spec: &R::Spec, ctx: &TrialContext) -> Result<R::Output, String> {
        let start = Instant::now();
        let out = self.inner.run(spec, ctx);
        self.trial_s
            .lock()
            .expect("trial times")
            .push((ctx.trial_index, start.elapsed().as_secs_f64()));
        out
    }
}

/// One grid's run: outputs, failures and wall time.
struct GridRun<O> {
    outputs: Vec<Option<O>>,
    failures: usize,
    wall_s: f64,
}

fn run_grid<R: TrialRunner>(
    runner: &R,
    campaign: &Campaign<R::Spec>,
) -> Result<GridRun<R::Output>, String> {
    let start = Instant::now();
    let report = run_campaign(
        runner,
        campaign,
        &ExecutorConfig::with_threads(host::nproc()),
        None,
        false,
        &mut NullSink,
    )
    .map_err(|e| e.to_string())?;
    Ok(GridRun {
        wall_s: start.elapsed().as_secs_f64(),
        failures: report.failures.len(),
        outputs: report.outputs,
    })
}

/// The infer grid at `seed`: the committed grid at the default seed,
/// otherwise the same grid with its campaign seed replaced.
fn infer_grid(seed: u64) -> Campaign<InferSweepSpec> {
    let mut campaign = infer_sweep_campaign(true);
    if seed != DEFAULT_SEED {
        campaign.seed = seed;
    }
    campaign
}

/// Fig. 4's shape on every panel, at every strength above zero: the
/// white-box Worst attack is lowest, and the power-guided "+" attack
/// lands below random-pixel RP.
fn check_fig4(campaign: &Campaign<Fig4Spec>, run: &GridRun<Fig4TrialOutput>, out: &mut Outcome) {
    out.check(
        run.failures == 0,
        format!("fig4: {} failed trials", run.failures),
    );
    let panels = match fig4_panels(campaign, &run.outputs) {
        Ok(panels) => panels,
        Err(e) => return out.check(false, format!("fig4: {e}")),
    };
    for panel in &panels {
        let acc = |label: &str| {
            panel
                .methods
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, accs)| accs.clone())
                .unwrap_or_default()
        };
        let (worst, plus, rp) = (acc("Worst"), acc("+"), acc("RP"));
        for (i, &eps) in panel.strengths.iter().enumerate() {
            if eps <= 0.0 {
                continue;
            }
            let lowest = panel.methods.iter().all(|(_, accs)| worst[i] <= accs[i]);
            out.check(
                lowest && plus[i] < rp[i],
                format!(
                    "fig4 {} / {} eps={eps}: expected Worst lowest and '+' below RP",
                    panel.dataset, panel.activation
                ),
            );
        }
    }
}

/// The infer sweep's gates: byte-identical to the committed artifact at
/// the default seed; otherwise CI's gates (split-R̂ < 1.1, CI widths
/// shrinking with budget), with coverage ≥ 0.75 over the whole grid.
/// CI's per-point coverage gate is held only by the committed seed: a
/// point pools 2 repeats of 16 correlated intervals, and at seed 311
/// the noise 0.05, budget 32 point covered 22 of 32 while twelve other
/// seeds kept every point at 0.81 or above. A point below 0.75 is
/// printed as a note.
fn check_infer(seed: u64, run: &GridRun<InferSweepOutput>, out: &mut Outcome) {
    out.check(
        run.failures == 0,
        format!("infer: {} failed trials", run.failures),
    );
    let report = match infer_sweep_curves(true, &run.outputs) {
        Ok(report) => report,
        Err(e) => return out.check(false, format!("infer: {e}")),
    };
    if seed == DEFAULT_SEED {
        let rendered = serde_json::to_string_pretty(&report).unwrap_or_default();
        let committed = std::fs::read_to_string(INFER_ARTIFACT).unwrap_or_default();
        out.check(
            rendered == committed,
            format!("infer: quick sweep differs from {INFER_ARTIFACT}"),
        );
        return;
    }
    out.check(
        report.max_rhat < 1.1,
        format!("infer: max R-hat {} >= 1.1", report.max_rhat),
    );
    out.check(report.min_ci_width > 0.0, "infer: empty credible interval");
    for curve in &report.curves {
        let widths: Vec<f64> = curve.points.iter().map(|p| p.ci_width.mean).collect();
        out.check(
            widths.windows(2).all(|w| w[1] <= w[0]),
            format!(
                "infer noise={} chains={}: widths {widths:?} do not shrink",
                curve.noise, curve.chains
            ),
        );
        for p in curve.points.iter().filter(|p| p.coverage.mean < 0.75) {
            out.notes.push(format!(
                "infer noise={} chains={} budget={}: coverage {} < 0.75 at this seed",
                curve.noise, curve.chains, p.budget, p.coverage.mean
            ));
        }
    }
    // Every run covers the same 16 columns, so the grid's coverage is
    // the run-weighted mean of the points' coverages.
    let points = report.curves.iter().flat_map(|c| &c.points);
    let (weighted, runs) = points.fold((0.0, 0.0), |(w, n), p| {
        (w + p.coverage.mean * p.repeats as f64, n + p.repeats as f64)
    });
    out.check(
        weighted >= 0.75 * runs,
        format!("infer: grid coverage {} < 0.75", weighted / runs),
    );
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, infer_runner) = median_time(3, || InferSweepRunner::new(true, backend()));
    out.named("paper_campaigns.setup_s", setup_s, "s", Some("setup_s"));
    let fig4 = fig4_campaign(true);
    let infer = infer_grid(opts.seed);
    out.notes.push(format!(
        "fig4's quick grid uses fixed internal seeds (victim {FIG4_VICTIM_SEED}, oracle {FIG4_ORACLE_SEED}); --seed reseeds only the infer grid (campaign seed {})",
        infer.seed
    ));

    // The infer grid runs first so its peak RSS (the gated one) covers
    // set-up and infer alone. Two fig4 objects trials' probes (each a
    // 3072×3072 one-hot matrix) may or may not overlap in time, so fig4's
    // peak is bimodal from scheduling alone; it is reported beside it.
    let infer_timed = Timed::new(infer_runner);
    let infer_run = run_grid(&infer_timed, &infer)?;
    check_infer(opts.seed, &infer_run, &mut out);
    out.named(
        "infer.peak_rss_mb",
        host::peak_rss_mb(),
        "MB",
        Some("peak_rss_mb"),
    );
    host::reset_peak_rss();
    let fig4_runner = Timed::new(Fig4Runner::new(backend()));
    let fig4_run = run_grid(&fig4_runner, &fig4)?;
    check_fig4(&fig4, &fig4_run, &mut out);
    out.named("fig4.peak_rss_mb", host::peak_rss_mb(), "MB", None);

    let trials = (fig4.len() + infer.len()) as u64;
    out.attempted += trials;
    out.failed += (fig4_run.failures + infer_run.failures) as u64;
    let untraced_wall = fig4_run.wall_s + infer_run.wall_s;
    // fig4's trial times are bimodal (digits ~1 s, objects ~3 s), so
    // each dataset's trials are summarized on their own.
    let specs = &fig4.trials;
    let on = |dataset: DatasetKind| move |i: usize| specs[i].dataset == dataset;
    let digits_ms = fig4_runner.trial_ms(on(DatasetKind::Digits));
    let objects_ms = fig4_runner.trial_ms(on(DatasetKind::Objects));
    let infer_ms = infer_timed.trial_ms(|_| true);
    out.named(
        "paper_campaigns.trials_per_s",
        trials as f64 / untraced_wall,
        "1/s",
        Some("rate_per_s"),
    );
    out.named(
        "fig4.digits_trial_p50_ms",
        median(&digits_ms),
        "ms",
        Some("light_p50_ms"),
    );
    out.named(
        "fig4.digits_trial_p95_ms",
        quantile(&digits_ms, 0.95),
        "ms",
        None,
    );
    out.named(
        "fig4.objects_trial_p50_ms",
        median(&objects_ms),
        "ms",
        Some("heavy_p50_ms"),
    );
    out.named(
        "fig4.objects_trial_p95_ms",
        quantile(&objects_ms, 0.95),
        "ms",
        None,
    );
    out.named("infer.trial_p50_ms", median(&infer_ms), "ms", None);
    out.named("infer.trial_p95_ms", quantile(&infer_ms, 0.95), "ms", None);
    out.named("fig4_wall_s", fig4_run.wall_s, "s", Some("light_wall_s"));
    out.named("infer_wall_s", infer_run.wall_s, "s", Some("heavy_wall_s"));

    if opts.trace {
        let tracer = Tracer::new(true);
        let traced_fig4 = TracedFig4::new(backend(), &tracer);
        let fig4_traced = run_grid(&traced_fig4, &fig4)?;
        check_fig4(&fig4, &fig4_traced, &mut out);
        let traced_infer = TracedInfer::new(infer_timed.inner.victim(), backend(), &tracer);
        let infer_traced = run_grid(&traced_infer, &infer)?;
        check_infer(opts.seed, &infer_traced, &mut out);

        let traced_wall = fig4_traced.wall_s + infer_traced.wall_s;
        let own = tracer.self_seconds();
        let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let trial_s = tracer.total_seconds("runtime.fig4_trial")
            + tracer.total_seconds("runtime.infer_trial");
        let layer_s: f64 = own
            .iter()
            .filter(|(name, _)| !name.starts_with("runtime."))
            .map(|(_, s)| s)
            .sum();
        let layers = &mut out.layers;
        layers.insert("data.generate_s", get("data.generate"));
        layers.insert("nn.train_s", get("nn.train"));
        layers.insert("core.probe_s", get("core.probe"));
        layers.insert("core.attack_s", get("core.attack"));
        layers.insert("infer.collect_s", get("infer.collect"));
        layers.insert("infer.mcmc_s", get("infer.mcmc"));
        layers.insert(
            "victim.train_useful_ratio",
            traced_fig4.train_useful_ratio(),
        );
        layers.insert(
            "runtime.busy_share",
            trial_s / (host::nproc() as f64 * traced_wall),
        );
        layers.insert(
            "runtime.trials_failed",
            (fig4_traced.failures + infer_traced.failures) as f64,
        );
        layers.insert("unattributed_share", 1.0 - layer_s / trial_s);
        layers.insert("trace_overhead_share", traced_wall / untraced_wall - 1.0);
        let path = crate::out_dir().join(format!("trace-paper_campaigns-seed{}.jsonl", opts.seed));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// `train_victim`, step by step, with the data and nn layers' calls
/// spanned.
fn traced_train_victim(
    tracer: &Tracer,
    parent: Option<u64>,
    key: u64,
    dataset: DatasetKind,
    head: HeadKind,
    num_samples: usize,
    seed: u64,
) -> Result<TrainedVictim, String> {
    let (ds, split) = {
        let _span = tracer.span("data.generate", key, parent);
        let ds = dataset.generate(num_samples, seed);
        let split = ds.split_frac(0.85).map_err(|e| e.to_string())?;
        (ds, split)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let mut net = SingleLayerNet::new_random(
        ds.num_features(),
        ds.num_classes(),
        head.activation(),
        &mut rng,
    );
    {
        let _span = tracer.span("nn.train", key, parent);
        xbar_nn::train::train(
            &mut net,
            &split.train,
            head.loss(),
            &victim_sgd(head),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    }
    let test_accuracy = {
        let _span = tracer.span("nn.eval", key, parent);
        let preds = net
            .predict_batch(split.test.inputs())
            .map_err(|e| e.to_string())?;
        xbar_nn::metrics::accuracy(&preds, split.test.labels())
    };
    Ok(TrainedVictim {
        net,
        train: split.train,
        test: split.test,
        test_accuracy,
    })
}

/// `Fig4Runner::run` (no faults, no transients) with each layer call
/// spanned.
pub struct TracedFig4<'t> {
    backend: BackendSpec,
    tracer: &'t Tracer,
    trained: Mutex<Vec<(DatasetKind, HeadKind, usize)>>,
}

impl<'t> TracedFig4<'t> {
    pub fn new(backend: BackendSpec, tracer: &'t Tracer) -> Self {
        TracedFig4 {
            backend,
            tracer,
            trained: Mutex::new(Vec::new()),
        }
    }

    /// Distinct victims trained over `train_victim` calls.
    fn train_useful_ratio(&self) -> f64 {
        let trained = self.trained.lock().expect("train log");
        let distinct: BTreeSet<String> = trained.iter().map(|t| format!("{t:?}")).collect();
        distinct.len() as f64 / trained.len().max(1) as f64
    }
}

impl TrialRunner for TracedFig4<'_> {
    type Spec = Fig4Spec;
    type Output = Fig4TrialOutput;

    fn run(&self, spec: &Fig4Spec, ctx: &TrialContext) -> Result<Fig4TrialOutput, String> {
        let key = ctx.trial_index as u64;
        let trial = self.tracer.span("runtime.fig4_trial", key, None);
        let parent = trial.id();
        let victim = traced_train_victim(
            self.tracer,
            parent,
            key,
            spec.dataset,
            spec.head,
            spec.num_samples,
            FIG4_VICTIM_SEED,
        )?;
        self.trained
            .lock()
            .expect("train log")
            .push((spec.dataset, spec.head, spec.num_samples));
        let cfg = OracleConfig::ideal()
            .with_access(OutputAccess::None)
            .with_backend(self.backend);
        let mut oracle = {
            let _span = self.tracer.span("core.deploy", key, parent);
            Oracle::new(victim.net.clone(), &cfg, FIG4_ORACLE_SEED).map_err(|e| e.to_string())?
        };
        let norms = {
            let _span = self.tracer.span("core.probe", key, parent);
            probe_column_norms(&mut oracle, 1.0, 1).map_err(|e| e.to_string())?
        };
        let probe_queries = oracle.query_count();
        let clean_accuracy = {
            let _span = self.tracer.span("core.eval", key, parent);
            oracle
                .eval_accuracy(victim.test.inputs(), victim.test.labels())
                .map_err(|e| e.to_string())?
        };
        let targets = victim.test.one_hot_targets();
        let reps = method_reps(spec.method, spec.stochastic_reps);
        let mut accuracies = Vec::with_capacity(spec.strengths.len());
        for &eps in &spec.strengths {
            let mut acc_sum = 0.0;
            for rep in 0..reps {
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + rep as u64);
                let res = PixelAttackResources::full(&norms, &victim.net, spec.head.loss());
                let _span = self.tracer.span("core.attack", key, parent);
                acc_sum += attack_and_eval(
                    &oracle,
                    victim.test.inputs(),
                    &targets,
                    victim.test.labels(),
                    spec.method,
                    res,
                    eps,
                    &mut rng,
                )
                .map_err(|e| e.to_string())?;
            }
            accuracies.push(acc_sum / reps as f64);
        }
        Ok(Fig4TrialOutput {
            clean_accuracy,
            probe_queries,
            accuracies,
        })
    }
}

/// `InferSweepRunner::run` (quick sizes) with each layer call spanned.
pub struct TracedInfer<'v, 't> {
    victim: &'v TrainedVictim,
    backend: BackendSpec,
    tracer: &'t Tracer,
    test_eval: usize,
    noise_probe_repeats: usize,
    draw_band: usize,
    chain_config: ChainConfig,
    subset: Vec<usize>,
}

impl<'v, 't> TracedInfer<'v, 't> {
    pub fn new(victim: &'v TrainedVictim, backend: BackendSpec, tracer: &'t Tracer) -> Self {
        let (_, test_eval, _, noise_probe_repeats, draw_band) = infer_sweep_params(true);
        TracedInfer {
            victim,
            backend,
            tracer,
            test_eval,
            noise_probe_repeats,
            draw_band,
            chain_config: infer_chain_config(true),
            subset: infer_subset(),
        }
    }
}

impl TrialRunner for TracedInfer<'_, '_> {
    type Spec = InferSweepSpec;
    type Output = InferSweepOutput;

    fn run(&self, spec: &InferSweepSpec, ctx: &TrialContext) -> Result<InferSweepOutput, String> {
        let key = ctx.trial_index as u64;
        let trial = self.tracer.span("runtime.infer_trial", key, None);
        let parent = trial.id();
        let span = |name| self.tracer.span(name, key, parent);
        let trial_salt = (ctx.trial_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let oracle_seed = ctx.campaign_seed ^ trial_salt ^ 0xA1;
        let design_seed = ctx.campaign_seed ^ trial_salt ^ 0xB2;
        let mcmc_seed = ctx.campaign_seed ^ trial_salt ^ 0xC3;
        let attack_seed = 9000 + spec.repeat;
        let err = |e: &dyn std::fmt::Display| e.to_string();

        let mut oracle = {
            let _span = span("core.deploy");
            Oracle::new(
                self.victim.net.clone(),
                &OracleConfig::ideal()
                    .with_access(OutputAccess::None)
                    .with_backend(self.backend)
                    .with_power(PowerModel::default().with_noise(spec.noise)),
                oracle_seed,
            )
            .map_err(|e| err(&e))?
        };
        let input_dim = self.victim.net.num_inputs();
        let truth_full = oracle.true_column_norms();
        let truth: Vec<f64> = self.subset.iter().map(|&j| truth_full[j]).collect();

        let (noise_sigma_est, obs) = {
            let _span = span("infer.collect");
            let probe = vec![0.5; input_dim];
            let sigma = estimate_noise_sigma(&mut oracle, &probe, self.noise_probe_repeats)
                .map_err(|e| err(&e))?;
            let design = random_design(spec.budget, input_dim, Some(&self.subset), design_seed)
                .map_err(|e| err(&e))?;
            let obs = PowerObservations::collect(&mut oracle, &design).map_err(|e| err(&e))?;
            (sigma, obs)
        };
        let likelihood_sigma = (noise_sigma_est * 1.2).max(1e-6);

        let (model, chains) = {
            let _span = span("infer.mcmc");
            let priors = vec![Prior::normal(1.0, 0.5).map_err(|e| err(&e))?; self.subset.len()];
            let model = NormPosterior::new(&obs, &self.subset, priors, likelihood_sigma)
                .map_err(|e| err(&e))?;
            let mixing = (256 / spec.budget.max(1)).clamp(1, 8);
            let config = ChainConfig::new(
                self.chain_config.burn_in * mixing,
                self.chain_config.samples,
                self.chain_config.thin * mixing,
            )
            .map_err(|e| err(&e))?;
            let chains = run_chains(
                &model,
                &Kernel::EllipticalSlice,
                &config,
                mcmc_seed,
                spec.chains,
                1,
            )
            .map_err(|e| err(&e))?;
            (model, chains)
        };
        let report = {
            let _span = span("infer.summarize");
            summarize(&chains, &self.subset, INFER_CI_LEVEL).map_err(|e| err(&e))?
        };
        let coverage = report.coverage(&truth).map_err(|e| err(&e))?;
        let norm_mae = report
            .mean_vector()
            .iter()
            .zip(&truth)
            .map(|(m, t)| (m - t).abs())
            .sum::<f64>()
            / truth.len() as f64;

        let test = self
            .victim
            .test
            .subset(&(0..self.victim.test.len().min(self.test_eval)).collect::<Vec<usize>>());
        let targets = test.one_hot_targets();
        let deployed_accuracy = {
            let _span = span("core.eval");
            oracle
                .eval_accuracy(test.inputs(), test.labels())
                .map_err(|e| err(&e))?
        };
        let attacked = |norms: &[f64]| -> Result<f64, String> {
            let _span = span("core.attack");
            let mut rng = ChaCha8Rng::seed_from_u64(attack_seed);
            let adv = single_pixel_attack_batch(
                PixelAttackMethod::NormPlus,
                test.inputs(),
                &targets,
                PixelAttackResources::norms_only(norms),
                INFER_STRENGTH,
                &mut rng,
            )
            .map_err(|e| err(&e))?;
            oracle
                .eval_accuracy(&adv, test.labels())
                .map_err(|e| err(&e))
        };
        let attacked_accuracy =
            attacked(&model.scatter(&report.mean_vector()).map_err(|e| err(&e))?)?;
        let mut attacked_accuracy_lo = attacked_accuracy;
        let mut attacked_accuracy_hi = attacked_accuracy;
        for draw in evenly_spaced_draws(&chains, self.draw_band).map_err(|e| err(&e))? {
            let acc = attacked(&model.scatter(&draw).map_err(|e| err(&e))?)?;
            attacked_accuracy_lo = attacked_accuracy_lo.min(acc);
            attacked_accuracy_hi = attacked_accuracy_hi.max(acc);
        }
        drop(trial);
        Ok(InferSweepOutput {
            noise_sigma_est,
            coverage,
            ci_width: report.mean_ci_width(),
            max_rhat: report.max_rhat,
            min_ess: report.min_ess,
            norm_mae,
            deployed_accuracy,
            attacked_accuracy,
            attacked_accuracy_lo,
            attacked_accuracy_hi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced trial bodies must stay call-for-call copies of the
    /// library's: same outputs, bit for bit.
    #[test]
    fn traced_runners_match_the_library_runners() {
        let tracer = Tracer::new(true);
        let mut fig4 = Campaign::new("fig4-smoke", FIG4_VICTIM_SEED);
        for method in [PixelAttackMethod::NormPlus, PixelAttackMethod::RandomPixel] {
            fig4.push_trial(Fig4Spec {
                dataset: DatasetKind::Digits,
                head: HeadKind::SoftmaxCe,
                method,
                strengths: vec![0.0, 4.0],
                num_samples: 200,
                stochastic_reps: 2,
            });
        }
        let library = run_grid(&Fig4Runner::new(backend()), &fig4).unwrap();
        let traced = run_grid(&TracedFig4::new(backend(), &tracer), &fig4).unwrap();
        assert_eq!(library.outputs, traced.outputs);

        let runner = InferSweepRunner::new(true, backend());
        let mut infer = Campaign::new("infer-smoke", DEFAULT_SEED);
        infer.push_trial(InferSweepSpec {
            budget: 256,
            noise: 0.2,
            chains: 2,
            repeat: 0,
        });
        let library = run_grid(&runner, &infer).unwrap();
        let traced = run_grid(
            &TracedInfer::new(runner.victim(), backend(), &tracer),
            &infer,
        )
        .unwrap();
        assert_eq!(library.outputs, traced.outputs);
        let own = tracer.self_seconds();
        for layer in [
            "data.generate",
            "nn.train",
            "core.probe",
            "core.attack",
            "infer.collect",
            "infer.mcmc",
        ] {
            assert!(
                own.get(layer).copied().unwrap_or(0.0) > 0.0,
                "no {layer} span"
            );
        }
    }
}
