//! The paper's experiment grids expressed as [`xbar_runtime`] campaigns.
//!
//! Each figure's independent unit of work becomes a [`TrialRunner`]
//! trial:
//!
//! * **Fig. 4** — one trial per (dataset, head, method): the victim is
//!   retrained deterministically inside the trial (seed 7), so any
//!   subset of the grid can run, in any order, on any number of
//!   threads, and still reproduce the serial binary bit for bit.
//! * **Fig. 5** — one trial per independent run of a (dataset, access)
//!   row, the granularity at which the binary's runs are independent.
//! * **Ablations** — one trial per condition of studies 1 (measurement
//!   noise), 1b (compressed probing), 2 (device non-idealities) and
//!   3 (power defenses); studies 4/4b/5 stay serial in the driver.
//!
//! Every seed below is pinned to the value the serial binaries used, so
//! campaign outputs are directly comparable against historical results.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_core::blackbox::{run_blackbox_attack, BlackBoxConfig};
use xbar_core::defense::{DefendedOracle, PowerDefense};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::probe::{probe_column_norms, probe_norms_compressed};
use xbar_core::sweep::{attack_and_eval, method_reps};
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_faults::{FaultInjection, FaultKey, FaultSpec, TransientInjection, TransientSpec};
use xbar_runtime::{Campaign, TrialContext, TrialRunner};
use xbar_stats::correlation::pearson;

use crate::{paper_configs, train_victim, DatasetKind, HeadKind, TrainedVictim};

/// Victim-training seed shared by every Fig. 4 panel (as in the serial
/// binary).
pub const FIG4_VICTIM_SEED: u64 = 7;

/// Oracle / crossbar-programming seed for Fig. 4 (as in the serial
/// binary).
pub const FIG4_ORACLE_SEED: u64 = 99;

/// Power-loss weights swept in Fig. 5. NOTE: these are NOT numerically
/// comparable to the paper's 0..0.01 range — the paper's λ is tied to
/// its (unspecified) power normalisation, while ours applies to
/// RMS-normalised, scale-invariant power profiles. What transfers is
/// the existence of a sweet spot at small-but-nonzero λ.
pub const FIG5_LAMBDAS: [f64; 4] = [0.0, 0.1, 1.0, 10.0];

/// Compiles an optional campaign-level fault spec into this trial's
/// injection, keyed by `(campaign_seed, trial_index)` — the xbar-faults
/// keying contract, so fault draws depend only on the trial's identity,
/// never on scheduling or thread count.
pub(crate) fn trial_injection(
    faults: Option<FaultSpec>,
    ctx: &TrialContext,
) -> Option<FaultInjection> {
    faults.map(|spec| {
        FaultInjection::new(
            spec,
            FaultKey::new(ctx.campaign_seed, ctx.trial_index as u64),
        )
    })
}

/// Compiles an optional campaign-level transient spec into this trial's
/// per-query injection, under the same `(campaign_seed, trial_index)`
/// key as [`trial_injection`] — the oracle then extends the key with the
/// global query index, so per-query disturbances are deterministic in
/// the trial's identity and query position alone.
pub(crate) fn trial_transients(
    transients: Option<TransientSpec>,
    ctx: &TrialContext,
) -> Option<TransientInjection> {
    transients.map(|spec| {
        TransientInjection::new(
            spec,
            FaultKey::new(ctx.campaign_seed, ctx.trial_index as u64),
        )
    })
}

// ---------------------------------------------------------------------
// Fig. 4
// ---------------------------------------------------------------------

/// One Fig. 4 trial: a single attack method on a single (dataset, head)
/// panel, swept over the attack strengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Spec {
    /// Dataset of the panel.
    pub dataset: DatasetKind,
    /// Output head of the panel.
    pub head: HeadKind,
    /// The pixel-attack method this trial evaluates.
    pub method: PixelAttackMethod,
    /// Attack strengths swept (shared by all trials of a campaign).
    pub strengths: Vec<f64>,
    /// Dataset size used to train the victim.
    pub num_samples: usize,
    /// Repetitions averaged for the stochastic methods (RP, RD).
    pub stochastic_reps: usize,
}

/// The result of one Fig. 4 trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4TrialOutput {
    /// Clean test accuracy of the panel's victim.
    pub clean_accuracy: f64,
    /// Power queries spent probing the column norms.
    pub probe_queries: usize,
    /// Mean attacked accuracy per strength (aligned with
    /// [`Fig4Spec::strengths`]).
    pub accuracies: Vec<f64>,
}

/// Runs Fig. 4 trials. Stateless: each trial retrains its panel's
/// victim from the pinned seed, so trials are independent. The
/// evaluation backend only changes how oracle queries are executed —
/// results are bit-identical across backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig4Runner {
    backend: BackendSpec,
    faults: Option<FaultSpec>,
    transients: Option<TransientSpec>,
}

impl Fig4Runner {
    /// A runner evaluating oracles with the given backend.
    #[must_use]
    pub fn new(backend: impl Into<BackendSpec>) -> Self {
        Fig4Runner {
            backend: backend.into(),
            faults: None,
            transients: None,
        }
    }

    /// Injects `faults` into every trial's deployed crossbar, keyed by
    /// `(campaign_seed, trial_index)`.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Applies per-query transient disturbances to every trial's oracle,
    /// keyed by `(campaign_seed, trial_index, query index)`.
    #[must_use]
    pub fn with_transients(mut self, transients: Option<TransientSpec>) -> Self {
        self.transients = transients;
        self
    }
}

impl TrialRunner for Fig4Runner {
    type Spec = Fig4Spec;
    type Output = Fig4TrialOutput;

    fn run(&self, spec: &Fig4Spec, ctx: &TrialContext) -> Result<Fig4TrialOutput, String> {
        let victim = train_victim(spec.dataset, spec.head, spec.num_samples, FIG4_VICTIM_SEED);
        let mut cfg = OracleConfig::ideal()
            .with_access(OutputAccess::None)
            .with_backend(self.backend);
        if let Some(injection) = trial_injection(self.faults, ctx) {
            cfg = cfg.with_faults(injection);
        }
        if let Some(injection) = trial_transients(self.transients, ctx) {
            cfg = cfg.with_transients(injection);
        }
        let mut oracle =
            Oracle::new(victim.net.clone(), &cfg, FIG4_ORACLE_SEED).map_err(|e| e.to_string())?;

        // Case-1 probe: N power queries reveal the column 1-norms.
        let norms = probe_column_norms(&mut oracle, 1.0, 1).map_err(|e| e.to_string())?;
        let probe_queries = oracle.query_count();
        let clean_accuracy = oracle
            .eval_accuracy(victim.test.inputs(), victim.test.labels())
            .map_err(|e| e.to_string())?;

        let targets = victim.test.one_hot_targets();
        let reps = method_reps(spec.method, spec.stochastic_reps);
        let mut accuracies = Vec::with_capacity(spec.strengths.len());
        for &eps in &spec.strengths {
            let mut acc_sum = 0.0;
            for rep in 0..reps {
                // A fresh RNG per repetition, seeded exactly as the
                // serial loop, keeps the campaign path bit-identical.
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + rep as u64);
                let res = PixelAttackResources::full(&norms, &victim.net, spec.head.loss());
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

/// The full Fig. 4 grid: 4 panels x 5 methods, in the paper's panel
/// order with methods in [`PixelAttackMethod::all`] order.
pub fn fig4_campaign(quick: bool) -> Campaign<Fig4Spec> {
    let num_samples = if quick { 800 } else { 4000 };
    let strengths: Vec<f64> = if quick {
        vec![0.0, 2.0, 4.0, 8.0]
    } else {
        (0..=8).map(|i| i as f64).collect()
    };
    let mut campaign = Campaign::new("fig4", FIG4_VICTIM_SEED);
    for (dataset, head) in paper_configs() {
        for method in PixelAttackMethod::all() {
            campaign.push_trial(Fig4Spec {
                dataset,
                head,
                method,
                strengths: strengths.clone(),
                num_samples,
                stochastic_reps: 5,
            });
        }
    }
    campaign
}

// ---------------------------------------------------------------------
// Fig. 5
// ---------------------------------------------------------------------

/// One Fig. 5 trial: a full independent run (victim + all query counts
/// and power weights) of one (dataset, access) row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Spec {
    /// Dataset of the row.
    pub dataset: DatasetKind,
    /// Oracle output access of the row.
    pub access: OutputAccess,
    /// FGSM budget (ℓ2-matched per dataset; see the fig5 driver docs).
    pub fgsm_eps: f64,
    /// Independent-run index; seeds everything inside the trial.
    pub run: u64,
    /// Dataset size used to train the victim.
    pub num_samples: usize,
    /// Query counts swept.
    pub q_list: Vec<usize>,
    /// Power-loss weights swept.
    pub lambdas: Vec<f64>,
    /// Test samples evaluated per attack.
    pub test_eval: usize,
}

/// Accuracies measured for one (query count, λ) cell of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlackboxPoint {
    /// Surrogate test accuracy.
    pub surrogate_accuracy: f64,
    /// Oracle accuracy under the surrogate-crafted FGSM inputs.
    pub adversarial_accuracy: f64,
    /// Oracle clean accuracy.
    pub clean_accuracy: f64,
}

/// The result of one Fig. 5 trial: `points[q_index][lambda_index]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5RunOutput {
    /// One point per (query count, λ) pair, `q_list`-major.
    pub points: Vec<Vec<BlackboxPoint>>,
}

/// Runs Fig. 5 trials, reproducing the serial binary's per-run closure
/// (victim seed `300 + run`, oracle seed `4000 + run`, attack RNG seed
/// `run * 1_000_003 + q` — shared across λ so comparisons are paired).
/// The evaluation backend is a pure execution detail: outputs are
/// bit-identical across backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig5Runner {
    backend: BackendSpec,
    faults: Option<FaultSpec>,
    transients: Option<TransientSpec>,
}

impl Fig5Runner {
    /// A runner evaluating oracles with the given backend.
    #[must_use]
    pub fn new(backend: impl Into<BackendSpec>) -> Self {
        Fig5Runner {
            backend: backend.into(),
            faults: None,
            transients: None,
        }
    }

    /// Injects `faults` into every trial's deployed crossbar, keyed by
    /// `(campaign_seed, trial_index)`. All (query count, λ) cells of a
    /// trial share one fault realisation, so comparisons stay paired.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Applies per-query transient disturbances to every trial's oracle,
    /// keyed by `(campaign_seed, trial_index, query index)`.
    #[must_use]
    pub fn with_transients(mut self, transients: Option<TransientSpec>) -> Self {
        self.transients = transients;
        self
    }
}

impl TrialRunner for Fig5Runner {
    type Spec = Fig5Spec;
    type Output = Fig5RunOutput;

    fn run(&self, spec: &Fig5Spec, ctx: &TrialContext) -> Result<Fig5RunOutput, String> {
        let victim = train_victim(
            spec.dataset,
            HeadKind::LinearMse,
            spec.num_samples,
            300 + spec.run,
        );
        let test = victim
            .test
            .subset(&(0..victim.test.len().min(spec.test_eval)).collect::<Vec<usize>>());
        let injection = trial_injection(self.faults, ctx);
        let transients = trial_transients(self.transients, ctx);
        let mut points = Vec::with_capacity(spec.q_list.len());
        for &q in &spec.q_list {
            let mut row = Vec::with_capacity(spec.lambdas.len());
            for &lambda in &spec.lambdas {
                let mut cfg = OracleConfig::ideal()
                    .with_access(spec.access)
                    .with_backend(self.backend);
                if let Some(injection) = injection {
                    cfg = cfg.with_faults(injection);
                }
                if let Some(transients) = transients {
                    cfg = cfg.with_transients(transients);
                }
                let mut oracle = Oracle::new(victim.net.clone(), &cfg, 4000 + spec.run)
                    .map_err(|e| e.to_string())?;
                // Same RNG seed across lambdas: identical query samples,
                // so the comparison is paired.
                let mut rng = ChaCha8Rng::seed_from_u64(spec.run * 1_000_003 + q as u64);
                let mut cfg = BlackBoxConfig::default()
                    .with_num_queries(q)
                    .with_power_weight(lambda)
                    .with_fgsm_eps(spec.fgsm_eps);
                // Constant update count (~1200 SGD steps) across query
                // sizes so every surrogate trains to comparable
                // convergence.
                cfg.surrogate.sgd.epochs = (38_400 / q).clamp(60, 2000);
                let (out, _) =
                    run_blackbox_attack(&mut oracle, &victim.train, &test, &cfg, &mut rng)
                        .map_err(|e| e.to_string())?;
                row.push(BlackboxPoint {
                    surrogate_accuracy: out.surrogate_test_accuracy,
                    adversarial_accuracy: out.oracle_adversarial_accuracy,
                    clean_accuracy: out.oracle_clean_accuracy,
                });
            }
            points.push(row);
        }
        Ok(Fig5RunOutput { points })
    }
}

/// The four (dataset, access) rows of Fig. 5, with their display label
/// and FGSM budget. The paper uses ε = 0.1 throughout; our objects
/// stand-in has 3072 dense features (vs MNIST's ~150 active ones), so
/// ε = 0.1 saturates the attack there — we match the ℓ2 budget instead:
/// 0.1·√784 ≈ 0.05·√3072.
pub fn fig5_rows() -> [(DatasetKind, OutputAccess, &'static str, f64); 4] {
    [
        (
            DatasetKind::Digits,
            OutputAccess::LabelOnly,
            "label-only",
            0.1,
        ),
        (DatasetKind::Digits, OutputAccess::Raw, "raw outputs", 0.1),
        (
            DatasetKind::Objects,
            OutputAccess::LabelOnly,
            "label-only",
            0.05,
        ),
        (DatasetKind::Objects, OutputAccess::Raw, "raw outputs", 0.05),
    ]
}

/// Experiment sizes for Fig. 5: `(runs, num_samples, q_list, test_eval)`.
pub fn fig5_params(quick: bool) -> (u64, usize, Vec<usize>, usize) {
    if quick {
        (3, 800, vec![25, 100, 400], 150)
    } else {
        (10, 4000, vec![25, 50, 100, 200, 400, 800, 1600], 400)
    }
}

/// The full Fig. 5 grid: rows x independent runs, row-major (so trial
/// index = `row * runs + run`).
pub fn fig5_campaign(quick: bool) -> Campaign<Fig5Spec> {
    let (runs, num_samples, q_list, test_eval) = fig5_params(quick);
    let mut campaign = Campaign::new("fig5", 300);
    for (dataset, access, _, fgsm_eps) in fig5_rows() {
        for run in 0..runs {
            campaign.push_trial(Fig5Spec {
                dataset,
                access,
                fgsm_eps,
                run,
                num_samples,
                q_list: q_list.clone(),
                lambdas: FIG5_LAMBDAS.to_vec(),
                test_eval,
            });
        }
    }
    campaign
}

// ---------------------------------------------------------------------
// Ablations (grid studies)
// ---------------------------------------------------------------------

/// Which ablation study a trial belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AblationStudy {
    /// Study 1: power-measurement noise vs probe averaging.
    Noise,
    /// Study 1b: compressed probing (fewer than N queries).
    Compressed,
    /// Study 2: device non-idealities.
    Device,
    /// Study 3: power-obfuscation defenses.
    Defense,
}

/// One ablation trial: a study plus an index into that study's
/// condition table (held by [`AblationsRunner`], which builds the same
/// table every run — the campaign fingerprint pins the grid shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationSpec {
    /// The study.
    pub study: AblationStudy,
    /// Index into the study's condition table.
    pub index: usize,
}

/// The result of one ablation trial; fields are `None` where a study
/// does not measure that quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationOutput {
    /// Pearson correlation of probed vs true column norms.
    pub probe_correlation: Option<f64>,
    /// Test accuracy under the norm-guided attack.
    pub attacked_accuracy: Option<f64>,
    /// Clean test accuracy of the victim as deployed on the (possibly
    /// non-ideal) crossbar (study 2 only).
    pub deployed_accuracy: Option<f64>,
    /// Whether the probe found the true largest-norm column (study 1b
    /// only).
    pub argmax_found: Option<bool>,
}

/// Runs the grid ablation studies against one shared victim (digits /
/// softmax, seed 21 — deterministic, so sharing it across trials is
/// equivalent to retraining it per trial, just cheaper).
pub struct AblationsRunner {
    victim: TrainedVictim,
    strength: f64,
    backend: BackendSpec,
    faults: Option<FaultSpec>,
    transients: Option<TransientSpec>,
}

impl AblationsRunner {
    /// Trains the shared victim (800 samples when `quick`, 3000
    /// otherwise) at attack strength 4, as in the serial binary, and
    /// evaluates oracles with `backend` (a pure execution detail —
    /// results are bit-identical across backends).
    pub fn new(quick: bool, backend: impl Into<BackendSpec>) -> Self {
        let num_samples = if quick { 800 } else { 3000 };
        AblationsRunner {
            victim: train_victim(DatasetKind::Digits, HeadKind::SoftmaxCe, num_samples, 21),
            strength: 4.0,
            backend: backend.into(),
            faults: None,
            transients: None,
        }
    }

    /// Injects `faults` into every trial's deployed crossbar, keyed by
    /// `(campaign_seed, trial_index)`.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Applies per-query transient disturbances to every trial's oracle,
    /// keyed by `(campaign_seed, trial_index, query index)`.
    #[must_use]
    pub fn with_transients(mut self, transients: Option<TransientSpec>) -> Self {
        self.transients = transients;
        self
    }

    /// The shared victim.
    pub fn victim(&self) -> &TrainedVictim {
        &self.victim
    }

    /// The attack strength used throughout the grid studies.
    pub fn strength(&self) -> f64 {
        self.strength
    }

    /// Study-1 conditions: (noise σ, probe repeats).
    pub fn noise_conditions() -> Vec<(f64, usize)> {
        let mut conditions = Vec::new();
        for &sigma in &[0.0, 0.05, 0.2, 1.0] {
            for &repeats in &[1usize, 16] {
                conditions.push((sigma, repeats));
            }
        }
        conditions
    }

    /// Study-1b conditions: compressed query budgets K.
    pub fn compressed_ks(&self) -> Vec<usize> {
        let n = self.victim.net.num_inputs();
        vec![n / 8, n / 4, n / 2, n, 2 * n]
    }

    /// Study-2 conditions: labelled device models.
    pub fn device_conditions() -> Vec<(String, DeviceModel)> {
        vec![
            ("ideal".into(), DeviceModel::ideal()),
            ("16 levels".into(), DeviceModel::ideal().with_levels(16)),
            ("4 levels".into(), DeviceModel::ideal().with_levels(4)),
            (
                "program variation σ=0.1".into(),
                DeviceModel::ideal().with_program_sigma(0.1),
            ),
            (
                "stuck-at rate 5%".into(),
                DeviceModel::ideal().with_stuck_rate(0.05),
            ),
            (
                "read noise σ=0.01".into(),
                DeviceModel::ideal().with_read_sigma(0.01),
            ),
        ]
    }

    /// Study-3 conditions: labelled power defenses (sized from the
    /// victim's mean column norm).
    pub fn defense_conditions(&self) -> Vec<(String, PowerDefense)> {
        let n = self.victim.net.num_inputs();
        let mean_norm = self.victim.net.column_l1_norms().iter().sum::<f64>() / n as f64;
        vec![
            ("none".into(), PowerDefense::None),
            (
                "static dummies (~mean norm)".into(),
                PowerDefense::DummyConductances {
                    offsets: (0..n).map(|j| mean_norm * ((j % 7) as f64) / 3.0).collect(),
                },
            ),
            (
                "randomised dummies (2x mean)".into(),
                PowerDefense::RandomizedDummy {
                    magnitude: 2.0 * mean_norm,
                },
            ),
            (
                "injected noise σ=mean norm".into(),
                PowerDefense::AdditiveNoise { sigma: mean_norm },
            ),
        ]
    }

    /// The grid campaign: studies 1, 1b, 2 and 3, in the serial
    /// binary's order.
    pub fn campaign(&self) -> Campaign<AblationSpec> {
        let mut campaign = Campaign::new("ablations", 21);
        for index in 0..Self::noise_conditions().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Noise,
                index,
            });
        }
        for index in 0..self.compressed_ks().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Compressed,
                index,
            });
        }
        for index in 0..Self::device_conditions().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Device,
                index,
            });
        }
        for index in 0..self.defense_conditions().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Defense,
                index,
            });
        }
        campaign
    }

    /// Probe correlation and norm-guided attack accuracy for a given
    /// oracle configuration (studies 1 and 2).
    fn probe_and_attack(
        &self,
        cfg: &OracleConfig,
        seed: u64,
        repeats: usize,
    ) -> Result<(f64, f64), String> {
        let mut oracle =
            Oracle::new(self.victim.net.clone(), cfg, seed).map_err(|e| e.to_string())?;
        let probed = probe_column_norms(&mut oracle, 1.0, repeats).map_err(|e| e.to_string())?;
        let truth = oracle.true_column_norms();
        let r = pearson(&probed, &truth).unwrap_or(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA77AC);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            self.victim.test.inputs(),
            &self.victim.test.one_hot_targets(),
            PixelAttackResources::norms_only(&probed),
            self.strength,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let acc = oracle
            .eval_accuracy(&adv, self.victim.test.labels())
            .map_err(|e| e.to_string())?;
        Ok((r, acc))
    }

    /// Applies the trial's optional fault and transient injections to an
    /// oracle config.
    fn faulted(
        cfg: OracleConfig,
        injection: Option<FaultInjection>,
        transients: Option<TransientInjection>,
    ) -> OracleConfig {
        let cfg = match injection {
            Some(injection) => cfg.with_faults(injection),
            None => cfg,
        };
        match transients {
            Some(transients) => cfg.with_transients(transients),
            None => cfg,
        }
    }

    fn run_noise(
        &self,
        index: usize,
        injection: Option<FaultInjection>,
        transients: Option<TransientInjection>,
    ) -> Result<AblationOutput, String> {
        let (sigma, repeats) = *Self::noise_conditions()
            .get(index)
            .ok_or_else(|| format!("noise condition {index} out of range"))?;
        let cfg = Self::faulted(
            OracleConfig::ideal()
                .with_access(OutputAccess::None)
                .with_power(PowerModel::default().with_noise(sigma))
                .with_backend(self.backend),
            injection,
            transients,
        );
        let (r, acc) = self.probe_and_attack(&cfg, 31, repeats)?;
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
            deployed_accuracy: None,
            argmax_found: None,
        })
    }

    fn run_compressed(
        &self,
        index: usize,
        injection: Option<FaultInjection>,
        transients: Option<TransientInjection>,
    ) -> Result<AblationOutput, String> {
        let k = *self
            .compressed_ks()
            .get(index)
            .ok_or_else(|| format!("compressed condition {index} out of range"))?;
        let truth = self.victim.net.column_l1_norms();
        let mut oracle = Oracle::new(
            self.victim.net.clone(),
            &Self::faulted(
                OracleConfig::ideal()
                    .with_access(OutputAccess::None)
                    .with_backend(self.backend),
                injection,
                transients,
            ),
            33,
        )
        .map_err(|e| e.to_string())?;
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let est =
            probe_norms_compressed(&mut oracle, k, 1e-3, &mut rng).map_err(|e| e.to_string())?;
        let r = pearson(&est, &truth).unwrap_or(0.0);
        let hit = xbar_linalg::vec_ops::argmax(&est) == xbar_linalg::vec_ops::argmax(&truth);
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: None,
            deployed_accuracy: None,
            argmax_found: Some(hit),
        })
    }

    fn run_device(
        &self,
        index: usize,
        injection: Option<FaultInjection>,
        transients: Option<TransientInjection>,
    ) -> Result<AblationOutput, String> {
        let (_, device) = Self::device_conditions()
            .into_iter()
            .nth(index)
            .ok_or_else(|| format!("device condition {index} out of range"))?;
        let cfg = Self::faulted(
            OracleConfig::ideal()
                .with_access(OutputAccess::None)
                .with_device(device)
                .with_backend(self.backend),
            injection,
            transients,
        );
        let (r, acc) = self.probe_and_attack(&cfg, 37, 1)?;
        // Also report how the non-ideality hurts the *victim* itself.
        let oracle = Oracle::new(self.victim.net.clone(), &cfg, 37).map_err(|e| e.to_string())?;
        let deployed = oracle
            .eval_accuracy(self.victim.test.inputs(), self.victim.test.labels())
            .map_err(|e| e.to_string())?;
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
            deployed_accuracy: Some(deployed),
            argmax_found: None,
        })
    }

    fn run_defense(
        &self,
        index: usize,
        injection: Option<FaultInjection>,
        transients: Option<TransientInjection>,
    ) -> Result<AblationOutput, String> {
        let (_, defense) = self
            .defense_conditions()
            .into_iter()
            .nth(index)
            .ok_or_else(|| format!("defense condition {index} out of range"))?;
        let oracle = Oracle::new(
            self.victim.net.clone(),
            &Self::faulted(
                OracleConfig::ideal()
                    .with_access(OutputAccess::None)
                    .with_backend(self.backend),
                injection,
                transients,
            ),
            41,
        )
        .map_err(|e| e.to_string())?;
        let mut defended = DefendedOracle::new(oracle, defense, 43).map_err(|e| e.to_string())?;
        let probed = defended
            .probe_column_norms(1.0, 1)
            .map_err(|e| e.to_string())?;
        let truth = defended.inner().true_column_norms();
        let r = pearson(&probed, &truth).unwrap_or(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            self.victim.test.inputs(),
            &self.victim.test.one_hot_targets(),
            PixelAttackResources::norms_only(&probed),
            self.strength,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let acc = defended
            .inner()
            .eval_accuracy(&adv, self.victim.test.labels())
            .map_err(|e| e.to_string())?;
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
            deployed_accuracy: None,
            argmax_found: None,
        })
    }
}

impl TrialRunner for AblationsRunner {
    type Spec = AblationSpec;
    type Output = AblationOutput;

    fn run(&self, spec: &AblationSpec, ctx: &TrialContext) -> Result<AblationOutput, String> {
        let injection = trial_injection(self.faults, ctx);
        let transients = trial_transients(self.transients, ctx);
        match spec.study {
            AblationStudy::Noise => self.run_noise(spec.index, injection, transients),
            AblationStudy::Compressed => self.run_compressed(spec.index, injection, transients),
            AblationStudy::Device => self.run_device(spec.index, injection, transients),
            AblationStudy::Defense => self.run_defense(spec.index, injection, transients),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{from_str, to_string};

    #[test]
    fn fig4_grid_shape_and_fingerprint_stability() {
        let a = fig4_campaign(true);
        let b = fig4_campaign(true);
        assert_eq!(a.len(), 4 * PixelAttackMethod::all().len());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), fig4_campaign(false).fingerprint());
    }

    #[test]
    fn fig5_grid_is_row_major() {
        let c = fig5_campaign(true);
        let (runs, ..) = fig5_params(true);
        assert_eq!(c.len() as u64, 4 * runs);
        // Trial index = row * runs + run.
        let idx = |row: usize, run: u64| &c.trials[row * runs as usize + run as usize];
        assert_eq!(idx(0, 0).run, 0);
        assert_eq!(idx(0, runs - 1).run, runs - 1);
        assert_eq!(idx(2, 0).dataset, DatasetKind::Objects);
    }

    #[test]
    fn spec_json_roundtrips() {
        let spec = Fig4Spec {
            dataset: DatasetKind::Objects,
            head: HeadKind::LinearMse,
            method: PixelAttackMethod::NormRandom,
            strengths: vec![0.0, 1.5],
            num_samples: 100,
            stochastic_reps: 3,
        };
        let back: Fig4Spec = from_str(&to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);

        let spec = AblationSpec {
            study: AblationStudy::Compressed,
            index: 4,
        };
        let back: AblationSpec = from_str(&to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }
}
