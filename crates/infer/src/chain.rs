//! The chain runner: burn-in, thinning, and deterministic multi-chain
//! execution.
//!
//! Every random draw in a chain comes from a [`ChaCha8Rng`] stream
//! keyed by `(campaign_seed, chain_index, step)` — never by thread
//! identity or scheduling — so a chain's draws are a pure function of
//! its key. [`run_chains`] fans chains out over
//! [`xbar_linalg::par::for_each_chunk`], the same deterministic map the
//! crossbar's `ParallelBackend` uses: results are assembled by chain
//! index and are bit-identical at any thread count.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::distribution::Distribution;
use crate::error::InferError;
use crate::mcmc::{ess_step, rwm_step, BayesModel, ChainState, Kernel, StepStats};
use crate::Result;

/// Domain-separation salt so chain streams never collide with oracle
/// noise streams keyed from the same campaign seed.
const CHAIN_SEED_SALT: u64 = 0x1A7E_C0DE_5EED_CAB5;

/// Stream-index layout: chain index in the high bits, step in the low
/// 40. Bounds are checked by [`ChainConfig`] / [`run_chains`].
const STEP_BITS: u32 = 40;

/// The per-draw stream: ChaCha8 keyed by
/// `(campaign_seed, chain_index, step)`. Step `0` seeds the chain's
/// initial state; transitions use steps `1..`.
pub(crate) fn step_rng(campaign_seed: u64, chain_index: u64, step: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(campaign_seed ^ CHAIN_SEED_SALT);
    rng.set_stream(((chain_index + 1) << STEP_BITS) | step);
    rng
}

/// Sampling schedule of one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Transitions discarded before any draw is recorded.
    pub burn_in: usize,
    /// Draws recorded after burn-in.
    pub samples: usize,
    /// Transitions between recorded draws (`1` records every
    /// post-burn-in state).
    pub thin: usize,
}

impl ChainConfig {
    /// Validates `samples >= 1`, `thin >= 1`, and a total step count
    /// that fits the stream-index layout.
    pub fn new(burn_in: usize, samples: usize, thin: usize) -> Result<Self> {
        if samples == 0 {
            return Err(InferError::InvalidParameter { name: "samples" });
        }
        if thin == 0 {
            return Err(InferError::InvalidParameter { name: "thin" });
        }
        let cfg = ChainConfig {
            burn_in,
            samples,
            thin,
        };
        if cfg.total_steps() >= 1u64 << STEP_BITS {
            return Err(InferError::InvalidParameter { name: "samples" });
        }
        Ok(cfg)
    }

    /// Total transitions one chain performs.
    pub fn total_steps(&self) -> u64 {
        self.burn_in as u64 + (self.samples as u64) * (self.thin as u64)
    }
}

/// One finished chain: its post-burn-in draws plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResult {
    /// Which chain this is (`0..num_chains`).
    pub chain_index: usize,
    /// Recorded draws, one `dim`-length vector per retained step.
    pub draws: Vec<Vec<f64>>,
    /// Accepted transitions (elliptical slice always accepts).
    pub accepted: u64,
    /// Total transitions performed (burn-in included).
    pub steps: u64,
    /// Density evaluations spent across all transitions.
    pub density_evals: u64,
}

impl ChainResult {
    /// The chain's draws for one dimension, in step order — the series
    /// shape `xbar_stats::convergence` consumes.
    pub fn dim_series(&self, dim: usize) -> Vec<f64> {
        self.draws.iter().map(|d| d[dim]).collect()
    }

    /// Fraction of transitions accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }
}

/// Runs one chain to completion.
///
/// The initial state is drawn from the priors using step stream `0`;
/// transition `s` (1-based) uses step stream `s`. Two calls with the
/// same `(model, kernel, config, campaign_seed, chain_index)` return
/// identical draws, bit for bit.
///
/// # Errors
///
/// * Kernel/model mismatches from [`Kernel::validate`].
/// * [`InferError::InvalidParameter`] if `chain_index` does not fit the
///   stream layout (`>= 2^23`).
pub fn run_chain<M: BayesModel + ?Sized>(
    model: &M,
    kernel: &Kernel,
    config: &ChainConfig,
    campaign_seed: u64,
    chain_index: usize,
) -> Result<ChainResult> {
    kernel.validate(model)?;
    if (chain_index as u64) >= 1u64 << (63 - STEP_BITS) {
        return Err(InferError::InvalidParameter {
            name: "chain_index",
        });
    }
    let mut init_rng = step_rng(campaign_seed, chain_index as u64, 0);
    let theta: Vec<f64> = model
        .priors()
        .iter()
        .map(|p| p.sample(&mut init_rng))
        .collect();
    let mut state = ChainState::new(model, kernel, theta);

    let total = config.total_steps();
    let mut draws = Vec::with_capacity(config.samples);
    let mut accepted = 0u64;
    let mut density_evals = 1u64; // the initial state's cached density
    for step in 1..=total {
        let mut rng = step_rng(campaign_seed, chain_index as u64, step);
        let stats: StepStats = match kernel {
            Kernel::RandomWalk { steps } => rwm_step(model, steps, &mut state, &mut rng),
            Kernel::EllipticalSlice => ess_step(model, &mut state, &mut rng),
        };
        accepted += stats.accepted as u64;
        density_evals += stats.evals;
        if step > config.burn_in as u64
            && (step - config.burn_in as u64).is_multiple_of(config.thin as u64)
        {
            draws.push(state.theta.clone());
        }
    }
    debug_assert_eq!(draws.len(), config.samples);
    Ok(ChainResult {
        chain_index,
        draws,
        accepted,
        steps: total,
        density_evals,
    })
}

/// Runs `num_chains` independent chains, fanning contiguous chain
/// ranges out over [`xbar_linalg::par::for_each_chunk`] (`threads == 0`
/// uses one worker per available core, capped at the chain count).
///
/// Chains are keyed by `(campaign_seed, chain_index, step)` and
/// assembled by chain index, so the result is bit-identical at any
/// thread count — parallelism is a pure execution detail.
///
/// # Errors
///
/// * [`InferError::InvalidParameter`] for `num_chains == 0`.
/// * Per-chain errors from [`run_chain`] (the first, in chain order).
pub fn run_chains<M: BayesModel + ?Sized>(
    model: &M,
    kernel: &Kernel,
    config: &ChainConfig,
    campaign_seed: u64,
    num_chains: usize,
    threads: usize,
) -> Result<Vec<ChainResult>> {
    if num_chains == 0 {
        return Err(InferError::InvalidParameter { name: "num_chains" });
    }
    kernel.validate(model)?;
    let _span = xbar_obs::span(xbar_obs::names::SPAN_INFER_CHAINS);
    let mut slots: Vec<Option<Result<ChainResult>>> = (0..num_chains).map(|_| None).collect();
    xbar_linalg::par::for_each_chunk(&mut slots, threads, |start, mine| {
        for (chain, slot) in (start..).zip(mine) {
            *slot = Some(run_chain(model, kernel, config, campaign_seed, chain));
        }
    });
    let chains = slots
        .into_iter()
        .map(|s| s.expect("every chain slot is filled by its worker"))
        .collect::<Result<Vec<_>>>()?;
    // Aggregate observability once, on the caller's thread, so counters
    // land in the surrounding trial's totals regardless of how the
    // chains were scheduled.
    xbar_obs::count(xbar_obs::names::INFER_CHAIN, chains.len() as u64);
    xbar_obs::count(
        xbar_obs::names::INFER_MCMC_STEP,
        chains.iter().map(|c| c.steps).sum(),
    );
    xbar_obs::count(
        xbar_obs::names::INFER_LIKELIHOOD_EVAL,
        chains.iter().map(|c| c.density_evals).sum(),
    );
    Ok(chains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Prior;

    struct Toy {
        priors: Vec<Prior>,
    }

    impl BayesModel for Toy {
        fn dim(&self) -> usize {
            self.priors.len()
        }
        fn priors(&self) -> &[Prior] {
            &self.priors
        }
        fn log_likelihood(&self, theta: &[f64]) -> f64 {
            -0.5 * theta
                .iter()
                .map(|&x| (x - 1.0) * (x - 1.0) / 0.25)
                .sum::<f64>()
        }
    }

    fn toy(dim: usize) -> Toy {
        Toy {
            priors: vec![Prior::normal(0.0, 2.0).unwrap(); dim],
        }
    }

    #[test]
    fn config_validates_and_counts_steps() {
        assert!(ChainConfig::new(10, 0, 1).is_err());
        assert!(ChainConfig::new(10, 5, 0).is_err());
        let cfg = ChainConfig::new(100, 50, 3).unwrap();
        assert_eq!(cfg.total_steps(), 250);
    }

    #[test]
    fn burn_in_and_thinning_shape_the_draws() {
        let model = toy(2);
        let cfg = ChainConfig::new(20, 30, 4).unwrap();
        let result = run_chain(&model, &Kernel::EllipticalSlice, &cfg, 7, 0).unwrap();
        assert_eq!(result.draws.len(), 30);
        assert_eq!(result.steps, 20 + 30 * 4);
        assert_eq!(result.dim_series(0).len(), 30);
        assert!(result.acceptance_rate() > 0.0);
    }

    #[test]
    fn chains_are_deterministic_and_separated_by_their_key() {
        let model = toy(3);
        let cfg = ChainConfig::new(10, 20, 1).unwrap();
        let kernel = Kernel::RandomWalk {
            steps: vec![0.3; 3],
        };
        let a = run_chain(&model, &kernel, &cfg, 42, 1).unwrap();
        let b = run_chain(&model, &kernel, &cfg, 42, 1).unwrap();
        assert_eq!(a, b, "same key must replay the same chain");
        let other_chain = run_chain(&model, &kernel, &cfg, 42, 2).unwrap();
        let other_seed = run_chain(&model, &kernel, &cfg, 43, 1).unwrap();
        assert_ne!(a.draws, other_chain.draws, "chain index must separate");
        assert_ne!(a.draws, other_seed.draws, "campaign seed must separate");
    }

    #[test]
    fn thread_count_is_a_pure_execution_detail() {
        let model = toy(2);
        let cfg = ChainConfig::new(15, 25, 2).unwrap();
        let serial = run_chains(&model, &Kernel::EllipticalSlice, &cfg, 5, 6, 1).unwrap();
        for threads in [2, 4, 8] {
            let parallel =
                run_chains(&model, &Kernel::EllipticalSlice, &cfg, 5, 6, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads} changed the draws");
        }
        let auto = run_chains(&model, &Kernel::EllipticalSlice, &cfg, 5, 6, 0).unwrap();
        assert_eq!(serial, auto);
    }

    #[test]
    fn chain_results_arrive_in_index_order() {
        let model = toy(1);
        let cfg = ChainConfig::new(5, 5, 1).unwrap();
        let chains = run_chains(&model, &Kernel::EllipticalSlice, &cfg, 9, 5, 3).unwrap();
        for (i, c) in chains.iter().enumerate() {
            assert_eq!(c.chain_index, i);
        }
    }

    #[test]
    fn zero_chains_is_rejected() {
        let model = toy(1);
        let cfg = ChainConfig::new(5, 5, 1).unwrap();
        assert!(matches!(
            run_chains(&model, &Kernel::EllipticalSlice, &cfg, 9, 0, 1),
            Err(InferError::InvalidParameter { name: "num_chains" })
        ));
    }

    #[test]
    fn multi_chain_draws_match_single_chain_runs() {
        let model = toy(2);
        let cfg = ChainConfig::new(10, 10, 1).unwrap();
        let bundle = run_chains(&model, &Kernel::EllipticalSlice, &cfg, 11, 3, 2).unwrap();
        for (c, chained) in bundle.iter().enumerate() {
            let solo = run_chain(&model, &Kernel::EllipticalSlice, &cfg, 11, c).unwrap();
            assert_eq!(*chained, solo);
        }
    }
}
