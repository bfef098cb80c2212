//! # xbar-infer
//!
//! Bayesian weight recovery and MCMC model extraction from noisy power
//! observations.
//!
//! The paper's probe recovers *point estimates* of the victim's column
//! 1-norms from switching power. This crate treats the same recovery as
//! posterior inference: given a budget of noisy power observations, it
//! samples a posterior over the norm vector and answers *how many
//! queries until the posterior is tight enough to attack?* with
//! credible intervals instead of point guesses.
//!
//! The pieces, bottom up:
//!
//! * [`distribution`] — a [`Distribution`] trait (log-density +
//!   deterministic sampling from a caller-supplied ChaCha8 stream) with
//!   [`Normal`], [`LogNormal`], and [`Uniform`] instances, wrapped by
//!   the [`Prior`] enum the samplers consume.
//! * [`mcmc`] — the [`BayesModel`] trait and the two transition
//!   [`Kernel`]s: random-walk Metropolis–Hastings and elliptical slice
//!   sampling (for Gaussian priors).
//! * [`chain`] — the chain runner: burn-in, thinning, and multi-chain
//!   support, with every random draw keyed by
//!   `(campaign_seed, chain_index, step)` so results are bit-identical
//!   at any thread count ([`run_chains`] parallelises over
//!   `xbar_linalg::par::for_each_chunk`, the same deterministic map the
//!   crossbar's `ParallelBackend` uses).
//! * [`likelihood`] — the power-observation likelihood:
//!   [`PowerObservations`] wraps `Oracle::query_batch` /
//!   `Oracle::observe_batch_keyed`, so inference composes with faults,
//!   transients, drift, and defenses exactly like every other attack;
//!   [`NormPosterior`] is the Bayesian model `power(u) = ⟨u, ν⟩ + ε`.
//! * [`posterior`] — summaries: per-column means, credible intervals,
//!   and the `xbar-stats` convergence gates (split-R̂, ESS).
//!
//! # Example
//!
//! ```
//! use xbar_infer::{
//!     run_chains, summarize, ChainConfig, Kernel, NormPosterior, PowerObservations, Prior,
//! };
//! use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
//! use xbar_linalg::Matrix;
//! use xbar_nn::activation::Activation;
//! use xbar_nn::network::SingleLayerNet;
//!
//! // A tiny victim with known column norms [1.5, 0.75].
//! let w = Matrix::from_rows(&[&[1.0, -0.5], &[0.5, 0.25]]);
//! let net = SingleLayerNet::from_weights(w, Activation::Identity);
//! let mut oracle = Oracle::new(
//!     net,
//!     &OracleConfig::ideal().with_access(OutputAccess::None),
//!     7,
//! )
//! .unwrap();
//!
//! // Spend 16 queries on a random design, then sample the posterior.
//! let design = xbar_infer::random_design(16, 2, None, 99).unwrap();
//! let obs = PowerObservations::collect(&mut oracle, &design).unwrap();
//! let priors = vec![Prior::normal(1.0, 2.0).unwrap(); 2];
//! let model = NormPosterior::new(&obs, &[0, 1], priors, 0.05).unwrap();
//! let chains = run_chains(
//!     &model,
//!     &Kernel::EllipticalSlice,
//!     &ChainConfig::new(200, 400, 2).unwrap(),
//!     42,
//!     2,
//!     1,
//! )
//! .unwrap();
//! let report = summarize(&chains, model.subset(), 0.95).unwrap();
//! let truth = oracle.true_column_norms();
//! assert_eq!(report.coverage(&truth).unwrap(), 1.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chain;
pub mod distribution;
pub mod error;
pub mod likelihood;
pub mod mcmc;
pub mod posterior;

pub use chain::{run_chain, run_chains, ChainConfig, ChainResult};
pub use distribution::{Distribution, LogNormal, Normal, Prior, Uniform};
pub use error::InferError;
pub use likelihood::{estimate_noise_sigma, random_design, NormPosterior, PowerObservations};
pub use mcmc::{BayesModel, Kernel};
pub use posterior::{evenly_spaced_draws, summarize, DimPosterior, PosteriorReport};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InferError>;
