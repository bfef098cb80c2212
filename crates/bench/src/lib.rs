//! # xbar-bench
//!
//! The experiment harness: shared setup code used by the binaries that
//! regenerate every table and figure of the paper. The repository's
//! performance benchmark is the separate `perfbench/` package (see its
//! `README.md`), declared in `BENCHMARK.json`.
//!
//! Experiment binaries (run with `cargo run -p xbar-bench --release --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — sensitivity / 1-norm correlations |
//! | `fig3` | Fig. 3 — sensitivity and 1-norm heatmaps |
//! | `fig4` | Fig. 4 — single-pixel attack curves |
//! | `fig5` | Fig. 5 — surrogate black-box attacks |
//! | `multipixel` | Sec. III multi-pixel discussion |
//! | `recovery` | Sec. IV exact-recovery observations |
//! | `ablations` | non-ideal-crossbar / defense extensions |
//!
//! Each binary prints the paper's rows/series as aligned tables and, when
//! `--json <path>` is given, writes machine-readable results.
//!
//! The `fig4`, `fig5` and `ablations` experiments run on the
//! [`xbar_runtime`] campaign executor (parallel, checkpointed,
//! resumable): their grids live in [`campaign`] and their drivers in
//! [`figures`]. The same drivers back the `xbar campaign` CLI
//! subcommand.
//!
//! [`faultsweep`] backs `xbar faults sweep`: attack-success-vs-fault-rate
//! robustness curves over the [`xbar_faults`] injection subsystem.
//!
//! [`lifetimesweep`] backs `xbar lifetime sweep`: attack efficacy over a
//! decaying hardware lifetime — a (drift time × transient rate ×
//! defense) cross-sweep with probe recalibration.
//!
//! [`infersweep`] backs `xbar infer sweep`: Bayesian column-norm
//! recovery from noisy power readings ([`xbar_infer`]) across query
//! budget, measurement noise, and chain count, with posterior-guided
//! attacks and credible-interval attack bands.

pub mod campaign;
pub mod faultsweep;
pub mod figures;
pub mod infersweep;
pub mod lifetimesweep;
pub mod setup;

pub use setup::*;
