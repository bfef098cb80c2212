//! Reproduces **Figure 5** of the paper: incorporating power information
//! into surrogate-based black-box attacks.
//!
//! Four rows — {digits, objects} x {label-only, raw-output} oracle access
//! — and three columns per row:
//!
//! 1. surrogate test accuracy vs query count, per power-loss weight λ;
//! 2. oracle test accuracy under FGSM(ε = 0.1) adversarial inputs crafted
//!    on the surrogate, vs query count;
//! 3. the improvement in attack efficacy (degradation with power minus
//!    degradation without), with `*` marking `p < 0.05` under a
//!    Student's/Welch t-test over the independent runs.
//!
//! Oracles use the linear head + MSE training (the paper uses linear
//! surrogates/oracles throughout Sec. IV).
//!
//! Runs as an `xbar-runtime` campaign (one trial per independent run);
//! see `xbar_bench::figures::run_fig5`. For checkpointing and resume,
//! use `xbar campaign --figure fig5`.
//!
//! Usage: `cargo run -p xbar-bench --release --bin fig5 [--quick] [--json results/fig5.json]`

use xbar_bench::figures::{run_fig5, CampaignOptions};
use xbar_bench::parse_args;

fn main() {
    let (json_path, quick) = parse_args();
    let mut opts = CampaignOptions::new(quick);
    opts.json_out = json_path;
    if let Err(e) = run_fig5(&opts) {
        eprintln!("fig5 failed: {e}");
        std::process::exit(1);
    }
}
