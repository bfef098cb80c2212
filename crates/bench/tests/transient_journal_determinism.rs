//! Acceptance test for the transient-fault keying contract: a campaign
//! with per-query transient faults enabled journals *byte-identically*
//! across executor thread counts and evaluation backends.
//!
//! Transient draws are keyed by
//! `(campaign_seed, trial_index, global query index, device)` — never by
//! scheduling — so the only permitted difference between runs is the
//! completion order of the journal's record lines. Sorted, the journals
//! must match byte for byte, header included.

use std::path::PathBuf;

use xbar_bench::campaign::{Fig4Runner, Fig4Spec, FIG4_VICTIM_SEED};
use xbar_bench::{DatasetKind, HeadKind};
use xbar_core::pixel_attack::PixelAttackMethod;
use xbar_crossbar::backend::BackendKind;
use xbar_faults::TransientSpec;
use xbar_runtime::{run_campaign, Campaign, ExecutorConfig, NullSink};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "xbar_transient_journal_{tag}_{}.jsonl",
        std::process::id()
    ))
}

/// A shrunken fig4 panel with non-trivial transients on every query.
fn tiny_transient_campaign() -> Campaign<Fig4Spec> {
    let mut campaign = Campaign::new("fig4-tiny-transients", FIG4_VICTIM_SEED);
    for method in [PixelAttackMethod::NormPlus, PixelAttackMethod::RandomPixel] {
        campaign.push_trial(Fig4Spec {
            dataset: DatasetKind::Digits,
            head: HeadKind::SoftmaxCe,
            method,
            strengths: vec![0.0, 4.0],
            num_samples: 160,
            stochastic_reps: 1,
        });
    }
    campaign
}

/// The journal's header line plus its record lines sorted — the only
/// run-to-run difference a correct executor may produce is record order.
fn sorted_journal(path: &PathBuf) -> (String, Vec<String>) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().expect("journal has a header");
    let mut records: Vec<String> = lines.collect();
    records.sort();
    (header, records)
}

/// ~13 s in release, over three minutes in debug — so debug builds skip
/// it and CI runs it with `cargo test --release`. In debug the keying
/// stays covered by `xbar-faults`' transient unit tests (key
/// determinism, batch split) and `proptest_faults.rs`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; run with --release (CI does)"
)]
fn transient_campaign_journals_are_thread_and_backend_invariant() {
    let campaign = tiny_transient_campaign();
    let transients = TransientSpec::none()
        .with_flip_rate(0.01)
        .with_jitter_sigma(0.05);
    let run = |threads: usize, backend: BackendKind| {
        let path = tmp(&format!("t{threads}_{backend}"));
        std::fs::remove_file(&path).ok();
        let report = run_campaign(
            &Fig4Runner::new(backend).with_transients(Some(transients)),
            &campaign,
            &ExecutorConfig::with_threads(threads),
            Some(&path),
            false,
            &mut NullSink,
        )
        .unwrap();
        assert!(report.all_ok());
        let journal = sorted_journal(&path);
        std::fs::remove_file(&path).ok();
        journal
    };

    let serial = run(1, BackendKind::Naive);
    let parallel = run(3, BackendKind::Naive);
    let blocked = run(3, BackendKind::Blocked);

    assert_eq!(serial.1.len(), campaign.len());
    assert_eq!(
        serial, parallel,
        "transient-fault journals must be thread-count-invariant"
    );
    assert_eq!(
        serial, blocked,
        "transient-fault journals must be backend-invariant"
    );

    // And the transients actually bite: the probed power side channel
    // differs from the pristine oracle's. (The journaled accuracies are
    // evaluated out-of-band on the deployed array, so they may tie; the
    // query path is where transients live.)
    use xbar_bench::train_victim;
    use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
    use xbar_core::probe::probe_column_norms;
    use xbar_faults::{FaultKey, TransientInjection};

    let victim = train_victim(
        DatasetKind::Digits,
        HeadKind::SoftmaxCe,
        200,
        FIG4_VICTIM_SEED,
    );
    let probe = |cfg: &OracleConfig| {
        let mut oracle = Oracle::new(victim.net.clone(), cfg, 55).unwrap();
        probe_column_norms(&mut oracle, 1.0, 1).unwrap()
    };
    let base = OracleConfig::ideal().with_access(OutputAccess::None);
    let transient_cfg = base.with_transients(TransientInjection::new(
        transients,
        FaultKey::new(FIG4_VICTIM_SEED, 0),
    ));
    assert_ne!(
        probe(&base),
        probe(&transient_cfg),
        "flip rate 0.01 + jitter 0.05 left the probed norms untouched"
    );
}
