//! Acceptance tests for the observability layer: the deterministic
//! content of an `xbar-obs` trace — per-trial oracle-query counters,
//! power-probe counters, value summaries, and span counts — must be
//! bit-identical across executor thread counts. Only the `*_nanos`
//! wall-clock fields may differ.

use std::path::PathBuf;

use serde::Value;
use xbar_bench::campaign::{fig4_campaign, Fig4Runner, Fig4Spec, FIG4_VICTIM_SEED};
use xbar_bench::{DatasetKind, HeadKind};
use xbar_core::pixel_attack::PixelAttackMethod;
use xbar_crossbar::backend::BackendKind;
use xbar_runtime::{run_campaign_traced, Campaign, ExecutorConfig, NullSink};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xbar_trace_det_{tag}_{}.jsonl", std::process::id()))
}

/// A shrunken fig4 panel: all five methods on digits/softmax, two
/// strengths, a small victim. Same code path as the real grid.
fn tiny_campaign() -> Campaign<Fig4Spec> {
    let strengths = vec![0.0, 4.0];
    let mut campaign = Campaign::new("fig4-tiny-trace", FIG4_VICTIM_SEED);
    for method in PixelAttackMethod::all() {
        campaign.push_trial(Fig4Spec {
            dataset: DatasetKind::Digits,
            head: HeadKind::SoftmaxCe,
            method,
            strengths: strengths.clone(),
            num_samples: 160,
            stochastic_reps: 2,
        });
    }
    campaign
}

/// Renders the deterministic half of a trace: per trial (sorted by
/// index) the status, attempts, counters, value summaries, and span
/// *names and counts* — everything except the `*_nanos` fields.
fn deterministic_view(path: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut rows = Vec::new();
    for line in text.lines() {
        let record = serde_json::parse_value(line).unwrap();
        if record.get("kind").and_then(Value::as_str) != Some("trial") {
            continue;
        }
        let trial = match record.get("trial") {
            Some(Value::U64(t)) => *t,
            other => panic!("bad trial field: {other:?}"),
        };
        let counters = serde_json::to_string(record.get("counters").expect("counters")).unwrap();
        let values = serde_json::to_string(record.get("values").expect("values")).unwrap();
        let span_counts: Vec<String> = record
            .get("spans")
            .and_then(Value::as_object)
            .expect("spans")
            .iter()
            .map(|(name, stats)| {
                let count = stats
                    .get("count")
                    .map(|c| serde_json::to_string(c).unwrap());
                format!("{name}:{}", count.unwrap_or_default())
            })
            .collect();
        rows.push((
            trial,
            format!(
                "trial={trial} status={:?} attempts={:?} counters={counters} values={values} spans={}",
                record.get("status").and_then(Value::as_str),
                record.get("attempts"),
                span_counts.join(",")
            ),
        ));
    }
    rows.sort_by_key(|(trial, _)| *trial);
    rows.into_iter().map(|(_, row)| row).collect()
}

fn assert_thread_invariant(campaign: &Campaign<Fig4Spec>, tag: &str) {
    let run = |threads: usize, backend: BackendKind| {
        let path = tmp(&format!("{tag}_t{threads}_{backend}"));
        let report = run_campaign_traced(
            &Fig4Runner::new(backend),
            campaign,
            &ExecutorConfig::with_threads(threads),
            None,
            false,
            &mut NullSink,
            Some(&path),
        )
        .unwrap();
        assert!(report.all_ok());
        (
            path,
            report.metrics.oracle_queries,
            report.metrics.probe_measurements,
        )
    };
    let (serial_path, serial_queries, serial_probes) = run(1, BackendKind::Naive);
    let (parallel_path, parallel_queries, parallel_probes) = run(4, BackendKind::Naive);
    let (blocked_path, blocked_queries, blocked_probes) = run(4, BackendKind::Blocked);

    let serial = deterministic_view(&serial_path);
    let parallel = deterministic_view(&parallel_path);
    let blocked = deterministic_view(&blocked_path);
    std::fs::remove_file(&serial_path).ok();
    std::fs::remove_file(&parallel_path).ok();
    std::fs::remove_file(&blocked_path).ok();

    assert_eq!(serial.len(), campaign.len());
    assert_eq!(
        serial, parallel,
        "deterministic trace content must be thread-count-invariant"
    );
    assert_eq!(
        serial, blocked,
        "deterministic trace content must be backend-invariant"
    );
    assert_eq!(
        (serial_queries, serial_probes),
        (blocked_queries, blocked_probes)
    );
    // The per-trial records really carry the side-channel accounting.
    assert!(
        serial
            .iter()
            .all(|row| row.contains("oracle.query") && row.contains("probe.measurement")),
        "{serial:#?}"
    );
    // And the executor's aggregate metrics agree across thread counts.
    assert_eq!(serial_queries, parallel_queries);
    assert_eq!(serial_probes, parallel_probes);
    assert!(serial_queries > 0 && serial_probes > 0);
}

#[test]
fn tiny_fig4_trace_counters_are_thread_invariant() {
    assert_thread_invariant(&tiny_campaign(), "tiny");
}

/// The full acceptance check: `fig4 --quick` traced at 1 and 4
/// threads. ~20 s per run in release, several minutes in debug — so
/// debug builds skip it and CI runs it with `cargo test --release`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; run with --release (CI does)"
)]
fn fig4_quick_trace_counters_are_thread_invariant() {
    assert_thread_invariant(&fig4_campaign(true), "fig4_quick");
}
