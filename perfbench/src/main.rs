//! `xbar-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_paper|oracle_1m|paper_campaigns \
//!     --seed N --seconds S --trace 0|1 \
//!     --low-qps R --high-qps R --ladder R1,R2,...
//! ```
//!
//! Run from the root of a checkout. Human-readable results (host
//! fingerprint, every metric under its workload-specific name, checks)
//! go to stderr; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end slots; with `--trace 1` the workload
//! is run untraced and then traced (`serve_paper` builds its spans from
//! the untraced run's timestamps), and the metrics are the per-layer
//! figures. The exit code is non-zero when a correctness check fails.
//! See `perfbench/README.md` for the workloads and the metric map.

mod campaigns;
mod host;
mod oracle1m;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The end-to-end slots every workload fills (see the README for what
/// each slot means per workload), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_s", "1/s"),
    ("light_p50_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("light_wall_s", "s"),
    ("heavy_wall_s", "s"),
];

/// The per-layer metrics of a traced run, with units. A layer that a
/// workload never calls reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.request_ns.p50", "ns"),
    ("serve.queue_wait_ns.p50", "ns"),
    ("serve.queue_wait_ns.p99", "ns"),
    ("serve.flush_occupancy.mean", "count"),
    ("serve.flush_deadline_share", "ratio"),
    ("serve.journal_write_ns.p99", "ns"),
    ("serve.wire_decode_us", "us"),
    ("serve.wire_encode_us", "us"),
    ("serve.fds_delta", "count"),
    ("serve.rss_delta_mb", "MB"),
    ("serve.failed_share", "ratio"),
    ("serve.default_ack.p99_ms", "ms"),
    ("gen.lag_ms.p99", "ms"),
    ("gen.behind_phases", "count"),
    ("core.observe_us", "us"),
    ("core.query_overhead_ms", "ms"),
    ("core.probe_s", "s"),
    ("core.attack_s", "s"),
    ("crossbar.kernel_ms", "ms"),
    ("crossbar.gmacs", "GMAC/s"),
    ("crossbar.roofline_frac", "ratio"),
    ("crossbar.prepare_ms", "ms"),
    ("crossbar.prepare_miss_share", "ratio"),
    ("faults.compile_ms", "ms"),
    ("faults.apply_ms", "ms"),
    ("data.generate_s", "s"),
    ("nn.train_s", "s"),
    ("victim.train_useful_ratio", "ratio"),
    ("infer.collect_s", "s"),
    ("infer.mcmc_s", "s"),
    ("runtime.busy_share", "ratio"),
    ("runtime.trials_failed", "count"),
    ("host.triad_gbs", "GB/s"),
    ("host.madd_gmacs", "GMAC/s"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
];

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Open-loop rates of `serve_paper`, queries per second.
    pub low_qps: f64,
    pub high_qps: f64,
    pub ladder: Vec<f64>,
}

/// The default `--seed`: the infer sweep's own campaign seed, at which
/// `paper_campaigns` must reproduce `results/infer-sweep.json` byte for
/// byte.
pub const DEFAULT_SEED: u64 = xbar_bench::infersweep::INFER_SWEEP_SEED;

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            low_qps: f64::NAN,
            high_qps: f64::NAN,
            ladder: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => opts.workload = value.to_string(),
                "--seed" => {
                    opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?
                }
                "--seconds" => opts.seconds = number(value)?,
                "--trace" => {
                    opts.trace = match value {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--low-qps" => opts.low_qps = number(value)?,
                "--high-qps" => opts.high_qps = number(value)?,
                "--ladder" => {
                    opts.ladder = value.split(',').map(number).collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        if opts.seconds.is_nan() || opts.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        // The serve rates have no defaults: BENCHMARK.json's command is
        // the one place they are set.
        let rates: Vec<f64> = [opts.low_qps, opts.high_qps]
            .into_iter()
            .chain(opts.ladder.iter().copied())
            .collect();
        if opts.ladder.is_empty() || rates.iter().any(|r| r.is_nan()) {
            return Err("--low-qps, --high-qps and --ladder are required".into());
        }
        if rates[0] <= 0.0 || rates.windows(2).any(|w| w[0] >= w[1]) {
            return Err("--low-qps < --high-qps < the --ladder rates must ascend".into());
        }
        Ok(opts)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks (empty = correct).
    pub problems: Vec<String>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end slots (from the untraced pass).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The same figures under their workload-specific names, with
    /// units, for the human-readable report.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form notes (validity flags, fixed seeds, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// Records a workload-specific figure and, if `slot` is set, the
    /// end-to-end slot it fills.
    pub fn named(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        slot: Option<&'static str>,
    ) {
        self.named.push((name.to_string(), value, unit));
        if let Some(slot) = slot {
            self.e2e.insert(slot, value);
        }
    }
}

/// The benchmark's own git-ignored output directory (spans, journals).
/// Runs start at the checkout root; `cargo test` starts in the package.
pub fn out_dir() -> PathBuf {
    if Path::new("perfbench").is_dir() {
        PathBuf::from("perfbench/out")
    } else {
        PathBuf::from("out")
    }
}

fn metrics_json(pairs: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "serve_paper" => serve::run(opts),
        "oracle_1m" => oracle1m::run(opts),
        "paper_campaigns" => campaigns::run(opts),
        "" => Err("--workload is required (serve_paper, oracle_1m, paper_campaigns)".into()),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("{}", host::Fingerprint::collect().render());
    eprintln!(
        "workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let mut outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            std::process::exit(2);
        }
    };
    outcome
        .e2e
        .entry("peak_rss_mb")
        .or_insert_with(host::peak_rss_mb);
    for (name, value, unit) in &outcome.named {
        eprintln!("  {name} = {value:.6} {unit}");
    }
    let (pairs, values) = if opts.trace {
        for (name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            eprintln!("  layer {name} = {value:.6} {unit}");
        }
        (PER_LAYER, &outcome.layers)
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
            eprintln!("  e2e {name} = {value:.6} {unit}");
        }
        (END_TO_END, &outcome.e2e)
    };
    for (name, _) in pairs {
        match values.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => outcome.problems.push(format!("metric {name} is {v}")),
            None if !opts.trace => outcome.problems.push(format!("metric {name} missing")),
            None => {}
        }
    }
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
    for problem in &outcome.problems {
        eprintln!("  CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(pairs, values)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Options for a smoke-sized run of `workload`.
    pub fn opts(workload: &str, seconds: f64, trace: bool) -> Opts {
        let serve_rates = "--low-qps 40 --high-qps 120 --ladder 200,300";
        let args: Vec<String> = ["--workload", workload, "--seed", "5", "--seconds"]
            .iter()
            .map(|s| s.to_string())
            .chain([
                seconds.to_string(),
                "--trace".into(),
                if trace { "1" } else { "0" }.into(),
            ])
            .chain(serve_rates.split(' ').map(String::from))
            .collect();
        Opts::parse(&args).unwrap()
    }

    /// Every end-to-end slot but the process-wide peak RSS is filled by
    /// the workload itself with a finite, non-zero value.
    pub fn assert_slots_filled(out: &Outcome) {
        for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
            let value = out.e2e.get(name).copied();
            assert!(
                value.is_some_and(|v| v.is_finite() && v != 0.0),
                "{name} = {value:?}"
            );
        }
        for (name, _) in PER_LAYER {
            if let Some(v) = out.layers.get(name) {
                assert!(v.is_finite(), "{name} = {v}");
            }
        }
    }

    #[test]
    fn options_parse_and_reject_bad_input() {
        let opts = opts("oracle_1m", 2.0, true);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (5, 2.0, true));
        let bad = |line: &str| {
            Opts::parse(&line.split(' ').map(String::from).collect::<Vec<_>>()).is_err()
        };
        assert!(bad("--trace 2"));
        assert!(bad("--ladder 5,4"));
        assert!(bad("--workload oracle_1m --ladder 5"));
        assert!(bad("--low-qps 4 --high-qps 3 --ladder 5"));
        assert!(bad("--low-qps 2 --high-qps 6 --ladder 5,7"));
        assert!(bad("--bogus 1"));
        assert!(bad("--seed"));
    }
}
