//! The `xbar` subcommand implementations.

use crate::args::{ArgsError, ParsedArgs};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_core::blackbox::{run_blackbox_attack, BlackBoxConfig};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::persist;
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::probe::{probe_column_norms, probe_norms_compressed};
use xbar_core::recovery::{recover_columns_by_basis_probes, relative_error};
use xbar_core::report::{ascii_heatmap, fmt, format_table};
use xbar_data::synth::digits::DigitsConfig;
use xbar_data::synth::objects::ObjectsConfig;
use xbar_data::Dataset;
use xbar_nn::activation::Activation;
use xbar_nn::loss::Loss;
use xbar_nn::metrics::accuracy;
use xbar_nn::network::SingleLayerNet;
use xbar_nn::train::{train, SgdConfig};

/// Any error a subcommand can produce.
pub type CliError = Box<dyn std::error::Error>;

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns the subcommand's failure, or an [`ArgsError`] for an unknown
/// command.
pub fn dispatch(args: &ParsedArgs) -> Result<(), CliError> {
    // Only `trace`, `faults`, `lifetime`, `infer` and `serve` take
    // positional arguments (their action, plus the trace path).
    if args.command != "trace"
        && args.command != "faults"
        && args.command != "lifetime"
        && args.command != "infer"
        && args.command != "serve"
    {
        args.expect_no_positionals()?;
    }
    match args.command.as_str() {
        "train" => cmd_train(args),
        "probe" => cmd_probe(args),
        "attack" => cmd_attack(args),
        "blackbox" => cmd_blackbox(args),
        "recover" => cmd_recover(args),
        "campaign" => cmd_campaign(args),
        "faults" => cmd_faults(args),
        "lifetime" => cmd_lifetime(args),
        "infer" => cmd_infer(args),
        "serve" => cmd_serve(args),
        "trace" => cmd_trace(args),
        "help" => {
            print_help();
            Ok(())
        }
        other => Err(Box::new(ArgsError::Malformed {
            token: other.to_string(),
        })),
    }
}

/// Prints usage for every subcommand.
pub fn print_help() {
    println!(
        "xbar — power side-channel attacks on NVM crossbar neural networks

USAGE: xbar <command> [--option value]...

COMMANDS:
  train     train a victim and save it
            --out FILE [--dataset digits|objects] [--head linear|softmax]
            [--samples N] [--seed S]
  probe     deploy a model on a crossbar and probe its column 1-norms
            --model FILE [--seed S] [--compressed-queries K]
  attack    run the Fig.4 single-pixel attacks against a deployed model
            --model FILE [--strength X] [--dataset ...] [--samples N] [--seed S]
  blackbox  run the Fig.5 surrogate pipeline against a deployed model
            --model FILE --queries Q [--lambda L] [--eps E]
            [--access label|raw] [--dataset ...] [--samples N] [--seed S]
  recover   recover the weights of a linear model via basis probes
            --model FILE [--seed S]
  campaign  run a figure's experiment grid on the parallel campaign
            runtime (checkpointed and resumable)
            --figure fig4|fig5|ablations [--threads N] [--resume]
            [--journal FILE] [--out FILE] [--retries N] [--quick]
            [--backend naive|blocked|parallel[:N]] [--trace FILE]
            [--faults SPEC.json]
            [--transients FLIP[,JITTER]] [--progress stderr|json|none]
            [--progress-every N]
  serve     multi-tenant attack-campaign service (NDJSON over TCP)
            host --model FILE [--name NAME] [--addr HOST:PORT]
                 [--workers N] [--max-sessions N] [--max-inflight N]
                 [--no-coalesce] [--journal FILE] [--seed S]
                 [--backend naive|blocked|parallel[:N]]
                 [--access none|label|raw] [--power-noise X]
                 [--read-sigma X] [--metrics FILE] [--metrics-every MS]
            serve the model until a client sends the shutdown op;
            --journal makes sessions resumable across restarts;
            --metrics appends periodic telemetry snapshots as JSONL
            drive --addr HOST:PORT --dim N [--sessions N] [--queries Q]
                  [--victim NAME] [--seed S] [--shutdown]
            scripted multi-session client: concurrent budgeted
            sessions plus a same-seed determinism check
            stats [--addr HOST:PORT] [--prom]
            scrape a running service's live metrics plane: per-victim
            request counters, gauges and latency histograms
            (--prom prints Prometheus text exposition instead)
  faults    deterministic device fault injection
            sweep [--quick] [--threads N] [--out FILE] [--resume]
                  [--journal FILE] [--retries N]
                  [--backend naive|blocked|parallel[:N]]
                  [--trace FILE] [--progress stderr|json|none]
                  [--progress-every N]
            attack-success-vs-fault-rate robustness curves over stuck-at,
            variation, drift and line-resistance axes (writes
            results/faults-sweep.json; bit-identical at any thread count)
  lifetime  device-lifetime robustness
            sweep [--quick] [--threads N] [--out FILE] [--resume]
                  [--journal FILE] [--retries N]
                  [--backend naive|blocked|parallel[:N]]
                  [--recalibrate never|every:N|stale:X] [--trace FILE]
                  [--progress stderr|json|none] [--progress-every N]
            (drift time x transient rate x defense) cross-sweep with
            probe recalibration and graceful degradation — failed cells
            are journaled and skipped (writes results/lifetime-sweep.json)
  infer     Bayesian weight recovery from the power side channel
            sweep [--quick] [--threads N] [--out FILE] [--resume]
                  [--journal FILE] [--retries N]
                  [--backend naive|blocked|parallel[:N]]
                  [--trace FILE] [--progress stderr|json|none]
                  [--progress-every N]
            MCMC posterior over column 1-norms from noisy power
            readings, swept over query budget x noise x chain count;
            reports coverage, credible-interval widths, split-R-hat
            convergence and posterior-guided attack bands (writes
            results/infer-sweep.json; bit-identical at any thread count)
  trace     inspect an xbar-obs JSONL trace written by --trace
            summarize FILE   per-stage totals: counters per trial,
                             value series, span counts and wall times;
                             also reads `serve host --metrics` snapshot
                             files (last snapshot wins — counters are
                             cumulative)
  help      this message"
    );
}

/// Reads a fault-spec JSON file into a validated [`xbar_faults::FaultSpec`].
fn load_fault_spec(path: &str) -> Result<xbar_faults::FaultSpec, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read fault spec {path}: {e}"))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("fault spec {path}: {e}"))?;
    xbar_faults::FaultSpec::from_json_value(&value)
        .map_err(|e| -> CliError { format!("fault spec {path}: {e}").into() })
}

/// Parses `--transients "FLIP[,JITTER]"` into a validated
/// [`xbar_faults::TransientSpec`]. A single number sets only the
/// read-disturb flip rate; a second, comma-separated number sets the
/// transient jitter sigma.
fn parse_transients(text: &str) -> Result<xbar_faults::TransientSpec, CliError> {
    let mut parts = text.splitn(2, ',');
    let flip: f64 =
        parts.next().unwrap_or("").trim().parse().map_err(|_| {
            format!("--transients: bad flip rate in {text:?} (expected FLIP[,JITTER])")
        })?;
    let jitter: f64 = match parts.next() {
        Some(j) => j
            .trim()
            .parse()
            .map_err(|_| format!("--transients: bad jitter sigma in {text:?}"))?,
        None => 0.0,
    };
    let spec = xbar_faults::TransientSpec::none()
        .with_flip_rate(flip)
        .with_jitter_sigma(jitter);
    spec.validate()
        .map_err(|e| -> CliError { format!("--transients {text:?}: {e}").into() })?;
    Ok(spec)
}

/// Parses `--recalibrate never|every:N|stale:X` into a
/// [`xbar_core::probe::RecalibrationPolicy`].
fn parse_recalibrate(text: &str) -> Result<xbar_core::probe::RecalibrationPolicy, CliError> {
    use xbar_core::probe::RecalibrationPolicy;
    if text == "never" {
        return Ok(RecalibrationPolicy::never());
    }
    if let Some(n) = text.strip_prefix("every:") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("--recalibrate: bad query count in {text:?}"))?;
        if n == 0 {
            return Err(format!("--recalibrate: every:N needs N > 0, got {text:?}").into());
        }
        return Ok(RecalibrationPolicy::every(n));
    }
    if let Some(x) = text.strip_prefix("stale:") {
        let x: f64 = x
            .parse()
            .map_err(|_| format!("--recalibrate: bad staleness threshold in {text:?}"))?;
        if !(x.is_finite() && x > 0.0) {
            return Err(format!("--recalibrate: stale:X needs X > 0, got {text:?}").into());
        }
        return Ok(RecalibrationPolicy::on_staleness(x));
    }
    Err(format!("--recalibrate: expected never|every:N|stale:X, got {text:?}").into())
}

/// Parses `--backend naive|blocked|parallel[:THREADS]` into a
/// [`xbar_crossbar::backend::BackendSpec`] — the one place the grammar
/// lives, shared by `campaign`, the sweeps, and `serve host`. The
/// `default` kind applies when the flag is absent.
fn backend_spec(
    args: &ParsedArgs,
    default: xbar_crossbar::backend::BackendKind,
) -> Result<xbar_crossbar::backend::BackendSpec, CliError> {
    match args.get("backend") {
        None => Ok(xbar_crossbar::backend::BackendSpec::new(default)),
        Some(raw) => raw
            .parse()
            .map_err(|e: String| -> CliError { format!("--backend: {e}").into() }),
    }
}

/// Parses the executor options shared by `campaign` and `faults sweep`.
/// The journal is always kept (it is what `--resume` reads); the default
/// path is per campaign so grids don't clobber each other.
fn campaign_options(
    args: &ParsedArgs,
    default_journal: &str,
) -> Result<xbar_bench::figures::CampaignOptions, CliError> {
    use xbar_bench::figures::{CampaignOptions, ProgressMode};

    let mut opts = CampaignOptions::new(args.flag("quick"));
    opts.threads = args.get_or("threads", 0usize)?;
    opts.max_retries = args.get_or("retries", 1u32)?;
    opts.resume = args.flag("resume");
    opts.json_out = args.get("out").map(str::to_string);
    opts.trace = args
        .get("trace")
        .filter(|t| !t.is_empty())
        .map(std::path::PathBuf::from);
    opts.progress = args.get_or("progress", ProgressMode::Stderr)?;
    opts.progress_every = args.get_or("progress-every", 1usize)?.max(1);
    // Pure execution detail: results are bit-identical across backends.
    opts.backend = backend_spec(args, xbar_crossbar::backend::BackendKind::Naive)?;
    let journal = args
        .get("journal")
        .filter(|j| !j.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| default_journal.to_string());
    opts.journal = Some(journal.into());
    Ok(opts)
}

fn cmd_campaign(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_bench::figures::{run_ablations, run_fig4, run_fig5};

    let figure = args.require("figure")?.to_string();
    let mut opts = campaign_options(args, &format!("results/{figure}-journal.jsonl"))?;
    // Optional device faults, injected into every trial's deployed
    // crossbar under the (campaign_seed, trial_index) key.
    opts.faults = args.get("faults").map(load_fault_spec).transpose()?;
    // Optional per-query transient faults, keyed additionally by the
    // global query index.
    opts.transients = args.get("transients").map(parse_transients).transpose()?;

    let run = match figure.as_str() {
        "fig4" => run_fig4,
        "fig5" => run_fig5,
        "ablations" => run_ablations,
        other => {
            return Err(Box::new(ArgsError::BadValue {
                name: "figure",
                value: other.to_string(),
            }))
        }
    };
    run(&opts).map_err(|e| -> CliError { e.into() })
}

/// Parses `--access none|label|raw` into an [`OutputAccess`].
fn parse_output_access(text: &str) -> Result<OutputAccess, CliError> {
    match text {
        "none" => Ok(OutputAccess::None),
        "label" => Ok(OutputAccess::LabelOnly),
        "raw" => Ok(OutputAccess::Raw),
        other => Err(Box::new(ArgsError::BadValue {
            name: "access",
            value: other.to_string(),
        })),
    }
}

fn cmd_serve(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("host") => cmd_serve_host(args),
        Some("drive") => cmd_serve_drive(args),
        Some("stats") => cmd_serve_stats(args),
        Some(other) => {
            Err(format!("unknown serve action {other:?} (expected: host, drive, stats)").into())
        }
        None => Err("usage: xbar serve host --model FILE [--addr HOST:PORT] | \
             xbar serve drive --addr HOST:PORT --dim N | \
             xbar serve stats [--addr HOST:PORT] [--prom]"
            .into()),
    }
}

/// `xbar serve host`: deploy a saved model behind the campaign service
/// and serve it until a client sends the `shutdown` op.
fn cmd_serve_host(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_crossbar::backend::BackendKind;
    use xbar_crossbar::device::DeviceModel;
    use xbar_crossbar::power::PowerModel;
    use xbar_serve::coalesce::CoalescePolicy;
    use xbar_serve::{ServeConfig, Server, VictimRegistry};

    // Validate every option before touching the filesystem or network.
    let model_path = args.require("model")?.to_string();
    let name = args.get("name").unwrap_or("victim").to_string();
    let seed: u64 = args.get_or("seed", 1)?;
    let access = parse_output_access(args.get("access").unwrap_or("none"))?;
    let power_noise: f64 = args.get_or("power-noise", 0.0)?;
    let device = DeviceModel {
        read_sigma: args.get_or("read-sigma", 0.0)?,
        ..DeviceModel::ideal()
    };
    let metrics = args
        .get("metrics")
        .filter(|m| !m.is_empty())
        .map(std::path::PathBuf::from);
    let metrics_every =
        std::time::Duration::from_millis(args.get_or("metrics-every", 1000u64)?.max(1));
    let backend = backend_spec(args, BackendKind::Blocked)?;
    let net = persist::load_network(&model_path)?;
    let cfg = OracleConfig::ideal()
        .with_access(access)
        .with_device(device)
        .with_backend(backend)
        .with_power(PowerModel::default().with_noise(power_noise));
    let oracle = Oracle::new(net, &cfg, seed)?;
    let dim = oracle.num_inputs();

    let mut registry = VictimRegistry::new();
    registry.insert(&name, oracle)?;
    let config = ServeConfig {
        workers: args.get_or("workers", 4usize)?.max(1),
        max_sessions: args.get_or("max-sessions", 256usize)?,
        max_inflight: args.get_or("max-inflight", 4096usize)?,
        coalesce: CoalescePolicy {
            enabled: !args.flag("no-coalesce"),
            ..CoalescePolicy::default()
        },
        journal: args
            .get("journal")
            .filter(|j| !j.is_empty())
            .map(std::path::PathBuf::from),
        metrics,
        metrics_every,
        ..ServeConfig::default()
    };
    let server = Server::start(
        args.get("addr").unwrap_or("127.0.0.1:7878"),
        registry,
        config,
    )?;
    println!(
        "serving victim {name:?} ({dim} inputs) on {} — send the shutdown op to stop",
        server.local_addr()
    );
    server.run_until_shutdown();
    println!("campaign service drained and stopped");
    Ok(())
}

/// `xbar serve drive`: a scripted multi-session client for smoke tests —
/// drives N concurrent budgeted sessions, then replays one seed twice
/// and checks the served streams are bit-identical.
fn cmd_serve_drive(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_serve::Client;

    let addr = args.require("addr")?.to_string();
    let dim: usize = args.get_or("dim", 0usize)?;
    if dim == 0 {
        return Err("serve drive: --dim N (the victim's input dimension) is required".into());
    }
    let sessions: usize = args.get_or("sessions", 4usize)?.max(1);
    let queries: usize = args.get_or("queries", 8usize)?.max(1);
    let victim = args.get("victim").unwrap_or("victim").to_string();
    let base_seed: u64 = args.get_or("seed", 100)?;

    let input = |s: usize, q: usize| -> Vec<f64> {
        (0..dim)
            .map(|j| (((s * 131 + q * 17 + j) as f64) * 0.013).sin())
            .collect()
    };

    let start = std::time::Instant::now();
    std::thread::scope(|scope| -> Result<(), CliError> {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let (addr, victim) = (&addr, &victim);
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
                    // Seed-scoped ids: sessions persist server-side
                    // (resumable), so repeated drives against one
                    // server must not collide unless they share --seed.
                    let id = format!("drive-{base_seed}-{s}");
                    let budget = queries as u64;
                    client
                        .hello(
                            &id,
                            Some(victim),
                            Some(base_seed + 1 + s as u64),
                            Some(budget),
                        )
                        .map_err(|e| e.to_string())?;
                    for q in 0..queries {
                        client
                            .query(&id, std::slice::from_ref(&input(s, q)))
                            .map_err(|e| e.to_string())?;
                    }
                    // The budget is exactly spent: one more must bounce.
                    if client
                        .query(&id, std::slice::from_ref(&input(s, 0)))
                        .is_ok()
                    {
                        return Err(format!("session {id} exceeded its budget"));
                    }
                    client.close(&id).map_err(|e| e.to_string())?;
                    Ok(())
                })
            })
            .collect();
        for handle in handles {
            handle
                .join()
                .map_err(|_| -> CliError { "drive session thread panicked".into() })??;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed();
    let total = sessions * queries;
    println!(
        "drove {sessions} sessions x {queries} queries ({total} total) in {:.1} ms \
         ({:.0} q/s aggregate)",
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    // Determinism spot-check: the same seed served twice must yield
    // bit-identical records, however its queries were coalesced.
    let mut client = Client::connect(addr.as_str())?;
    let probes: Vec<Vec<f64>> = (0..2).map(|q| input(0, q)).collect();
    let check_a = format!("drive-{base_seed}-check-a");
    let check_b = format!("drive-{base_seed}-check-b");
    client.hello(&check_a, Some(&victim), Some(base_seed), None)?;
    let a = client.query(&check_a, &probes)?;
    client.close(&check_a)?;
    client.hello(&check_b, Some(&victim), Some(base_seed), None)?;
    let b = client.query(&check_b, &probes)?;
    client.close(&check_b)?;
    if a != b {
        return Err("determinism check failed: same-seed sessions diverged".into());
    }
    println!("determinism check: same-seed sessions bit-identical");

    if args.flag("shutdown") {
        client.shutdown_server()?;
        println!("asked the server to drain and stop");
    }
    Ok(())
}

/// `xbar serve stats`: scrape the live metrics plane of a running
/// service. Read-only — consumes no budget, admitted even when the
/// session table is full or the server is draining.
fn cmd_serve_stats(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_serve::Client;

    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let mut client = Client::connect(addr)?;
    if args.flag("prom") {
        print!("{}", client.stats_prometheus()?);
        return Ok(());
    }
    let stats = client.stats()?;
    print!("{}", render_serve_stats(&stats));
    Ok(())
}

fn cmd_faults(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("sweep") => {
            let opts = campaign_options(args, "results/faults-sweep-journal.jsonl")?;
            xbar_bench::faultsweep::run_fault_sweep(&opts).map_err(|e| -> CliError { e.into() })
        }
        Some(other) => Err(format!("unknown faults action {other:?} (expected: sweep)").into()),
        None => {
            Err("usage: xbar faults sweep [--quick] [--threads N] [--out FILE] [--resume]".into())
        }
    }
}

fn cmd_lifetime(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("sweep") => {
            let mut opts = campaign_options(args, "results/lifetime-sweep-journal.jsonl")?;
            // The lifetime sweep is the graceful-degradation showcase:
            // permanently failing cells are journaled and skipped in the
            // aggregation instead of aborting the sweep.
            opts.tolerate_failures = true;
            let policy = args
                .get("recalibrate")
                .map(parse_recalibrate)
                .transpose()?
                .unwrap_or(xbar_core::probe::RecalibrationPolicy::every(1));
            xbar_bench::lifetimesweep::run_lifetime_sweep(&opts, &policy)
                .map_err(|e| -> CliError { e.into() })
        }
        Some(other) => Err(format!("unknown lifetime action {other:?} (expected: sweep)").into()),
        None => Err(
            "usage: xbar lifetime sweep [--quick] [--threads N] [--out FILE] [--resume] \
             [--recalibrate never|every:N|stale:X]"
                .into(),
        ),
    }
}

fn cmd_infer(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("sweep") => {
            let opts = campaign_options(args, "results/infer-sweep-journal.jsonl")?;
            xbar_bench::infersweep::run_infer_sweep(&opts).map_err(|e| -> CliError { e.into() })
        }
        Some(other) => Err(format!("unknown infer action {other:?} (expected: sweep)").into()),
        None => {
            Err("usage: xbar infer sweep [--quick] [--threads N] [--out FILE] [--resume]".into())
        }
    }
}

fn cmd_trace(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("summarize") => match args.positional(1) {
            Some(path) => {
                print!("{}", summarize_trace(path)?);
                Ok(())
            }
            None => Err("usage: xbar trace summarize <trace.jsonl>".into()),
        },
        Some(other) => Err(format!("unknown trace action {other:?} (expected: summarize)").into()),
        None => Err("usage: xbar trace summarize <trace.jsonl>".into()),
    }
}

/// Best-effort unsigned coercion for a trace/stats JSON number.
fn json_u64(v: &serde::Value) -> u64 {
    use serde::Value;
    match v {
        Value::U64(x) => *x,
        Value::I64(x) => (*x).max(0) as u64,
        Value::F64(x) => *x as u64,
        _ => 0,
    }
}

/// Best-effort float coercion for a trace/stats JSON number.
fn json_f64(v: &serde::Value) -> f64 {
    use serde::Value;
    match v {
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        Value::F64(x) => *x,
        _ => 0.0,
    }
}

/// Renders a serve `stats` snapshot (the JSON shape of
/// [`xbar_obs::MetricsSnapshot::to_json`]) as per-victim counter, gauge
/// and histogram tables. Shared by `xbar serve stats` and the
/// serve-metrics section of `xbar trace summarize`.
fn render_serve_stats(stats: &serde::Value) -> String {
    use serde::Value;

    let mut out = String::new();
    let Some(Value::Object(victims)) = stats.get("victims") else {
        out.push_str("snapshot has no victims section\n");
        return out;
    };
    let mut counter_rows: Vec<Vec<String>> = Vec::new();
    let mut gauge_rows: Vec<Vec<String>> = Vec::new();
    let mut histogram_rows: Vec<Vec<String>> = Vec::new();
    for (victim, section) in victims {
        if let Some(Value::Object(counters)) = section.get("counters") {
            for (name, v) in counters {
                counter_rows.push(vec![victim.clone(), name.clone(), json_u64(v).to_string()]);
            }
        }
        if let Some(Value::Object(gauges)) = section.get("gauges") {
            for (name, v) in gauges {
                gauge_rows.push(vec![victim.clone(), name.clone(), fmt(json_f64(v), 1)]);
            }
        }
        if let Some(Value::Object(histograms)) = section.get("histograms") {
            for (name, h) in histograms {
                let q = |key: &str| h.get(key).map(json_f64).unwrap_or(0.0);
                histogram_rows.push(vec![
                    victim.clone(),
                    name.clone(),
                    h.get("count").map(json_u64).unwrap_or(0).to_string(),
                    fmt(q("p50"), 1),
                    fmt(q("p90"), 1),
                    fmt(q("p99"), 1),
                    fmt(q("max"), 1),
                ]);
            }
        }
    }
    if !counter_rows.is_empty() {
        out.push_str("--- service counters (cumulative) ---\n");
        out.push_str(&format_table(
            &["victim", "counter", "total"],
            &counter_rows,
        ));
        out.push('\n');
    }
    if !gauge_rows.is_empty() {
        out.push_str("--- service gauges (instantaneous) ---\n");
        out.push_str(&format_table(&["victim", "gauge", "value"], &gauge_rows));
        out.push('\n');
    }
    if !histogram_rows.is_empty() {
        out.push_str("--- service histograms ---\n");
        out.push_str(&format_table(
            &["victim", "histogram", "count", "p50", "p90", "p99", "max"],
            &histogram_rows,
        ));
        out.push('\n');
    }
    if counter_rows.is_empty() && gauge_rows.is_empty() && histogram_rows.is_empty() {
        out.push_str("snapshot is empty — no metrics recorded yet\n");
    }
    out
}

/// Aggregates an `xbar-obs` JSONL trace into per-stage tables: counter
/// totals and per-trial means, value-series summaries, and span counts
/// with mean wall times. Totals are recomputed from the per-trial
/// records, so a trace whose run was killed before the `end` line still
/// summarizes. Also understands the `xbar-serve-metrics` snapshot
/// records written by `serve host --metrics` — snapshots are cumulative,
/// so only the last one is rendered.
fn summarize_trace(path: &str) -> Result<String, CliError> {
    use serde::Value;
    use std::collections::BTreeMap;

    fn field_u64(record: &Value, key: &str) -> u64 {
        record.get(key).map(json_u64).unwrap_or(0)
    }

    #[derive(Default)]
    struct CounterAgg {
        total: u64,
        trials: usize,
        min: u64,
        max: u64,
    }
    #[derive(Default)]
    struct ValueAgg {
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    }
    #[derive(Default)]
    struct SpanAgg {
        count: u64,
        total_nanos: u64,
    }

    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let mut campaigns: Vec<String> = Vec::new();
    let mut trials_ok = 0usize;
    let mut trials_failed = 0usize;
    let mut counters: BTreeMap<String, CounterAgg> = BTreeMap::new();
    let mut values: BTreeMap<String, ValueAgg> = BTreeMap::new();
    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    // Live-plane snapshots are cumulative: keep only the last one.
    let mut serve_snapshots = 0usize;
    let mut serve_stats: Option<Value> = None;

    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = serde_json::parse_value(line)
            .map_err(|e| format!("trace {path} line {}: {e}", line_no + 1))?;
        match record.get("kind").and_then(Value::as_str) {
            Some("xbar-trace") => {
                campaigns.push(format!(
                    "{} (seed {}, {} trials)",
                    record
                        .get("campaign")
                        .and_then(Value::as_str)
                        .unwrap_or("?"),
                    field_u64(&record, "campaign_seed"),
                    field_u64(&record, "total_trials"),
                ));
            }
            Some("trial") => {
                match record.get("status").and_then(Value::as_str) {
                    Some("ok") => trials_ok += 1,
                    _ => trials_failed += 1,
                }
                if let Some(Value::Object(fields)) = record.get("counters") {
                    for (name, v) in fields {
                        let delta = json_u64(v);
                        let agg = counters.entry(name.clone()).or_default();
                        if agg.trials == 0 {
                            (agg.min, agg.max) = (delta, delta);
                        } else {
                            agg.min = agg.min.min(delta);
                            agg.max = agg.max.max(delta);
                        }
                        agg.trials += 1;
                        agg.total += delta;
                    }
                }
                if let Some(Value::Object(fields)) = record.get("values") {
                    for (name, v) in fields {
                        let count = field_u64(v, "count");
                        if count == 0 {
                            continue;
                        }
                        let (lo, hi) = (
                            v.get("min").map(json_f64).unwrap_or(0.0),
                            v.get("max").map(json_f64).unwrap_or(0.0),
                        );
                        let agg = values.entry(name.clone()).or_default();
                        if agg.count == 0 {
                            (agg.min, agg.max) = (lo, hi);
                        } else {
                            agg.min = agg.min.min(lo);
                            agg.max = agg.max.max(hi);
                        }
                        agg.count += count;
                        agg.sum += v.get("sum").map(json_f64).unwrap_or(0.0);
                    }
                }
                if let Some(Value::Object(fields)) = record.get("spans") {
                    for (name, v) in fields {
                        let agg = spans.entry(name.clone()).or_default();
                        agg.count += field_u64(v, "count");
                        agg.total_nanos += field_u64(v, "total_nanos");
                    }
                }
            }
            Some(kind) if kind == xbar_serve::METRICS_RECORD_KIND => {
                serve_snapshots += 1;
                if let Some(stats) = record.get("stats") {
                    serve_stats = Some(stats.clone());
                }
            }
            // `end` totals are recomputed from the trial records above.
            _ => {}
        }
    }

    // A trial trace needs its header; a pure serve-metrics snapshot
    // file has no header and that is fine.
    if campaigns.is_empty() && serve_snapshots == 0 {
        return Err(format!("trace {path} has no xbar-trace header").into());
    }

    let mut out = String::new();
    let trials = trials_ok + trials_failed;
    for campaign in &campaigns {
        out.push_str(&format!("campaign: {campaign}\n"));
    }
    if !campaigns.is_empty() {
        out.push_str(&format!(
            "trials recorded: {trials} ({trials_ok} ok, {trials_failed} failed)\n\n"
        ));
    }

    if trials > 0 {
        let counter_rows: Vec<Vec<String>> = counters
            .iter()
            .map(|(name, agg)| {
                vec![
                    name.clone(),
                    agg.total.to_string(),
                    fmt(agg.total as f64 / trials as f64, 2),
                    agg.min.to_string(),
                    agg.max.to_string(),
                ]
            })
            .collect();
        out.push_str("--- counters (deterministic) ---\n");
        out.push_str(&format_table(
            &["counter", "total", "per trial", "min", "max"],
            &counter_rows,
        ));
        out.push('\n');

        if !values.is_empty() {
            let value_rows: Vec<Vec<String>> = values
                .iter()
                .map(|(name, agg)| {
                    vec![
                        name.clone(),
                        agg.count.to_string(),
                        fmt(agg.sum / agg.count as f64, 4),
                        fmt(agg.min, 4),
                        fmt(agg.max, 4),
                    ]
                })
                .collect();
            out.push_str("--- value series ---\n");
            out.push_str(&format_table(
                &["series", "samples", "mean", "min", "max"],
                &value_rows,
            ));
            out.push('\n');
        }

        if !spans.is_empty() {
            let span_rows: Vec<Vec<String>> = spans
                .iter()
                .map(|(name, agg)| {
                    let mean_ms = if agg.count > 0 {
                        agg.total_nanos as f64 / agg.count as f64 / 1e6
                    } else {
                        0.0
                    };
                    vec![
                        name.clone(),
                        agg.count.to_string(),
                        fmt(agg.total_nanos as f64 / 1e9, 3),
                        fmt(mean_ms, 3),
                    ]
                })
                .collect();
            out.push_str("--- spans (wall clock) ---\n");
            out.push_str(&format_table(
                &["span", "count", "total s", "mean ms"],
                &span_rows,
            ));
            out.push('\n');
        }
    } else if !campaigns.is_empty() {
        out.push_str("no trial records — nothing to aggregate\n");
    }

    if let Some(stats) = &serve_stats {
        out.push_str(&format!(
            "serve-metrics snapshots: {serve_snapshots} (rendering the last — counters are cumulative)\n"
        ));
        out.push_str(&render_serve_stats(stats));
    }
    Ok(out)
}

fn load_dataset(args: &ParsedArgs) -> Result<Dataset, CliError> {
    let kind = args.get("dataset").unwrap_or("digits");
    let samples: usize = args.get_or("samples", 1000)?;
    let seed: u64 = args.get_or("seed", 0)?;
    match kind {
        "digits" => Ok(DigitsConfig::default()
            .num_samples(samples)
            .seed(seed)
            .generate()),
        "objects" => Ok(ObjectsConfig::default()
            .num_samples(samples)
            .seed(seed)
            .generate()),
        other => Err(Box::new(ArgsError::BadValue {
            name: "dataset",
            value: other.to_string(),
        })),
    }
}

fn cmd_train(args: &ParsedArgs) -> Result<(), CliError> {
    let out = args.require("out")?.to_string();
    let head = args.get("head").unwrap_or("softmax");
    let seed: u64 = args.get_or("seed", 0)?;
    let (activation, loss, lr) = match head {
        "linear" => (Activation::Identity, Loss::Mse, 0.01),
        "softmax" => (Activation::Softmax, Loss::CrossEntropy, 0.05),
        other => {
            return Err(Box::new(ArgsError::BadValue {
                name: "head",
                value: other.to_string(),
            }))
        }
    };
    let ds = load_dataset(args)?;
    let split = ds.split_frac(0.85)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net =
        SingleLayerNet::new_random(ds.num_features(), ds.num_classes(), activation, &mut rng);
    let sgd = SgdConfig {
        learning_rate: lr,
        epochs: args.get_or("epochs", 25)?,
        ..SgdConfig::default()
    };
    let report = train(&mut net, &split.train, loss, &sgd, &mut rng)?;
    let test_acc = accuracy(
        &net.predict_batch(split.test.inputs())?,
        split.test.labels(),
    );
    println!(
        "trained {head} head: loss {:.4} -> {:.4}, test accuracy {test_acc:.3}",
        report.initial_loss, report.final_loss
    );
    persist::save_network(&out, &net)?;
    println!("saved model to {out}");
    Ok(())
}

fn cmd_probe(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut oracle = Oracle::new(
        net,
        &OracleConfig::ideal().with_access(OutputAccess::None),
        seed,
    )?;
    let compressed: usize = args.get_or("compressed-queries", 0)?;
    let norms = if compressed > 0 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC5);
        probe_norms_compressed(&mut oracle, compressed, 1e-2, &mut rng)?
    } else {
        probe_column_norms(&mut oracle, 1.0, 1)?
    };
    println!(
        "probed {} columns with {} power queries",
        norms.len(),
        oracle.query_count()
    );
    // Render as a heatmap when the dimension is a known image shape.
    let n = norms.len();
    let shape = match n {
        784 => Some(xbar_data::ImageShape::new(28, 28, 1)),
        3072 => Some(xbar_data::ImageShape::new(32, 32, 3)),
        _ => None,
    };
    if let Some(shape) = shape {
        println!("{}", ascii_heatmap(&norms, shape, 0));
    }
    let top = xbar_linalg::vec_ops::top_k_indices(&norms, 5);
    println!("top-5 columns by probed 1-norm: {top:?}");
    Ok(())
}

fn cmd_attack(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    let strength: f64 = args.get_or("strength", 4.0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let ds = load_dataset(args)?;
    let split = ds.split_frac(0.85)?;
    let loss = match net.activation() {
        Activation::Softmax => Loss::CrossEntropy,
        _ => Loss::Mse,
    };
    let mut oracle = Oracle::new(
        net.clone(),
        &OracleConfig::ideal().with_access(OutputAccess::None),
        seed,
    )?;
    let norms = probe_column_norms(&mut oracle, 1.0, 1)?;
    let clean = oracle.eval_accuracy(split.test.inputs(), split.test.labels())?;
    let targets = split.test.one_hot_targets();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA7);
    let mut rows = Vec::new();
    for method in PixelAttackMethod::all() {
        let adv = single_pixel_attack_batch(
            method,
            split.test.inputs(),
            &targets,
            PixelAttackResources::full(&norms, &net, loss),
            strength,
            &mut rng,
        )?;
        let acc = oracle.eval_accuracy(&adv, split.test.labels())?;
        rows.push(vec![
            method.paper_label().to_string(),
            fmt(acc, 3),
            fmt(clean - acc, 3),
        ]);
    }
    println!("clean accuracy {clean:.3}; single-pixel attacks at strength {strength}:");
    println!(
        "{}",
        format_table(&["method", "accuracy", "degradation"], &rows)
    );
    Ok(())
}

fn cmd_blackbox(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    let queries: usize = args.get_or("queries", 200)?;
    let lambda: f64 = args.get_or("lambda", 0.0)?;
    let eps: f64 = args.get_or("eps", 0.1)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let access = match args.get("access").unwrap_or("label") {
        "label" => OutputAccess::LabelOnly,
        "raw" => OutputAccess::Raw,
        other => {
            return Err(Box::new(ArgsError::BadValue {
                name: "access",
                value: other.to_string(),
            }))
        }
    };
    let ds = load_dataset(args)?;
    let split = ds.split_frac(0.85)?;
    let mut oracle = Oracle::new(net, &OracleConfig::ideal().with_access(access), seed)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBB);
    let mut cfg = BlackBoxConfig::default()
        .with_num_queries(queries)
        .with_power_weight(lambda)
        .with_fgsm_eps(eps);
    cfg.surrogate.sgd.epochs = (38_400 / queries).clamp(60, 2000);
    let (out, _) = run_blackbox_attack(&mut oracle, &split.train, &split.test, &cfg, &mut rng)?;
    println!(
        "queries {queries}, power λ {lambda}: surrogate acc {:.3}, oracle {:.3} -> {:.3} (degradation {:.3})",
        out.surrogate_test_accuracy,
        out.oracle_clean_accuracy,
        out.oracle_adversarial_accuracy,
        out.degradation()
    );
    Ok(())
}

fn cmd_recover(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    if net.activation() != Activation::Identity {
        println!(
            "note: model head is {}; basis-probe recovery assumes a linear head",
            net.activation().name()
        );
    }
    let seed: u64 = args.get_or("seed", 1)?;
    let mut oracle = Oracle::new(
        net.clone(),
        &OracleConfig::ideal().with_access(OutputAccess::Raw),
        seed,
    )?;
    let recovered = recover_columns_by_basis_probes(&mut oracle, 1.0)?;
    let err = relative_error(&recovered, net.weights())?;
    println!(
        "recovered {}x{} weights in {} queries; relative error {err:.2e}",
        recovered.rows(),
        recovered.cols(),
        oracle.query_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().map(|t| t.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("xbar-cli-test-{name}-{}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn unknown_command_rejected() {
        let args = parse(&["frobnicate"]);
        assert!(dispatch(&args).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&parse(&["help"])).is_ok());
    }

    #[test]
    fn train_probe_attack_recover_pipeline() {
        let model = tmp("model");
        // Small sizes keep the test fast.
        dispatch(&parse(&[
            "train",
            "--out",
            &model,
            "--head",
            "linear",
            "--samples",
            "200",
            "--epochs",
            "5",
        ]))
        .unwrap();
        dispatch(&parse(&["probe", "--model", &model])).unwrap();
        dispatch(&parse(&[
            "probe",
            "--model",
            &model,
            "--compressed-queries",
            "100",
        ]))
        .unwrap();
        dispatch(&parse(&[
            "attack",
            "--model",
            &model,
            "--samples",
            "200",
            "--strength",
            "3",
        ]))
        .unwrap();
        dispatch(&parse(&["recover", "--model", &model])).unwrap();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn blackbox_pipeline() {
        let model = tmp("bb-model");
        dispatch(&parse(&[
            "train",
            "--out",
            &model,
            "--head",
            "linear",
            "--samples",
            "200",
            "--epochs",
            "5",
        ]))
        .unwrap();
        dispatch(&parse(&[
            "blackbox",
            "--model",
            &model,
            "--queries",
            "40",
            "--lambda",
            "1.0",
            "--samples",
            "200",
        ]))
        .unwrap();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn campaign_argument_validation() {
        // Missing --figure.
        assert!(dispatch(&parse(&["campaign"])).is_err());
        // Unknown figure.
        assert!(dispatch(&parse(&["campaign", "--figure", "fig9"])).is_err());
        // Bad thread count.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--threads",
            "lots",
        ]))
        .is_err());
        // Unknown evaluation backend.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--backend",
            "quantum",
        ]))
        .is_err());
        // Malformed backend specs: a non-numeric thread count, and a
        // thread suffix on a kind that takes none.
        for bad in ["parallel:x", "parallel:-1", "naive:2", "blocked:4", ""] {
            let err =
                dispatch(&parse(&["campaign", "--figure", "fig4", "--backend", bad])).unwrap_err();
            assert!(err.to_string().contains("--backend"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn serve_argument_validation() {
        // Missing and unknown serve actions are rejected.
        assert!(dispatch(&parse(&["serve"])).is_err());
        assert!(dispatch(&parse(&["serve", "frobnicate"])).is_err());
        // host: missing model and malformed options fail before any
        // socket is opened or file is read.
        assert!(dispatch(&parse(&["serve", "host"])).is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--access",
            "quantum",
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--seed",
            "lots",
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--metrics-every",
            "lots",
        ]))
        .is_err());
        // A malformed backend spec is rejected before the model file is
        // even read — the error names the flag, not the missing file.
        let err = dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--backend",
            "parallel:x",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--backend"), "{err}");
        // stats: an unresolvable address fails without hanging.
        assert!(dispatch(&parse(&["serve", "stats", "--addr", "not an addr"])).is_err());
        // drive: missing address / dimension and malformed counts fail
        // before any connection attempt.
        assert!(dispatch(&parse(&["serve", "drive"])).is_err());
        assert!(dispatch(&parse(&["serve", "drive", "--addr", "127.0.0.1:1"])).is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "drive",
            "--addr",
            "127.0.0.1:1",
            "--dim",
            "3",
            "--sessions",
            "lots",
        ]))
        .is_err());
    }

    #[test]
    fn output_access_parsing() {
        assert!(matches!(
            parse_output_access("none"),
            Ok(OutputAccess::None)
        ));
        assert!(matches!(
            parse_output_access("label"),
            Ok(OutputAccess::LabelOnly)
        ));
        assert!(matches!(parse_output_access("raw"), Ok(OutputAccess::Raw)));
        assert!(parse_output_access("quantum").is_err());
    }

    #[test]
    fn serve_host_drive_round_trip() {
        // Train a tiny victim, host it on an ephemeral port in a
        // background thread, and drive it with the scripted client —
        // the out-of-process CI smoke, in-process.
        let model = tmp("serve-model");
        dispatch(&parse(&[
            "train",
            "--out",
            &model,
            "--head",
            "linear",
            "--samples",
            "200",
            "--epochs",
            "2",
        ]))
        .unwrap();
        let net = persist::load_network(&model).unwrap();
        let dim = net.weights().cols();

        let mut registry = xbar_serve::VictimRegistry::new();
        let oracle = Oracle::new(
            net,
            &OracleConfig::ideal().with_access(OutputAccess::None),
            1,
        )
        .unwrap();
        registry.insert("victim", oracle).unwrap();
        let server =
            xbar_serve::Server::start("127.0.0.1:0", registry, xbar_serve::ServeConfig::default())
                .unwrap();
        let addr = server.local_addr().to_string();
        let host = std::thread::spawn(move || server.run_until_shutdown());

        dispatch(&parse(&[
            "serve",
            "drive",
            "--addr",
            &addr,
            "--dim",
            &dim.to_string(),
            "--sessions",
            "3",
            "--queries",
            "4",
        ]))
        .unwrap();
        // Scrape the live metrics plane both ways, then stop the server.
        dispatch(&parse(&["serve", "stats", "--addr", &addr])).unwrap();
        dispatch(&parse(&["serve", "stats", "--addr", &addr, "--prom"])).unwrap();
        let mut client = xbar_serve::Client::connect(addr.as_str()).unwrap();
        client.shutdown_server().unwrap();
        host.join().unwrap();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn serve_stats_renders_a_snapshot() {
        use serde_json::parse_value;

        let stats = parse_value(
            r#"{"victims":{"toy":{
                "counters":{"serve.requests":9,"serve.queries":40},
                "gauges":{"serve.inflight":0.0},
                "histograms":{"serve.request_ns":{"count":9,"sum":900,
                    "min":10,"max":200,"p50":95.0,"p90":180.0,
                    "p99":199.0,"p999":200.0,"buckets":[[256.0,9]]}}}}}"#,
        )
        .unwrap();
        let rendered = render_serve_stats(&stats);
        assert!(rendered.contains("service counters"), "{rendered}");
        assert!(rendered.contains("serve.queries"), "{rendered}");
        assert!(rendered.contains("40"), "{rendered}");
        assert!(rendered.contains("serve.inflight"), "{rendered}");
        assert!(rendered.contains("serve.request_ns"), "{rendered}");
        assert!(rendered.contains("95.0"), "{rendered}");
        // Degenerate shapes degrade gracefully instead of panicking.
        let empty = parse_value(r#"{"victims":{}}"#).unwrap();
        assert!(render_serve_stats(&empty).contains("no metrics recorded"));
        let hostile = parse_value(r#"{"something":"else"}"#).unwrap();
        assert!(render_serve_stats(&hostile).contains("no victims"));
    }

    #[test]
    fn faults_argument_validation() {
        // Missing and unknown faults actions are rejected.
        assert!(dispatch(&parse(&["faults"])).is_err());
        assert!(dispatch(&parse(&["faults", "frobnicate"])).is_err());
        // Bad executor options are rejected before any work starts.
        assert!(dispatch(&parse(&["faults", "sweep", "--threads", "lots"])).is_err());
    }

    #[test]
    fn lifetime_argument_validation() {
        // Missing and unknown lifetime actions are rejected.
        assert!(dispatch(&parse(&["lifetime"])).is_err());
        assert!(dispatch(&parse(&["lifetime", "frobnicate"])).is_err());
        // Bad executor and recalibration options fail before any work.
        assert!(dispatch(&parse(&["lifetime", "sweep", "--threads", "lots"])).is_err());
        assert!(dispatch(&parse(&["lifetime", "sweep", "--recalibrate", "sometimes"])).is_err());
    }

    #[test]
    fn infer_argument_validation() {
        // Missing and unknown infer actions are rejected.
        assert!(dispatch(&parse(&["infer"])).is_err());
        assert!(dispatch(&parse(&["infer", "frobnicate"])).is_err());
        // Bad executor options are rejected before any work starts.
        assert!(dispatch(&parse(&["infer", "sweep", "--threads", "lots"])).is_err());
        assert!(dispatch(&parse(&["infer", "sweep", "--backend", "quantum"])).is_err());
    }

    #[test]
    fn transient_spec_parsing() {
        let spec = parse_transients("0.02").unwrap();
        assert_eq!(spec.flip_rate, 0.02);
        assert_eq!(spec.jitter_sigma, 0.0);
        let spec = parse_transients("0.02, 0.1").unwrap();
        assert_eq!(spec.flip_rate, 0.02);
        assert_eq!(spec.jitter_sigma, 0.1);
        // Malformed numbers and out-of-domain rates are rejected.
        assert!(parse_transients("").is_err());
        assert!(parse_transients("lots").is_err());
        assert!(parse_transients("0.02,many").is_err());
        assert!(parse_transients("1.5").is_err());
        assert!(parse_transients("0.02,-0.1").is_err());
        // A bad --transients value fails the campaign command early.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--transients",
            "lots",
        ]))
        .is_err());
    }

    #[test]
    fn recalibration_policy_parsing() {
        assert!(parse_recalibrate("never").unwrap().is_never());
        let every = parse_recalibrate("every:500").unwrap();
        assert_eq!(every.every_queries, 500);
        let stale = parse_recalibrate("stale:2.5").unwrap();
        assert_eq!(stale.staleness_threshold, 2.5);
        // Unknown shapes and out-of-domain values are rejected.
        assert!(parse_recalibrate("sometimes").is_err());
        assert!(parse_recalibrate("every:0").is_err());
        assert!(parse_recalibrate("every:lots").is_err());
        assert!(parse_recalibrate("stale:0").is_err());
        assert!(parse_recalibrate("stale:NaN").is_err());
    }

    #[test]
    fn fault_spec_loading() {
        let path = tmp("fault-spec.json");
        std::fs::write(&path, r#"{"stuck_on_rate": 0.02, "variation_sigma": 0.1}"#).unwrap();
        let spec = load_fault_spec(&path).unwrap();
        assert_eq!(spec.stuck_on_rate, 0.02);
        assert_eq!(spec.variation_sigma, 0.1);
        assert_eq!(spec.stuck_off_rate, 0.0);
        // Unknown keys, invalid rates and missing files are rejected.
        std::fs::write(&path, r#"{"stuck_rate": 0.02}"#).unwrap();
        assert!(load_fault_spec(&path).is_err());
        std::fs::write(&path, r#"{"stuck_on_rate": 1.5}"#).unwrap();
        assert!(load_fault_spec(&path).is_err());
        assert!(load_fault_spec("/nonexistent/spec.json").is_err());
        // A bad --faults file fails the campaign command early.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--faults",
            "/nonexistent/spec.json",
        ]))
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summarize_reads_a_trace() {
        use std::time::Duration;
        use xbar_obs::{Collector, Counters, TraceWriter};

        let path = tmp("trace.jsonl");
        let counters = Counters::new();
        counters.counter_add(Some(0), xbar_obs::names::ORACLE_QUERY, 40);
        counters.counter_add(Some(0), xbar_obs::names::PROBE_MEASUREMENT, 8);
        counters.observe(Some(0), xbar_obs::names::ORACLE_POWER, 1.25);
        let obs = counters.take_trial(0);
        let mut writer = TraceWriter::create(std::path::Path::new(&path)).unwrap();
        writer.campaign_header("test-campaign", 9, 1).unwrap();
        writer
            .trial(0, true, 1, Duration::from_millis(2), &obs)
            .unwrap();
        writer.end(1, 0, 0, Duration::from_millis(3), &obs).unwrap();
        drop(writer);

        dispatch(&parse(&["trace", "summarize", &path])).unwrap();
        let summary = summarize_trace(&path).unwrap();
        assert!(summary.contains("test-campaign"), "{summary}");
        assert!(summary.contains(xbar_obs::names::ORACLE_QUERY), "{summary}");

        // Unknown action and missing path are rejected.
        assert!(dispatch(&parse(&["trace", "frobnicate", &path])).is_err());
        assert!(dispatch(&parse(&["trace", "summarize"])).is_err());
        assert!(dispatch(&parse(&["trace"])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summarize_reads_serve_metrics_snapshots() {
        let path = tmp("serve-metrics.jsonl");
        // Two cumulative snapshots; no xbar-trace header. The summary
        // must accept the headerless file and render only the LAST
        // snapshot (counters are cumulative, not deltas).
        std::fs::write(
            &path,
            concat!(
                "{\"kind\":\"xbar-serve-metrics\",\"seq\":0,\"stats\":{\"victims\":{\
                 \"toy\":{\"counters\":{\"serve.requests\":3}}}}}\n",
                "{\"kind\":\"xbar-serve-metrics\",\"seq\":1,\"stats\":{\"victims\":{\
                 \"toy\":{\"counters\":{\"serve.requests\":9,\"serve.queries\":40},\
                 \"gauges\":{\"serve.draining\":0.0},\
                 \"histograms\":{\"serve.request_ns\":{\"count\":9,\"sum\":900,\
                 \"min\":10,\"max\":200,\"p50\":95.0,\"p90\":180.0,\"p99\":199.0,\
                 \"p999\":200.0,\"buckets\":[[256.0,9]]}}}}}}\n",
            ),
        )
        .unwrap();
        let summary = summarize_trace(&path).unwrap();
        assert!(summary.contains("serve-metrics snapshots: 2"), "{summary}");
        assert!(summary.contains("serve.queries"), "{summary}");
        assert!(summary.contains("40"), "{summary}");
        assert!(summary.contains("serve.request_ns"), "{summary}");
        assert!(!summary.contains("campaign:"), "{summary}");
        // Through the CLI too.
        dispatch(&parse(&["trace", "summarize", &path])).unwrap();

        // A mixed file — trial trace plus serve snapshots — renders
        // both planes.
        let mut mixed = std::fs::read_to_string(&path).unwrap();
        mixed.insert_str(
            0,
            "{\"kind\":\"xbar-trace\",\"campaign\":\"mixed\",\"campaign_seed\":7,\
             \"total_trials\":1}\n{\"kind\":\"trial\",\"status\":\"ok\",\
             \"counters\":{\"serve.sessions\":2}}\n",
        );
        std::fs::write(&path, mixed).unwrap();
        let summary = summarize_trace(&path).unwrap();
        assert!(summary.contains("campaign: mixed"), "{summary}");
        assert!(summary.contains("serve.sessions"), "{summary}");
        assert!(summary.contains("serve.request_ns"), "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summarize_rejects_non_traces() {
        let path = tmp("not-a-trace.jsonl");
        std::fs::write(&path, "{\"kind\":\"something-else\"}\n").unwrap();
        assert!(dispatch(&parse(&["trace", "summarize", &path])).is_err());
        std::fs::remove_file(&path).ok();
        // Missing file.
        assert!(dispatch(&parse(&["trace", "summarize", "/nonexistent/x.jsonl"])).is_err());
    }

    #[test]
    fn positionals_rejected_outside_trace() {
        assert!(dispatch(&parse(&["train", "stray"])).is_err());
        assert!(dispatch(&parse(&["campaign", "stray", "--figure", "fig4"])).is_err());
    }

    #[test]
    fn bad_option_values_rejected() {
        let model = tmp("bad-model");
        assert!(dispatch(&parse(&["train", "--out", &model, "--head", "quantum"])).is_err());
        assert!(dispatch(&parse(&["train", "--out", &model, "--dataset", "imagenet"])).is_err());
        assert!(dispatch(&parse(&["probe"])).is_err()); // missing --model
        std::fs::remove_file(&model).ok();
    }
}
