//! The service's live-telemetry glue: shard layout, gauge refresh, and
//! the bridge from `xbar-obs`'s snapshot JSON into the wire protocol's
//! `serde` values.
//!
//! The registry itself lives in [`xbar_obs::metrics`]; this module
//! decides *who records where* so the hot path never takes a shared
//! lock:
//!
//! * shard 0 — gauges (single-writer by convention), the session
//!   manager's journal-write timings (already serialised by the session
//!   lock) and the accept loop's error counter;
//! * shards `1 ..= workers` — one per evaluation worker (queue wait,
//!   flush reasons, batch occupancy);
//! * the remaining [`HANDLER_SHARDS`] — connection handlers, assigned
//!   round-robin (request latency, request/query/rejection counters).
//!
//! Because counters and histogram merges are commutative
//! ([`xbar_obs::Histogram::merge`]), a scrape's deterministic fields
//! are identical however the work was spread over shards — the
//! cross-worker e2e test pins exactly this.

use std::sync::Arc;

use xbar_obs::json::JsonValue;
use xbar_obs::metrics::SERVER_SCOPE;
use xbar_obs::{MetricsRegistry, MetricsShard};

/// The `kind` tag stamped on every periodic metrics-snapshot record the
/// server appends to its `--metrics` JSONL file.
pub const METRICS_RECORD_KIND: &str = "xbar-serve-metrics";

/// Number of shards reserved for connection handlers.
pub const HANDLER_SHARDS: usize = 4;

/// The server's shard plan: one registry sized for `workers` evaluation
/// threads plus the fixed handler pool, with accessors that encode the
/// layout above.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    workers: usize,
}

impl ServeMetrics {
    /// A registry laid out for `workers` evaluation workers.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        ServeMetrics {
            registry: Arc::new(MetricsRegistry::new(1 + workers + HANDLER_SHARDS)),
            workers,
        }
    }

    /// The underlying registry (for snapshots and gauges).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Shard 0: gauges and session-journal timings.
    pub fn server_shard(&self) -> Arc<MetricsShard> {
        self.registry.shard(0)
    }

    /// The shard owned by evaluation worker `index`.
    pub fn worker_shard(&self, index: usize) -> Arc<MetricsShard> {
        self.registry.shard(1 + (index % self.workers))
    }

    /// The shard for connection-handler ordinal `index` (round-robin
    /// over the handler pool).
    pub fn handler_shard(&self, index: usize) -> Arc<MetricsShard> {
        self.registry
            .shard(1 + self.workers + (index % HANDLER_SHARDS))
    }

    /// Refreshes the point-in-time gauges ahead of a scrape or a
    /// periodic snapshot.
    pub fn refresh_gauges(&self, attached_sessions: usize, inflight: usize, draining: bool) {
        let names = xbar_obs::names::SERVE_ATTACHED_SESSIONS;
        self.registry
            .gauge_set(SERVER_SCOPE, names, attached_sessions as f64);
        self.registry.gauge_set(
            SERVER_SCOPE,
            xbar_obs::names::SERVE_INFLIGHT,
            inflight as f64,
        );
        self.registry.gauge_set(
            SERVER_SCOPE,
            xbar_obs::names::SERVE_DRAINING,
            if draining { 1.0 } else { 0.0 },
        );
    }
}

/// Converts the obs crate's zero-dependency JSON tree into the wire
/// protocol's [`serde::Value`] so a snapshot can ride inside a
/// [`crate::protocol::Response`]. The two enums are structurally
/// identical; this is a mechanical walk.
pub fn json_to_value(json: &JsonValue) -> serde::Value {
    match json {
        JsonValue::Null => serde::Value::Null,
        JsonValue::Bool(b) => serde::Value::Bool(*b),
        JsonValue::U64(n) => serde::Value::U64(*n),
        JsonValue::I64(n) => serde::Value::I64(*n),
        JsonValue::F64(x) => serde::Value::F64(*x),
        JsonValue::Str(s) => serde::Value::Str(s.clone()),
        JsonValue::Array(items) => serde::Value::Array(items.iter().map(json_to_value).collect()),
        JsonValue::Object(fields) => serde::Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), json_to_value(v)))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_separates_writers() {
        let metrics = ServeMetrics::new(3);
        assert_eq!(metrics.registry().num_shards(), 1 + 3 + HANDLER_SHARDS);
        // Workers and handlers never share a shard with shard 0.
        for w in 0..6 {
            assert!(!Arc::ptr_eq(
                &metrics.worker_shard(w),
                &metrics.server_shard()
            ));
        }
        for h in 0..10 {
            assert!(!Arc::ptr_eq(
                &metrics.handler_shard(h),
                &metrics.server_shard()
            ));
            assert!(!Arc::ptr_eq(
                &metrics.handler_shard(h),
                &metrics.worker_shard(0)
            ));
        }
        // Ordinals wrap instead of panicking.
        assert!(Arc::ptr_eq(
            &metrics.worker_shard(0),
            &metrics.worker_shard(3)
        ));
        assert!(Arc::ptr_eq(
            &metrics.handler_shard(1),
            &metrics.handler_shard(1 + HANDLER_SHARDS)
        ));
    }

    #[test]
    fn json_to_value_walks_every_variant() {
        let mut obj = JsonValue::object();
        obj.push("b", true)
            .push("n", 3u64)
            .push("i", -4i64)
            .push("x", 0.5)
            .push("s", "hi")
            .push(
                "a",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::U64(1)]),
            );
        let value = json_to_value(&obj);
        assert_eq!(value.get("b"), Some(&serde::Value::Bool(true)));
        assert_eq!(value.get("n"), Some(&serde::Value::U64(3)));
        assert_eq!(value.get("i"), Some(&serde::Value::I64(-4)));
        assert_eq!(value.get("x"), Some(&serde::Value::F64(0.5)));
        assert_eq!(value.get("s").and_then(serde::Value::as_str), Some("hi"));
        assert_eq!(
            value.get("a").and_then(serde::Value::as_array),
            Some(&[serde::Value::Null, serde::Value::U64(1)][..])
        );
    }

    #[test]
    fn gauge_refresh_overwrites() {
        let metrics = ServeMetrics::new(2);
        metrics.refresh_gauges(5, 17, false);
        metrics.refresh_gauges(2, 0, true);
        let snapshot = metrics.registry().snapshot();
        use xbar_obs::Metric;
        let gauge = |name: &str| match snapshot.get(SERVER_SCOPE, name) {
            Some(Metric::Gauge(v)) => *v,
            other => panic!("expected gauge for {name}, got {other:?}"),
        };
        assert_eq!(gauge(xbar_obs::names::SERVE_ATTACHED_SESSIONS), 2.0);
        assert_eq!(gauge(xbar_obs::names::SERVE_INFLIGHT), 0.0);
        assert_eq!(gauge(xbar_obs::names::SERVE_DRAINING), 1.0);
    }
}
