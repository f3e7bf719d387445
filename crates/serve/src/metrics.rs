//! Server observability: lock-free counters and a bucketed latency
//! histogram, rendered as Prometheus-style text at `GET /metrics` — plus
//! the [`Health`] readiness state `GET /healthz` reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bounds of the latency buckets, in microseconds. The final bucket
/// is open-ended.
const BUCKET_BOUNDS_US: [u64; 15] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

/// Upper bounds of the per-model batch-size buckets. The final bucket is
/// open-ended.
const BATCH_BUCKET_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Bucketed counts with a running sum and count — the one observe +
/// quantile implementation behind the predict-latency, forward-latency and
/// batch-size series. Updates are relaxed atomics, like every counter here.
#[derive(Debug)]
struct Histogram {
    /// Upper bounds of the closed buckets; one open-ended bucket follows.
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn observe_duration(&self, elapsed: Duration) {
        self.observe(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Approximate quantile: the upper bound of the bucket where the
    /// cumulative count crosses `q` (ten times the last bound for the
    /// open-ended bucket; `None` before any observation).
    fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let last = self.bounds[self.bounds.len() - 1];
                return Some(self.bounds.get(i).copied().unwrap_or(last * 10));
            }
        }
        None
    }

    /// [`Histogram::quantile`] of a microsecond histogram, in seconds.
    fn quantile_seconds(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|us| us as f64 / 1e6)
    }
}

/// A latency histogram in microseconds ([`BUCKET_BOUNDS_US`]).
impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&BUCKET_BOUNDS_US)
    }
}

/// The `model="…"` label a request's (possibly empty) model field renders
/// under: the empty default route gets its own label rather than an empty
/// string.
#[must_use]
pub fn model_label(name: &str) -> &str {
    if name.is_empty() {
        "default"
    } else {
        name
    }
}

/// Per-model serving counters, rendered as `{model="…"}`-labelled series.
/// One model family must not be able to hide behind another's aggregate:
/// a slow dynamic forward shows up in *its* latency histogram, and a
/// starved queue shows up in *its* depth gauge.
#[derive(Debug)]
pub struct ModelSeries {
    /// Predict requests addressed to this model (counted at dispatch,
    /// including result-cache hits and requests that later fail).
    pub requests_total: AtomicU64,
    /// Predict jobs currently queued for (or in flight on) the inference
    /// lanes for this model (gauge).
    pub queue_depth: AtomicU64,
    /// Batch-size histogram: jobs of this model per take (one forward).
    batch: Histogram,
    /// Forward-pass latency histogram (one observation per group forward).
    forward: Histogram,
}

impl Default for ModelSeries {
    fn default() -> Self {
        ModelSeries {
            requests_total: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            batch: Histogram::new(&BATCH_BUCKET_BOUNDS),
            forward: Histogram::default(),
        }
    }
}

impl ModelSeries {
    /// Records one take of `jobs ≥ 1` jobs of this model.
    pub fn observe_batch(&self, jobs: usize) {
        self.batch.observe(jobs as u64);
    }

    /// Records one forward-pass latency for this model.
    pub fn observe_forward(&self, elapsed: Duration) {
        self.forward.observe_duration(elapsed);
    }

    /// Approximate forward-latency quantile in seconds (bucket upper
    /// bound; `None` before any observation).
    #[must_use]
    pub fn forward_quantile(&self, q: f64) -> Option<f64> {
        self.forward.quantile_seconds(q)
    }

    /// Forward passes recorded so far.
    #[must_use]
    pub fn forwards(&self) -> u64 {
        self.forward.count.load(Ordering::Relaxed)
    }
}

/// Shared server counters. Every field is monotonically increasing (except
/// the gauges noted), updated with relaxed atomics — consistency between
/// counters is best-effort, as scrapes race updates by design.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests accepted, any endpoint.
    pub requests_total: AtomicU64,
    /// TCP connections accepted.
    pub connections_total: AtomicU64,
    /// Connections currently registered with an event loop (gauge). This
    /// is the live-connection bookkeeping the acceptor caps against — and
    /// the regression guard for the old per-connection `JoinHandle` leak:
    /// closed connections must leave the gauge, not accumulate.
    pub connections_open: AtomicU64,
    /// Connections answered `503 connection limit reached` at accept time.
    pub connections_refused_total: AtomicU64,
    /// Connections currently parked in `AwaitingInference`/`AwaitingReload`
    /// (gauge): their request is queued for the inference lanes and the
    /// event loop will only touch them again on a completion wakeup.
    pub connections_parked: AtomicU64,
    /// Size of the event-loop thread pool (gauge, set once at startup).
    /// Together with `connections_open` this pins the resource model:
    /// thread count is fixed, connection count is not.
    pub event_threads: AtomicU64,
    /// Requests served on an already-open connection (keep-alive reuses:
    /// every request after the first on one socket).
    pub keepalive_reuses_total: AtomicU64,
    /// Result-cache lookups that hit (whole prediction served without
    /// touching an inference lane).
    pub result_cache_hits_total: AtomicU64,
    /// Result-cache lookups that missed (and enqueued a job).
    pub result_cache_misses_total: AtomicU64,
    /// Successful predictions served.
    pub predict_ok_total: AtomicU64,
    /// Predictions answered with an error frame.
    pub predict_error_total: AtomicU64,
    /// Takes the inference lanes made: groups of jobs answered together.
    pub batches_total: AtomicU64,
    /// Predict jobs across all takes (÷ batches = mean jobs per forward).
    pub batched_jobs_total: AtomicU64,
    /// Largest take so far (gauge).
    pub batch_max_size: AtomicU64,
    /// Forward passes saved by in-batch deduplication (jobs sharing a
    /// design content hash answered by one pass).
    pub dedup_saved_total: AtomicU64,
    /// Successful registry (re)loads.
    pub reloads_total: AtomicU64,
    /// Models currently loaded (gauge).
    pub models_loaded: AtomicU64,
    /// Inference lanes serving the job queue (gauge, set once at startup).
    pub inference_lanes: AtomicU64,
    /// Per-event-loop open-connection gauges, registered once at startup.
    /// The acceptor deals each new connection to the loop with the lowest
    /// gauge, so one saturated loop stops receiving work while others idle.
    loop_connections: Mutex<Vec<Arc<AtomicU64>>>,
    /// Per-model series keyed by [`model_label`], created lazily on the
    /// first request naming a model. `BTreeMap` so `/metrics` renders the
    /// labels in a stable sorted order.
    model_series: Mutex<BTreeMap<String, Arc<ModelSeries>>>,
    /// End-to-end predict latency histogram (handler-observed).
    latency: Histogram,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge by one (saturating at zero, so a double-
    /// decrement bug shows up as a stuck-low gauge rather than 2^64-1).
    pub fn dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Sets a gauge.
    pub fn set(gauge: &AtomicU64, value: usize) {
        gauge.store(value as u64, Ordering::Relaxed);
    }

    /// Registers the per-event-loop open-connection gauges (once, at
    /// server startup) so `render` can expose them as labelled series.
    pub fn set_loop_gauges(&self, gauges: Vec<Arc<AtomicU64>>) {
        *self.loop_connections.lock().expect("loop gauge lock") = gauges;
    }

    /// The per-model series for `label` (see [`model_label`]), created on
    /// first use. The returned handle is lock-free to update; only this
    /// lookup takes the (short) table lock.
    #[must_use]
    pub fn model(&self, label: &str) -> Arc<ModelSeries> {
        let mut table = self.model_series.lock().expect("model series lock");
        Arc::clone(
            table
                .entry(label.to_string())
                .or_insert_with(|| Arc::new(ModelSeries::default())),
        )
    }

    /// Snapshot of the per-model series, sorted by label.
    #[must_use]
    pub fn model_snapshot(&self) -> Vec<(String, Arc<ModelSeries>)> {
        self.model_series
            .lock()
            .expect("model series lock")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Records one take of `jobs` predict jobs.
    pub fn observe_batch(&self, jobs: usize) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs_total
            .fetch_add(jobs as u64, Ordering::Relaxed);
        self.batch_max_size
            .fetch_max(jobs as u64, Ordering::Relaxed);
    }

    /// Records one end-to-end predict latency.
    pub fn observe_latency(&self, elapsed: Duration) {
        self.latency.observe_duration(elapsed);
    }

    /// Approximate latency quantile in seconds: the upper bound of the
    /// bucket where the cumulative count crosses `q` (`None` before any
    /// observation).
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency.quantile_seconds(q)
    }

    /// Result-cache hit rate in `[0, 1]` (`0` before any lookup).
    #[must_use]
    pub fn result_cache_hit_rate(&self) -> f64 {
        let hits = self.result_cache_hits_total.load(Ordering::Relaxed);
        let misses = self.result_cache_misses_total.load(Ordering::Relaxed);
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Renders the Prometheus-style exposition text.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::with_capacity(1024);
        let mut line = |name: &str, value: String| {
            let _ = writeln!(out, "lmmir_{name} {value}");
        };
        line("requests_total", g(&self.requests_total).to_string());
        line("connections_total", g(&self.connections_total).to_string());
        line("connections_open", g(&self.connections_open).to_string());
        line(
            "connections_refused_total",
            g(&self.connections_refused_total).to_string(),
        );
        line(
            "connections_parked",
            g(&self.connections_parked).to_string(),
        );
        line("event_threads", g(&self.event_threads).to_string());
        for (k, gauge) in self
            .loop_connections
            .lock()
            .expect("loop gauge lock")
            .iter()
            .enumerate()
        {
            line(
                &format!("loop_connections{{loop=\"{k}\"}}"),
                gauge.load(Ordering::Relaxed).to_string(),
            );
        }
        line(
            "keepalive_reuses_total",
            g(&self.keepalive_reuses_total).to_string(),
        );
        line("predict_ok_total", g(&self.predict_ok_total).to_string());
        line(
            "predict_error_total",
            g(&self.predict_error_total).to_string(),
        );
        line("batches_total", g(&self.batches_total).to_string());
        line(
            "batched_jobs_total",
            g(&self.batched_jobs_total).to_string(),
        );
        line("batch_max_size", g(&self.batch_max_size).to_string());
        line(
            "result_cache_hits_total",
            g(&self.result_cache_hits_total).to_string(),
        );
        line(
            "result_cache_misses_total",
            g(&self.result_cache_misses_total).to_string(),
        );
        line(
            "result_cache_hit_rate",
            format!("{:.4}", self.result_cache_hit_rate()),
        );
        line("dedup_saved_total", g(&self.dedup_saved_total).to_string());
        line("reloads_total", g(&self.reloads_total).to_string());
        line("models_loaded", g(&self.models_loaded).to_string());
        line("inference_lanes", g(&self.inference_lanes).to_string());
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
            if let Some(v) = self.latency_quantile(q) {
                line(
                    &format!("predict_latency_seconds{{quantile=\"{label}\"}}"),
                    format!("{v:.6}"),
                );
            }
        }
        line(
            "predict_latency_seconds_sum",
            format!("{:.6}", g(&self.latency.sum) as f64 / 1e6),
        );
        line(
            "predict_latency_seconds_count",
            g(&self.latency.count).to_string(),
        );
        // Per-model series: requests, queue depth, batch-size histogram
        // and forward latency, each labelled `{model="…"}` so one family's
        // regression cannot hide inside another's aggregate.
        for (name, s) in self.model_snapshot() {
            line(
                &format!("requests_total{{model=\"{name}\"}}"),
                g(&s.requests_total).to_string(),
            );
            line(
                &format!("model_queue_depth{{model=\"{name}\"}}"),
                g(&s.queue_depth).to_string(),
            );
            let mut cumulative = 0u64;
            for (i, bound) in BATCH_BUCKET_BOUNDS.iter().enumerate() {
                cumulative += g(&s.batch.buckets[i]);
                line(
                    &format!("model_batch_size_bucket{{model=\"{name}\",le=\"{bound}\"}}"),
                    cumulative.to_string(),
                );
            }
            cumulative += g(&s.batch.buckets[BATCH_BUCKET_BOUNDS.len()]);
            line(
                &format!("model_batch_size_bucket{{model=\"{name}\",le=\"+Inf\"}}"),
                cumulative.to_string(),
            );
            line(
                &format!("model_batch_size_sum{{model=\"{name}\"}}"),
                g(&s.batch.sum).to_string(),
            );
            line(
                &format!("model_batch_size_count{{model=\"{name}\"}}"),
                g(&s.batch.count).to_string(),
            );
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                if let Some(v) = s.forward_quantile(q) {
                    line(
                        &format!("model_forward_seconds{{model=\"{name}\",quantile=\"{label}\"}}"),
                        format!("{v:.6}"),
                    );
                }
            }
            line(
                &format!("model_forward_seconds_sum{{model=\"{name}\"}}"),
                format!("{:.6}", g(&s.forward.sum) as f64 / 1e6),
            );
            line(
                &format!("model_forward_seconds_count{{model=\"{name}\"}}"),
                g(&s.forward.count).to_string(),
            );
        }
        out
    }
}

/// Load state of the model registry, as `GET /healthz` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadState {
    /// The initial registry load has not finished yet.
    Loading,
    /// All models are loaded and the server takes predictions.
    Ready,
    /// A `/reload` is in flight; predictions queued behind it still answer
    /// (the old models keep serving) but a load balancer should drain this
    /// server rather than pile latency onto it.
    Reloading,
    /// The last registry swap failed. The previous models keep serving
    /// (degraded, not down), but a load balancer should prefer healthy
    /// replicas.
    ReloadFailed,
}

/// Server readiness, shared between the inference lanes (which own the
/// registry and flip the state around loads and reloads) and the event
/// loops (which render it at `GET /healthz`).
///
/// The body is line-oriented so a health check can parse it without a
/// format dependency: the first line is the state (`ready`, `loading`,
/// `reloading`, `reload-failed`), followed by one `model <name>` line per
/// loaded model.
#[derive(Debug, Default)]
pub struct Health {
    /// Encoded [`LoadState`] (0..=3 in declaration order).
    state: AtomicU64,
    /// Pre-rendered per-model lines.
    models: Mutex<String>,
}

impl Health {
    /// Fresh health state, reporting [`LoadState::Loading`].
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Health::default())
    }

    /// Marks the registry ready, recording each model's name for the
    /// readiness body.
    pub fn set_ready(&self, models: &[String]) {
        let body: String = models
            .iter()
            .map(|name| format!("model {name}\n"))
            .collect();
        *self.models.lock().expect("health lock") = body;
        self.state.store(1, Ordering::SeqCst);
    }

    /// Marks a reload in flight (not dispatchable until it resolves).
    pub fn begin_reload(&self) {
        self.state.store(2, Ordering::SeqCst);
    }

    /// Marks the last reload failed; the previous models keep serving.
    pub fn reload_failed(&self) {
        self.state.store(3, Ordering::SeqCst);
    }

    /// Current load state.
    #[must_use]
    pub fn state(&self) -> LoadState {
        match self.state.load(Ordering::SeqCst) {
            1 => LoadState::Ready,
            2 => LoadState::Reloading,
            3 => LoadState::ReloadFailed,
            _ => LoadState::Loading,
        }
    }

    /// The `/healthz` response: `200 ready` with per-model detail when
    /// dispatchable, `503` (still answering!) in any other state so a
    /// health-checking load balancer drains this server instead of
    /// sending into a reload or a failed swap.
    #[must_use]
    pub fn render(&self) -> (u16, String) {
        let (status, word) = match self.state() {
            LoadState::Ready => (200, "ready"),
            LoadState::Loading => (503, "loading"),
            LoadState::Reloading => (503, "reloading"),
            LoadState::ReloadFailed => (503, "reload-failed"),
        };
        let models = self.models.lock().expect("health lock");
        (status, format!("{word}\n{models}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_reports_readiness_transitions() {
        let h = Health::new();
        assert_eq!(h.state(), LoadState::Loading);
        assert_eq!(h.render().0, 503);
        h.set_ready(&["demo".to_string(), "big net".to_string()]);
        let (status, body) = h.render();
        assert_eq!(status, 200);
        assert!(body.starts_with("ready\n"), "{body}");
        assert!(body.contains("model demo\n"), "{body}");
        assert!(body.contains("model big net\n"), "{body}");
        // Mid-reload: not dispatchable, but the model list survives.
        h.begin_reload();
        let (status, body) = h.render();
        assert_eq!(status, 503);
        assert!(body.starts_with("reloading\n"), "{body}");
        assert!(body.contains("model demo"), "{body}");
        // A failed swap keeps serving the old models but stays drained.
        h.reload_failed();
        let (status, body) = h.render();
        assert_eq!(status, 503);
        assert!(body.starts_with("reload-failed\n"), "{body}");
        // A later successful reload restores readiness.
        h.set_ready(&["demo".to_string()]);
        assert_eq!(h.render().0, 200);
    }

    #[test]
    fn loop_gauges_render_as_labelled_series() {
        let m = Metrics::new();
        let a = Arc::new(AtomicU64::new(3));
        let b = Arc::new(AtomicU64::new(0));
        m.set_loop_gauges(vec![Arc::clone(&a), Arc::clone(&b)]);
        let text = m.render();
        assert!(
            text.contains("lmmir_loop_connections{loop=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("lmmir_loop_connections{loop=\"1\"} 0"),
            "{text}"
        );
        assert!(text.contains("lmmir_connections_refused_total 0"), "{text}");
    }

    #[test]
    fn quantiles_track_buckets() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile(0.5), None);
        for _ in 0..99 {
            m.observe_latency(Duration::from_micros(80)); // ≤ 100µs bucket
        }
        m.observe_latency(Duration::from_millis(40)); // ≤ 50ms bucket
        assert!((m.latency_quantile(0.5).unwrap() - 100e-6).abs() < 1e-9);
        assert!((m.latency_quantile(0.99).unwrap() - 100e-6).abs() < 1e-9);
        assert!((m.latency_quantile(1.0).unwrap() - 50e-3).abs() < 1e-9);
    }

    #[test]
    fn batch_and_cache_counters() {
        let m = Metrics::new();
        m.observe_batch(3);
        m.observe_batch(7);
        assert_eq!(m.batches_total.load(Ordering::Relaxed), 2);
        assert_eq!(m.batched_jobs_total.load(Ordering::Relaxed), 10);
        assert_eq!(m.batch_max_size.load(Ordering::Relaxed), 7);
        assert!(
            (m.result_cache_hit_rate() - 0.0).abs() < 1e-12,
            "no lookup yet"
        );
        Metrics::inc(&m.result_cache_hits_total);
        Metrics::inc(&m.result_cache_hits_total);
        Metrics::inc(&m.result_cache_misses_total);
        assert!((m.result_cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_every_series() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_millis(1));
        let text = m.render();
        for key in [
            "lmmir_requests_total",
            "lmmir_connections_total",
            "lmmir_connections_open",
            "lmmir_connections_parked",
            "lmmir_event_threads",
            "lmmir_keepalive_reuses_total",
            "lmmir_inference_lanes",
            "lmmir_result_cache_hits_total",
            "lmmir_result_cache_misses_total",
            "lmmir_result_cache_hit_rate",
            "lmmir_batch_max_size",
            "lmmir_predict_latency_seconds{quantile=\"0.99\"}",
            "lmmir_predict_latency_seconds_count 1",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn per_model_series_render_with_labels() {
        let m = Metrics::new();
        assert_eq!(model_label(""), "default");
        assert_eq!(model_label("dyn"), "dyn");
        let stat = m.model("static");
        let dynamic = m.model("dyn");
        assert!(Arc::ptr_eq(&m.model("static"), &stat), "handle is stable");
        Metrics::inc(&stat.requests_total);
        Metrics::inc(&stat.requests_total);
        Metrics::inc(&dynamic.requests_total);
        Metrics::inc(&dynamic.queue_depth);
        stat.observe_batch(3);
        stat.observe_batch(5);
        dynamic.observe_batch(1);
        dynamic.observe_forward(Duration::from_millis(40));
        assert!((dynamic.forward_quantile(0.5).unwrap() - 50e-3).abs() < 1e-9);
        assert_eq!(dynamic.forwards(), 1);
        assert_eq!(stat.forward_quantile(0.5), None);
        let text = m.render();
        for key in [
            "lmmir_requests_total{model=\"static\"} 2",
            "lmmir_requests_total{model=\"dyn\"} 1",
            "lmmir_model_queue_depth{model=\"dyn\"} 1",
            "lmmir_model_batch_size_bucket{model=\"static\",le=\"4\"} 1",
            "lmmir_model_batch_size_bucket{model=\"static\",le=\"+Inf\"} 2",
            "lmmir_model_batch_size_sum{model=\"static\"} 8",
            "lmmir_model_batch_size_count{model=\"static\"} 2",
            "lmmir_model_forward_seconds{model=\"dyn\",quantile=\"0.99\"}",
            "lmmir_model_forward_seconds_count{model=\"dyn\"} 1",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        // Labels render sorted ("default" < "dyn" < "static" would, here
        // "dyn" < "static"), keeping scrape diffs stable.
        let dyn_at = text.find("model=\"dyn\"").unwrap();
        let stat_at = text.find("model=\"static\"").unwrap();
        assert!(dyn_at < stat_at, "sorted label order:\n{text}");
    }

    #[test]
    fn gauges_inc_dec_and_saturate_at_zero() {
        let m = Metrics::new();
        Metrics::inc(&m.connections_open);
        Metrics::inc(&m.connections_open);
        Metrics::dec(&m.connections_open);
        assert_eq!(m.connections_open.load(Ordering::Relaxed), 1);
        Metrics::dec(&m.connections_open);
        Metrics::dec(&m.connections_open); // double-dec must not wrap
        assert_eq!(m.connections_open.load(Ordering::Relaxed), 0);
    }
}
