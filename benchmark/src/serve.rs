//! `serve_cold` and `serve_warm`: the in-process server under closed-loop
//! load from this same process.
//!
//! Both start the real server (`Server::start`, default `ServeConfig` except
//! an ephemeral port) on a checkpoint of the LMM-IR `quick()` model and
//! talk to it over loopback with the crate's own keep-alive `Client`.
//! `serve_cold` makes every request a never-seen design, so each one walks
//! the whole path (wire decode → SPICE parse → features → point cloud →
//! LNT → U-Net → restore → encode → socket); `serve_warm` repeats four
//! designs, so each one is answered from the result cache on the event-loop
//! thread and never reaches `features`/`core`/`tensor`.

use crate::library;
use crate::trace::span;
use crate::workloads::{
    goes_on, hottest, perturbation, Checks, Params, RepOutput, Traced, Workload,
};
use lmm_ir::{prepare_parts, save_predictor, InferenceSession, LmmIr, Prediction, PreparedInput};
use lmmir_pdn::CaseKind;
use lmmir_serve::http::{self, Parsed};
use lmmir_serve::{
    client, prepare_request, Client, ModelRegistry, PredictRequest, PredictResponse, RegistrySpec,
    ServeConfig, Server,
};
use lmmir_spice::Netlist;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Ops of the traced pass start here, far past any op a timed window
/// reaches, so a traced request is never a repeat of a timed one.
const TRACED_FIRST_OP: u64 = 1 << 19;

/// A running server plus the designs the workload sends to it.
struct Bed {
    server: Server,
    addr: String,
    ckpt: PathBuf,
    bases: Vec<PredictRequest>,
    /// Per base design: the power pixel [`perturbation`] scales.
    hot: Vec<usize>,
    /// Per base design: the reply to its warm-up op (the encoded frame).
    warm_replies: Vec<Vec<u8>>,
    /// `/metrics` as scraped when set-up finished.
    metrics_at_start: HashMap<String, f64>,
}

impl Bed {
    fn start(p: &Params, tag: u64, designs: usize) -> Result<Bed, String> {
        let um = p.small_um();
        let bases: Vec<PredictRequest> = (0..designs)
            .map(|i| PredictRequest::from_case(&p.design(tag, i, um, CaseKind::Hidden).generate()))
            .collect();
        let hot = bases.iter().map(|b| hottest(&b.power)).collect();

        std::fs::create_dir_all(&p.out).map_err(|e| format!("creating {:?}: {e}", p.out))?;
        let ckpt = p
            .out
            .join(format!("model-{tag}-{}.lmmt", std::process::id()));
        save_predictor(&LmmIr::new(p.model_config()), &ckpt)
            .map_err(|e| format!("saving checkpoint: {e}"))?;
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, RegistrySpec::single("lmmir", &ckpt))
            .map_err(|e| format!("starting server: {e}"))?;
        let addr = server.addr().to_string();

        // Warm-up: one op per base design, so lazy set-up inside the server
        // (buffer pools, first-touch pages) is paid before timing.
        let mut client = Client::new(addr.clone());
        let mut warm_replies = Vec::new();
        for base in &bases {
            let (status, reply) = client
                .request("POST", "/predict", &base.encode())
                .map_err(|e| format!("warm-up request: {e}"))?;
            if status != 200 {
                return Err(format!("warm-up request answered HTTP {status}"));
            }
            warm_replies.push(reply);
        }
        let metrics_at_start = scrape(&addr)?;
        Ok(Bed {
            server,
            addr,
            ckpt,
            bases,
            hot,
            warm_replies,
            metrics_at_start,
        })
    }

    /// The never-seen request of op `k`: base design `k mod n` with its
    /// hottest power pixel scaled by [`perturbation`]`(k)`.
    fn cold_request(&self, k: u64) -> PredictRequest {
        cold_request(&self.bases, &self.hot, k)
    }

    /// Runs `f` on an inference session over the model the server loaded,
    /// loaded again the way the server does: the offline reference.
    fn with_reference<R>(&self, f: impl FnOnce(&InferenceSession<'_>) -> R) -> Result<R, String> {
        let registry = ModelRegistry::load(RegistrySpec::single("lmmir", &self.ckpt))
            .map_err(|e| format!("loading reference model: {e}"))?;
        let model = registry.resolve("").expect("default model").model.as_ref();
        Ok(f(&InferenceSession::new(model)))
    }

    fn stop(self) {
        self.server.stop();
        let _ = std::fs::remove_file(&self.ckpt);
    }
}

pub fn cold_request(bases: &[PredictRequest], hot: &[usize], k: u64) -> PredictRequest {
    let which = (k % bases.len() as u64) as usize;
    let mut request = bases[which].clone();
    request.power[hot[which]] = (f64::from(request.power[hot[which]]) * perturbation(k)) as f32;
    request
}

/// `GET /metrics` as a name → value map (labels stay part of the name).
fn scrape(addr: &str) -> Result<HashMap<String, f64>, String> {
    let (status, text) =
        client::get_text(addr, "/metrics").map_err(|e| format!("scraping /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered HTTP {status}"));
    }
    Ok(text
        .lines()
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// `after − before` of one counter (0 when absent).
fn delta(after: &HashMap<String, f64>, before: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer values read off two `/metrics` scrapes around some load.
fn metrics_values(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
) -> Vec<(&'static str, f64)> {
    let d = |name: &str| delta(after, before, name);
    // Requests are counted under the name they asked for (the empty default
    // route renders as "default"), forwards under the model that ran.
    let predicts = d("lmmir_requests_total{model=\"default\"}");
    let forwards = d("lmmir_model_forward_seconds_count{model=\"lmmir\"}");
    let (hits, misses) = (
        d("lmmir_result_cache_hits_total"),
        d("lmmir_result_cache_misses_total"),
    );
    let (feature_hits, feature_misses) =
        (d("lmmir_cache_hits_total"), d("lmmir_cache_misses_total"));
    vec![
        (
            "serve.batch.jobs_per_batch_mean",
            ratio(d("lmmir_batched_jobs_total"), d("lmmir_batches_total")),
        ),
        (
            "serve.batch.forwards_per_request",
            ratio(forwards, predicts),
        ),
        (
            // The server's quantiles are bucket upper bounds (10, 20, 50 ms
            // …), too coarse to move; sum over count is exact.
            "serve.metrics.forward_mean_ms",
            1e3 * ratio(
                d("lmmir_model_forward_seconds_sum{model=\"lmmir\"}"),
                forwards,
            ),
        ),
        ("serve.cache.result_hit_rate", ratio(hits, hits + misses)),
        (
            "serve.cache.feature_hit_rate",
            ratio(feature_hits, feature_hits + feature_misses),
        ),
        (
            "serve.event.keepalive_reuse_share",
            ratio(d("lmmir_keepalive_reuses_total"), d("lmmir_requests_total")),
        ),
    ]
}

/// Sends one pre-encoded predict body and decodes the reply. The latency a
/// caller sees: client send → decoded reply.
fn exchange(client: &mut Client, body: &[u8]) -> Result<(Vec<u8>, PredictResponse, f64), String> {
    let sent = Instant::now();
    let (status, reply) = client
        .request("POST", "/predict", body)
        .map_err(|e| e.to_string())?;
    let response = PredictResponse::decode(&reply).map_err(|e| format!("HTTP {status}: {e}"))?;
    let ms = sent.elapsed().as_secs_f64() * 1e3;
    Ok((reply, response, ms))
}

/// Whether a served response equals an offline prediction bit for bit.
fn same_bits(served: &PredictResponse, offline: &Prediction) -> bool {
    served.width as usize == offline.map.width()
        && served.height as usize == offline.map.height()
        && served.threshold.to_bits() == offline.threshold.to_bits()
        && served.mask == offline.mask
        && served.map.len() == offline.map.data().len()
        && served
            .map
            .iter()
            .zip(offline.map.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The offline reference of one request: `prepare_request` +
/// `InferenceSession::predict` on a model loaded from the same checkpoint.
fn offline(session: &InferenceSession<'_>, request: &PredictRequest) -> Result<Prediction, String> {
    let input = prepare_request(session.spec(), request)?;
    session.predict(&input).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------------

/// Closed-loop clients of `serve_cold`: callers are scripts and engineers
/// that wait for the map; two of them is what this 2-core box can drive
/// without the load generator starving the server.
const COLD_CLIENTS: usize = 2;

pub struct ServeCold {
    bed: Bed,
    /// Next op index; ops are never reused across repetitions, so no
    /// repetition sees a design an earlier one put in the caches.
    next_op: u64,
    /// Every `check_stride`-th reply, kept for the bitwise check.
    kept: Vec<(u64, PredictResponse)>,
}

impl ServeCold {
    /// Closed-loop load from [`COLD_CLIENTS`] clients until `budget` has
    /// passed or `cap` ops were sent.
    fn load(&mut self, budget: Duration, cap: Option<u64>, check_stride: u64) -> RepOutput {
        let deadline = Instant::now() + budget;
        let issued = AtomicU64::new(0);
        let first_op = self.next_op;
        let bed = &self.bed;
        let merged = Mutex::new((RepOutput::default(), Vec::new()));
        std::thread::scope(|scope| {
            for _ in 0..COLD_CLIENTS {
                scope.spawn(|| {
                    let mut client = Client::new(bed.addr.clone());
                    let mut out = RepOutput::default();
                    let mut kept = Vec::new();
                    loop {
                        // Claiming the index first keeps the two clients
                        // from both taking the last op under the cap.
                        let claim = issued.fetch_add(1, Ordering::Relaxed);
                        if !goes_on(deadline, claim, cap) {
                            break;
                        }
                        let k = first_op + claim;
                        let body = bed.cold_request(k).encode();
                        out.attempted += 1;
                        match exchange(&mut client, &body) {
                            // `cache_hit` is the feature-cache flag: a
                            // never-seen design must miss it.
                            Ok((_, response, ms)) if !response.cache_hit => {
                                out.latencies_ms.push(ms);
                                if k % check_stride == 0 {
                                    kept.push((k, response));
                                }
                            }
                            Ok(_) => {
                                eprintln!("[serve_cold] op {k}: feature-cache hit on a new design");
                                out.failed += 1;
                            }
                            Err(e) => {
                                eprintln!("[serve_cold] op {k}: {e}");
                                out.failed += 1;
                            }
                        }
                    }
                    let mut all = merged.lock().expect("client thread panicked");
                    all.0.latencies_ms.extend(out.latencies_ms);
                    all.0.attempted += out.attempted;
                    all.0.failed += out.failed;
                    all.1.extend(kept);
                });
            }
        });
        let (out, kept) = merged.into_inner().expect("client thread panicked");
        self.next_op += issued.load(Ordering::Relaxed);
        self.kept.extend(kept);
        out
    }
}

impl Workload for ServeCold {
    const NAME: &'static str = "serve_cold";
    const SHAPE: &'static str =
        "POST /predict of never-seen 64 um designs (8 bases, one power pixel perturbed per op), \
         LMM-IR quick() f32 at 32 px, closed loop, 2 keep-alive clients";

    fn setup(p: &Params) -> Result<Self, String> {
        Ok(ServeCold {
            bed: Bed::start(p, 1, 8)?,
            next_op: 0,
            kept: Vec::new(),
        })
    }

    fn repetition(&mut self, p: &Params, budget: Duration) -> RepOutput {
        self.load(budget, p.ops_cap(), p.check_stride())
    }

    fn verify(&mut self, _p: &Params, _reps: &[RepOutput]) -> Checks {
        let mut checks = Checks::default();
        match scrape(&self.bed.addr) {
            Ok(now) => {
                let hits = delta(
                    &now,
                    &self.bed.metrics_at_start,
                    "lmmir_result_cache_hits_total",
                );
                checks.record(
                    "no reply came from the result cache",
                    1,
                    usize::from(hits != 0.0),
                );
            }
            Err(e) => checks.record(&e, 1, 1),
        }
        let bad = self.bed.with_reference(|session| {
            self.kept
                .iter()
                .filter(|(k, served)| {
                    !offline(session, &self.bed.cold_request(*k))
                        .is_ok_and(|p| same_bits(served, &p))
                })
                .count()
        });
        checks.record(
            "kept replies equal the offline reference bit for bit",
            self.kept.len(),
            bad.unwrap_or_else(|e| {
                eprintln!("[serve_cold] {e}");
                self.kept.len()
            }),
        );
        checks
    }

    fn traced(&mut self, p: &Params) -> Traced {
        let mut traced = Traced::default();
        // Batch and cache counters under the workload's own load shape: a
        // short burst from both clients between two scrapes.
        let before = scrape(&self.bed.addr).unwrap_or_default();
        let burst = self.load(
            Duration::from_secs(60),
            Some(if p.smoke { 2 } else { 24 }),
            u64::MAX,
        );
        let after = scrape(&self.bed.addr).unwrap_or_default();
        traced.attempted += burst.attempted;
        traced.failed += burst.failed;
        traced.values.extend(metrics_values(&before, &after));

        if let Err(e) = self
            .bed
            .with_reference(|session| self.trace_sample(p, session, &mut traced))
        {
            traced.fail(e);
        }
        traced
    }

    fn teardown(self) {
        self.bed.stop();
    }
}

impl ServeCold {
    /// The sampled requests of the traced pass: each through the library
    /// chain with spans, then through the server with one client.
    fn trace_sample(&self, p: &Params, session: &InferenceSession<'_>, traced: &mut Traced) {
        let detail = library::Detail::new(p);
        let sample = if p.smoke { 2 } else { 12 };
        let mut client = Client::new(self.bed.addr.clone());
        let (mut overhead, mut chains, mut served) = (Vec::new(), Vec::new(), Vec::new());
        for k in TRACED_FIRST_OP..TRACED_FIRST_OP + sample {
            crate::trace::set_op(k);
            traced.attempted += 1;
            let request = self.bed.cold_request(k);
            let body = request.encode();
            let wire = frame_request(&body);
            let started = Instant::now();
            let chain = span("op", || cold_chain(session, &wire));
            let chain_ms = started.elapsed().as_secs_f64() * 1e3;
            let (frame, input) = match chain {
                Ok(done) => done,
                Err(e) => {
                    traced.fail(format!("op {k}: {e}"));
                    continue;
                }
            };
            let text = request.netlist.as_deref().unwrap_or_default();
            let (elements, points) =
                detail.spans(text, &request.power_map(), i64::from(request.dbu_per_um));
            if k == TRACED_FIRST_OP {
                // The chain spells `prepare_request` out to put spans
                // inside it; it must still prepare the same input.
                let same = prepare_request(session.spec(), &request)
                    .is_ok_and(|real| real.images.data() == input.images.data());
                if !same {
                    traced.fail("chain input differs from prepare_request".to_string());
                }
                traced.values.extend([
                    ("serve.wire.request_bytes", body.len() as f64),
                    ("serve.wire.response_bytes", frame.len() as f64),
                ]);
                library::netlist_values(traced, text.len(), elements, points);
            }
            // The same request through the server, one client. The served
            // frame must be the chain's frame: served == offline, bitwise.
            match exchange(&mut client, &body) {
                Ok((reply, _, ms)) if reply == frame => {
                    overhead.push(ms - chain_ms);
                    chains.push(chain_ms);
                    served.push(ms);
                }
                Ok(_) => {
                    traced.fail(format!("op {k}: served frame differs from the chain's"));
                }
                Err(e) => {
                    traced.fail(format!("op {k}: {e}"));
                }
            }
        }
        let median = crate::stats::median;
        traced.values.push(("serve.overhead_ms", median(&overhead)));
        traced.notes.push(format!(
            "1-client served latency {:.3} ms = library chain {:.3} ms + serve.overhead_ms {:.3} ms \
             (medians of {} ops)",
            median(&served),
            median(&chains),
            median(&overhead),
            served.len()
        ));
    }
}

/// The bytes the keep-alive client puts on the wire for one predict body.
fn frame_request(body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST /predict HTTP/1.1\r\nHost: lmmir\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// HTTP parse + request decode + fingerprint: what every predict pays on
/// the event-loop thread before the result-cache lookup.
fn front_end(wire: &[u8]) -> Result<PredictRequest, String> {
    let parsed = span("serve.http.parse_request", || http::parse_request(wire));
    let Ok(Parsed::Ready { request, .. }) = parsed else {
        return Err("request did not parse as one complete HTTP request".to_string());
    };
    let decoded = span("serve.proto.decode_request", || {
        PredictRequest::decode(&request.body)
    })
    .map_err(|e| e.to_string())?;
    span("serve.proto.fingerprint", || {
        std::hint::black_box(decoded.fingerprint())
    });
    Ok(decoded)
}

/// The library chain behind one cold request, one span per layer call:
/// front end → `prepare_request` (spelled out: SPICE parse + features) →
/// forward → restore → response encode. Returns the encoded frame.
fn cold_chain(
    session: &InferenceSession<'_>,
    wire: &[u8],
) -> Result<(Vec<u8>, PreparedInput), String> {
    let decoded = front_end(wire)?;
    let text = decoded
        .netlist
        .as_deref()
        .ok_or("request without netlist")?;
    let input = span("serve.batch.prepare_request", || {
        let netlist =
            span("spice.parse", || Netlist::parse_str(text)).map_err(|e| e.to_string())?;
        span("core.infer.prepare_parts", || {
            prepare_parts(
                session.spec(),
                &decoded.power_map(),
                Some(&netlist),
                i64::from(decoded.dbu_per_um),
            )
        })
        .map_err(|e| e.to_string())
    })?;
    let prediction = library::forward_restore(session, &input)?;
    let frame = span("serve.proto.encode_response", || {
        PredictResponse {
            width: prediction.map.width() as u32,
            height: prediction.map.height() as u32,
            threshold: prediction.threshold,
            cache_hit: false,
            map: prediction.map.data().to_vec(),
            mask: prediction.mask.clone(),
        }
        .encode()
    });
    Ok((frame, input))
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

pub struct ServeWarm {
    bed: Bed,
    bodies: Vec<Vec<u8>>,
}

impl Workload for ServeWarm {
    const NAME: &'static str = "serve_warm";
    const SHAPE: &'static str =
        "POST /predict of 4 fixed 64 um designs answered from the result cache, pre-encoded \
         bodies, closed loop, 1 keep-alive client";

    fn setup(p: &Params) -> Result<Self, String> {
        let bed = Bed::start(p, 2, 4)?;
        let bodies = bed.bases.iter().map(PredictRequest::encode).collect();
        Ok(ServeWarm { bed, bodies })
    }

    fn repetition(&mut self, p: &Params, budget: Duration) -> RepOutput {
        let deadline = Instant::now() + budget;
        let mut client = Client::new(self.bed.addr.clone());
        let mut out = RepOutput::default();
        while goes_on(deadline, out.attempted, p.ops_cap()) {
            let which = (out.attempted % self.bodies.len() as u64) as usize;
            out.attempted += 1;
            match exchange(&mut client, &self.bodies[which]) {
                // A cache hit hands back the very frame the warm-up op
                // produced.
                Ok((reply, _, ms)) if reply == self.bed.warm_replies[which] => {
                    out.latencies_ms.push(ms);
                }
                Ok(_) => {
                    eprintln!("[serve_warm] design {which}: reply differs from its first reply");
                    out.failed += 1;
                }
                Err(e) => {
                    eprintln!("[serve_warm] design {which}: {e}");
                    out.failed += 1;
                }
            }
        }
        out
    }

    fn verify(&mut self, _p: &Params, reps: &[RepOutput]) -> Checks {
        let mut checks = Checks::default();
        let sent: u64 = reps.iter().map(|r| r.attempted).sum();
        match scrape(&self.bed.addr) {
            Ok(now) => {
                let d = |name: &str| delta(&now, &self.bed.metrics_at_start, name);
                let from_cache = d("lmmir_result_cache_hits_total") == sent as f64
                    && d("lmmir_model_forward_seconds_count{model=\"lmmir\"}") == 0.0;
                checks.record(
                    "every reply came from the result cache, no forward ran",
                    1,
                    usize::from(!from_cache),
                );
            }
            Err(e) => checks.record(&e, 1, 1),
        }
        let designs = self.bed.bases.len();
        let bad = self.bed.with_reference(|session| {
            self.bed
                .bases
                .iter()
                .zip(&self.bed.warm_replies)
                .filter(|(request, reply)| {
                    let served = PredictResponse::decode(reply);
                    let reference = offline(session, request);
                    !matches!((served, reference), (Ok(s), Ok(r)) if same_bits(&s, &r))
                })
                .count()
        });
        checks.record(
            "every design's reply equals the offline reference bit for bit",
            designs,
            bad.unwrap_or_else(|e| {
                eprintln!("[serve_warm] {e}");
                designs
            }),
        );
        checks
    }

    fn traced(&mut self, p: &Params) -> Traced {
        let mut traced = Traced::default();
        let sample = if p.smoke { 4 } else { 200 };
        let before = scrape(&self.bed.addr).unwrap_or_default();
        let mut client = Client::new(self.bed.addr.clone());
        let mut overhead = Vec::new();
        for k in 0..sample {
            crate::trace::set_op(k);
            traced.attempted += 1;
            let which = (k % self.bodies.len() as u64) as usize;
            let wire = frame_request(&self.bodies[which]);
            let frame = &self.bed.warm_replies[which];
            let started = Instant::now();
            // What a result-cache hit costs in library calls: the front
            // end, then framing the cached response. No `features`, `core`
            // or `tensor` call.
            let chain = span("op", || {
                front_end(&wire).map(|_| {
                    let mut framed = Vec::with_capacity(frame.len() + 128);
                    let _ = http::write_response(
                        &mut framed,
                        200,
                        "application/octet-stream",
                        frame,
                        false,
                    );
                    std::hint::black_box(framed.len())
                })
            });
            let chain_ms = started.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = chain {
                traced.fail(format!("op {k}: {e}"));
                continue;
            }
            match exchange(&mut client, &self.bodies[which]) {
                Ok((reply, _, ms)) if &reply == frame => overhead.push(ms - chain_ms),
                _ => {
                    traced.fail(format!("op {k}: reply differs or failed"));
                }
            }
        }
        let after = scrape(&self.bed.addr).unwrap_or_default();
        traced.values.extend(metrics_values(&before, &after));
        traced.values.extend([
            ("serve.wire.request_bytes", self.bodies[0].len() as f64),
            (
                "serve.wire.response_bytes",
                self.bed.warm_replies[0].len() as f64,
            ),
            ("serve.overhead_ms", crate::stats::median(&overhead)),
        ]);
        traced
    }

    fn teardown(self) {
        self.bed.stop();
    }
}
