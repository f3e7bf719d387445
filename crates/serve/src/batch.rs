//! The inference thread: job queue, batching, dedup, cache, forward.
//!
//! Event-loop threads enqueue decoded predict jobs on an MPSC channel; the
//! single inference thread (models are `Rc`-based and not `Send`) blocks
//! for one job, takes what else is already queued up to `max_batch` (no
//! timed wait: jobs pile up behind a running forward), then processes the
//! batch:
//!
//! 1. jobs are **grouped** by `(model, design content hash)` — duplicates
//!    in one batch share a single forward pass;
//! 2. each group's prepared input comes from the **LRU feature cache** or,
//!    on a miss, is rasterized — misses of one batch fan out across the
//!    `lmmir-par` pool (feature preparation is plain data work);
//! 3. one **forward pass per unique group** runs on the inference thread,
//!    its internal kernels parallelized by the same pool;
//! 4. every job of the group receives the identical response.
//!
//! The loop exits when every sender is gone (event loops drained and
//! exited), which is exactly the graceful-shutdown order.
//!
//! Completion delivery is a callback, not a channel the submitter blocks
//! on: event-loop threads park the connection and hand the job a boxed
//! notifier that posts a readiness event back to the loop that owns the
//! connection. Successful predictions are **encoded exactly once** here —
//! the same `Arc`'d frame goes to every duplicate job of the group and
//! into the result cache, so neither duplicates nor later cache hits pay
//! the re-encode.

use crate::cache::{LruCache, ResultCache};
use crate::metrics::{model_label, Health, Metrics};
use crate::proto::{PredictRequest, PredictResponse};
use crate::registry::{ModelRegistry, RegistrySpec};
use crate::server::ServeConfig;
use crate::ServeError;
use lmm_ir::{prepare_parts, prepare_window_parts, InferenceSession, InputSpec, PreparedInput};
use lmmir_spice::Netlist;
use std::rc::Rc;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// The feature cache: prepared inputs are shared by `Rc`, so a cache hit
/// never copies the images or the point cloud (the cache and the models
/// live on the same thread).
type FeatureCache = LruCache<(String, u64), Rc<PreparedInput>>;

/// Reply to one predict job: the **encoded response frame** (shared with
/// the result cache and every duplicate job of the batch group), or a
/// client-visible error message.
pub type PredictReply = Result<Arc<Vec<u8>>, String>;

/// Completion notifier for one queued job: invoked exactly once, on the
/// inference thread, when the job's outcome is known.
pub type ReplyFn<T> = Box<dyn FnOnce(T) + Send>;

/// One queued prediction.
pub struct PredictJob {
    /// The decoded request.
    pub request: PredictRequest,
    /// Content fingerprint (precomputed on the event-loop thread).
    pub fingerprint: u64,
    /// Wakes the parked connection with the outcome.
    pub reply: ReplyFn<PredictReply>,
}

/// A queue entry.
pub enum Job {
    /// Run a prediction.
    Predict(PredictJob),
    /// Reload the registry from disk; the notifier receives the model
    /// count or an error description.
    Reload(ReplyFn<Result<usize, String>>),
}

/// Prepares one request for a model input contract — the *identical* code
/// path the offline pipeline uses ([`lmm_ir::prepare_parts`]), exposed so
/// tests and clients can compute the reference prediction the server must
/// match bitwise.
///
/// # Errors
///
/// Returns a client-visible message for an unparsable netlist or a request
/// the model contract cannot consume.
pub fn prepare_request(spec: InputSpec, request: &PredictRequest) -> Result<PreparedInput, String> {
    if spec.windows > 0 {
        // Dynamic model: consume the per-window block. A request without
        // one is a client mistake worth a precise message — the model
        // cannot fall back to the static envelope.
        if request.windows.is_empty() {
            return Err(format!(
                "model consumes {} per-window power maps but the request \
                 carried none (dynamic requests append the window block \
                 after the netlist field)",
                spec.windows
            ));
        }
        return prepare_window_parts(spec, &request.window_maps()).map_err(|e| e.to_string());
    }
    // Static model: consume the (envelope) power map and netlist; any
    // per-window block rides along ignored, so one dynamic design can be
    // served by both families.
    let netlist = match &request.netlist {
        Some(text) => {
            Some(Netlist::parse_str(text).map_err(|e| format!("netlist does not parse: {e}"))?)
        }
        None => None,
    };
    prepare_parts(
        spec,
        &request.power_map(),
        netlist.as_ref(),
        i64::from(request.dbu_per_um),
    )
    .map_err(|e| e.to_string())
}

/// Reorders a drained batch's groups so forward passes **interleave
/// across models** round-robin: `[A1 A2 A3 B1 B2]` runs as
/// `[A1 B1 A2 B2 A3]`. Within one model the first-seen order is kept, so
/// replies stay deterministic; across models no family waits for another
/// family's whole backlog — a slow dynamic forward cannot starve static
/// traffic queued in the same drain cycle.
pub fn interleave_groups<T>(groups: Vec<T>, model_of: impl Fn(&T) -> String) -> Vec<T> {
    let mut lanes: Vec<(String, std::collections::VecDeque<T>)> = Vec::new();
    for group in groups {
        let model = model_of(&group);
        match lanes.iter_mut().find(|(name, _)| *name == model) {
            Some((_, lane)) => lane.push_back(group),
            None => lanes.push((model, std::collections::VecDeque::from([group]))),
        }
    }
    let mut out = Vec::new();
    while lanes.iter().any(|(_, lane)| !lane.is_empty()) {
        for (_, lane) in &mut lanes {
            if let Some(group) = lane.pop_front() {
                out.push(group);
            }
        }
    }
    out
}

/// Runs the inference loop until the job channel disconnects.
///
/// Sends the registry-load outcome over `ready` exactly once before
/// entering the loop, so `Server::start` can fail fast on a bad checkpoint.
pub(crate) fn run(
    cfg: &ServeConfig,
    spec: RegistrySpec,
    jobs: Receiver<Job>,
    metrics: &Arc<Metrics>,
    health: &Arc<Health>,
    results: &ResultCache,
    ready: &Sender<Result<(), ServeError>>,
) {
    // The inference thread owns its thread-count override (`lmmir-par`
    // overrides are thread-local): every kernel and fan-out below honours
    // `cfg.threads`, falling back to `LMMIR_THREADS` / core count.
    lmmir_par::set_thread_override(cfg.threads);
    let mut registry = match ModelRegistry::load(spec) {
        Ok(r) => {
            health.set_ready(&r.summaries());
            let _ = ready.send(Ok(()));
            r
        }
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    metrics
        .models_loaded
        .store(registry.len() as u64, std::sync::atomic::Ordering::Relaxed);
    let mut cache: FeatureCache = LruCache::new(cfg.cache_capacity);
    // A disabled result cache (capacity 0) is never locked: inserts and
    // the reload clear are skipped along with the handlers' lookups.
    let results = (cfg.result_cache_capacity > 0).then_some(results);

    // `None` ends the loop: all senders gone — drained, shut down.
    while let Some(batch) = next_batch(&jobs, cfg.max_batch, |reply| {
        reload(reply, &mut registry, &mut cache, results, metrics, health);
    }) {
        if !batch.is_empty() {
            process_batch(batch, &registry, &mut cache, results, metrics);
        }
    }
}

/// Takes one drain cycle off the queue: blocks for the first entry, then
/// takes what is already queued without waiting, until the queue is empty
/// or `max_batch` predict jobs are in hand. An idle server therefore adds
/// no latency, and under load the batch is whatever arrived during the
/// previous forward. Admin entries run through `on_reload` as they are
/// met — always between two batches, never during a forward. Returns
/// `None` once every sender is gone and the queue is empty.
fn next_batch(
    jobs: &Receiver<Job>,
    max_batch: usize,
    mut on_reload: impl FnMut(ReplyFn<Result<usize, String>>),
) -> Option<Vec<PredictJob>> {
    let mut job = jobs.recv().ok()?;
    let mut batch = Vec::with_capacity(max_batch);
    loop {
        match job {
            Job::Predict(p) => batch.push(p),
            Job::Reload(reply) => on_reload(reply),
        }
        if batch.len() >= max_batch {
            break;
        }
        match jobs.try_recv() {
            Ok(next) => job = next,
            Err(_) => break, // empty — or disconnected, which the next `recv` reports
        }
    }
    Some(batch)
}

/// Reloads the registry from disk and, on success, invalidates both caches.
fn reload(
    reply: ReplyFn<Result<usize, String>>,
    registry: &mut ModelRegistry,
    cache: &mut FeatureCache,
    results: Option<&ResultCache>,
    metrics: &Arc<Metrics>,
    health: &Arc<Health>,
) {
    // Flip readiness *before* touching the registry: the router drains this
    // worker as soon as the next health probe lands, so a slow reload never
    // races new dispatches.
    health.begin_reload();
    let outcome = registry.reload().map_err(|e| e.to_string());
    if outcome.is_ok() {
        // Both caches are per-model-weights and must not outlive a swap.
        // Holding the result-cache lock across both clears makes the
        // invalidation atomic from the handler threads' view: no handler
        // can serve a stale prediction after observing any effect of this
        // reload. A *failed* reload clears nothing — the old models keep
        // serving, and their cached artifacts stay valid.
        let mut results = results.map(|r| r.lock().expect("result cache lock"));
        if let Some(results) = results.as_mut() {
            results.clear();
        }
        cache.clear();
        drop(results);
        Metrics::inc(&metrics.reloads_total);
        metrics
            .models_loaded
            .store(registry.len() as u64, std::sync::atomic::Ordering::Relaxed);
        health.set_ready(&registry.summaries());
    } else {
        health.reload_failed();
    }
    reply(outcome);
}

/// One group: jobs of a batch that share a model and a design fingerprint,
/// answered by a single forward pass.
struct Group {
    model: String,
    fingerprint: u64,
    jobs: Vec<PredictJob>,
}

fn process_batch(
    batch: Vec<PredictJob>,
    registry: &ModelRegistry,
    cache: &mut FeatureCache,
    results: Option<&ResultCache>,
    metrics: &Arc<Metrics>,
) {
    metrics.observe_batch(batch.len());

    // Group by (canonical model name, fingerprint), preserving first-seen
    // order so replies are deterministic. The canonical name makes `""`
    // and the default model's explicit name share forwards and cache.
    let mut groups: Vec<Group> = Vec::new();
    for job in batch {
        let Some(name) = registry
            .canonical_name(&job.request.model)
            .map(str::to_string)
        else {
            Metrics::dec(&metrics.model(model_label(&job.request.model)).queue_depth);
            (job.reply)(Err(format!(
                "unknown model '{}' (loaded: {})",
                job.request.model,
                registry.names().join(", ")
            )));
            Metrics::inc(&metrics.predict_error_total);
            continue;
        };
        match groups
            .iter_mut()
            .find(|g| g.fingerprint == job.fingerprint && g.model == name)
        {
            Some(g) => g.jobs.push(job),
            None => groups.push(Group {
                model: name,
                fingerprint: job.fingerprint,
                jobs: vec![job],
            }),
        }
    }

    // Record each model's share of this drain, then interleave the groups
    // across models so no family's forwards wait behind another family's
    // whole backlog within the cycle.
    {
        let mut counted: Vec<&str> = Vec::new();
        for i in 0..groups.len() {
            if counted.contains(&groups[i].model.as_str()) {
                continue;
            }
            let jobs: usize = groups
                .iter()
                .filter(|g| g.model == groups[i].model)
                .map(|g| g.jobs.len())
                .sum();
            metrics.model(&groups[i].model).observe_batch(jobs);
            counted.push(groups[i].model.as_str());
        }
    }
    let mut groups = interleave_groups(groups, |g| g.model.clone());

    // Resolve cached features per group; collect the misses.
    let mut prepared: Vec<Option<(Rc<PreparedInput>, bool)>> = Vec::with_capacity(groups.len());
    let mut misses: Vec<(usize, InputSpec)> = Vec::new();
    for (i, group) in groups.iter().enumerate() {
        let loaded = registry
            .resolve(&group.model)
            .expect("group built from resolvable jobs");
        let key = (group.model.clone(), group.fingerprint);
        if let Some(hit) = cache.get(&key) {
            Metrics::inc(&metrics.cache_hits_total);
            prepared.push(Some((Rc::clone(hit), true)));
        } else {
            Metrics::inc(&metrics.cache_misses_total);
            prepared.push(None);
            misses.push((i, InputSpec::of(loaded.model.as_ref())));
        }
    }

    // Rasterize the misses in parallel: feature prep is pure data work, so
    // it fans out across the pool while the models stay on this thread.
    // Borrow only the plain-data requests — the groups also hold the
    // one-shot reply notifiers, which are `Send` but not `Sync` and must
    // stay off the worker threads.
    let miss_inputs: Vec<(InputSpec, &PredictRequest)> = misses
        .iter()
        .map(|(gi, spec)| (*spec, &groups[*gi].jobs[0].request))
        .collect();
    let miss_results: Vec<Result<PreparedInput, String>> =
        lmmir_par::par_map(miss_inputs.len(), |k| {
            let (spec, request) = &miss_inputs[k];
            prepare_request(*spec, request)
        });
    drop(miss_inputs);
    for ((gi, _), result) in misses.iter().zip(miss_results) {
        match result {
            Ok(input) => {
                let key = (groups[*gi].model.clone(), groups[*gi].fingerprint);
                let input = Rc::new(input);
                cache.insert(key, Rc::clone(&input));
                prepared[*gi] = Some((input, false));
            }
            Err(msg) => {
                // Leave `prepared[gi]` empty (the forward loop skips the
                // group) and notify every job now; `take` consumes the
                // one-shot notifiers.
                for job in std::mem::take(&mut groups[*gi].jobs) {
                    Metrics::dec(&metrics.model(model_label(&job.request.model)).queue_depth);
                    (job.reply)(Err(msg.clone()));
                    Metrics::inc(&metrics.predict_error_total);
                }
            }
        }
    }

    // One forward pass per group; every job of the group gets the result.
    for (group, slot) in groups.into_iter().zip(prepared) {
        let Some((input, cache_hit)) = slot else {
            continue; // preparation failed; already replied
        };
        let loaded = registry
            .resolve(&group.model)
            .expect("group built from resolvable jobs");
        let session = InferenceSession::new(loaded.model.as_ref());
        let forward_started = Instant::now();
        let outcome = session.predict(&input).map_err(|e| e.to_string());
        metrics
            .model(&group.model)
            .observe_forward(forward_started.elapsed());
        // Encode the frame exactly once per group: duplicates and future
        // result-cache hits all share these bytes by `Arc`.
        let frame = match &outcome {
            Ok(p) => {
                // Count only passes actually saved: a failed forward saved
                // none.
                metrics.dedup_saved_total.fetch_add(
                    (group.jobs.len() - 1) as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                let response = PredictResponse {
                    width: p.map.width() as u32,
                    height: p.map.height() as u32,
                    threshold: p.threshold,
                    cache_hit,
                    map: p.map.data().to_vec(),
                    mask: p.mask.clone(),
                };
                Some(Arc::new(response.encode()))
            }
            Err(_) => None,
        };
        // Layer the result cache over the feature cache: the finished
        // frame is stored under every *requested* model name of the group
        // (the connection layer looks up by the name it was given; the
        // empty default alias populates its own entry), so repeated
        // queries are pure lookups on the event-loop threads.
        if let (Some(results), Some(frame)) = (results, &frame) {
            let mut store = results.lock().expect("result cache lock");
            for job in &group.jobs {
                store.insert(
                    (job.request.model.clone(), group.fingerprint),
                    Arc::clone(frame),
                );
            }
        }
        for job in group.jobs {
            Metrics::dec(&metrics.model(model_label(&job.request.model)).queue_depth);
            let reply = match (&frame, &outcome) {
                (Some(frame), _) => {
                    Metrics::inc(&metrics.predict_ok_total);
                    Ok(Arc::clone(frame))
                }
                (None, Err(msg)) => {
                    Metrics::inc(&metrics.predict_error_total);
                    Err(msg.clone())
                }
                (None, Ok(_)) => unreachable!("frame built from ok outcome"),
            };
            (job.reply)(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A predict job tagged through its design id; the reply is dropped.
    fn predict(design: &str) -> Job {
        let power = lmmir_pdn::PowerMap::zeros(1, 1);
        Job::Predict(PredictJob {
            request: PredictRequest::from_parts(design, &power, None),
            fingerprint: 0,
            reply: Box::new(|_| {}),
        })
    }

    fn no_reload(_: ReplyFn<Result<usize, String>>) {
        panic!("no reload queued");
    }

    fn designs(batch: &[PredictJob]) -> Vec<&str> {
        batch.iter().map(|j| j.request.design.as_str()).collect()
    }

    #[test]
    fn drain_takes_what_is_queued_up_to_max_batch_without_waiting() {
        let (tx, rx) = std::sync::mpsc::channel();
        for d in ["a", "b", "c", "d", "e"] {
            tx.send(predict(d)).unwrap();
        }
        // The sender stays alive and sends nothing more: each drain returns
        // on an empty queue instead of waiting for company.
        let batch = next_batch(&rx, 3, no_reload).unwrap();
        assert_eq!(designs(&batch), ["a", "b", "c"]);
        let batch = next_batch(&rx, 3, no_reload).unwrap();
        assert_eq!(
            designs(&batch),
            ["d", "e"],
            "min(N, max_batch) of what is left"
        );

        // One job on an otherwise empty queue is a batch of one.
        tx.send(predict("f")).unwrap();
        let batch = next_batch(&rx, 3, no_reload).unwrap();
        assert_eq!(designs(&batch), ["f"]);

        drop(tx);
        assert!(next_batch(&rx, 3, no_reload).is_none(), "senders gone");
    }

    #[test]
    fn drain_runs_a_reload_between_batches() {
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send(predict("a")).unwrap();
        tx.send(Job::Reload(Box::new(|_| {}))).unwrap();
        tx.send(predict("b")).unwrap();
        let mut reloads = 0;
        // The first batch fills before the reload is met...
        let batch = next_batch(&rx, 1, |_| reloads += 1).unwrap();
        assert_eq!((designs(&batch), reloads), (vec!["a"], 0));
        // ...so it runs at the head of the next drain, ahead of `b`'s forward.
        let batch = next_batch(&rx, 1, |_| reloads += 1).unwrap();
        assert_eq!((designs(&batch), reloads), (vec!["b"], 1));
        // A reload alone yields an empty batch, not a blocked drain.
        tx.send(Job::Reload(Box::new(|_| {}))).unwrap();
        let batch = next_batch(&rx, 1, |_| reloads += 1).unwrap();
        assert_eq!((batch.len(), reloads), (0, 2));
    }

    #[test]
    fn interleave_round_robins_across_models_preserving_lane_order() {
        let groups = vec!["A1", "A2", "A3", "B1", "B2"];
        let order = interleave_groups(groups, |g| g[..1].to_string());
        assert_eq!(order, vec!["A1", "B1", "A2", "B2", "A3"]);
    }

    #[test]
    fn interleave_is_identity_for_a_single_model() {
        let groups = vec!["A1", "A2", "A3"];
        let order = interleave_groups(groups, |g| g[..1].to_string());
        assert_eq!(order, vec!["A1", "A2", "A3"]);
    }
}
