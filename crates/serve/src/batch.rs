//! The inference lanes: job queue, take policy, dedup, forward.
//!
//! Event-loop threads enqueue decoded predict jobs on an MPSC channel.
//! `threads` inference **lanes** (`ServeConfig::threads`; models are
//! `Send + Sync`, so every lane runs forwards on the one loaded registry)
//! share its receiving end. The lanes are work-conserving, not
//! batch-synchronous — a free lane never waits for another to finish:
//!
//! 1. it locks the queue and moves what has already arrived into the
//!    shared backlog, up to `max_batch` entries (no timed wait: jobs pile
//!    up behind the running forwards);
//! 2. it **takes** the backlog's head plus every backlog job with the same
//!    `(canonical model, design content hash)` — duplicates share a single
//!    forward pass — and unlocks;
//! 3. it prepares the input, runs **one forward pass** and encodes the
//!    response — at the full `lmmir-par` pool width when it is the only
//!    busy lane, at `threads / busy` otherwise;
//! 4. every job of the group receives the identical response.
//!
//! When several lanes are idle the lowest takes the work, so sequential
//! traffic stays on lane 0 and the other lanes' memory is never touched.
//!
//! With one lane this is the single inference thread it replaces. A
//! `POST /reload` is a queue entry like any other: the lane that meets it
//! takes the registry's write lock while still holding the queue, so it
//! runs between takes, never during a forward. The lanes exit when every
//! sender is gone (event loops drained and exited), which is exactly the
//! graceful-shutdown order.

use crate::cache::ResultCache;
use crate::metrics::{model_label, Health, Metrics};
use crate::proto::{PredictRequest, PredictResponse};
use crate::registry::{ModelRegistry, RegistrySpec};
use crate::server::ServeConfig;
use crate::ServeError;
use lmm_ir::{prepare_parts, prepare_window_parts, InferenceSession, InputSpec, PreparedInput};
use lmmir_spice::Netlist;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Reply to one predict job: the **encoded response frame** (shared with
/// the result cache and every duplicate job of the batch group), or a
/// client-visible error message.
///
/// `Arc<[u8]>`, not `Arc<Vec<u8>>`: one allocation per frame. The `Vec`
/// flavour's 40-byte control block, carved right after a forward from the
/// space its buffers had vacated, lives as long as the cached frame, and
/// the allocator could not trim a lane's ~15 MiB of freed heap past it.
pub type PredictReply = Result<Arc<[u8]>, String>;

/// Completion notifier for one queued job: invoked exactly once, on an
/// inference lane, when the job's outcome is known. (A callback, not a
/// channel the submitter blocks on: the event loop parks the connection,
/// and the notifier posts a readiness event back to it.)
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

/// What a free lane does next.
enum Take {
    /// Jobs that share a canonical model and a design fingerprint: one
    /// forward pass answers them all.
    Group(Vec<PredictJob>),
    /// A registry reload, met in queue order.
    Reload(ReplyFn<Result<usize, String>>),
}

/// The job queue as the lanes see it: the channel's receiving end plus the
/// entries already taken off it and not yet claimed by a lane.
struct Queue {
    jobs: Receiver<Job>,
    backlog: VecDeque<Job>,
}

impl Queue {
    /// Tops the backlog up to `max_batch` entries with what has already
    /// arrived, blocking only when there is nothing at all to do — so an
    /// idle server adds no latency, and under load the dedup window is
    /// whatever queued up behind the running forwards. Returns `false`
    /// once every sender is gone and the backlog is empty.
    fn fill(&mut self, max_batch: usize) -> bool {
        if self.backlog.is_empty() {
            match self.jobs.recv() {
                Ok(job) => self.backlog.push_back(job),
                Err(_) => return false,
            }
        }
        while self.backlog.len() < max_batch {
            match self.jobs.try_recv() {
                Ok(job) => self.backlog.push_back(job),
                Err(_) => break, // empty — or disconnected, which the next `recv` reports
            }
        }
        true
    }

    /// Takes the backlog's head and, for a predict job, every later job
    /// with the same `key`. The scan stops at a reload: jobs queued behind
    /// one must be answered by the weights it loads. Arrival order is the
    /// fairness — nothing overtakes the head. `None` on an empty backlog.
    fn take<K: PartialEq>(&mut self, key: impl Fn(&PredictJob) -> K) -> Option<Take> {
        let head = match self.backlog.pop_front()? {
            Job::Predict(job) => job,
            Job::Reload(reply) => return Some(Take::Reload(reply)),
        };
        let head_key = key(&head);
        let mut group = vec![head];
        let mut fenced = false;
        for job in std::mem::take(&mut self.backlog) {
            match job {
                Job::Predict(job) if !fenced && key(&job) == head_key => group.push(job),
                other => {
                    fenced |= matches!(other, Job::Reload(_));
                    self.backlog.push_back(other);
                }
            }
        }
        Some(Take::Group(group))
    }
}

/// State shared by the inference lanes.
struct Lanes<'a> {
    queue: Mutex<Queue>,
    /// Forwards hold the read lock, a reload the write lock — so a reload
    /// waits for every in-flight forward and none starts during it.
    registry: RwLock<ModelRegistry>,
    /// Per lane: whether it is idle (waiting for the queue or holding it)
    /// rather than answering a group. Cleared under the queue lock. The
    /// lane count is also the `lmmir-par` width the busy lanes divide.
    idle: Vec<AtomicBool>,
    /// Signalled after every take: a lane that left the backlog to an idle
    /// lower lane looks again.
    taken: Condvar,
    max_batch: usize,
    /// `None` when the result cache is disabled (capacity 0): it is then
    /// never locked, here or in the handlers.
    results: Option<&'a ResultCache>,
    metrics: &'a Metrics,
    health: &'a Health,
}

/// Runs the inference lanes until the job channel disconnects.
///
/// Sends the registry-load outcome over `ready` exactly once before
/// serving, so `Server::start` can fail fast on a bad checkpoint.
pub(crate) fn run(
    cfg: &ServeConfig,
    spec: RegistrySpec,
    jobs: Receiver<Job>,
    metrics: &Metrics,
    health: &Health,
    results: &ResultCache,
    ready: &Sender<Result<(), ServeError>>,
) {
    // `cfg.threads`, falling back to `LMMIR_THREADS` / core count, is both
    // the lane count and the pool width the busy lanes divide.
    lmmir_par::set_thread_override(cfg.threads);
    let threads = lmmir_par::num_threads();
    let registry = match ModelRegistry::load(spec) {
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
    Metrics::set(&metrics.models_loaded, registry.len());
    Metrics::set(&metrics.inference_lanes, threads);
    let lanes = Lanes {
        queue: Mutex::new(Queue {
            jobs,
            backlog: VecDeque::new(),
        }),
        registry: RwLock::new(registry),
        idle: (0..threads).map(|_| AtomicBool::new(true)).collect(),
        taken: Condvar::new(),
        max_batch: cfg.max_batch,
        results: (cfg.result_cache_capacity > 0).then_some(results),
        metrics,
        health,
    };
    // The calling thread is lane 0; every lane returns when the senders
    // are gone and the backlog is empty — drained, shut down.
    std::thread::scope(|scope| {
        let lanes = &lanes;
        for k in 1..threads {
            std::thread::Builder::new()
                .name(format!("lmmir-lane-{k}"))
                .spawn_scoped(scope, move || lanes.serve(k))
                .expect("spawn inference lane");
        }
        lanes.serve(0);
    });
}

impl Lanes<'_> {
    /// Lane `lane`: claim work under the queue lock, answer it outside.
    fn serve(&self, lane: usize) {
        let mut queue = self.queue.lock().expect("queue lock");
        while queue.fill(self.max_batch) {
            // The lowest idle lane takes the work. The lane left listening
            // on the channel (this one) need not be it: a lower lane may
            // have gone idle since. Leaving it the work — it is blocked on
            // the queue lock and gets it as this lane waits — keeps a
            // lightly loaded server on one warm lane: a lane that never
            // answers a group never touches the ≈ 13 MiB a 64 µm request
            // leaves in its buffers and allocator arena (6.0 MiB kept by
            // its buffer pool, +6.7 MiB live at the request's peak).
            if self.idle[..lane].iter().any(|l| l.load(Ordering::SeqCst)) {
                queue = self.taken.wait(queue).expect("queue lock");
                continue; // the backlog may be empty again: listen, or look again
            }
            // Taken under the queue lock, so a reload (which holds that
            // lock while it waits to write) never races a new forward.
            let registry = self.registry.read().expect("registry lock");
            // The canonical name makes `""` and the default model's
            // explicit name share a forward.
            let take = queue.take(|job| {
                let model = registry.canonical_name(&job.request.model);
                (model.map(str::to_string), job.fingerprint)
            });
            match take.expect("filled backlog") {
                Take::Reload(reply) => {
                    drop(registry);
                    self.reload(reply);
                    self.taken.notify_all();
                }
                Take::Group(jobs) => {
                    self.idle[lane].store(false, Ordering::SeqCst);
                    let busy = self.idle.iter().filter(|l| !l.load(Ordering::SeqCst));
                    // A lane alone gets the whole pool (a lone request is
                    // as fast as on a one-lane server); lanes busy together
                    // split it. Any width gives the same bits.
                    let width = (self.idle.len() / busy.count()).max(1);
                    drop(queue);
                    self.taken.notify_all();
                    let replies = lmmir_par::with_threads(width, || self.answer(jobs, &registry));
                    drop(registry);
                    // Idle from *before* the replies go out: a client's
                    // next request must find this lane idle however late
                    // the scheduler lets it reach the queue.
                    self.idle[lane].store(true, Ordering::SeqCst);
                    for (job, reply) in replies {
                        self.finish(job, reply);
                    }
                    queue = self.queue.lock().expect("queue lock");
                }
            }
        }
        // Drained. (No lane is left waiting on `taken`: that takes a
        // non-empty backlog, which `fill` never reports as drained.)
    }

    /// Reloads the registry from disk and, on success, invalidates the
    /// result cache. Runs with the queue lock held, so groups claimed
    /// before it finish on the old weights (the write lock waits for them)
    /// and jobs queued behind it see the new ones.
    fn reload(&self, reply: ReplyFn<Result<usize, String>>) {
        // Flip readiness *before* touching the registry: the router drains
        // this worker as soon as the next health probe lands, so a slow
        // reload never races new dispatches.
        self.health.begin_reload();
        let mut registry = self.registry.write().expect("registry lock");
        let outcome = registry.reload().map_err(|e| e.to_string());
        if outcome.is_ok() {
            // Cached frames must not outlive the weights that made them,
            // and no forward is in flight to re-insert a stale one. A
            // *failed* reload clears nothing: the old models keep serving.
            if let Some(results) = self.results {
                results.lock().expect("result cache lock").clear();
            }
            Metrics::inc(&self.metrics.reloads_total);
            Metrics::set(&self.metrics.models_loaded, registry.len());
            self.health.set_ready(&registry.summaries());
        } else {
            self.health.reload_failed();
        }
        reply(outcome);
    }

    /// Answers one group — prepare, forward, encode once — and pairs every
    /// job with its reply.
    fn answer(
        &self,
        jobs: Vec<PredictJob>,
        registry: &ModelRegistry,
    ) -> Vec<(PredictJob, PredictReply)> {
        let metrics = self.metrics;
        metrics.observe_batch(jobs.len());
        let first = &jobs[0].request;
        // The whole group shares the resolution (it is part of the group
        // key); each job's error names the model *it* asked for.
        let Some(name) = registry.canonical_name(&first.model) else {
            let loaded = registry.names().join(", ");
            let unknown = |job: &PredictJob| {
                format!("unknown model '{}' (loaded: {loaded})", job.request.model)
            };
            return jobs
                .into_iter()
                .map(|job| {
                    let reply = Err(unknown(&job));
                    (job, reply)
                })
                .collect();
        };
        let series = metrics.model(name);
        series.observe_batch(jobs.len());
        let model = registry.resolve(name).expect("canonical names resolve");
        let session = InferenceSession::new(model.model.as_ref());
        let outcome = prepare_request(session.spec(), first).and_then(|input| {
            let forward_started = Instant::now();
            let prediction = session.predict(&input).map_err(|e| e.to_string());
            series.observe_forward(forward_started.elapsed());
            prediction
        });
        // Encode the frame exactly once per group: duplicates and future
        // result-cache hits all share these bytes by `Arc`.
        let outcome: PredictReply = outcome.map(|p| {
            let response = PredictResponse {
                width: p.map.width() as u32,
                height: p.map.height() as u32,
                threshold: p.threshold,
                cache_hit: false,
                map: p.map.data().to_vec(),
                mask: p.mask,
            };
            Arc::from(response.encode())
        });
        if let Ok(frame) = &outcome {
            // Count only passes actually saved: a failed forward saved none.
            metrics
                .dedup_saved_total
                .fetch_add((jobs.len() - 1) as u64, Ordering::Relaxed);
            // Stored under every *requested* model name of the group: the
            // connection layer looks up by the name it was given, so the
            // empty default alias populates its own entry.
            if let Some(results) = self.results {
                let mut store = results.lock().expect("result cache lock");
                for job in &jobs {
                    store.insert(
                        (job.request.model.clone(), job.fingerprint),
                        Arc::clone(frame),
                    );
                }
            }
        }
        jobs.into_iter().map(|job| (job, outcome.clone())).collect()
    }

    /// Hands one job its outcome and settles its counters.
    fn finish(&self, job: PredictJob, reply: PredictReply) {
        let metrics = self.metrics;
        Metrics::dec(&metrics.model(model_label(&job.request.model)).queue_depth);
        Metrics::inc(if reply.is_ok() {
            &metrics.predict_ok_total
        } else {
            &metrics.predict_error_total
        });
        (job.reply)(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"reload"`, or a predict job tagged through its design id; replies
    /// are dropped.
    fn job(entry: &str) -> Job {
        if entry == "reload" {
            return Job::Reload(Box::new(|_| {}));
        }
        let power = lmmir_pdn::PowerMap::zeros(1, 1);
        Job::Predict(PredictJob {
            request: PredictRequest::from_parts(entry, &power, None),
            fingerprint: 0,
            reply: Box::new(|_| {}),
        })
    }

    fn queue_of(entries: &[&str]) -> (Sender<Job>, Queue) {
        let (tx, jobs) = std::sync::mpsc::channel();
        entries.iter().for_each(|e| tx.send(job(e)).unwrap());
        let backlog = VecDeque::new();
        (tx, Queue { jobs, backlog })
    }

    /// The next take, as the design ids of its group (`["reload"]` for a
    /// reload); jobs group on the first letter of their design id.
    fn take(queue: &mut Queue, max_batch: usize) -> Option<Vec<String>> {
        if !queue.fill(max_batch) {
            return None;
        }
        let take = queue.take(|job| job.request.design[..1].to_string());
        Some(match take.expect("filled backlog") {
            Take::Group(jobs) => jobs.into_iter().map(|j| j.request.design).collect(),
            Take::Reload(_) => vec!["reload".to_string()],
        })
    }

    fn takes(entries: &[&str], max_batch: usize) -> Vec<Vec<String>> {
        let (tx, mut queue) = queue_of(entries);
        drop(tx);
        std::iter::from_fn(|| take(&mut queue, max_batch)).collect()
    }

    #[test]
    fn take_is_the_head_plus_its_duplicates_in_arrival_order() {
        assert_eq!(
            takes(&["A1", "B1", "A2", "C1", "A3"], 8),
            [vec!["A1", "A2", "A3"], vec!["B1"], vec!["C1"]]
        );
        // `max_batch` is the dedup window: `A3` is beyond it.
        assert_eq!(
            takes(&["A1", "B1", "A2", "C1", "A3"], 3),
            [vec!["A1", "A2"], vec!["B1"], vec!["C1"], vec!["A3"]]
        );
        assert_eq!(
            takes(&["A1", "A2", "A3"], 1),
            [["A1"], ["A2"], ["A3"]],
            "max_batch 1 never shares a forward"
        );
    }

    #[test]
    fn drain_takes_what_is_queued_up_to_max_batch_without_waiting() {
        let (tx, mut queue) = queue_of(&["a", "b", "c", "d", "e"]);
        // The sender stays alive: a take never waits for company.
        assert_eq!(take(&mut queue, 3).unwrap(), ["a"]);
        assert_eq!(queue.backlog.len(), 2, "3 moved in, the head taken");
        for rest in ["b", "c", "d", "e"] {
            assert_eq!(take(&mut queue, 3).unwrap(), [rest]);
        }
        assert!(queue.backlog.is_empty());

        // One job on an otherwise empty queue is a take of one.
        tx.send(job("f")).unwrap();
        assert_eq!(take(&mut queue, 3).unwrap(), ["f"]);

        drop(tx);
        assert!(take(&mut queue, 3).is_none(), "senders gone");
    }

    #[test]
    fn drain_runs_a_reload_between_batches() {
        let (tx, mut queue) = queue_of(&["a", "reload", "b"]);
        assert_eq!(take(&mut queue, 1).unwrap(), ["a"]);
        assert_eq!(take(&mut queue, 1).unwrap(), ["reload"]);
        assert_eq!(take(&mut queue, 1).unwrap(), ["b"]);
        // A reload alone is a take of its own, not a blocked drain.
        tx.send(job("reload")).unwrap();
        assert_eq!(take(&mut queue, 1).unwrap(), ["reload"]);
        // Met in the backlog, it fences duplicates: `A2` is queued behind
        // it and must see the new weights, so it does not join `A1`.
        assert_eq!(
            takes(&["A1", "reload", "A2", "B1", "A3"], 8),
            [vec!["A1"], vec!["reload"], vec!["A2", "A3"], vec!["B1"]]
        );
    }
}
