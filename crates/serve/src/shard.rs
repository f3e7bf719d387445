//! `serve::shard` — sharded multi-worker serving behind one router.
//!
//! The router is an ordinary `lmmir-serve` front end (acceptor + event
//! loops, the same non-blocking connection state machines) whose *backend*
//! is swapped: instead of the inference lanes draining the job
//! channel, a pool of **forwarder** threads drains it and proxies each
//! predict to one of N worker processes, each of which owns a full model
//! replica.
//!
//! ```text
//!   clients ──> router (serve::event front end)
//!                  │ mpsc jobs (unchanged)
//!                  v
//!           forwarder pool ── consistent hash on (model, content hash)
//!              │        │
//!              v        v
//!          worker 0  worker 1 ...   (each a plain `lmmir-serve` process)
//! ```
//!
//! **Why a consistent hash?** Each worker's feature and result caches stay
//! hot for *its* key range: the same design always lands on the same
//! replica, so scaling out multiplies cache capacity instead of diluting
//! hit rates. The ring is built once over every shard (stable virtual
//! nodes); liveness is applied at lookup time by walking clockwise past
//! dead shards, so evicting a worker re-hashes only *its* range onto the
//! survivors — every other shard's keys stay put.
//!
//! **Supervision.** A supervisor thread probes each worker's `/healthz` on
//! an interval. The states:
//!
//! | probe result | effect |
//! |---|---|
//! | `200 ready` | in the ring; failure count resets |
//! | `503` (loading / reloading / reload-failed) | drained: out of the ring, **no** failure count — the worker is alive and finishing its own business |
//! | connect/transport error | strike; at `fail_threshold` strikes the shard is **evicted** (out of the ring, range re-hashed) |
//!
//! Evicted *supervised* workers (the ones the router spawned) are
//! respawned on the same address with doubling backoff; attached workers
//! (`--worker-addr`) are simply probed until they come back. Forwarder
//! transport errors count as strikes too, so a worker that dies mid-run is
//! evicted without waiting `fail_threshold` full probe intervals; until
//! eviction lands, forwarders retry the next live shard in ring order, so
//! an accepted request never dies with a surviving shard available.
//!
//! The router's own `/healthz` reports ready while at least one worker is
//! live (degraded-not-down), echoing the live workers' model list; its
//! `/metrics` carries per-shard dispatch/eviction/respawn series plus the
//! workers' own counters aggregated under `lmmir_workers_*` (fetched by
//! the supervisor off the hot path, never by the event loops).

use crate::batch::{Job, PredictJob};
use crate::client::{self, Client};
use crate::metrics::{model_label, Health, Metrics, MetricsExtra};
use crate::ServeError;
use lmmir_features::Fnv1a;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the router waits for a spawned worker to report ready.
const SPAWN_READY_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest respawn backoff (doubling from [`RouterSpec::respawn_backoff`]).
const MAX_BACKOFF: Duration = Duration::from_secs(10);
/// Forwarding timeout for one proxied reload.
const RELOAD_TIMEOUT: Duration = Duration::from_secs(120);
/// Largest sleep slice while waiting on intervals, so the shutdown flag is
/// noticed promptly.
const SLEEP_SLICE: Duration = Duration::from_millis(25);

/// Command line for one supervised worker. The router appends
/// `--addr <probed address>`, so `args` must not set `--addr` itself.
#[derive(Debug, Clone)]
pub struct WorkerCmd {
    /// Executable to spawn (usually the `serve` binary itself).
    pub program: PathBuf,
    /// Arguments before the router-chosen `--addr` (checkpoints, knobs).
    pub args: Vec<String>,
}

/// Configuration of a shard router: which workers to spawn and/or attach,
/// and the supervision knobs.
#[derive(Debug, Clone)]
pub struct RouterSpec {
    /// Workers the router spawns and supervises (respawned on eviction).
    pub spawn: Vec<WorkerCmd>,
    /// Already-running workers to attach (`host:port`); probed like
    /// spawned ones but never respawned.
    pub attach: Vec<String>,
    /// Health-probe interval.
    pub health_interval: Duration,
    /// Consecutive probe failures before a shard is evicted.
    pub fail_threshold: u32,
    /// Virtual nodes per shard on the hash ring.
    pub virtual_nodes: usize,
    /// Forwarder threads draining the router's job queue
    /// (0 = four per shard, clamped to `[2, 32]`).
    pub forwarders: usize,
    /// Deadline for one health probe exchange.
    pub probe_timeout: Duration,
    /// Whether evicted supervised workers are respawned.
    pub respawn: bool,
    /// Initial respawn backoff (doubles per attempt, capped at 10 s).
    pub respawn_backoff: Duration,
}

impl Default for RouterSpec {
    fn default() -> Self {
        RouterSpec {
            spawn: Vec::new(),
            attach: Vec::new(),
            health_interval: Duration::from_millis(250),
            fail_threshold: 3,
            virtual_nodes: 64,
            forwarders: 0,
            probe_timeout: Duration::from_millis(1000),
            respawn: true,
            respawn_backoff: Duration::from_millis(500),
        }
    }
}

/// One worker slot as the forwarders see it. The supervisor owns the
/// lifecycle; forwarders only read `addr`/`live` and bump the counters.
pub(crate) struct Shard {
    /// Current worker address (stable across respawns by construction,
    /// but kept behind a lock so a future re-probe could move it).
    addr: Mutex<String>,
    /// In the ring right now: probed ready and not evicted.
    live: AtomicBool,
    /// Predicts proxied to this shard (including non-200 worker answers).
    dispatch_total: AtomicU64,
    /// Transport failures talking to this shard (forwarders and probes).
    errors_total: AtomicU64,
}

impl Shard {
    fn new(addr: String) -> Self {
        Shard {
            addr: Mutex::new(addr),
            live: AtomicBool::new(false),
            dispatch_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
        }
    }

    fn addr(&self) -> String {
        self.addr.lock().expect("shard addr lock").clone()
    }
}

/// Shared state of a running router: the shards, the precomputed hash
/// ring, and the counters `/metrics` exposes. Implements [`MetricsExtra`]
/// so the plain metrics renderer appends the per-shard series.
pub(crate) struct Router {
    shards: Vec<Shard>,
    /// `(vnode hash, shard index)`, sorted by hash; built once — liveness
    /// is applied at lookup, which is what makes eviction re-hash only the
    /// dead shard's range.
    ring: Vec<(u64, u32)>,
    evictions_total: AtomicU64,
    respawns_total: AtomicU64,
    /// Pre-rendered `lmmir_workers_*` aggregate lines (supervisor-owned).
    aggregated: Mutex<String>,
}

/// Ring position of one virtual node. Hashed from the *slot index*, not
/// the address, so a respawned worker keeps its range.
fn vnode_hash(shard: usize, vnode: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"shard");
    h.write_usize(shard);
    h.write(b"vnode");
    h.write_usize(vnode);
    h.finish()
}

/// Ring key of one request: model name + design content hash, the same
/// pair the workers key their caches on.
pub(crate) fn route_key(model: &str, fingerprint: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(model.as_bytes());
    h.write_u64(fingerprint);
    h.finish()
}

impl Router {
    fn new(addrs: Vec<String>, virtual_nodes: usize) -> Self {
        let shards: Vec<Shard> = addrs.into_iter().map(Shard::new).collect();
        let mut ring = Vec::with_capacity(shards.len() * virtual_nodes.max(1));
        for s in 0..shards.len() {
            for v in 0..virtual_nodes.max(1) {
                ring.push((
                    vnode_hash(s, v),
                    u32::try_from(s).expect("shard count fits u32"),
                ));
            }
        }
        ring.sort_unstable();
        Router {
            shards,
            ring,
            evictions_total: AtomicU64::new(0),
            respawns_total: AtomicU64::new(0),
            aggregated: Mutex::new(String::new()),
        }
    }

    /// Every shard index in ring-successor order from `key`, each exactly
    /// once: element 0 is the home shard, the rest are the failover order.
    fn candidates(&self, key: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.shards.len());
        if self.ring.is_empty() {
            return out;
        }
        let start = self.ring.partition_point(|&(h, _)| h < key);
        for off in 0..self.ring.len() {
            let (_, s) = self.ring[(start + off) % self.ring.len()];
            let s = s as usize;
            if !out.contains(&s) {
                out.push(s);
                if out.len() == self.shards.len() {
                    break;
                }
            }
        }
        out
    }

    /// The live shard owning `key`: the first live candidate clockwise.
    /// The ring tests pin the consistent-hash property through this;
    /// forwarders walk the full candidate order for failover instead.
    #[cfg(test)]
    fn route(&self, key: u64) -> Option<usize> {
        self.candidates(key)
            .into_iter()
            .find(|&s| self.shards[s].live.load(Ordering::SeqCst))
    }

    /// Worker addresses by shard index.
    pub(crate) fn addrs(&self) -> Vec<String> {
        self.shards.iter().map(Shard::addr).collect()
    }

    fn live_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.live.load(Ordering::SeqCst))
            .count()
    }
}

impl MetricsExtra for Router {
    fn render_extra(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "lmmir_router_workers {}", self.shards.len());
        let _ = writeln!(out, "lmmir_router_workers_live {}", self.live_count());
        let _ = writeln!(
            out,
            "lmmir_router_evictions_total {}",
            self.evictions_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "lmmir_router_respawns_total {}",
            self.respawns_total.load(Ordering::Relaxed)
        );
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "lmmir_shard_up{{shard=\"{i}\"}} {}",
                u64::from(s.live.load(Ordering::SeqCst))
            );
            let _ = writeln!(
                out,
                "lmmir_shard_dispatch_total{{shard=\"{i}\"}} {}",
                s.dispatch_total.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "lmmir_shard_errors_total{{shard=\"{i}\"}} {}",
                s.errors_total.load(Ordering::Relaxed)
            );
        }
        out.push_str(&self.aggregated.lock().expect("aggregate lock"));
        out
    }
}

/// Binds an ephemeral port on loopback and returns `127.0.0.1:port`,
/// releasing the listener so the spawned worker can bind it.
fn probe_port() -> Result<String, ServeError> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    Ok(format!("127.0.0.1:{}", listener.local_addr()?.port()))
}

fn spawn_worker(cmd: &WorkerCmd, addr: &str) -> Result<Child, ServeError> {
    Command::new(&cmd.program)
        .args(&cmd.args)
        .arg("--addr")
        .arg(addr)
        .spawn()
        .map_err(|e| ServeError::Config(format!("spawning worker {}: {e}", cmd.program.display())))
}

/// Everything `Server::start_router` needs back from [`launch`]: the
/// shared router state and the backend threads to join at shutdown.
pub(crate) struct Launched {
    pub router: Arc<Router>,
    pub threads: Vec<JoinHandle<()>>,
}

/// Spawns the configured workers, waits until every spawned one reports
/// ready, and starts the forwarder pool and the supervisor.
///
/// # Errors
///
/// Returns [`ServeError::Config`] when no workers are configured or a
/// spawn fails, and [`ServeError::Registry`] when a spawned worker does
/// not come up within the ready timeout.
pub(crate) fn launch(
    spec: RouterSpec,
    jobs: Receiver<Job>,
    shutdown: &Arc<AtomicBool>,
    health: &Arc<Health>,
    metrics: &Arc<Metrics>,
) -> Result<Launched, ServeError> {
    if spec.spawn.is_empty() && spec.attach.is_empty() {
        return Err(ServeError::Config(
            "router needs at least one worker (spawn or --worker-addr)".to_string(),
        ));
    }
    // Spawn the supervised workers on probed loopback ports.
    let mut children: Vec<Option<Child>> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for cmd in &spec.spawn {
        let addr = probe_port()?;
        children.push(Some(spawn_worker(cmd, &addr)?));
        addrs.push(addr);
    }
    let supervised = addrs.len();
    addrs.extend(spec.attach.iter().cloned());

    // Wait for every spawned worker to report ready, so a bad checkpoint
    // fails router startup the same way it fails `Server::start`.
    let deadline = Instant::now() + SPAWN_READY_TIMEOUT;
    for (i, addr) in addrs.iter().take(supervised).enumerate() {
        loop {
            if let Some(child) = children[i].as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(ServeError::Registry(format!(
                        "worker {i} ({addr}) exited during startup with {status}"
                    )));
                }
            }
            match client::get_text_timeout(addr, "/healthz", spec.probe_timeout) {
                Ok((200, _)) => break,
                _ if Instant::now() >= deadline => {
                    return Err(ServeError::Registry(format!(
                        "worker {i} ({addr}) not ready within {SPAWN_READY_TIMEOUT:?}"
                    )));
                }
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    let router = Arc::new(Router::new(addrs, spec.virtual_nodes));
    let mut threads = Vec::new();

    // Forwarder pool: shared blocking drain of the router's job queue.
    let pool = if spec.forwarders == 0 {
        (router.shards.len() * 4).clamp(2, 32)
    } else {
        spec.forwarders
    };
    let jobs = Arc::new(Mutex::new(jobs));
    for k in 0..pool {
        let router = Arc::clone(&router);
        let jobs = Arc::clone(&jobs);
        let metrics = Arc::clone(metrics);
        threads.push(
            std::thread::Builder::new()
                .name(format!("lmmir-forward-{k}"))
                .spawn(move || run_forwarder(&router, &jobs, &metrics))?,
        );
    }

    // Supervisor: health probes, eviction, respawn, metrics aggregation.
    {
        let router = Arc::clone(&router);
        let shutdown = Arc::clone(shutdown);
        let health = Arc::clone(health);
        threads.push(
            std::thread::Builder::new()
                .name("lmmir-supervise".to_string())
                .spawn(move || run_supervisor(&router, &spec, children, &shutdown, &health))?,
        );
    }

    Ok(Launched { router, threads })
}

/// One forwarder thread: drains the shared job queue and proxies each job
/// to a worker, retrying predicts on the next live shard in ring order.
fn run_forwarder(router: &Arc<Router>, jobs: &Arc<Mutex<Receiver<Job>>>, metrics: &Arc<Metrics>) {
    // Persistent keep-alive connection per shard, so proxied predicts ride
    // warm connections and the workers' keep-alive path stays exercised.
    let mut clients: HashMap<usize, Client> = HashMap::new();
    loop {
        // Holding the lock while parked in `recv` is the classic shared-
        // receiver pattern: exactly one forwarder waits on the channel,
        // the rest wait on the mutex; either way the next job wakes one.
        let job = {
            let rx = jobs.lock().expect("forwarder queue lock");
            rx.recv()
        };
        match job {
            Ok(Job::Predict(p)) => {
                // The front end gauged the job up at dispatch; the proxy
                // replies exactly once below, so this balances it.
                Metrics::dec(&metrics.model(model_label(&p.request.model)).queue_depth);
                forward_predict(router, &mut clients, p);
            }
            Ok(Job::Reload(reply)) => reply(forward_reload(router)),
            Err(_) => return, // front end drained and dropped its senders
        }
    }
}

/// Proxies one predict: home shard first, then the failover order. A
/// worker's 200 body is passed through **verbatim** (the encoded frame the
/// client decodes — served-vs-offline stays bitwise identical through the
/// proxy); a non-200 body is decoded back into the error message.
fn forward_predict(router: &Arc<Router>, clients: &mut HashMap<usize, Client>, p: PredictJob) {
    let body = p.request.encode();
    let key = route_key(&p.request.model, p.fingerprint);
    for s in router.candidates(key) {
        let shard = &router.shards[s];
        if !shard.live.load(Ordering::SeqCst) {
            continue;
        }
        let client = clients
            .entry(s)
            .or_insert_with(|| Client::new(shard.addr()));
        match client.request("POST", "/predict", &body) {
            Ok((200, bytes)) => {
                shard.dispatch_total.fetch_add(1, Ordering::Relaxed);
                (p.reply)(Ok(Arc::from(bytes)));
                return;
            }
            Ok((_, bytes)) => {
                // The worker answered with an error frame: unwrap it so
                // the router re-encodes the same message for the client.
                shard.dispatch_total.fetch_add(1, Ordering::Relaxed);
                let msg = match crate::proto::PredictResponse::decode(&bytes) {
                    Err(ServeError::Proto(m)) => m,
                    _ => "worker rejected the request".to_string(),
                };
                (p.reply)(Err(msg));
                return;
            }
            Err(_) => {
                // Transport failure: strike the shard (the supervisor
                // folds these into eviction) and try the next survivor.
                shard.errors_total.fetch_add(1, Ordering::Relaxed);
                clients.remove(&s);
            }
        }
    }
    (p.reply)(Err("no live worker available".to_string()));
}

/// Proxies a reload to every live worker; succeeds when all of them do.
fn forward_reload(router: &Arc<Router>) -> Result<usize, String> {
    let mut models = 0usize;
    let mut reloaded = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for (i, shard) in router.shards.iter().enumerate() {
        if !shard.live.load(Ordering::SeqCst) {
            continue;
        }
        let addr = shard.addr();
        match client::request_timeout(&addr, "POST", "/reload", &[], RELOAD_TIMEOUT) {
            Ok((200, body)) => {
                reloaded += 1;
                // Worker answers `reloaded N model(s)`.
                let text = String::from_utf8_lossy(&body);
                if let Some(n) = text
                    .split_ascii_whitespace()
                    .nth(1)
                    .and_then(|w| w.parse::<usize>().ok())
                {
                    models = models.max(n);
                }
            }
            Ok((status, body)) => failures.push(format!(
                "worker {i} ({addr}): HTTP {status}: {}",
                String::from_utf8_lossy(&body).trim()
            )),
            Err(e) => failures.push(format!("worker {i} ({addr}): {e}")),
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    if reloaded == 0 {
        return Err("no live worker available".to_string());
    }
    Ok(models)
}

/// Supervisor bookkeeping for one shard, local to the supervisor thread.
struct ProbeState {
    /// Consecutive strikes (probe transport failures, plus forwarder
    /// errors since the last probe).
    strikes: u32,
    /// Out of the ring until a probe succeeds again.
    evicted: bool,
    /// `errors_total` at the last probe, to detect forwarder strikes.
    errors_seen: u64,
    /// Current respawn backoff (supervised shards only).
    backoff: Duration,
    /// Earliest next respawn attempt.
    next_respawn: Instant,
}

/// The supervisor loop: probe every shard each interval, maintain ring
/// liveness, respawn evicted supervised workers, keep the router's
/// `/healthz` model list current, and aggregate worker `/metrics`.
fn run_supervisor(
    router: &Arc<Router>,
    spec: &RouterSpec,
    mut children: Vec<Option<Child>>,
    shutdown: &Arc<AtomicBool>,
    health: &Arc<Health>,
) {
    let supervised = children.len();
    let now = Instant::now();
    let mut probes: Vec<ProbeState> = (0..router.shards.len())
        .map(|_| ProbeState {
            strikes: 0,
            evicted: false,
            errors_seen: 0,
            backoff: spec.respawn_backoff,
            next_respawn: now,
        })
        .collect();

    while !shutdown.load(Ordering::SeqCst) {
        let mut models: Option<Vec<(String, usize)>> = None;
        for (i, shard) in router.shards.iter().enumerate() {
            let probe = &mut probes[i];
            let addr = shard.addr();
            let forward_errors = shard.errors_total.load(Ordering::Relaxed);
            let struck_since_probe = forward_errors > probe.errors_seen;
            probe.errors_seen = forward_errors;
            match client::get_text_timeout(&addr, "/healthz", spec.probe_timeout) {
                Ok((200, body)) => {
                    if probe.evicted || !shard.live.load(Ordering::SeqCst) {
                        eprintln!("[router] worker {i} ({addr}) is ready");
                    }
                    probe.strikes = 0;
                    probe.evicted = false;
                    probe.backoff = spec.respawn_backoff;
                    shard.live.store(true, Ordering::SeqCst);
                    if models.is_none() {
                        models = Some(parse_models(&body));
                    }
                }
                Ok((_, _)) => {
                    // Alive but not ready (loading / mid-reload / failed
                    // swap): drain without striking — no eviction, no
                    // respawn, back in the ring on the next `200`.
                    probe.strikes = 0;
                    shard.live.store(false, Ordering::SeqCst);
                }
                Err(_) => {
                    probe.strikes = probe.strikes.saturating_add(1);
                    if struck_since_probe {
                        // A forwarder already failed against this shard
                        // since the last probe: double evidence, evict in
                        // half the probe intervals.
                        probe.strikes = probe.strikes.saturating_add(1);
                    }
                    if probe.strikes >= spec.fail_threshold.max(1) && !probe.evicted {
                        probe.evicted = true;
                        shard.live.store(false, Ordering::SeqCst);
                        router.evictions_total.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "[router] evicted worker {i} ({addr}) after {} strikes; \
                             re-hashed its range to survivors",
                            probe.strikes
                        );
                        probe.next_respawn = Instant::now();
                    }
                }
            }
            // Respawn an evicted supervised worker, with doubling backoff.
            if probe.evicted
                && i < supervised
                && spec.respawn
                && Instant::now() >= probe.next_respawn
            {
                if let Some(mut old) = children[i].take() {
                    let _ = old.kill();
                    let _ = old.wait();
                }
                match spawn_worker(&spec.spawn[i], &addr) {
                    Ok(child) => {
                        children[i] = Some(child);
                        router.respawns_total.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "[router] respawned worker {i} ({addr}); next backoff {:?}",
                            probe.backoff
                        );
                    }
                    Err(e) => eprintln!("[router] respawning worker {i}: {e}"),
                }
                probe.next_respawn = Instant::now() + probe.backoff;
                probe.backoff = (probe.backoff * 2).min(MAX_BACKOFF);
            }
        }

        // Router readiness: degraded-not-down while any worker is live.
        match models {
            Some(m) => health.set_ready(&m),
            None => health.set_loading(),
        }

        aggregate_worker_metrics(router, spec.probe_timeout);

        // Sleep one interval in slices so shutdown is noticed promptly.
        let wake = Instant::now() + spec.health_interval;
        while Instant::now() < wake && !shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(SLEEP_SLICE.min(spec.health_interval));
        }
    }

    // Shutdown: ask supervised workers to drain, then make sure they exit.
    for (i, child) in children.iter_mut().enumerate() {
        let Some(mut c) = child.take() else { continue };
        let addr = router.shards[i].addr();
        let _ = client::request_timeout(&addr, "POST", "/shutdown", &[], spec.probe_timeout);
        let grace = Instant::now() + Duration::from_secs(5);
        loop {
            match c.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < grace => std::thread::sleep(Duration::from_millis(50)),
                _ => {
                    let _ = c.kill();
                    let _ = c.wait();
                    break;
                }
            }
        }
    }
}

/// Parses the model lines of a worker's readiness body
/// (`model <name> quantized_layers=<n>` per loaded model).
fn parse_models(body: &str) -> Vec<(String, usize)> {
    body.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("model ")?;
            let (name, q) = rest.rsplit_once(" quantized_layers=")?;
            Some((name.to_string(), q.trim().parse().ok()?))
        })
        .collect()
}

/// Fetches every live worker's `/metrics`, sums the plain (unlabelled)
/// series across workers, and stores the pre-rendered `lmmir_workers_*`
/// aggregate for the router's own `/metrics` to append. Runs on the
/// supervisor thread only — the event loops never fetch over the network.
fn aggregate_worker_metrics(router: &Arc<Router>, timeout: Duration) {
    let mut sums: Vec<(String, f64)> = Vec::new();
    for shard in &router.shards {
        if !shard.live.load(Ordering::SeqCst) {
            continue;
        }
        let Ok((200, text)) = client::get_text_timeout(&shard.addr(), "/metrics", timeout) else {
            continue;
        };
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("lmmir_") else {
                continue;
            };
            let Some((name, value)) = rest.split_once(' ') else {
                continue;
            };
            if name.contains('{') {
                continue; // labelled series don't aggregate meaningfully
            }
            let Ok(v) = value.trim().parse::<f64>() else {
                continue;
            };
            match sums.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += v,
                None => sums.push((name.to_string(), v)),
            }
        }
    }
    use std::fmt::Write;
    let mut out = String::with_capacity(sums.len() * 32);
    for (name, total) in sums {
        if (total.fract()).abs() < f64::EPSILON {
            let _ = writeln!(out, "lmmir_workers_{name} {}", total as i64);
        } else {
            let _ = writeln!(out, "lmmir_workers_{name} {total:.4}");
        }
    }
    *router.aggregated.lock().expect("aggregate lock") = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_router(n: usize) -> Router {
        let router = Router::new(
            (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect(),
            64,
        );
        for s in &router.shards {
            s.live.store(true, Ordering::SeqCst);
        }
        router
    }

    #[test]
    fn ring_spreads_keys_across_all_shards() {
        let router = test_router(4);
        let mut counts = [0usize; 4];
        for k in 0..4000u64 {
            let key = route_key("m", k);
            counts[router.route(key).unwrap()] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            // 64 vnodes/shard: expect a reasonably even split (±~3x).
            assert!(*c > 250, "shard {i} got only {c}/4000 keys: {counts:?}");
        }
    }

    #[test]
    fn eviction_rehashes_only_the_dead_shards_range() {
        let router = test_router(4);
        let keys: Vec<u64> = (0..2000u64).map(|k| route_key("m", k)).collect();
        let before: Vec<usize> = keys.iter().map(|&k| router.route(k).unwrap()).collect();
        router.shards[2].live.store(false, Ordering::SeqCst);
        let mut moved = 0usize;
        for (key, owner) in keys.iter().zip(&before) {
            let now = router.route(*key).unwrap();
            if *owner == 2 {
                // The dead shard's range lands on survivors.
                assert_ne!(now, 2);
                moved += 1;
            } else {
                // The consistent-hash property: every other key stays put.
                assert_eq!(now, *owner, "key moved off a surviving shard");
            }
        }
        assert!(moved > 0, "shard 2 owned no keys before eviction");
        // Recovery restores the exact original assignment.
        router.shards[2].live.store(true, Ordering::SeqCst);
        let after: Vec<usize> = keys.iter().map(|&k| router.route(k).unwrap()).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn candidates_lead_with_the_home_shard_and_cover_all() {
        let router = test_router(3);
        for k in 0..100u64 {
            let key = route_key("demo", k);
            let cands = router.candidates(key);
            assert_eq!(cands.len(), 3);
            assert_eq!(cands[0], router.route(key).unwrap());
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
    }

    #[test]
    fn route_returns_none_with_no_live_shard() {
        let router = test_router(2);
        for s in &router.shards {
            s.live.store(false, Ordering::SeqCst);
        }
        assert_eq!(router.route(route_key("m", 1)), None);
    }

    #[test]
    fn parses_readiness_model_lines() {
        let body = "ready\nmodel demo quantized_layers=0\nmodel big net quantized_layers=7\n";
        assert_eq!(
            parse_models(body),
            vec![("demo".to_string(), 0), ("big net".to_string(), 7),]
        );
        assert!(parse_models("loading\n").is_empty());
    }

    #[test]
    fn render_extra_reports_per_shard_series() {
        let router = test_router(2);
        router.shards[1].live.store(false, Ordering::SeqCst);
        router.shards[0].dispatch_total.store(5, Ordering::Relaxed);
        router.evictions_total.store(1, Ordering::Relaxed);
        let text = router.render_extra();
        assert!(text.contains("lmmir_router_workers 2"), "{text}");
        assert!(text.contains("lmmir_router_workers_live 1"), "{text}");
        assert!(text.contains("lmmir_router_evictions_total 1"), "{text}");
        assert!(text.contains("lmmir_shard_up{shard=\"0\"} 1"), "{text}");
        assert!(text.contains("lmmir_shard_up{shard=\"1\"} 0"), "{text}");
        assert!(
            text.contains("lmmir_shard_dispatch_total{shard=\"0\"} 5"),
            "{text}"
        );
    }
}
