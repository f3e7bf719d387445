//! Server lifecycle: configuration, the accept loop, the event-loop thread
//! pool, and graceful shutdown — for both a plain worker server
//! ([`Server::start`]) and the shard router ([`Server::start_router`]),
//! which share the whole front end and differ only in the backend draining
//! the job queue (inference lanes vs forwarder pool).
//!
//! The accept loop only accepts: each admitted connection is handed to the
//! event loop with the **fewest open connections** (per-loop gauges, so a
//! saturated loop stops receiving new work while its siblings idle), and
//! the fixed pool of event-loop threads ([`crate::event`]) drives every
//! connection's read/parse/respond state machine over non-blocking
//! sockets. Connection count and thread count are decoupled — 500 idle
//! keep-alive peers hold 500 sockets but zero extra threads — and closed
//! connections leave the bookkeeping immediately (`lmmir_connections_open`
//! in `/metrics` is the live gauge).

use crate::batch::{self, Job};
use crate::cache::{result_cache, ResultCache};
use crate::event::{Event, EventLoop, LoopCtx};
use crate::http;
use crate::metrics::{Health, Metrics, MetricsExtra};
use crate::registry::RegistrySpec;
use crate::shard::{self, RouterSpec};
use crate::ServeError;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime};

/// How long the acceptor spends at most writing one `503` refusal to a
/// peer that will not read it (the stream is switched to non-blocking
/// first, so a SYN-flood-ish peer cannot stall the accept thread).
const REFUSAL_WRITE_DEADLINE: Duration = Duration::from_millis(250);

/// Server knobs. Callers build the struct (the `serve` bin from its flags);
/// unset fields take these defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub addr: String,
    /// Most queue entries held in the lanes' shared backlog — the window
    /// in which requests for one design share a forward pass (1 = never).
    pub max_batch: usize,
    /// Result-cache capacity in predictions (0 disables).
    pub result_cache_capacity: usize,
    /// Per-state read deadline: a keep-alive connection may sit idle this
    /// long between requests, and a request's head and body each get this
    /// long to arrive.
    pub idle_timeout: Duration,
    /// Most requests served on one connection before the server closes it
    /// with `Connection: close` (floor 1).
    pub max_requests_per_conn: usize,
    /// Most concurrently open connections; excess get `503` (floor 1).
    pub max_connections: usize,
    /// Event-loop threads driving all connections (floor 1). A small fixed
    /// number — the loops are I/O-bound; inference parallelism is
    /// `threads`.
    pub event_threads: usize,
    /// Inference lanes, which is also the `lmmir-par` pool width the busy
    /// lanes divide between them: 1 is a single inference thread, N runs
    /// up to N forwards at once over the one loaded registry
    /// (`None` = `LMMIR_THREADS` / available cores).
    pub threads: Option<usize>,
    /// Watch every checkpoint file's mtime and hot-reload on change,
    /// clearing the result cache exactly as `POST /reload` does (the
    /// `--watch-checkpoints` flag) — so sharded workers pick up new
    /// checkpoints without router coordination.
    pub watch_checkpoints: bool,
    /// Poll interval of the checkpoint watcher (floor 1 ms).
    pub watch_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            max_batch: 8,
            result_cache_capacity: 64,
            idle_timeout: Duration::from_secs(10),
            max_requests_per_conn: 1024,
            max_connections: 64,
            event_threads: 2,
            threads: None,
            watch_checkpoints: false,
            watch_interval: Duration::from_secs(2),
        }
    }
}

/// A running server: bound address, background threads, shutdown control.
/// Built by [`Server::start`] (worker: inference-lane backend) or
/// [`Server::start_router`] (shard router: forwarder-pool backend).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    acceptor: JoinHandle<()>,
    event_loops: Vec<JoinHandle<()>>,
    /// Backend threads joined after the front end drains: the inference
    /// lanes (lane 0 joins the rest) and optional checkpoint watcher
    /// (worker), or the forwarder pool and supervisor (router).
    backend: Vec<JoinHandle<()>>,
    /// Shard state when this server is a router.
    router: Option<Arc<shard::Router>>,
}

/// One dealt-to event loop: its wakeup channel and open-connection gauge.
type LoopHandle = (Sender<Event>, Arc<AtomicU64>);

impl Server {
    /// Binds, loads the registry and starts serving.
    ///
    /// Returns only after the registry finished loading, so a missing or
    /// mismatched checkpoint fails here rather than on the first request.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the address cannot be bound and
    /// [`ServeError::Registry`] when a checkpoint fails to load.
    pub fn start(cfg: ServeConfig, spec: RegistrySpec) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let health = Health::new();
        let results = result_cache(cfg.result_cache_capacity);
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (ready_tx, ready_rx) = mpsc::channel();

        let watched: Vec<PathBuf> = if cfg.watch_checkpoints {
            spec.models.iter().map(|m| m.path.clone()).collect()
        } else {
            Vec::new()
        };

        let mut backend = Vec::new();
        backend.push({
            let cfg = cfg.clone();
            let metrics = Arc::clone(&metrics);
            let health = Arc::clone(&health);
            let results = Arc::clone(&results);
            thread::Builder::new()
                .name("lmmir-lane-0".to_string())
                .spawn(move || {
                    batch::run(&cfg, spec, job_rx, &metrics, &health, &results, &ready_tx);
                })?
        });
        match ready_rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                for t in backend {
                    let _ = t.join();
                }
                return Err(e);
            }
            Err(_) => {
                return Err(ServeError::Registry(
                    "inference lanes did not come up within 120 s".to_string(),
                ))
            }
        }

        // The mtime-poll checkpoint watcher holds its own job sender; it
        // polls the shutdown flag in short slices and drops the sender on
        // exit, so it never stalls the drain (the inference lanes exit
        // when the last sender is gone).
        if !watched.is_empty() {
            let job_tx = job_tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let interval = cfg.watch_interval;
            backend.push(
                thread::Builder::new()
                    .name("lmmir-watch".to_string())
                    .spawn(move || watch_checkpoints(&watched, interval, &job_tx, &shutdown))?,
            );
        }

        let (acceptor, event_loops) = start_frontend(
            &cfg,
            listener,
            &metrics,
            &shutdown,
            &health,
            None,
            (cfg.result_cache_capacity > 0).then(|| Arc::clone(&results)),
            &job_tx,
        )?;
        drop(job_tx);

        Ok(Server {
            addr,
            shutdown,
            metrics,
            acceptor,
            event_loops,
            backend,
            router: None,
        })
    }

    /// Binds and starts a **shard router**: spawns/attaches the configured
    /// workers, waits until every spawned worker reports ready, and serves
    /// the same endpoints as a worker — dispatching each predict to the
    /// worker owning its `(model, content hash)` range on a consistent
    /// hash ring (see [`crate::shard`]).
    ///
    /// The router's result cache is forced off: shard affinity keeps the
    /// *workers'* caches hot, and a router-level cache would answer from
    /// stale entries after a worker-side reload it cannot see.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the address cannot be bound,
    /// [`ServeError::Config`] when no workers are configured or a spawn
    /// fails, and [`ServeError::Registry`] when a spawned worker does not
    /// come up.
    pub fn start_router(mut cfg: ServeConfig, spec: RouterSpec) -> Result<Self, ServeError> {
        cfg.result_cache_capacity = 0;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let health = Health::new();
        let (job_tx, job_rx) = mpsc::channel::<Job>();

        let launched = shard::launch(spec, job_rx, &shutdown, &health, &metrics)?;
        let router = Arc::clone(&launched.router);

        let (acceptor, event_loops) = start_frontend(
            &cfg,
            listener,
            &metrics,
            &shutdown,
            &health,
            Some(Arc::clone(&router) as Arc<dyn MetricsExtra>),
            None,
            &job_tx,
        )?;
        drop(job_tx);

        Ok(Server {
            addr,
            shutdown,
            metrics,
            acceptor,
            event_loops,
            backend: launched.threads,
            router: Some(router),
        })
    }

    /// The bound address (resolved, so port 0 shows the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    #[must_use]
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Worker addresses by shard index (empty for a non-router server).
    #[must_use]
    pub fn worker_addrs(&self) -> Vec<String> {
        self.router.as_ref().map(|r| r.addrs()).unwrap_or_default()
    }

    /// Requests shutdown (also triggered by `POST /shutdown`): the
    /// acceptor stops taking connections, idle keep-alive connections are
    /// closed, in-flight requests finish, queued jobs are answered, then
    /// the threads exit (a router also drains its supervised workers).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the server shut down (via [`Server::shutdown`] or
    /// `POST /shutdown`) and every thread drained.
    pub fn wait(self) {
        let _ = self.acceptor.join();
        for handle in self.event_loops {
            let _ = handle.join();
        }
        for handle in self.backend {
            let _ = handle.join();
        }
    }

    /// [`Server::shutdown`] + [`Server::wait`] in one call.
    pub fn stop(self) {
        self.shutdown();
        self.wait();
    }
}

/// Starts the shared front end — the fixed event-loop pool and the accept
/// thread — and registers the per-loop gauges. Worker and router differ
/// only in what they pass here (`extra`, `results`) and in who drains the
/// job channel.
#[allow(clippy::too_many_arguments)]
fn start_frontend(
    cfg: &ServeConfig,
    listener: TcpListener,
    metrics: &Arc<Metrics>,
    shutdown: &Arc<AtomicBool>,
    health: &Arc<Health>,
    extra: Option<Arc<dyn MetricsExtra>>,
    results: Option<ResultCache>,
    job_tx: &Sender<Job>,
) -> Result<(JoinHandle<()>, Vec<JoinHandle<()>>), ServeError> {
    let pool = cfg.event_threads.max(1);
    Metrics::set(&metrics.event_threads, pool);
    let mut loop_handles: Vec<LoopHandle> = Vec::with_capacity(pool);
    let mut event_loops = Vec::with_capacity(pool);
    for k in 0..pool {
        let (event_tx, event_rx) = mpsc::channel::<Event>();
        let gauge = Arc::new(AtomicU64::new(0));
        let ctx = LoopCtx {
            job_tx: job_tx.clone(),
            shutdown: Arc::clone(shutdown),
            metrics: Arc::clone(metrics),
            health: Arc::clone(health),
            extra: extra.clone(),
            open_connections: Arc::clone(&gauge),
            results: results.clone(),
            idle_timeout: cfg.idle_timeout,
            max_requests: cfg.max_requests_per_conn.max(1),
        };
        let own_tx = event_tx.clone();
        event_loops.push(
            thread::Builder::new()
                .name(format!("lmmir-event-{k}"))
                .spawn(move || EventLoop::new(ctx, event_rx, own_tx).run())?,
        );
        loop_handles.push((event_tx, gauge));
    }
    metrics.set_loop_gauges(loop_handles.iter().map(|(_, g)| Arc::clone(g)).collect());

    let acceptor = {
        let shutdown = Arc::clone(shutdown);
        let metrics = Arc::clone(metrics);
        let max_connections = cfg.max_connections.max(1);
        thread::Builder::new()
            .name("lmmir-accept".to_string())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &loop_handles,
                    &metrics,
                    &shutdown,
                    max_connections,
                );
            })?
    };
    Ok((acceptor, event_loops))
}

/// Accepts connections until shutdown and deals each to the event loop
/// with the fewest open connections. No per-connection thread, no
/// per-connection handle: the loops own all connection state and
/// unregister connections (decrementing their loop's gauge) as they close.
fn accept_loop(
    listener: &TcpListener,
    loops: &[LoopHandle],
    metrics: &Arc<Metrics>,
    shutdown: &AtomicBool,
    max_connections: usize,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Keep-alive exchanges are request/response ping-pong on a
                // warm connection; without TCP_NODELAY, Nagle + delayed
                // ACK adds ~40 ms to every exchange after the first.
                let _ = stream.set_nodelay(true);
                if metrics.connections_open.load(Ordering::SeqCst) >= max_connections as u64 {
                    Metrics::inc(&metrics.connections_refused_total);
                    write_refusal(&mut stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                Metrics::inc(&metrics.connections_total);
                Metrics::inc(&metrics.connections_open);
                // Least-loaded dealing: round-robin kept feeding a
                // saturated loop while its siblings idled; the gauges make
                // load visible at accept time.
                let k = pick_loop(loops.iter().map(|(_, g)| g.load(Ordering::SeqCst)));
                let (tx, gauge) = &loops[k];
                Metrics::inc(gauge);
                if tx.send(Event::Conn(stream)).is_err() {
                    // Loop thread died (only possible mid-shutdown).
                    Metrics::dec(&metrics.connections_open);
                    Metrics::dec(gauge);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    // Dropping the event senders here; each loop still owns a clone of its
    // own sender, so loops drain on the shutdown flag, not on disconnect.
}

/// Index of the least-loaded event loop (first wins ties, so an all-idle
/// pool fills in order and the skew test is deterministic).
fn pick_loop(loads: impl Iterator<Item = u64>) -> usize {
    let mut best = 0;
    let mut best_load = u64::MAX;
    for (i, load) in loads.enumerate() {
        if load < best_load {
            best = i;
            best_load = load;
        }
    }
    best
}

/// Writes the `503 connection limit reached` refusal with a hard deadline.
/// The stream is switched to non-blocking first: a peer that connects and
/// never reads must cost the accept thread at most
/// [`REFUSAL_WRITE_DEADLINE`], not a blocked `write(2)` forever.
fn write_refusal(stream: &mut TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut frame = Vec::with_capacity(128);
    let _ = http::write_response(
        &mut frame,
        503,
        "text/plain",
        b"connection limit reached\n",
        true,
    );
    let deadline = Instant::now() + REFUSAL_WRITE_DEADLINE;
    let mut pos = 0;
    while pos < frame.len() {
        match stream.write(&frame[pos..]) {
            Ok(0) => return,
            Ok(n) => pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return; // the peer is not reading; drop it
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// The `--watch-checkpoints` poller: stats every checkpoint each interval
/// and enqueues the same `Job::Reload` that `POST /reload` does (all-or-
/// nothing registry swap, result cache cleared) when any mtime
/// changes. A failed reload (e.g. a half-written file) re-arms the watch,
/// so the next poll retries even without another mtime bump.
fn watch_checkpoints(
    paths: &[PathBuf],
    interval: Duration,
    job_tx: &Sender<Job>,
    shutdown: &AtomicBool,
) {
    let stat = |p: &PathBuf| -> Option<SystemTime> {
        std::fs::metadata(p).and_then(|m| m.modified()).ok()
    };
    let mut seen: Vec<Option<SystemTime>> = paths.iter().map(stat).collect();
    let slice = Duration::from_millis(50).min(interval);
    loop {
        // Sleep one interval in slices, so shutdown drops our job sender
        // promptly (the inference lanes drain only when all senders go).
        let wake = Instant::now() + interval;
        while Instant::now() < wake {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(slice);
        }
        let current: Vec<Option<SystemTime>> = paths.iter().map(stat).collect();
        // Only an observed *change* triggers; a missing file on its own
        // does not (the registry load would fail without need — the swap
        // happens when the new file lands and mtime moves again).
        if current == seen {
            continue;
        }
        seen = current;
        let (done_tx, done_rx) = mpsc::channel();
        let notify = Box::new(move |outcome: Result<usize, String>| {
            let _ = done_tx.send(outcome);
        });
        if job_tx.send(Job::Reload(notify)).is_err() {
            return; // inference lanes are gone; nothing left to reload
        }
        match done_rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Ok(n)) => eprintln!("[serve] checkpoint change detected; reloaded {n} model(s)"),
            Ok(Err(e)) => {
                eprintln!("[serve] checkpoint reload failed ({e}); will retry");
                // Forget the mtimes so the next poll retries even if the
                // writer finished without touching the file again.
                seen.fill(None);
            }
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_loop_prefers_the_least_loaded() {
        assert_eq!(pick_loop([3u64, 0, 2].into_iter()), 1);
        assert_eq!(pick_loop([0u64, 0].into_iter()), 0, "first wins ties");
        assert_eq!(pick_loop([5u64].into_iter()), 0);
    }

    #[test]
    fn least_loaded_dealing_corrects_skew() {
        // Regression for round-robin dealing: start with one loop already
        // saturated; every new connection must go to the idle loops until
        // the pool is balanced, instead of being dealt back into the
        // saturated loop every Nth accept.
        let gauges = [AtomicU64::new(40), AtomicU64::new(0), AtomicU64::new(0)];
        for _ in 0..80 {
            let k = pick_loop(gauges.iter().map(|g| g.load(Ordering::Relaxed)));
            gauges[k].fetch_add(1, Ordering::Relaxed);
        }
        let loads: Vec<u64> = gauges.iter().map(|g| g.load(Ordering::Relaxed)).collect();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(
            max - min <= 1,
            "dealing left the pool skewed: {loads:?} (round-robin would give [40+27, 27, 27])"
        );
    }
}
