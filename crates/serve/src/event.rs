//! `serve::event` — the readiness-driven connection layer.
//!
//! Every connection is a small state machine driven by one of a **fixed
//! pool** of event-loop threads, instead of a thread of its own:
//!
//! ```text
//!   ReadingHead ──head parsed──> ReadingBody ──body complete──┐
//!        ^                                                    │
//!        │                         (by path; /predict misses  v
//!        │                          park on an inference   dispatch
//!        │                          lane)                     │
//!        │                                                    v
//!   (keep-alive) <──wbuf drained── Writing <──completion── AwaitingInference
//! ```
//!
//! Immediate endpoints (`/healthz`, `/metrics`, result-cache hits, parse
//! errors) go straight from dispatch to `Writing`.
//!
//! **Readiness without `poll(2)`.** The workspace is std-only and denies
//! `unsafe`, so the kernel's `poll`/`epoll` interface is out of reach (std
//! exposes no readiness API). This module substitutes the portable
//! equivalent: every socket is non-blocking, and the loop scans
//! connections on two cadences, parking between ticks on its event
//! channel. **Hot** connections (bytes moved within [`HOT_WINDOW`], or a
//! due deadline) are scanned every tick with a microsecond park, so the
//! single-connection latency path stays flat; **cold** connections are
//! swept every [`PARK_IDLE`], so one busy peer does not buy a per-tick
//! `WouldBlock` read against hundreds of idle sockets. 500 idle peers
//! then cost ~10⁵ cheap reads per second across the pool (each ≲ 1 µs —
//! a few percent of one core) and **zero** extra threads or stacks;
//! thread-per-connection costs 500 stacks before the first byte.
//!
//! **Wakeups.** The event channel doubles as the readiness token the issue
//! of a self-pipe would carry: the acceptor posts new connections on it,
//! and when an inference lane finishes a parked job its completion
//! callback posts `Event::Predict`/`Event::Reload` on it, cutting any park
//! short. Result-cache hits are served inline on the event-loop thread and
//! never wake an inference lane at all.
//!
//! **Deadlines subsume the idle timeout.** Each state carries its own
//! deadline, armed on entry and deliberately *not* refreshed by trickling
//! bytes (a slowloris drip must not extend its welcome):
//!
//! | state | deadline | on expiry |
//! |---|---|---|
//! | `ReadingHead` | idle timeout | close silently (idle or stalled peer) |
//! | `ReadingBody` | idle timeout | `408` + close (headers arrived, so a response is meaningful) |
//! | `AwaitingInference` | 300 s | `504` error frame + close decision |
//! | `AwaitingReload` | 120 s | `504` + close decision |
//! | `Writing` | 30 s | close (peer stopped reading) |

use crate::batch::{Job, PredictJob};
use crate::cache::ResultCache;
use crate::http::{self, Parsed, Request};
use crate::metrics::{model_label, Health, Metrics};
use crate::proto::{PredictRequest, PredictResponse};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Park while any connection is mid-request or fresh off one: short enough
/// that a ping-ponging keep-alive peer waits microseconds, long enough to
/// stay off the scheduler's back.
const PARK_ACTIVE: Duration = Duration::from_micros(50);
/// Park when every connection idles between requests: bounds both the
/// idle-scan rate (hundreds of syscalls/s at 500 idle peers, not hundreds
/// of thousands) and the worst-case pickup delay for a request arriving on
/// a cold connection.
const PARK_IDLE: Duration = Duration::from_millis(5);
/// Park with nothing registered at all; bounded so the shutdown flag is
/// noticed promptly.
const PARK_EMPTY: Duration = Duration::from_millis(25);
/// How recently a connection must have moved bytes to keep the loop on the
/// short park.
const HOT_WINDOW: Duration = Duration::from_millis(20);
/// Deadline for draining a queued response to a slow reader.
const WRITE_DEADLINE: Duration = Duration::from_secs(30);
/// Deadline for a parked predict job (the old handler-side `recv_timeout`).
const PREDICT_DEADLINE: Duration = Duration::from_secs(300);
/// Deadline for a parked reload (the old handler-side `recv_timeout`).
const RELOAD_DEADLINE: Duration = Duration::from_secs(120);
/// Read chunk size; one scratch buffer per event loop, not per connection.
const READ_CHUNK: usize = 64 * 1024;
/// Largest buffer capacity a connection keeps across requests. Bodies and
/// responses can reach hundreds of megabytes (`http::MAX_BODY`); a
/// keep-alive connection must not pin its peak size forever.
const BUF_RETAIN: usize = 16 * 1024;

/// What wakes an event loop.
pub(crate) enum Event {
    /// A freshly accepted connection (already non-blocking, NODELAY set).
    Conn(TcpStream),
    /// An inference lane finished predict `seq` for connection `id`.
    Predict(u64, u64, Result<Arc<[u8]>, String>),
    /// An inference lane finished reload `seq` for connection `id`.
    Reload(u64, u64, Result<usize, String>),
}

/// Everything one event loop shares with the rest of the server.
pub(crate) struct LoopCtx {
    /// Queue into the inference lanes.
    pub job_tx: Sender<Job>,
    /// Server-wide shutdown flag.
    pub shutdown: Arc<AtomicBool>,
    /// Shared counters/gauges.
    pub metrics: Arc<Metrics>,
    /// Readiness state `/healthz` renders (the inference lanes keep it
    /// current).
    pub health: Arc<Health>,
    /// This loop's open-connection gauge: incremented by the acceptor when
    /// it deals a connection here (least-loaded dealing reads all gauges),
    /// decremented when the connection unregisters.
    pub open_connections: Arc<AtomicU64>,
    /// `None` when the result cache is disabled (capacity 0), so the hot
    /// path never touches the shared mutex for guaranteed misses.
    pub results: Option<ResultCache>,
    /// Per-state deadline for `ReadingHead` and `ReadingBody`.
    pub idle_timeout: Duration,
    /// Most requests served on one connection before `Connection: close`.
    pub max_requests: usize,
}

/// Connection state; see the module docs for the machine and deadlines.
enum State {
    /// Waiting for (the rest of) a request head.
    ReadingHead,
    /// Head parsed; the declared body is still arriving.
    ReadingBody,
    /// A predict job is queued for the inference lanes; only the matching
    /// `Event::Predict` (or the deadline) moves this connection again.
    AwaitingInference {
        /// Matches the completion event (stale completions are dropped).
        seq: u64,
        /// Request arrival, for the latency histogram.
        t0: Instant,
        /// Close decision captured at dispatch.
        close: bool,
    },
    /// A reload is queued for the inference lanes.
    AwaitingReload {
        /// Matches the completion event.
        seq: u64,
        /// Close decision captured at dispatch.
        close: bool,
    },
    /// The response is queued in `wbuf`; when it drains the connection
    /// closes or returns to `ReadingHead`.
    Writing {
        /// Close after the flush instead of reading the next request.
        close: bool,
    },
}

/// Why `pump` returned.
enum Pump {
    /// Connection stays registered; `true` if any byte or state moved.
    Keep(bool),
    /// Connection is done (clean close, error, or deadline): drop it.
    Close,
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    state: State,
    /// Received-but-unparsed bytes; may span pipelined requests. The
    /// resumable parser re-reads this buffer, so no parser state outlives
    /// a tick.
    rbuf: Vec<u8>,
    /// Queued outgoing bytes (responses and `100 Continue` interims).
    wbuf: Vec<u8>,
    /// Cursor into `wbuf` (drained lazily; compacted on full drain).
    wpos: usize,
    /// Requests served on this connection (per-connection cap).
    served: usize,
    /// Current state's deadline.
    deadline: Instant,
    /// Last time this connection moved bytes (adaptive-park input).
    last_activity: Instant,
    /// Whether the interim `100 Continue` went out for the current request.
    continue_sent: bool,
}

impl Conn {
    fn new(stream: TcpStream, idle_timeout: Duration) -> Self {
        let now = Instant::now();
        Conn {
            stream,
            state: State::ReadingHead,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            served: 0,
            deadline: now + idle_timeout,
            last_activity: now,
            continue_sent: false,
        }
    }

    /// Queues one response and switches to `Writing`.
    fn respond(&mut self, status: u16, content_type: &str, body: &[u8], close: bool) {
        // Writing into a Vec cannot fail.
        let _ = http::write_response(&mut self.wbuf, status, content_type, body, close);
        self.state = State::Writing { close };
        // Mark the connection hot so the next tick flushes it immediately
        // even if it sat parked past the hot window (completion wakeups).
        self.last_activity = Instant::now();
        self.deadline = self.last_activity + WRITE_DEADLINE;
    }

    /// Whether this connection is idle between requests (nothing buffered
    /// in either direction) — the ones shutdown may close immediately.
    fn idle_between_requests(&self) -> bool {
        matches!(self.state, State::ReadingHead)
            && self.rbuf.is_empty()
            && self.wpos >= self.wbuf.len()
    }

    /// Whether this connection keeps the loop on the short park.
    fn hot(&self, now: Instant) -> bool {
        !matches!(
            self.state,
            State::AwaitingInference { .. } | State::AwaitingReload { .. }
        ) && now.duration_since(self.last_activity) < HOT_WINDOW
    }
}

/// One event-loop thread: owns a slab of connections and drives them all.
pub(crate) struct EventLoop {
    ctx: LoopCtx,
    /// Readiness/wakeup channel: new connections and job completions.
    events: Receiver<Event>,
    /// Kept so job callbacks can be minted; also means `events` never
    /// disconnects while this loop lives.
    event_tx: Sender<Event>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    next_seq: u64,
    scratch: Vec<u8>,
    /// Reused id list for the per-tick scan (no allocation per tick).
    scan_ids: Vec<u64>,
    /// Last time the *cold* connections were swept; hot ticks skip them.
    last_sweep: Instant,
}

impl EventLoop {
    pub(crate) fn new(ctx: LoopCtx, events: Receiver<Event>, event_tx: Sender<Event>) -> Self {
        EventLoop {
            ctx,
            events,
            event_tx,
            conns: HashMap::new(),
            next_id: 0,
            next_seq: 0,
            scratch: vec![0u8; READ_CHUNK],
            scan_ids: Vec::new(),
            last_sweep: Instant::now(),
        }
    }

    /// Runs until shutdown is flagged *and* every owned connection drained.
    pub(crate) fn run(mut self) {
        loop {
            let mut progress = false;
            // Drain pending wakeups without blocking.
            while let Ok(event) = self.events.try_recv() {
                self.on_event(event);
                progress = true;
            }
            let shutting_down = self.ctx.shutdown.load(Ordering::SeqCst);
            // Pump connections; collect the closed. Two cadences: hot
            // connections (recent bytes, or an expired deadline) are
            // scanned every tick, cold ones only on a sweep every
            // PARK_IDLE — otherwise one busy peer would have every tick
            // issue a wasted `WouldBlock` read against each of 500 idle
            // sockets that cannot have turned readable µs after the last
            // look. A request landing on a cold connection is still picked
            // up within a sweep period, same as the all-idle park bound.
            let now = Instant::now();
            let sweep = shutting_down || now.duration_since(self.last_sweep) >= PARK_IDLE;
            if sweep {
                self.last_sweep = now;
            }
            let mut ids = std::mem::take(&mut self.scan_ids);
            ids.clear();
            ids.extend(self.conns.keys().copied());
            for id in ids.iter().copied() {
                let conn = self.conns.get(&id).expect("id just listed");
                if !sweep && !conn.hot(now) && now < conn.deadline {
                    continue; // cold and not due: next sweep's problem
                }
                let mut conn = self.conns.remove(&id).expect("id just listed");
                if shutting_down && conn.idle_between_requests() {
                    // Idle keep-alive peers would stall the drain until
                    // their idle timeout; close them now. In-flight
                    // requests still finish (their responses advertise
                    // `Connection: close` via the shutdown check at
                    // dispatch).
                    self.drop_conn(conn);
                    progress = true;
                    continue;
                }
                match self.pump(id, &mut conn) {
                    Pump::Keep(moved) => {
                        progress |= moved;
                        self.conns.insert(id, conn);
                    }
                    Pump::Close => {
                        self.drop_conn(conn);
                        progress = true;
                    }
                }
            }
            self.scan_ids = ids;
            if shutting_down && self.conns.is_empty() {
                // Dropping `self` drops our `job_tx` clone; once every
                // event loop exits the inference lanes drain and exit
                // too — the graceful-shutdown order.
                return;
            }
            if progress {
                continue; // rescan immediately while work is flowing
            }
            let now = Instant::now();
            let mut park = if self.conns.is_empty() {
                PARK_EMPTY
            } else if self.conns.values().any(|c| c.hot(now)) {
                PARK_ACTIVE
            } else {
                PARK_IDLE
            };
            if let Some(next_deadline) = self.conns.values().map(|c| c.deadline).min() {
                park = park.min(next_deadline.saturating_duration_since(now));
            }
            if park.is_zero() {
                continue; // a deadline already expired; handle it now
            }
            match self.events.recv_timeout(park) {
                Ok(event) => self.on_event(event),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
            }
        }
    }

    /// Unregisters a connection, keeping the gauges honest.
    fn drop_conn(&mut self, conn: Conn) {
        if matches!(
            conn.state,
            State::AwaitingInference { .. } | State::AwaitingReload { .. }
        ) {
            Metrics::dec(&self.ctx.metrics.connections_parked);
        }
        Metrics::dec(&self.ctx.metrics.connections_open);
        Metrics::dec(&self.ctx.open_connections);
        // `conn.stream` drops here, closing the socket.
    }

    fn on_event(&mut self, event: Event) {
        match event {
            Event::Conn(stream) => {
                let id = self.next_id;
                self.next_id += 1;
                self.conns
                    .insert(id, Conn::new(stream, self.ctx.idle_timeout));
            }
            Event::Predict(id, seq, outcome) => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return; // connection died while the job ran
                };
                let State::AwaitingInference {
                    seq: parked,
                    t0,
                    close,
                } = conn.state
                else {
                    return; // already timed out and moved on
                };
                if parked != seq {
                    return; // stale completion for an earlier request
                }
                Metrics::dec(&self.ctx.metrics.connections_parked);
                match outcome {
                    Ok(frame) => {
                        self.ctx.metrics.observe_latency(t0.elapsed());
                        conn.respond(200, "application/octet-stream", &frame, close);
                    }
                    Err(msg) => conn.respond(
                        422,
                        "application/octet-stream",
                        &PredictResponse::encode_error(&msg),
                        close,
                    ),
                }
            }
            Event::Reload(id, seq, outcome) => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                let State::AwaitingReload { seq: parked, close } = conn.state else {
                    return;
                };
                if parked != seq {
                    return;
                }
                Metrics::dec(&self.ctx.metrics.connections_parked);
                match outcome {
                    Ok(n) => conn.respond(
                        200,
                        "text/plain",
                        format!("reloaded {n} model(s)\n").as_bytes(),
                        close,
                    ),
                    Err(msg) => {
                        conn.respond(500, "text/plain", format!("{msg}\n").as_bytes(), close);
                    }
                }
            }
        }
    }

    /// Drives one connection as far as it can go this tick: expire
    /// deadlines, flush pending writes, read what the socket has, parse
    /// and dispatch any complete requests — until everything blocks.
    fn pump(&mut self, id: u64, conn: &mut Conn) -> Pump {
        let mut moved = false;
        loop {
            if let Some(outcome) = self.expire(conn) {
                match outcome {
                    Pump::Keep(m) => {
                        moved |= m;
                        continue; // a 408/504 was queued; flush it below
                    }
                    Pump::Close => return Pump::Close,
                }
            }
            // Flush pending bytes in any state (responses and interims).
            match self.flush(conn) {
                Ok(flushed) => moved |= flushed,
                Err(()) => return Pump::Close,
            }
            if let State::Writing { close } = conn.state {
                if conn.wpos < conn.wbuf.len() {
                    return Pump::Keep(moved); // socket full; wait for room
                }
                if close {
                    return Pump::Close;
                }
                // Keep-alive: next request on the same connection.
                conn.state = State::ReadingHead;
                conn.deadline = Instant::now() + self.ctx.idle_timeout;
                conn.continue_sent = false;
                moved = true;
                continue;
            }
            match conn.state {
                State::ReadingHead | State::ReadingBody => {
                    match http::parse_request(&conn.rbuf) {
                        Ok(Parsed::Ready { request, consumed }) => {
                            conn.rbuf.drain(..consumed);
                            if conn.rbuf.is_empty() && conn.rbuf.capacity() > BUF_RETAIN {
                                // Same discipline as `wbuf`: do not pin the
                                // largest body ever received.
                                conn.rbuf.shrink_to(BUF_RETAIN);
                            }
                            self.dispatch(id, conn, &request);
                            moved = true;
                        }
                        Ok(Parsed::Incomplete(needs)) => {
                            if needs.body && matches!(conn.state, State::ReadingHead) {
                                // Head complete: the body gets a fresh
                                // deadline of its own, so a peer that sent
                                // headers cannot trickle the body forever.
                                conn.state = State::ReadingBody;
                                conn.deadline = Instant::now() + self.ctx.idle_timeout;
                            }
                            if needs.expects_continue && !conn.continue_sent {
                                conn.wbuf.extend_from_slice(http::CONTINUE_INTERIM);
                                conn.continue_sent = true;
                                continue; // flush the interim first
                            }
                            match self.read(conn) {
                                ReadOutcome::Progress => moved = true,
                                ReadOutcome::Blocked => return Pump::Keep(moved),
                                ReadOutcome::Closed => return Pump::Close,
                            }
                        }
                        Err(e) => {
                            // Malformed request: answer 400 and close —
                            // later bytes (e.g. a pipelined follow-up)
                            // cannot be framed after a parse failure.
                            conn.respond(400, "text/plain", format!("{e}\n").as_bytes(), true);
                            moved = true;
                        }
                    }
                }
                // Parked: only a completion event or the deadline moves us.
                State::AwaitingInference { .. } | State::AwaitingReload { .. } => {
                    return Pump::Keep(moved)
                }
                State::Writing { .. } => unreachable!("handled above"),
            }
        }
    }

    /// Applies the current state's deadline. `None`: nothing expired.
    fn expire(&mut self, conn: &mut Conn) -> Option<Pump> {
        if Instant::now() < conn.deadline {
            return None;
        }
        match conn.state {
            // Idle between requests or stalled mid-head: nothing useful to
            // say to a peer that stopped talking; close silently.
            State::ReadingHead => Some(Pump::Close),
            // Headers arrived, body did not: the peer gets told.
            State::ReadingBody => {
                conn.respond(408, "text/plain", b"body read timed out\n", true);
                Some(Pump::Keep(true))
            }
            State::AwaitingInference { close, .. } => {
                Metrics::dec(&self.ctx.metrics.connections_parked);
                conn.respond(
                    504,
                    "application/octet-stream",
                    &PredictResponse::encode_error("prediction timed out"),
                    close,
                );
                Some(Pump::Keep(true))
            }
            State::AwaitingReload { close, .. } => {
                Metrics::dec(&self.ctx.metrics.connections_parked);
                conn.respond(504, "text/plain", b"reload timed out\n", close);
                Some(Pump::Keep(true))
            }
            // The peer stopped draining its socket.
            State::Writing { .. } => Some(Pump::Close),
        }
    }

    /// Non-blocking write of whatever `wbuf` still holds.
    ///
    /// `Ok(true)` when bytes moved; `Err(())` when the transport died.
    fn flush(&mut self, conn: &mut Conn) -> Result<bool, ()> {
        let mut flushed = false;
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                    if let State::Writing { .. } = conn.state {
                        // A slow-but-progressing reader is healthy: the
                        // drain deadline guards against a *stopped* peer,
                        // so every write of actual bytes re-arms it (the
                        // old per-write socket timeout behaved the same).
                        conn.deadline = conn.last_activity + WRITE_DEADLINE;
                    }
                    flushed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        if conn.wpos >= conn.wbuf.len() && !conn.wbuf.is_empty() {
            conn.wbuf.clear();
            conn.wpos = 0;
            // A keep-alive connection outlives its largest response; give
            // an oversized buffer back rather than pinning the peak frame
            // size (megabytes at 870 px) for the connection's whole life.
            conn.wbuf.shrink_to(BUF_RETAIN);
        }
        Ok(flushed)
    }

    /// One non-blocking read into the connection's buffer.
    fn read(&mut self, conn: &mut Conn) -> ReadOutcome {
        loop {
            match conn.stream.read(&mut self.scratch) {
                // EOF. With an empty buffer in `ReadingHead` this is the
                // clean end of a keep-alive connection; mid-request there
                // is nobody left to answer. Either way: close.
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    conn.last_activity = Instant::now();
                    return ReadOutcome::Progress;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadOutcome::Blocked,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }

    /// Routes one parsed request. Immediate endpoints respond in place;
    /// `/predict` misses and `/reload` park the connection on the
    /// inference lanes.
    fn dispatch(&mut self, id: u64, conn: &mut Conn, request: &Request) {
        conn.served += 1;
        Metrics::inc(&self.ctx.metrics.requests_total);
        if conn.served > 1 {
            Metrics::inc(&self.ctx.metrics.keepalive_reuses_total);
        }
        // Decide the connection's fate *before* routing so the response
        // advertises it: peer preference, per-connection cap, shutdown.
        let close = request.close
            || conn.served >= self.ctx.max_requests
            || self.ctx.shutdown.load(Ordering::SeqCst);
        match (request.method.as_str(), request.target.as_str()) {
            ("GET", "/healthz") => {
                // Readiness, not just liveness: a server mid-reload (or
                // after a failed registry swap) answers 503 so a load
                // balancer's health check drains it instead of sending to it.
                let (status, body) = self.ctx.health.render();
                conn.respond(status, "text/plain", body.as_bytes(), close);
            }
            ("GET", "/metrics") => {
                let text = self.ctx.metrics.render();
                conn.respond(200, "text/plain", text.as_bytes(), close);
            }
            ("POST", "/shutdown") => {
                self.ctx.shutdown.store(true, Ordering::SeqCst);
                // Always close: the server is going away, and an open
                // keep-alive connection would stall the drain.
                conn.respond(200, "text/plain", b"shutting down\n", true);
            }
            ("POST", "/reload") => {
                let seq = self.mint_seq();
                let notify = self.notifier(id, seq, Event::Reload);
                if self.ctx.job_tx.send(Job::Reload(notify)).is_err() {
                    conn.respond(503, "text/plain", b"server shutting down\n", close);
                    return;
                }
                conn.state = State::AwaitingReload { seq, close };
                conn.deadline = Instant::now() + RELOAD_DEADLINE;
                Metrics::inc(&self.ctx.metrics.connections_parked);
            }
            ("POST", "/predict") => self.dispatch_predict(id, conn, &request.body, close),
            ("GET" | "POST", _) => conn.respond(404, "text/plain", b"no such endpoint\n", close),
            _ => conn.respond(405, "text/plain", b"method not allowed\n", close),
        }
    }

    fn dispatch_predict(&mut self, id: u64, conn: &mut Conn, body: &[u8], close: bool) {
        let t0 = Instant::now();
        let request = match PredictRequest::decode(body) {
            Ok(r) => r,
            Err(e) => {
                conn.respond(
                    400,
                    "application/octet-stream",
                    &PredictResponse::encode_error(&e.to_string()),
                    close,
                );
                return;
            }
        };
        let fingerprint = request.fingerprint();
        // Per-model traffic accounting uses the *requested* name (the
        // label clients see); result-cache hits count as requests but
        // never enter the queue.
        let series = self.ctx.metrics.model(model_label(&request.model));
        Metrics::inc(&series.requests_total);

        // Layer 1: the result cache. A hit writes the already-encoded
        // frame without enqueueing a job — no inference lane
        // wakes. With the cache disabled this path (lock, counters) is
        // skipped entirely.
        if let Some(results) = &self.ctx.results {
            let key = (request.model.clone(), fingerprint);
            let cached = results
                .lock()
                .expect("result cache lock")
                .get(&key)
                .cloned();
            if let Some(frame) = cached {
                Metrics::inc(&self.ctx.metrics.result_cache_hits_total);
                Metrics::inc(&self.ctx.metrics.predict_ok_total);
                self.ctx.metrics.observe_latency(t0.elapsed());
                conn.respond(200, "application/octet-stream", &frame, close);
                return;
            }
            Metrics::inc(&self.ctx.metrics.result_cache_misses_total);
        }

        let seq = self.mint_seq();
        let job = Job::Predict(PredictJob {
            request,
            fingerprint,
            reply: self.notifier(id, seq, Event::Predict),
        });
        // Gauge up *before* the send so an inference lane can never
        // observe (and decrement for) a job the gauge missed; a failed
        // send backs the increment out.
        Metrics::inc(&series.queue_depth);
        if self.ctx.job_tx.send(job).is_err() {
            Metrics::dec(&series.queue_depth);
            conn.respond(
                503,
                "application/octet-stream",
                &PredictResponse::encode_error("server shutting down"),
                close,
            );
            return;
        }
        conn.state = State::AwaitingInference { seq, t0, close };
        conn.deadline = t0 + PREDICT_DEADLINE;
        Metrics::inc(&self.ctx.metrics.connections_parked);
    }

    fn mint_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// A one-shot completion callback that posts back to *this* loop's
    /// event channel — the readiness token that wakes a parked connection.
    fn notifier<T: Send + 'static>(
        &self,
        id: u64,
        seq: u64,
        wrap: fn(u64, u64, T) -> Event,
    ) -> Box<dyn FnOnce(T) + Send> {
        let tx = self.event_tx.clone();
        Box::new(move |outcome| {
            // A send can only fail after the loop exited, which only
            // happens once its connections are gone — nothing to wake.
            let _ = tx.send(wrap(id, seq, outcome));
        })
    }
}

/// Outcome of one non-blocking read.
enum ReadOutcome {
    /// Bytes arrived.
    Progress,
    /// Nothing available right now (`WouldBlock`).
    Blocked,
    /// EOF or transport error: the connection is finished.
    Closed,
}
