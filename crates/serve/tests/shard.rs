//! Shard-router integration tests: bitwise parity through the proxy,
//! failover under keep-alive load (eviction re-hashes only the dead
//! range), reloading workers draining instead of erroring, and supervised
//! worker respawn after a kill.

use lmm_ir::{iredge, save_predictor, InferenceSession, IrPredictor};
use lmmir_pdn::{Case, CaseKind, CaseSpec};
use lmmir_serve::{
    client, http, prepare_request, Client, PredictRequest, PredictResponse, RegistrySpec,
    RouterSpec, ServeConfig, Server, WorkerCmd,
};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SIZE: usize = 16;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lmmir_shard_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A worker server config: ephemeral port, one inference lane.
fn worker_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        ..ServeConfig::default()
    }
}

/// The router's own front-end config (its result cache is forced off by
/// `start_router` regardless).
fn router_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Fast supervision knobs shared by the tests: 50 ms probes so drain /
/// eviction / recovery land quickly.
fn fast_spec() -> RouterSpec {
    RouterSpec {
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        ..RouterSpec::default()
    }
}

fn design(seed: u64) -> (Case, PredictRequest) {
    let case = CaseSpec::new(format!("d{seed}"), SIZE, SIZE, seed, CaseKind::Hidden).generate();
    let req = PredictRequest::from_case(&case);
    (case, req)
}

/// The offline reference the routed answer must match bitwise.
fn offline_reference(model: &dyn IrPredictor, req: &PredictRequest) -> (Vec<f32>, Vec<u8>, f32) {
    let session = InferenceSession::new(model);
    let input = prepare_request(session.spec(), req).unwrap();
    let pred = session.predict(&input).unwrap();
    (pred.map.data().to_vec(), pred.mask, pred.threshold)
}

fn assert_matches_offline(resp: &PredictResponse, expected: &(Vec<f32>, Vec<u8>, f32)) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&resp.map), bits(&expected.0), "IR map drifted");
    assert_eq!(resp.mask, expected.1, "hotspot mask drifted");
    assert_eq!(
        resp.threshold.to_bits(),
        expected.2.to_bits(),
        "threshold drifted"
    );
}

/// First value of a `/metrics` line starting with `prefix` (pass the
/// trailing space so `..._workers ` does not match `..._workers_live`).
fn metric(text: &str, prefix: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(prefix)
            .and_then(|rest| rest.trim().parse().ok())
    })
}

/// Polls the router's `/metrics` until `ok` holds, panicking with the last
/// snapshot after `deadline`.
fn poll_metrics(addr: SocketAddr, deadline: Duration, mut ok: impl FnMut(&str) -> bool) {
    let end = Instant::now() + deadline;
    let mut last = String::new();
    loop {
        if let Ok((200, text)) = client::get_text(addr, "/metrics") {
            if ok(&text) {
                return;
            }
            last = text;
        }
        assert!(
            Instant::now() < end,
            "metrics condition not met within {deadline:?}; last:\n{last}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Waits until the router's `/healthz` reports ready (the supervisor needs
/// one probe round after startup before any worker counts as live).
fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok((200, body)) = client::get_text(addr, "/healthz") {
            if body.starts_with("ready") {
                return;
            }
        }
        assert!(Instant::now() < deadline, "router never became ready");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Predict with retry: rides out the short window where a probe caught a
/// worker mid-reload and drained it before the next probe restores it.
fn predict_retry(addr: SocketAddr, req: &PredictRequest, deadline: Duration) -> PredictResponse {
    let end = Instant::now() + deadline;
    loop {
        match client::predict(addr, req) {
            Ok(resp) => return resp,
            Err(e) => {
                assert!(Instant::now() < end, "predict kept failing: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[test]
fn router_is_bitwise_identical_and_proxies_reload() {
    let model = iredge(SIZE, 11);
    let path = tmp("parity.lmmt");
    save_predictor(&model, &path).unwrap();
    let workers: Vec<Server> = (0..2)
        .map(|_| Server::start(worker_config(), RegistrySpec::single("demo", &path)).unwrap())
        .collect();
    let spec = RouterSpec {
        attach: workers.iter().map(|w| w.addr().to_string()).collect(),
        respawn: false,
        ..fast_spec()
    };
    let router = Server::start_router(router_config(), spec).unwrap();
    let addr = router.addr();
    wait_ready(addr);

    // The router's readiness echoes the workers' per-model load state.
    let (status, body) = client::get_text(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("ready"), "{body:?}");
    assert!(body.contains("model demo quantized_layers=0"), "{body:?}");

    // Served-vs-offline stays bitwise identical *through the proxy*, on a
    // pipelined keep-alive connection.
    let mut cli = Client::new(addr.to_string());
    for s in 0..16 {
        let (_, req) = design(100 + s);
        let expected = offline_reference(&model, &req);
        assert_matches_offline(&cli.predict(&req).unwrap(), &expected);
    }

    // Both shards took traffic (the hash spreads 16 distinct designs), and
    // the router's own series plus the aggregated worker counters render.
    poll_metrics(addr, Duration::from_secs(10), |m| {
        metric(m, "lmmir_router_workers ") == Some(2.0)
            && metric(m, "lmmir_router_workers_live ") == Some(2.0)
            && metric(m, "lmmir_shard_dispatch_total{shard=\"0\"} ").unwrap_or(0.0) > 0.0
            && metric(m, "lmmir_shard_dispatch_total{shard=\"1\"} ").unwrap_or(0.0) > 0.0
            && metric(m, "lmmir_workers_requests_total ").unwrap_or(0.0) >= 16.0
    });

    // POST /reload on the router reloads every worker: overwrite the
    // shared checkpoint, reload, and predictions flip to the new weights.
    let next = iredge(SIZE, 12);
    save_predictor(&next, &path).unwrap();
    let (status, body) = client::request(addr, "POST", "/reload", &[]).unwrap();
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("reloaded 1 model"), "{body}");
    for s in 0..4 {
        let (_, req) = design(100 + s);
        let expected = offline_reference(&next, &req);
        assert_matches_offline(
            &predict_retry(addr, &req, Duration::from_secs(15)),
            &expected,
        );
    }

    router.stop();
    for w in workers {
        w.stop();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn killing_a_worker_under_load_loses_no_request() {
    let model = iredge(SIZE, 21);
    let path = tmp("failover.lmmt");
    save_predictor(&model, &path).unwrap();
    let mut workers: Vec<Option<Server>> = (0..3)
        .map(|_| Some(Server::start(worker_config(), RegistrySpec::single("demo", &path)).unwrap()))
        .collect();
    let spec = RouterSpec {
        attach: workers
            .iter()
            .map(|w| w.as_ref().unwrap().addr().to_string())
            .collect(),
        fail_threshold: 2,
        respawn: false,
        ..fast_spec()
    };
    let router = Server::start_router(router_config(), spec).unwrap();
    let addr = router.addr();
    wait_ready(addr);

    let designs: Vec<PredictRequest> = (0..8).map(|s| design(200 + s).1).collect();
    let expected: Vec<_> = designs
        .iter()
        .map(|r| offline_reference(&model, r))
        .collect();
    let designs = Arc::new(designs);
    let expected = Arc::new(expected);

    // Pipelined keep-alive load that spans the kill: every accepted
    // request must succeed — the forwarder retries a dead shard's request
    // on the next live candidate, so nothing is lost to a survivor.
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(3));
    let mut threads = Vec::new();
    for t in 0..2usize {
        let designs = Arc::clone(&designs);
        let expected = Arc::clone(&expected);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        threads.push(std::thread::spawn(move || {
            let mut cli = Client::new(addr.to_string());
            start.wait();
            let mut served = 0usize;
            let mut i = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let which = (t + i) % designs.len();
                i += 1;
                let resp = cli.predict(&designs[which]).unwrap();
                assert_matches_offline(&resp, &expected[which]);
                served += 1;
            }
            served
        }));
    }
    start.wait();
    std::thread::sleep(Duration::from_millis(150));
    // Kill shard 0 mid-run (graceful stop: in-flight answers finish, then
    // the listener is gone and new proxied requests hit a dead socket).
    workers[0].take().unwrap().stop();

    // The supervisor evicts it (forwarder errors count as extra strikes)
    // while the survivors keep serving.
    poll_metrics(addr, Duration::from_secs(30), |m| {
        metric(m, "lmmir_router_evictions_total ").unwrap_or(0.0) >= 1.0
            && metric(m, "lmmir_router_workers_live ") == Some(2.0)
    });
    stop.store(true, Ordering::SeqCst);
    let mut total = 0usize;
    for t in threads {
        total += t.join().expect("load thread failed a request");
    }
    assert!(total > 0, "load threads never got a request through");

    // Degraded, not down: the router still reports ready, and *every*
    // design — including the evicted shard's re-hashed range — still
    // answers bitwise identically.
    let (status, body) = client::get_text(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("ready"), "{body:?}");
    for (req, exp) in designs.iter().zip(expected.iter()) {
        assert_matches_offline(&client::predict(addr, req).unwrap(), exp);
    }

    router.stop();
    for w in workers.into_iter().flatten() {
        w.stop();
    }
    std::fs::remove_file(&path).ok();
}

/// A hand-rolled worker stub: real HTTP over the crate's own parser, with
/// a switchable `/healthz` (ready ↔ 503 reloading) and a predict counter —
/// the deterministic fixture for the drain-not-error test.
struct FakeWorker {
    addr: String,
    reloading: Arc<AtomicBool>,
    predicts: Arc<AtomicU64>,
}

fn canned_frame() -> Vec<u8> {
    PredictResponse {
        width: 4,
        height: 4,
        threshold: 0.5,
        cache_hit: false,
        map: vec![0.25; 16],
        mask: vec![0; 16],
    }
    .encode()
}

fn fake_worker() -> FakeWorker {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let reloading = Arc::new(AtomicBool::new(false));
    let predicts = Arc::new(AtomicU64::new(0));
    {
        let reloading = Arc::clone(&reloading);
        let predicts = Arc::clone(&predicts);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let reloading = Arc::clone(&reloading);
                let predicts = Arc::clone(&predicts);
                std::thread::spawn(move || serve_fake(stream, &reloading, &predicts));
            }
        });
    }
    FakeWorker {
        addr,
        reloading,
        predicts,
    }
}

fn serve_fake(mut stream: TcpStream, reloading: &AtomicBool, predicts: &AtomicU64) {
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match http::parse_request(&buf) {
            Ok(http::Parsed::Ready { request, consumed }) => {
                buf.drain(..consumed);
                let close = request.close;
                let (status, body): (u16, Vec<u8>) = match request.target.as_str() {
                    "/healthz" if reloading.load(Ordering::SeqCst) => {
                        (503, b"reloading\n".to_vec())
                    }
                    "/healthz" => (200, b"ready\nmodel demo quantized_layers=0\n".to_vec()),
                    "/predict" => {
                        predicts.fetch_add(1, Ordering::SeqCst);
                        (200, canned_frame())
                    }
                    "/metrics" => (200, b"lmmir_requests_total 1\n".to_vec()),
                    _ => (404, b"nope\n".to_vec()),
                };
                if http::write_response(&mut stream, status, "text/plain", &body, close).is_err()
                    || close
                {
                    return;
                }
            }
            Ok(http::Parsed::Incomplete(_)) => match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            },
            Err(_) => return,
        }
    }
}

#[test]
fn reloading_worker_is_drained_not_evicted() {
    let fakes = [fake_worker(), fake_worker()];
    let spec = RouterSpec {
        attach: fakes.iter().map(|f| f.addr.clone()).collect(),
        respawn: false,
        ..fast_spec()
    };
    let router = Server::start_router(router_config(), spec).unwrap();
    let addr = router.addr();
    wait_ready(addr);

    // Find the shard owning this design's key.
    let (_, req) = design(400);
    let resp = client::predict(addr, &req).unwrap();
    assert_eq!(resp.width, 4, "answer must come from a fake worker");
    let home = usize::from(fakes[0].predicts.load(Ordering::SeqCst) == 0);
    assert_eq!(fakes[home].predicts.load(Ordering::SeqCst), 1);

    // Flip it to `503 reloading`: the supervisor takes it out of the ring
    // as *drained* — no strike, no eviction — and traffic for its range
    // flows to the survivor instead of erroring.
    fakes[home].reloading.store(true, Ordering::SeqCst);
    poll_metrics(addr, Duration::from_secs(15), |m| {
        metric(m, &format!("lmmir_shard_up{{shard=\"{home}\"}} ")) == Some(0.0)
            && metric(m, "lmmir_router_workers_live ") == Some(1.0)
    });
    let before = fakes[home].predicts.load(Ordering::SeqCst);
    for _ in 0..10 {
        let resp = client::predict(addr, &req).unwrap();
        assert_eq!(resp.width, 4);
    }
    assert_eq!(
        fakes[home].predicts.load(Ordering::SeqCst),
        before,
        "a drained worker must receive no predicts"
    );
    assert!(
        fakes[1 - home].predicts.load(Ordering::SeqCst) >= 10,
        "the survivor must have served the drained range"
    );
    // Degraded, not down — and *not* an eviction.
    let (status, body) = client::get_text(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("ready"), "{body:?}");
    let (_, m) = client::get_text(addr, "/metrics").unwrap();
    assert_eq!(
        metric(&m, "lmmir_router_evictions_total "),
        Some(0.0),
        "drain must not count as eviction:\n{m}"
    );

    // Reload finishes: the next `200` probe puts it straight back.
    fakes[home].reloading.store(false, Ordering::SeqCst);
    poll_metrics(addr, Duration::from_secs(15), |m| {
        metric(m, "lmmir_router_workers_live ") == Some(2.0)
    });

    router.stop();
}

#[test]
fn supervised_worker_respawns_after_a_kill() {
    let model = iredge(SIZE, 31);
    let path = tmp("respawn.lmmt");
    save_predictor(&model, &path).unwrap();
    let cmd = WorkerCmd {
        program: env!("CARGO_BIN_EXE_serve").into(),
        args: vec![
            "--ckpt".to_string(),
            format!("demo={}", path.display()),
            "--threads".to_string(),
            "1".to_string(),
            "--event-threads".to_string(),
            "1".to_string(),
        ],
    };
    let spec = RouterSpec {
        spawn: vec![cmd.clone(), cmd],
        fail_threshold: 1,
        respawn_backoff: Duration::from_millis(100),
        ..fast_spec()
    };
    let router = Server::start_router(router_config(), spec).unwrap();
    let addr = router.addr();
    wait_ready(addr);

    // Real processes serve the real checkpoint: parity holds end to end.
    let (_, req) = design(500);
    assert_matches_offline(
        &client::predict(addr, &req).unwrap(),
        &offline_reference(&model, &req),
    );

    // Kill worker 0 out from under the router (graceful exit via its own
    // /shutdown — the process is gone either way).
    let victims = router.worker_addrs();
    let (status, _) = client::request(victims[0].as_str(), "POST", "/shutdown", &[]).unwrap();
    assert_eq!(status, 200);

    // The supervisor evicts it and respawns it on the *same* address, so
    // the ring assignment is restored rather than reshuffled.
    poll_metrics(addr, Duration::from_secs(90), |m| {
        metric(m, "lmmir_router_respawns_total ").unwrap_or(0.0) >= 1.0
            && metric(m, "lmmir_router_workers_live ") == Some(2.0)
    });
    assert_eq!(
        router.worker_addrs(),
        victims,
        "respawn must keep addresses"
    );
    for s in 0..6 {
        let (_, req) = design(510 + s);
        assert_matches_offline(
            &predict_retry(addr, &req, Duration::from_secs(15)),
            &offline_reference(&model, &req),
        );
    }

    router.stop();
    std::fs::remove_file(&path).ok();
}
