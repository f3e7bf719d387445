//! End-to-end server tests: checkpoint → serve → predict round trips,
//! concurrent mixed-design load over 1, 2 and 4 inference lanes, bitwise
//! parity with the offline [`InferenceSession`], reload under load, admin
//! endpoints and graceful shutdown.

use lmm_ir::{iredge, save_predictor, InferenceSession, IrPredictor};
use lmmir_pdn::{Case, CaseKind, CaseSpec};
use lmmir_serve::{
    client, prepare_request, PredictRequest, PredictResponse, RegistrySpec, ServeConfig, Server,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIZE: usize = 16;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lmmir_serve_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(threads: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch,
        threads: Some(threads),
        ..ServeConfig::default()
    }
}

/// A generated design and its wire request.
fn design(seed: u64) -> (Case, PredictRequest) {
    let case = CaseSpec::new(format!("d{seed}"), SIZE, SIZE, seed, CaseKind::Hidden).generate();
    let req = PredictRequest::from_case(&case);
    (case, req)
}

/// The offline reference the server must match bitwise: the same request
/// payload through the same `InferenceSession` path.
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

#[test]
fn save_serve_predict_round_trip() {
    let model = iredge(SIZE, 41);
    let path = tmp("roundtrip.lmmt");
    save_predictor(&model, &path).unwrap();
    let server = Server::start(config(2, 4), RegistrySpec::single("demo", &path)).unwrap();
    let addr = server.addr();

    let (status, body) = client::get_text(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("ready"), "healthz body: {body:?}");
    assert!(
        body.contains("model demo\n"),
        "healthz reports per-model load state: {body:?}"
    );

    let (_, req) = design(1);
    let expected = offline_reference(&model, &req);
    let resp = client::predict(addr, &req).unwrap();
    assert_eq!((resp.width, resp.height), (SIZE as u32, SIZE as u32));
    assert_matches_offline(&resp, &expected);
    // The model field routes explicitly too.
    let mut named = req.clone();
    named.model = "demo".to_string();
    assert_matches_offline(&client::predict(addr, &named).unwrap(), &expected);

    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_mixed_load_is_bitwise_stable_across_thread_counts() {
    let model = iredge(SIZE, 42);
    let path = tmp("concurrent.lmmt");
    save_predictor(&model, &path).unwrap();

    // Three designs, one of them requested far more often than the others:
    // distinct designs run as concurrent forwards on different lanes,
    // repeats queued together share one.
    let designs: Vec<PredictRequest> = (0..3).map(|s| design(100 + s).1).collect();
    let expected: Vec<_> = designs
        .iter()
        .map(|r| offline_reference(&model, r))
        .collect();

    let mut responses_by_threads: Vec<Vec<PredictResponse>> = Vec::new();
    for threads in [1, 2, 4] {
        // Result cache off: every request reaches the lanes, which the
        // result cache would otherwise absorb.
        let cfg = ServeConfig {
            result_cache_capacity: 0,
            ..config(threads, 8)
        };
        let server = Server::start(cfg, RegistrySpec::single("m", &path)).unwrap();
        let addr = server.addr();
        let designs = Arc::new(designs.clone());
        let mut workers = Vec::new();
        for w in 0..6 {
            let designs = Arc::clone(&designs);
            workers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..4 {
                    // Worker/iteration pattern biases heavily to design 0.
                    let which = if (w + i) % 3 == 0 {
                        (w + i) % designs.len()
                    } else {
                        0
                    };
                    let resp = client::predict(addr, &designs[which]).unwrap();
                    got.push((which, resp));
                }
                got
            }));
        }
        let mut flat = vec![Vec::new(); designs.len()];
        for worker in workers {
            for (which, resp) in worker.join().unwrap() {
                assert_matches_offline(&resp, &expected[which]);
                flat[which].push(resp);
            }
        }
        let (_, text) = client::get_text(addr, "/metrics").unwrap();
        assert!(
            text.contains(&format!("lmmir_inference_lanes {threads}\n")),
            "one lane per thread:\n{text}"
        );
        responses_by_threads.push(flat.into_iter().flatten().collect());
        server.stop();
    }
    // Same payloads at 1, 2 and 4 inference lanes: identical bit patterns
    // (responses are already pinned to the offline reference above; this
    // asserts the references agree across servers too).
    for other in &responses_by_threads[1..] {
        assert_eq!(responses_by_threads[0].len(), other.len());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn reload_swaps_weights_and_metrics_report() {
    let path = tmp("reload.lmmt");
    save_predictor(&iredge(SIZE, 1), &path).unwrap();
    let server = Server::start(config(2, 4), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();

    let (_, req) = design(7);
    let before = client::predict(addr, &req).unwrap();
    assert_matches_offline(&before, &offline_reference(&iredge(SIZE, 1), &req));

    // Overwrite the checkpoint with different weights and reload.
    save_predictor(&iredge(SIZE, 2), &path).unwrap();
    let (status, body) = {
        let (s, b) = client::request(addr, "POST", "/reload", &[]).unwrap();
        (s, String::from_utf8_lossy(&b).into_owned())
    };
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("reloaded 1 model"), "{body}");

    let after = client::predict(addr, &req).unwrap();
    assert_matches_offline(&after, &offline_reference(&iredge(SIZE, 2), &req));
    assert_ne!(
        before.map.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        after.map.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "reload must change served weights"
    );

    let (status, text) = client::get_text(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    for key in [
        "lmmir_requests_total",
        "lmmir_predict_ok_total",
        "lmmir_batches_total",
        "lmmir_inference_lanes 2",
        "lmmir_reloads_total 1",
        "lmmir_models_loaded 1",
        "lmmir_predict_latency_seconds_count",
    ] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }
    server.stop();
    std::fs::remove_file(&path).ok();
}

struct StopOnExit<'a>(&'a std::sync::atomic::AtomicBool);

impl Drop for StopOnExit<'_> {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

/// `POST /reload` while every lane is busy: the reload waits for the
/// forwards in flight (it needs the registry's write lock), so each reply
/// is entirely the old weights' or entirely the new ones', and a request
/// sent after the reload returned is always answered by the new ones.
#[test]
fn reload_under_load_never_mixes_weights() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let path = tmp("reload_load.lmmt");
    let (old, new) = (iredge(SIZE, 71), iredge(SIZE, 72));
    let designs: Vec<PredictRequest> = (0..6).map(|s| design(200 + s).1).collect();
    let reference = |model: &dyn IrPredictor| -> Vec<_> {
        designs
            .iter()
            .map(|r| offline_reference(model, r))
            .collect()
    };
    let (expect_old, expect_new) = (reference(&old), reference(&new));
    for threads in [1, 2, 4] {
        save_predictor(&old, &path).unwrap();
        // Result cache off, so every request is a forward on some lane.
        let cfg = ServeConfig {
            result_cache_capacity: 0,
            ..config(threads, 8)
        };
        let server = Server::start(cfg, RegistrySpec::single("m", &path)).unwrap();
        let addr = server.addr();
        let (answered, reloaded, stop) = (
            AtomicUsize::new(0),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        std::thread::scope(|scope| {
            for (which, request) in designs.iter().enumerate() {
                let (answered, reloaded, stop) = (&answered, &reloaded, &stop);
                let (expect_old, expect_new) = (&expect_old[which], &expect_new[which]);
                scope.spawn(move || {
                    let same = |resp: &PredictResponse, want: &(Vec<f32>, Vec<u8>, f32)| {
                        resp.map
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(want.0.iter().map(|v| v.to_bits()))
                            && resp.mask == want.1
                            && resp.threshold.to_bits() == want.2.to_bits()
                    };
                    // A failed assertion here must end the test, not leave
                    // the main thread waiting for replies that never come.
                    let _stop_on_exit = StopOnExit(stop);
                    while !stop.load(Ordering::SeqCst) {
                        let sent_after_reload = reloaded.load(Ordering::SeqCst);
                        let resp = client::predict(addr, request).unwrap();
                        if sent_after_reload {
                            assert_matches_offline(&resp, expect_new);
                        } else {
                            assert!(
                                same(&resp, expect_old) || same(&resp, expect_new),
                                "design {which}: a reply is neither model's output"
                            );
                        }
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // Reload once the load is flowing, stop once it has flowed on.
            let wait_for = |n: usize| {
                while answered.load(Ordering::SeqCst) < n && !stop.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            };
            wait_for(12);
            save_predictor(&new, &path).unwrap();
            let (status, _) = client::request(addr, "POST", "/reload", &[]).unwrap();
            assert_eq!(status, 200);
            reloaded.store(true, Ordering::SeqCst);
            wait_for(answered.load(Ordering::SeqCst) + 18);
            stop.store(true, Ordering::SeqCst);
        });
        server.stop();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn request_errors_are_client_visible() {
    let path = tmp("errors.lmmt");
    save_predictor(&iredge(SIZE, 5), &path).unwrap();
    let server = Server::start(config(1, 2), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();

    // Unknown endpoint and malformed predict body.
    let (status, _) = client::get_text(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(addr, "POST", "/predict", b"garbage").unwrap();
    assert_eq!(status, 400);

    // Unknown model name: decoded error frame names the loaded models.
    let (_, mut req) = design(9);
    req.model = "resnet".to_string();
    let err = client::predict(addr, &req).unwrap_err().to_string();
    assert!(err.contains("unknown model") && err.contains('m'), "{err}");

    // A 3-channel model without a netlist: prep error reaches the client.
    let (_, mut req) = design(10);
    req.netlist = None;
    let err = client::predict(addr, &req).unwrap_err().to_string();
    assert!(err.contains("netlist"), "{err}");

    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_huge_netlist_token_gets_a_small_error_reply() {
    let path = tmp("huge_token.lmmt");
    save_predictor(&iredge(SIZE, 6), &path).unwrap();
    let server = Server::start(config(1, 2), RegistrySpec::single("m", &path)).unwrap();
    // One 8 MiB node token: the 422 quotes an excerpt of it, not all of it.
    let (_, mut req) = design(12);
    req.netlist = Some(format!("R1 n{} 0 1.0\n", "x".repeat(8 << 20)));
    let (status, body) = client::request(server.addr(), "POST", "/predict", &req.encode()).unwrap();
    assert_eq!(status, 422);
    assert!(body.len() < 1024, "{} bytes", body.len());
    let err = PredictResponse::decode(&body).unwrap_err().to_string();
    assert!(err.contains("malformed node name"), "{err}");
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn watch_checkpoints_hot_reloads_on_mtime_change() {
    let path = tmp("watch.lmmt");
    save_predictor(&iredge(SIZE, 61), &path).unwrap();
    let cfg = ServeConfig {
        watch_checkpoints: true,
        watch_interval: Duration::from_millis(100),
        ..config(1, 2)
    };
    let server = Server::start(cfg, RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();

    let (_, req) = design(61);
    assert_matches_offline(
        &client::predict(addr, &req).unwrap(),
        &offline_reference(&iredge(SIZE, 61), &req),
    );

    // Overwrite the checkpoint on disk; the watcher must pick the change
    // up by mtime and hot-reload without any POST /reload.
    std::thread::sleep(Duration::from_millis(20));
    save_predictor(&iredge(SIZE, 62), &path).unwrap();
    let expected = offline_reference(&iredge(SIZE, 62), &req);
    let want: Vec<u32> = expected.0.iter().map(|v| v.to_bits()).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = client::predict(addr, &req).unwrap();
        let got: Vec<u32> = resp.map.iter().map(|v| v.to_bits()).collect();
        if got == want {
            // Not just changed — bitwise what a fresh load would serve,
            // through both (cleared) caches.
            assert_matches_offline(&resp, &expected);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never picked up the new checkpoint"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_, text) = client::get_text(addr, "/metrics").unwrap();
    let reloads = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("lmmir_reloads_total ")?
                .trim()
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0);
    assert!(reloads >= 1, "watch reload must count in /metrics:\n{text}");
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn shutdown_endpoint_drains_and_exits() {
    let path = tmp("shutdown.lmmt");
    save_predictor(&iredge(SIZE, 3), &path).unwrap();
    let server = Server::start(config(1, 2), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();
    let (status, _) = client::request(addr, "POST", "/shutdown", &[]).unwrap();
    assert_eq!(status, 200);
    // wait() returns because the acceptor saw the flag and drained.
    server.wait();
    // The listener is gone: new connections are refused (or time out).
    std::thread::sleep(Duration::from_millis(50));
    assert!(client::get_text(addr, "/healthz").is_err());
    std::fs::remove_file(&path).ok();
}
