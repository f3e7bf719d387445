//! Keep-alive, pipelining, result-cache and full-config serving tests:
//! persistent connections with sequential and pipelined requests, idle
//! timeout and per-connection cap enforcement, reload invalidation of the
//! result cache, and end-to-end serving of a full-config (non-`quick()`)
//! LMM-IR checkpoint with bitwise parity to the offline inference path.

use lmm_ir::{iredge, save_predictor, InferenceSession, IrPredictor, LmmIr, LmmIrConfig};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_serve::{
    client, prepare_request, Client, PredictRequest, RegistrySpec, ServeConfig, Server,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SIZE: usize = 16;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lmmir_serve_ka");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch: 4,
        threads: Some(2),
        // Short idle timeout so a forgotten open connection cannot stall
        // the drain for the default 10 s.
        idle_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    }
}

fn design(seed: u64) -> PredictRequest {
    let case = CaseSpec::new(format!("k{seed}"), SIZE, SIZE, seed, CaseKind::Hidden).generate();
    PredictRequest::from_case(&case)
}

fn offline(model: &dyn IrPredictor, req: &PredictRequest) -> (Vec<u32>, Vec<u8>, u32) {
    let session = InferenceSession::new(model);
    let input = prepare_request(session.spec(), req).unwrap();
    let pred = session.predict(&input).unwrap();
    (
        pred.map.data().iter().map(|v| v.to_bits()).collect(),
        pred.mask,
        pred.threshold.to_bits(),
    )
}

/// Reads one raw HTTP response off a buffered stream: status, the
/// `Connection` header value, and the body.
fn read_raw(reader: &mut BufReader<TcpStream>) -> Option<(u16, String, Vec<u8>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    if status_line.is_empty() {
        return None; // EOF: server closed
    }
    let status: u16 = status_line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let mut connection = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_string();
            }
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, connection, body))
}

#[test]
fn keepalive_connection_serves_sequential_predicts_with_result_cache() {
    let model = iredge(SIZE, 61);
    let path = tmp("ka_seq.lmmt");
    save_predictor(&model, &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();

    let req = design(1);
    let expected = offline(&model, &req);
    let mut cli = Client::new(addr.to_string());
    assert!(!cli.is_connected());
    for _ in 0..4 {
        let resp = cli.predict(&req).unwrap();
        let bits: Vec<u32> = resp.map.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected.0, "served map must match offline bitwise");
        assert_eq!(resp.mask, expected.1);
        assert_eq!(resp.threshold.to_bits(), expected.2);
        assert!(cli.is_connected(), "server must keep the connection open");
    }
    let metrics = server.metrics();
    assert_eq!(
        metrics
            .connections_total
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "four predicts over one connection"
    );
    assert!(
        metrics
            .keepalive_reuses_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 3
    );
    // Requests 2..4 were answered by the result cache on the handler
    // thread; only the first reached an inference lane.
    assert!(
        metrics
            .result_cache_hits_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 3,
        "{}",
        metrics.render()
    );
    assert!(metrics.result_cache_hit_rate() > 0.0);
    drop(cli); // close our connection so the drain does not wait it out
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let path = tmp("ka_pipe.lmmt");
    save_predictor(&iredge(SIZE, 62), &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("m", &path)).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // Two requests in one write: the second must be framed correctly after
    // the first (exact Content-Length handling), and both answered in order.
    writer
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let (status, conn, body) = read_raw(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(b"ready"), "healthz body: {body:?}");
    assert!(conn.eq_ignore_ascii_case("keep-alive"), "got {conn:?}");
    let (status, conn, body) = read_raw(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("lmmir_requests_total"));
    assert!(conn.eq_ignore_ascii_case("close"), "got {conn:?}");
    // The server honoured close: the stream ends.
    assert!(read_raw(&mut reader).is_none());
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_second_pipelined_request_gets_400_then_close() {
    let path = tmp("ka_mal.lmmt");
    save_predictor(&iredge(SIZE, 63), &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("m", &path)).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\nTOTAL GARBAGE\r\n\r\n")
        .unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_raw(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(b"ready"), "healthz body: {body:?}");
    // The malformed follow-up is answered with 400 and the connection
    // closes — bytes after a parse failure cannot be framed reliably.
    let (status, conn, _) = read_raw(&mut reader).unwrap();
    assert_eq!(status, 400);
    assert!(conn.eq_ignore_ascii_case("close"));
    assert!(
        read_raw(&mut reader).is_none(),
        "server must close after 400"
    );
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn idle_timeout_disconnects_even_mid_header() {
    let path = tmp("ka_idle.lmmt");
    save_predictor(&iredge(SIZE, 64), &path).unwrap();
    let cfg = ServeConfig {
        idle_timeout: Duration::from_millis(150),
        ..config()
    };
    let server = Server::start(cfg, RegistrySpec::single("m", &path)).unwrap();

    // A peer that opens a connection, sends *half a request line*, and
    // stalls: the server must drop it after the idle timeout without a
    // response (nothing useful can be said to a stalled peer).
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"GET /hea").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let n = reader.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "stalled mid-header connection must close silently");

    // And a connection idling *between* requests closes too.
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let (status, conn, _) = read_raw(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert!(conn.eq_ignore_ascii_case("keep-alive"));
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        read_raw(&mut reader).is_none(),
        "idle keep-alive connection must be dropped after the timeout"
    );
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn connection_close_honored_after_max_requests_per_conn() {
    let path = tmp("ka_cap.lmmt");
    save_predictor(&iredge(SIZE, 65), &path).unwrap();
    let cfg = ServeConfig {
        max_requests_per_conn: 2,
        ..config()
    };
    let server = Server::start(cfg, RegistrySpec::single("m", &path)).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (_, conn, _) = read_raw(&mut reader).unwrap();
    assert!(conn.eq_ignore_ascii_case("keep-alive"), "request 1 of 2");
    writer.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (_, conn, _) = read_raw(&mut reader).unwrap();
    assert!(
        conn.eq_ignore_ascii_case("close"),
        "request 2 hits the cap; got {conn:?}"
    );
    assert!(read_raw(&mut reader).is_none(), "server closes at the cap");

    // The keep-alive client rides through the cap by reconnecting.
    let mut cli = Client::new(server.addr().to_string());
    for _ in 0..5 {
        let (status, _) = cli.request("GET", "/healthz", &[]).unwrap();
        assert_eq!(status, 200);
    }
    let metrics = server.metrics();
    assert!(
        metrics
            .connections_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 3,
        "5 capped client requests need ≥ 3 connections: {}",
        metrics.render()
    );
    drop(cli);
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn reload_atomically_invalidates_result_cache() {
    let path = tmp("ka_reload.lmmt");
    save_predictor(&iredge(SIZE, 1), &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();

    let req = design(7);
    let mut cli = Client::new(addr.to_string());
    // Populate the result cache and verify it serves hits.
    let before = cli.predict(&req).unwrap();
    let _cached = cli.predict(&req).unwrap();
    let metrics = server.metrics();
    assert!(
        metrics
            .result_cache_hits_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // Swap weights on disk and reload: a stale cached prediction must not
    // survive — the very next predict reflects the new weights.
    save_predictor(&iredge(SIZE, 2), &path).unwrap();
    let (status, _) = cli.request("POST", "/reload", &[]).unwrap();
    assert_eq!(status, 200);
    let after = cli.predict(&req).unwrap();
    let expected = offline(&iredge(SIZE, 2), &req);
    let bits: Vec<u32> = after.map.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, expected.0, "post-reload predict must use new weights");
    assert_ne!(
        before.map.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        bits,
        "stale cached prediction survived the reload"
    );
    drop(cli);
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_config_lmmir_checkpoint_serves_with_offline_parity() {
    // A deliberately non-quick() architecture: different widths and no
    // attention gates. Format v3 records the full config, so the registry
    // rebuilds this exact model — under the v2 format this checkpoint
    // was unservable (the registry assumed quick() widths).
    let cfg = LmmIrConfig {
        widths: vec![4, 8],
        use_attention_gates: false,
        input_size: SIZE,
        ..LmmIrConfig::quick()
    };
    assert_ne!(cfg.widths, LmmIrConfig::quick().widths);
    let model = LmmIr::new(cfg);
    let path = tmp("ka_v3.lmmt");
    save_predictor(&model, &path).unwrap();

    let server = Server::start(config(), RegistrySpec::single("big", &path)).unwrap();
    let req = design(11);
    // InferenceSession is the exact code path `pipeline::evaluate` scores
    // with, so parity here is parity with the offline evaluation pipeline.
    let expected = offline(&model, &req);
    let mut cli = Client::new(server.addr().to_string());
    for _ in 0..2 {
        let resp = cli.predict(&req).unwrap();
        let bits: Vec<u32> = resp.map.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected.0, "served v3 LMM-IR drifted from offline");
        assert_eq!(resp.mask, expected.1);
        assert_eq!(resp.threshold.to_bits(), expected.2);
    }
    // The second query was a pure result-cache lookup.
    assert!(
        server
            .metrics()
            .result_cache_hits_total
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    drop(cli);
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn one_shot_close_clients_still_work() {
    // The pre-keep-alive client behaviour (Connection: close per request)
    // must keep working — curl-style consumers rely on it.
    let path = tmp("ka_oneshot.lmmt");
    save_predictor(&iredge(SIZE, 66), &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();
    let (status, body) = client::get_text(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("ready"), "healthz body: {body:?}");
    let req = design(3);
    let resp = client::predict(addr, &req).unwrap();
    assert_eq!(resp.width as usize, SIZE);
    server.stop();
    std::fs::remove_file(&path).ok();
}
