//! Connection-scale tests for the event-loop connection layer: hundreds of
//! concurrent idle keep-alive connections on a fixed thread pool, bounded
//! per-connection bookkeeping (the old `JoinHandle` leak), and the
//! slow-body deadline.

use lmm_ir::{iredge, save_predictor, InferenceSession, IrPredictor};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_serve::{prepare_request, Client, PredictRequest, RegistrySpec, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SIZE: usize = 16;

/// The thread-count assertions compare before/after snapshots of the whole
/// test process, so the tests in this file must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lmmir_serve_scale");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch: 4,
        threads: Some(2),
        event_threads: 2,
        max_connections: 600,
        // Long enough that idle connections survive the whole test.
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

fn design(seed: u64) -> PredictRequest {
    let case = CaseSpec::new(format!("s{seed}"), SIZE, SIZE, seed, CaseKind::Hidden).generate();
    PredictRequest::from_case(&case)
}

/// Threads currently alive in this process (Linux). Thread-per-connection
/// would make this grow with the connection count; the event pool must not.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[cfg(not(target_os = "linux"))]
fn process_threads() -> usize {
    0 // unsupported: the assertions degrade to gauge-only checks
}

/// Reads one raw HTTP response; returns status and body.
fn read_raw(reader: &mut BufReader<TcpStream>) -> Option<(u16, Vec<u8>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    if status_line.is_empty() {
        return None;
    }
    let status: u16 = status_line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.trim_end().split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, body))
}

fn gauge(metrics: &lmmir_serve::Metrics, g: &std::sync::atomic::AtomicU64) -> u64 {
    let _ = metrics; // keep the call sites symmetric
    g.load(std::sync::atomic::Ordering::Relaxed)
}

/// Polls until `connections_open` drops to `at_most` (closed peers must
/// leave the bookkeeping promptly — the JoinHandle-leak regression).
fn wait_for_open_at_most(server: &Server, at_most: u64) {
    let metrics = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauge(&metrics, &metrics.connections_open) > at_most {
        assert!(
            Instant::now() < deadline,
            "connections_open stuck at {} (want <= {at_most}):\n{}",
            gauge(&metrics, &metrics.connections_open),
            metrics.render()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn hundreds_of_idle_keepalive_connections_on_a_fixed_thread_pool() {
    let _serial = SERIAL.lock().unwrap();
    // The acceptance bar: 500+ concurrent keep-alive peers on a fixed
    // event-loop pool (each held connection costs this test process two
    // descriptors, well within the runner's limit).
    const IDLE_CONNS: usize = 500;

    let model = iredge(SIZE, 91);
    let path = tmp("scale.lmmt");
    save_predictor(&model, &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();

    let threads_before = process_threads();

    // Hold IDLE_CONNS idle keep-alive connections open (one warm-up
    // exchange each so they are genuinely registered, then silence).
    let mut idle = Vec::with_capacity(IDLE_CONNS);
    for _ in 0..IDLE_CONNS {
        let mut cli = Client::new(addr.to_string());
        cli.warm().unwrap();
        idle.push(cli);
    }
    let (status, _) = idle[0].request("GET", "/healthz", &[]).unwrap();
    assert_eq!(status, 200);

    // Active traffic rides alongside the idle crowd: sequential predicts
    // on a persistent connection (exercising the park/wake path) plus a
    // raw pipelined burst, all while the IDLE_CONNS peers sit silent.
    let req = design(5);
    let session = InferenceSession::new(&model as &dyn IrPredictor);
    let input = prepare_request(session.spec(), &req).unwrap();
    let expected: Vec<u32> = session
        .predict(&input)
        .unwrap()
        .map
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let mut active = Client::new(addr.to_string());
    for _ in 0..4 {
        let resp = active.predict(&req).unwrap();
        let bits: Vec<u32> = resp.map.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected, "served-vs-offline parity under load");
    }
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              GET /metrics HTTP/1.1\r\n\r\n\
              GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut reader = BufReader::new(stream);
    for expected_status in [200, 200, 200] {
        let (status, _) = read_raw(&mut reader).unwrap();
        assert_eq!(status, expected_status, "pipelined burst under load");
    }

    let metrics = server.metrics();
    assert!(
        gauge(&metrics, &metrics.connections_open) >= IDLE_CONNS as u64,
        "all idle connections must be registered:\n{}",
        metrics.render()
    );
    assert_eq!(gauge(&metrics, &metrics.event_threads), 2);

    // The core claim: connection count does not buy threads. Allow a few
    // for unrelated runtime noise, but nothing within sight of IDLE_CONNS.
    if cfg!(target_os = "linux") {
        let threads_during = process_threads();
        assert!(
            threads_during <= threads_before + 8,
            "thread count grew with connections: {threads_before} -> {threads_during}"
        );
    }

    // Dropping the idle peers must shrink the bookkeeping back down.
    drop(idle);
    wait_for_open_at_most(&server, 2); // the active client may linger
    drop(active);
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_close_churn_leaves_no_bookkeeping_behind() {
    let _serial = SERIAL.lock().unwrap();
    let path = tmp("churn.lmmt");
    save_predictor(&iredge(SIZE, 92), &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("m", &path)).unwrap();
    let addr = server.addr();

    let threads_before = process_threads();
    for _ in 0..64 {
        let mut cli = Client::new(addr.to_string());
        let (status, _) = cli.request("GET", "/healthz", &[]).unwrap();
        assert_eq!(status, 200);
        // cli drops here, closing the connection.
    }
    // Every closed connection must leave `connections_open`; the old
    // accept loop kept a JoinHandle per connection until shutdown.
    wait_for_open_at_most(&server, 0);
    let metrics = server.metrics();
    assert!(gauge(&metrics, &metrics.connections_total) >= 64);
    if cfg!(target_os = "linux") {
        assert!(
            process_threads() <= threads_before + 4,
            "churn must not leak threads"
        );
    }
    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn slow_body_drip_gets_408_within_the_deadline() {
    let _serial = SERIAL.lock().unwrap();
    let path = tmp("drip.lmmt");
    save_predictor(&iredge(SIZE, 93), &path).unwrap();
    let cfg = ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..config()
    };
    let server = Server::start(cfg, RegistrySpec::single("m", &path)).unwrap();

    // Complete headers, then a body dripping one byte at a time: under the
    // old per-read timeout every byte reset the clock and the handler hung
    // for as long as the peer kept dripping. The body deadline is armed
    // once, when the head completes, so the drip is cut off.
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 1000\r\n\r\n")
        .unwrap();
    writer.flush().unwrap();
    let t0 = Instant::now();
    let done = std::thread::spawn(move || {
        // Drip slowly enough to outlive the deadline many times over; stop
        // once the server hangs up (write fails).
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(50));
            if writer.write_all(b"x").is_err() || writer.flush().is_err() {
                return;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let (status, body) = read_raw(&mut reader).expect("server must answer the drip");
    assert_eq!(
        status,
        408,
        "slow body must time out: {:?}",
        String::from_utf8_lossy(&body)
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "408 must arrive near the deadline, not after the drip ends"
    );
    // And the server closes the connection afterwards.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection must close after 408");
    done.join().unwrap();
    server.stop();
    std::fs::remove_file(&path).ok();
}
