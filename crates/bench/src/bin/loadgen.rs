//! Load generator for the `lmmir-serve` inference server.
//!
//! Generates a handful of designs, hammers `POST /predict` from concurrent
//! client threads (repeating designs, so the result cache and the
//! shared-forward dedup engage), verifies responses are bitwise
//! self-consistent per design, and reports throughput plus the server's
//! own cache/batch metrics.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7878 [--requests 64] [--concurrency 4]
//!         [--connections N] [--designs 2] [--size 16] [--model NAME]
//!         [--mix NAME:W,NAME:W] [--windows N]
//!         [--no-verify] [--keep-alive] [--uniform] [--json PATH]
//! loadgen --emit-request PATH [--size 16] [--seed 0]   # write one body for curl
//! ```
//!
//! `--windows N` generates *dynamic* designs: every request carries N
//! per-window power maps (its envelope in the static power field), so the
//! identical payload can be served by both model families. `--mix`
//! schedules requests across several served models by weight (e.g.
//! `--mix static:1,dyn:1` alternates); responses are verified
//! self-consistent per `(model, design)` pair, and `--uniform` keeps
//! rotating the designs within each model.
//!
//! Three serving acceptance checks are driven from here: the batching win
//! (`--max-batch 1` vs `8` servers), the keep-alive win (`--keep-alive` vs
//! connection-per-request against the same server), and the
//! connection-scale guard (`--connections 128 --keep-alive` holds 128
//! persistent connections — one worker each — against the fixed event-loop
//! pool). `--json` writes the measured numbers as a machine-readable
//! benchmark record (CI uploads it as `BENCH_serve.json`).

use lmmir_pdn::{CaseKind, CaseSpec, DynamicCase};
use lmmir_serve::{client, Client, PredictRequest};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Options {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    /// Hold this many concurrent connections (one worker per connection),
    /// overriding `--concurrency`. Meant for `--keep-alive`: each worker
    /// keeps its one persistent connection open for the whole run.
    connections: Option<usize>,
    designs: usize,
    size: usize,
    seed: u64,
    model: String,
    emit_request: Option<String>,
    verify: bool,
    keep_alive: bool,
    /// Spread requests evenly over the designs (round-robin) instead of
    /// biasing design 0. The default bias exercises caches and dedup; the
    /// uniform spread keeps every (model, design) group equally loaded,
    /// as the mixed-family smoke needs to compare families fairly.
    uniform: bool,
    json: Option<String>,
    /// Weighted model schedule (`--mix NAME:W,NAME:W`); empty means every
    /// request goes to `--model` (or the server default).
    mix: Vec<(String, usize)>,
    /// Per-window power maps per design; 0 generates static designs.
    windows: usize,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            addr: None,
            requests: 64,
            concurrency: 4,
            connections: None,
            designs: 2,
            size: 16,
            seed: 0,
            model: String::new(),
            emit_request: None,
            verify: true,
            keep_alive: false,
            uniform: false,
            json: None,
            mix: Vec::new(),
            windows: 0,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} wants a value"))
            };
            match a.as_str() {
                "--addr" => o.addr = Some(value("addr")?),
                "--requests" => o.requests = parse(&value("requests")?)?,
                "--concurrency" => o.concurrency = parse(&value("concurrency")?)?,
                "--connections" => o.connections = Some(parse(&value("connections")?)?),
                "--designs" => o.designs = parse(&value("designs")?)?,
                "--size" => o.size = parse(&value("size")?)?,
                "--seed" => o.seed = parse(&value("seed")?)?,
                "--model" => o.model = value("model")?,
                "--emit-request" => o.emit_request = Some(value("emit-request")?),
                "--no-verify" => o.verify = false,
                "--keep-alive" => o.keep_alive = true,
                "--uniform" => o.uniform = true,
                "--json" => o.json = Some(value("json")?),
                "--mix" => o.mix = parse_mix(&value("mix")?)?,
                "--windows" => o.windows = parse(&value("windows")?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if o.designs == 0 || o.concurrency == 0 || o.requests == 0 || o.connections == Some(0) {
            return Err("counts must be positive".to_string());
        }
        if !o.mix.is_empty() && !o.model.is_empty() {
            return Err("--mix replaces --model; give every name a weight instead".to_string());
        }
        Ok(o)
    }
}

/// Parses `NAME:W,NAME:W` into a weighted model list.
fn parse_mix(v: &str) -> Result<Vec<(String, usize)>, String> {
    let mut mix = Vec::new();
    for part in v.split(',') {
        let (name, weight) = part
            .split_once(':')
            .ok_or_else(|| format!("--mix entry {part:?} is not NAME:WEIGHT"))?;
        let weight: usize = parse(weight.trim())?;
        if weight == 0 {
            return Err(format!("--mix weight for {name:?} must be positive"));
        }
        mix.push((name.trim().to_string(), weight));
    }
    Ok(mix)
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid number {v:?}"))
}

/// The model names this run addresses and the weighted request schedule
/// over them (request `i` goes to `models[schedule[i % len]]`). Without
/// `--mix` there is one model — possibly the server default — and a
/// one-entry schedule.
fn model_schedule(o: &Options) -> (Vec<String>, Vec<usize>) {
    if o.mix.is_empty() {
        return (vec![o.model.clone()], vec![0]);
    }
    let models: Vec<String> = o.mix.iter().map(|(name, _)| name.clone()).collect();
    let mut schedule = Vec::new();
    for (mi, (_, weight)) in o.mix.iter().enumerate() {
        schedule.extend(std::iter::repeat_n(mi, *weight));
    }
    (models, schedule)
}

/// One request per `(model, design)` pair, indexed `mi * designs + which`:
/// every model sees the same designs, so a mixed run compares families on
/// identical payloads (dynamic designs carry their envelope in the static
/// power field).
fn build_requests(o: &Options, models: &[String]) -> Vec<PredictRequest> {
    let base: Vec<PredictRequest> = (0..o.designs)
        .map(|i| {
            let id = format!("loadgen{i}");
            let spec = CaseSpec::new(&id, o.size, o.size, o.seed + i as u64, CaseKind::Hidden);
            if o.windows > 0 {
                PredictRequest::from_dynamic_case(&DynamicCase::generate(&spec, o.windows))
            } else {
                PredictRequest::from_case(&spec.generate())
            }
        })
        .collect();
    models
        .iter()
        .flat_map(|model| {
            base.iter().map(move |req| {
                let mut req = req.clone();
                req.model = model.clone();
                req
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadgen: {e}");
            eprintln!(
                "usage: loadgen --addr HOST:PORT [--requests N] [--concurrency N] \
                 [--connections N] [--designs N] [--size N] [--seed N] [--model NAME] \
                 [--mix NAME:W,NAME:W] [--windows N] \
                 [--no-verify] [--keep-alive] [--uniform] [--json PATH]\n   \
                 or: loadgen --emit-request PATH [--size N] [--seed N] [--model NAME] \
                 [--windows N]"
            );
            return ExitCode::from(2);
        }
    };

    let (models, schedule) = model_schedule(&o);
    let requests = build_requests(&o, &models);

    if let Some(path) = &o.emit_request {
        let body = requests[0].encode();
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("loadgen: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[loadgen] wrote {path}: predict body for design 'loadgen0' \
             ({}×{}, {} bytes) — curl --data-binary @{path} http://ADDR/predict",
            o.size,
            o.size,
            body.len()
        );
        return ExitCode::SUCCESS;
    }
    let Some(addr) = o.addr.clone() else {
        eprintln!("loadgen: --addr is required (or --emit-request)");
        return ExitCode::from(2);
    };

    // loadgen cannot read the server's checkpoint, so verification checks
    // *self-consistency*: every response for a `(model, design)` pair must
    // be bitwise identical across clients, batches and cache hits. Full
    // parity against the offline `InferenceSession` is pinned by the serve
    // test suite.
    let reference: Vec<std::sync::Mutex<Option<Vec<u32>>>> = (0..requests.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();

    let requests = Arc::new(requests);
    let reference = Arc::new(reference);
    let schedule = Arc::new(schedule);
    let next = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    // --connections N holds N concurrent connections by running one worker
    // per connection; otherwise --concurrency sets the worker count.
    let worker_count = o.connections.unwrap_or(o.concurrency);
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for _ in 0..worker_count {
        let requests = Arc::clone(&requests);
        let reference = Arc::clone(&reference);
        let schedule = Arc::clone(&schedule);
        let next = Arc::clone(&next);
        let errors = Arc::clone(&errors);
        let addr = addr.clone();
        let verify = o.verify;
        let keep_alive = o.keep_alive;
        let uniform = o.uniform;
        let total = o.requests;
        let designs = o.designs;
        workers.push(std::thread::spawn(move || {
            // Keep-alive mode: one persistent connection per worker, every
            // request after the first reuses it. Otherwise each request
            // opens (and the server closes) its own connection.
            let mut persistent = keep_alive.then(|| Client::new(addr.clone()));
            let mut latencies = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    return latencies;
                }
                // Uniform mode rotates through all designs *within each
                // model*, so every (model, design) group is equally
                // loaded. Default biases design 0 so the
                // repeated-design path dominates, while every fourth
                // request rotates through the others. The weighted mix
                // schedule then picks which model this request addresses.
                let design = if uniform {
                    i % designs
                } else if i % 4 == 0 {
                    (i / 4) % designs
                } else {
                    0
                };
                let which = schedule[i % schedule.len()] * designs + design;
                let t = Instant::now();
                let outcome = match &mut persistent {
                    Some(cli) => cli.predict(&requests[which]),
                    None => client::predict(&addr, &requests[which]),
                };
                match outcome {
                    Ok(resp) => {
                        latencies.push(t.elapsed().as_secs_f64());
                        if verify {
                            let bits: Vec<u32> = resp.map.iter().map(|v| v.to_bits()).collect();
                            let mut slot = reference[which].lock().unwrap();
                            match slot.as_ref() {
                                None => *slot = Some(bits),
                                Some(prev) if *prev == bits => {}
                                Some(_) => {
                                    eprintln!(
                                        "[loadgen] response drift on design {design} \
                                         (model {:?})!",
                                        requests[which].model
                                    );
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("[loadgen] request failed: {e}");
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("worker panicked"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let errors = errors.load(Ordering::Relaxed);
    let done = latencies.len();
    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let i = ((latencies.len() as f64 * q) as usize).min(latencies.len() - 1);
            latencies[i] * 1e3
        }
    };
    let rate = done as f64 / elapsed;
    let result = format!(
        "[loadgen] {done}/{} ok ({errors} errors) in {elapsed:.2}s → {rate:.1} req/s \
         (latency ms: p50 {:.2}, p99 {:.2}){}{}",
        o.requests,
        pct(0.50),
        pct(0.99),
        if o.keep_alive { " [keep-alive]" } else { "" },
        match o.connections {
            Some(n) => format!(" [{n} connections]"),
            None => String::new(),
        },
    );
    let metrics = client::get_text(&addr, "/metrics").map_or_else(
        |e| {
            eprintln!("[loadgen] metrics fetch failed: {e}");
            String::new()
        },
        |(_, text)| text,
    );
    match print_report(&mut std::io::stdout().lock(), &result, &metrics) {
        // A reader that stops early (`loadgen … | head -1`) has what it
        // wanted: the rest of the run goes on as if it had read it all.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("[loadgen] writing stdout: {e}");
            return ExitCode::FAILURE;
        }
        _ => {}
    }
    let result_hit_rate = metrics
        .lines()
        .find_map(|line| line.strip_prefix("lmmir_result_cache_hit_rate "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    if let Some(path) = &o.json {
        // Hand-rolled JSON (no serde in the container); every field is a
        // number or bool, so escaping is a non-issue.
        // `concurrency` records the worker count that actually ran, which
        // --connections overrides (one worker per held connection).
        let record = format!(
            "{{\n  \"requests\": {},\n  \"ok\": {done},\n  \"errors\": {errors},\n  \
             \"concurrency\": {worker_count},\n  \"connections\": {worker_count},\n  \
             \"designs\": {},\n  \"size\": {},\n  \"windows\": {},\n  \"mix\": {},\n  \
             \"keep_alive\": {},\n  \"elapsed_s\": {elapsed:.4},\n  \
             \"req_per_s\": {rate:.2},\n  \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \
             \"result_cache_hit_rate\": {}\n}}\n",
            o.requests,
            o.designs,
            o.size,
            o.windows,
            mix_json(&o.mix),
            o.keep_alive,
            pct(0.50),
            pct(0.99),
            json_num(result_hit_rate),
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("[loadgen] writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[loadgen] wrote benchmark record to {path}");
    }
    if errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Writes the result line, then the server's cache, batch and dedup
/// series out of its `/metrics` text.
fn print_report(out: &mut impl Write, result: &str, metrics: &str) -> std::io::Result<()> {
    writeln!(out, "{result}")?;
    for line in metrics.lines() {
        if line.contains("cache") || line.contains("batch") || line.contains("dedup") {
            writeln!(out, "[loadgen] server {line}")?;
        }
    }
    out.flush()
}

/// The mix as a JSON string (`"static:1,dyn:1"`), or null without `--mix`.
/// Names come from our own flag; the only characters needing escape in a
/// JSON string are still handled.
fn mix_json(mix: &[(String, usize)]) -> String {
    if mix.is_empty() {
        return "null".to_string();
    }
    let joined = mix
        .iter()
        .map(|(name, weight)| format!("{name}:{weight}"))
        .collect::<Vec<_>>()
        .join(",");
    format!("\"{}\"", joined.replace('\\', "\\\\").replace('"', "\\\""))
}

/// JSON has no NaN; an unavailable rate serializes as null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// Takes `room` bytes, then fails as a closed pipe does.
    struct ClosedAfter {
        room: usize,
        got: Vec<u8>,
    }

    impl Write for ClosedAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const METRICS: &str = "lmmir_requests_total 9\nlmmir_result_cache_hit_rate 0.5\n";

    #[test]
    fn report_prints_the_result_then_the_cache_series() {
        let mut out = ClosedAfter {
            room: usize::MAX,
            got: Vec::new(),
        };
        print_report(&mut out, "[loadgen] 9/9 ok", METRICS).unwrap();
        assert_eq!(
            String::from_utf8(out.got).unwrap(),
            "[loadgen] 9/9 ok\n[loadgen] server lmmir_result_cache_hit_rate 0.5\n"
        );
    }

    #[test]
    fn a_closed_stdout_is_an_error_not_a_panic() {
        // Closed before anything, and after the result line (`| head -1`).
        for room in [0, "[loadgen] 9/9 ok\n".len()] {
            let mut out = ClosedAfter {
                room,
                got: Vec::new(),
            };
            let err = print_report(&mut out, "[loadgen] 9/9 ok", METRICS).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "room {room}");
        }
    }
}
