//! End-to-end serving walkthrough: train a small model, save a checkpoint,
//! start the batched inference server in-process, and query it
//! programmatically — the same exchange `serve`/`loadgen` speak over the
//! wire.
//!
//! ```sh
//! cargo run --release --example serve_client
//! ```

use lmm_ir_repro::model::{build_sample, iredge, save_predictor, train, TrainConfig};
use lmm_ir_repro::pdn::{CaseKind, CaseSpec};
use lmm_ir_repro::serve::{client, Client, PredictRequest, RegistrySpec, ServeConfig, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SIZE: usize = 16;

    // 1. Train a small IREDGe on two generated cases and checkpoint it.
    let model = iredge(SIZE, 7);
    let samples = vec![
        build_sample(&CaseSpec::new("t0", SIZE, SIZE, 1, CaseKind::Fake), SIZE)?,
        build_sample(&CaseSpec::new("t1", SIZE, SIZE, 2, CaseKind::Fake), SIZE)?,
    ];
    let cfg = TrainConfig {
        epochs: 3,
        pretrain_epochs: 0,
        oversample: (1, 1),
        ..TrainConfig::quick()
    };
    train(&model, &samples, &cfg)?;
    let ckpt = std::env::temp_dir().join("lmmir_serve_client_example.lmmt");
    save_predictor(&model, &ckpt)?;
    println!("checkpoint: {}", ckpt.display());

    // 2. Serve it on an ephemeral port (2 inference lanes, dedup window of 8).
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: Some(2),
            ..ServeConfig::default()
        },
        RegistrySpec::single("demo", &ckpt),
    )?;
    let addr = server.addr();
    println!("serving on http://{addr}");

    // 3. Query it over one persistent keep-alive connection: a fresh
    //    hidden-style design, power map + netlist. Round 0 runs a forward
    //    pass; later rounds are served straight from the result cache.
    let case = CaseSpec::new("query", SIZE, SIZE, 99, CaseKind::Hidden).generate();
    let request = PredictRequest::from_case(&case);
    let mut cli = Client::new(addr.to_string());
    for round in 0..3 {
        let t0 = std::time::Instant::now();
        let resp = cli.predict(&request)?;
        let worst = resp.map.iter().cloned().fold(0.0f32, f32::max);
        let hotspots: usize = resp.mask.iter().map(|&m| usize::from(m)).sum();
        println!(
            "round {round}: {}×{} map in {:.1} ms — worst drop {:.2} mV, \
             {hotspots} hotspot px over {:.2} mV",
            resp.width,
            resp.height,
            t0.elapsed().as_secs_f64() * 1e3,
            worst * 1e3,
            resp.threshold * 1e3,
        );
    }
    drop(cli); // close the keep-alive connection before draining

    // 4. Peek at the server's own counters, then shut down gracefully.
    let (_, metrics) = client::get_text(addr, "/metrics")?;
    let interesting = metrics
        .lines()
        .filter(|l| l.contains("cache") || l.contains("batch"))
        .collect::<Vec<_>>()
        .join("\n");
    println!("{interesting}");
    server.stop();
    std::fs::remove_file(&ckpt).ok();
    Ok(())
}
