//! Model-zoo comparison: every static registry variant trained and scored
//! on one identical dataset.
//!
//! The variant list is **derived from the architecture enumeration**
//! (`ArchSpec::ALL`), not maintained here: a registry variant added to core
//! shows up in this comparison automatically. Each variant is built through
//! `lmm_ir::build_predictor` — the same constructor serving uses — then
//! trained, evaluated (MAE / CC / F1 / inference latency) on the hidden
//! suite, and round-tripped through a checkpoint + `ModelRegistry` load to
//! assert it serves: same weights and, bitwise, the same eval prediction on
//! the first hidden case. `DynIR` is skipped (and logged): it trains on
//! per-window vector workloads, not the static dataset this comparison
//! holds fixed.
//!
//! ```text
//! models [--json PATH]
//! ```
//!
//! Honours the harness environment overrides (`LMMIR_SCALE`,
//! `LMMIR_INPUT`, `LMMIR_EPOCHS`, `LMMIR_FAKE`, `LMMIR_REAL`,
//! `LMMIR_SEED`). `--json` writes a machine-readable record that CI merges
//! into the committed `BENCH_models.json`.

use lmm_ir::{
    cc, mae, restore_prediction, save_predictor, train, ArchSpec, CheckpointMeta, FeatureSet,
    InferenceSession, IrPredictor, Sample,
};
use lmmir_bench::Harness;
use lmmir_serve::{ModelRegistry, RegistrySpec};
use std::process::ExitCode;
use std::time::Instant;

/// Scores for one variant.
struct Row {
    arch: ArchSpec,
    mae_e4: f64,
    cc: f64,
    f1: f64,
    train_s: f64,
    infer_ms: f64,
}

/// Evaluates a trained model on the hidden suite: averaged MAE (×1e-4 V),
/// Pearson CC, F1 and per-case forward latency.
fn score(model: &dyn IrPredictor, hidden: &[Sample]) -> Result<(f64, f64, f64, f64), String> {
    let session = InferenceSession::new(model);
    let (mut m, mut c, mut f, mut tat) = (0.0, 0.0, 0.0, 0.0);
    for sample in hidden {
        let prepared = session.prepare_sample(sample);
        let (pred, seconds) = session
            .forward(&prepared)
            .map_err(|e| format!("forward failed on {}: {e}", sample.id))?;
        let restored = restore_prediction(prepared.info, &pred);
        m += mae(&restored, &sample.truth) * 1e4;
        c += cc(&restored, &sample.truth);
        f += lmm_ir::f1_score(&restored, &sample.truth);
        tat += seconds;
    }
    let n = hidden.len().max(1) as f64;
    Ok((m / n, c / n, f / n, tat / n * 1e3))
}

/// Saves the trained variant and loads it back through the serving
/// registry, asserting a bitwise weight restore *and* a bitwise eval
/// prediction on `probe` — "trains" is only half the guard; the checkpoint
/// must also serve the model that trained (weights alone pass when state
/// such as BatchNorm running statistics is dropped).
fn assert_serves(model: &dyn IrPredictor, arch: ArchSpec, probe: &Sample) -> Result<(), String> {
    let dir = std::env::temp_dir().join("lmmir_bench_models");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}.lmmt", arch.name().replace(' ', "_")));
    save_predictor(model, &path).map_err(|e| format!("save: {e}"))?;
    let reg = ModelRegistry::load(RegistrySpec::single("m", &path))
        .map_err(|e| format!("registry load: {e}"))?;
    std::fs::remove_file(&path).ok();
    let loaded = reg.resolve("m").ok_or("model not resolvable")?;
    let (a, b) = (model.parameters(), loaded.model.parameters());
    if a.len() != b.len() {
        return Err(format!(
            "registry rebuilt {} with {} parameters, trained model has {}",
            arch.name(),
            b.len(),
            a.len()
        ));
    }
    for (x, y) in a.iter().zip(&b) {
        if x.value().data() != y.value().data() {
            return Err(format!("{}: weights drifted through serving", arch.name()));
        }
    }
    let predict = |m: &dyn IrPredictor| {
        let session = InferenceSession::new(m);
        let (pred, _) = session
            .forward(&session.prepare_sample(probe))
            .map_err(|e| format!("forward failed on {}: {e}", probe.id))?;
        Ok::<_, String>(pred.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
    };
    if predict(model)? != predict(loaded.model.as_ref())? {
        return Err(format!(
            "{}: the served prediction on {} differs from the trained model's",
            arch.name(),
            probe.id
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut json: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json = Some(p.clone()),
                None => {
                    eprintln!("models: --json wants a value");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("models: unknown flag {other}\nusage: models [--json PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let h = Harness::from_env();
    let size = h.lmm.input_size;
    eprintln!(
        "[models] scale {:.4}, input {size}, {} fake + {} real train cases, {} epochs",
        h.scale, h.n_fake, h.n_real, h.train.epochs
    );
    let t0 = Instant::now();
    let train_set = h
        .build_training()
        .expect("training set generates and solves");
    let hidden = h.build_hidden().expect("hidden suite generates and solves");
    eprintln!(
        "[models] dataset ready ({} train, {} hidden, {:.1}s)",
        train_set.len(),
        hidden.len(),
        t0.elapsed().as_secs_f64()
    );

    let Some(probe) = hidden.first() else {
        eprintln!("[models] the hidden suite is empty");
        return ExitCode::FAILURE;
    };

    let mut rows: Vec<Row> = Vec::new();
    for arch in ArchSpec::ALL {
        if arch.features() == FeatureSet::Windows {
            eprintln!(
                "[models] skipping {}: trains on per-window vector workloads, \
                 not this static dataset",
                arch.name()
            );
            continue;
        }
        let meta = CheckpointMeta {
            model: arch.name().to_string(),
            input_channels: arch.default_input_channels(),
            input_size: size,
            config: None,
        };
        let model = match lmm_ir::build_predictor(&meta) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("[models] {}: build failed: {e}", arch.name());
                return ExitCode::FAILURE;
            }
        };
        let t = Instant::now();
        if let Err(e) = train(model.as_ref(), &train_set, &h.train) {
            eprintln!("[models] {}: training failed: {e}", arch.name());
            return ExitCode::FAILURE;
        }
        let train_s = t.elapsed().as_secs_f64();
        let (mae_e4, cc, f1, infer_ms) = match score(model.as_ref(), &hidden) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[models] {}: {e}", arch.name());
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = assert_serves(model.as_ref(), arch, probe) {
            eprintln!("[models] {}: serving check failed: {e}", arch.name());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[models] {} trained {train_s:.1}s, MAE {mae_e4:.2}e-4, CC {cc:.3}, \
             F1 {f1:.2}, infer {infer_ms:.2} ms — serves",
            arch.name()
        );
        rows.push(Row {
            arch,
            mae_e4,
            cc,
            f1,
            train_s,
            infer_ms,
        });
    }

    println!("\nModel zoo comparison (measured, scaled reproduction).");
    let header = format!(
        "{:<12} | {:>8} | {:>6} | {:>6} | {:>8} | {:>9}",
        "Model", "MAE e-4", "CC", "F1", "train s", "infer ms"
    );
    lmmir_bench::rule(&header);
    println!("{header}");
    lmmir_bench::rule(&header);
    for r in &rows {
        println!(
            "{:<12} | {:>8.2} | {:>6.3} | {:>6.2} | {:>8.1} | {:>9.2}",
            r.arch.name(),
            r.mae_e4,
            r.cc,
            r.f1,
            r.train_s,
            r.infer_ms
        );
    }
    lmmir_bench::rule(&header);

    if let Some(path) = &json {
        // Hand-rolled JSON (no serde in the container); architecture names
        // contain no characters needing escape.
        let variants = rows
            .iter()
            .map(|r| {
                format!(
                    "    \"{}\": {{\"mae_e4\": {:.4}, \"cc\": {:.4}, \"f1\": {:.4}, \
                     \"train_s\": {:.2}, \"infer_ms\": {:.3}}}",
                    r.arch.name(),
                    r.mae_e4,
                    r.cc,
                    r.f1,
                    r.train_s,
                    r.infer_ms
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let record = format!(
            "{{\n  \"input_size\": {size},\n  \"epochs\": {},\n  \"train_cases\": {},\n  \
             \"hidden_cases\": {},\n  \"variants\": {{\n{variants}\n  }}\n}}\n",
            h.train.epochs,
            train_set.len(),
            hidden.len(),
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("[models] writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[models] wrote benchmark record to {path}");
    }
    ExitCode::SUCCESS
}
