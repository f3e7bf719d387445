//! Quickstart: the full LMM-IR flow on one tiny generated design.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a small PDN benchmark, runs the golden IR solver for ground
//! truth, trains a miniature LMM-IR for a few epochs and reports the
//! prediction quality.

use lmm_ir::{
    build_sample, evaluate, train, IrPredictor, Layer, LmmIr, LmmIrConfig, LntConfig, TrainConfig,
};
use lmmir_pdn::{CaseKind, CaseSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate training and evaluation designs (32×32 µm chips).
    println!("generating PDN benchmarks and golden IR solutions...");
    let input_size = 32;
    let train_specs: Vec<CaseSpec> = (0..8)
        .map(|i| {
            let kind = if i < 6 {
                CaseKind::Fake
            } else {
                CaseKind::Real
            };
            CaseSpec::new(format!("train{i}"), 32, 32, 100 + i, kind)
        })
        .collect();
    let train_set: Vec<_> = train_specs
        .iter()
        .map(|s| build_sample(s, input_size))
        .collect::<Result<_, _>>()?;
    let eval_set = vec![build_sample(
        &CaseSpec::new("eval", 32, 32, 999, CaseKind::Hidden),
        input_size,
    )?];
    println!(
        "  {} training cases, eval case has {} nodes (golden solve {:.2}s)",
        train_set.len(),
        eval_set[0].nodes,
        eval_set[0].golden_seconds
    );

    // 2. Build a miniature LMM-IR.
    let cfg = LmmIrConfig {
        widths: vec![8, 16],
        input_size,
        lnt: LntConfig {
            d_model: 16,
            heads: 2,
            layers: 1,
            max_points: 128,
            chunk: 128,
            ff_mult: 2,
        },
        ..LmmIrConfig::quick()
    };
    let model = LmmIr::new(cfg);
    println!(
        "model: {} ({} parameter tensors, multimodal = {})",
        model.name(),
        model.parameters().len(),
        model.uses_netlist()
    );

    // 3. Train (two-stage: reconstruction pre-train, then IR fine-tune).
    let tcfg = TrainConfig {
        epochs: 25,
        pretrain_epochs: 2,
        oversample: (1, 2),
        ..TrainConfig::quick()
    };
    println!(
        "training {} epochs (+{} pre-train)...",
        tcfg.epochs, tcfg.pretrain_epochs
    );
    let report = train(&model, &train_set, &tcfg)?;
    println!(
        "  fine-tune loss: first {:.5} -> last {:.5}",
        report.losses.first().copied().unwrap_or(f32::NAN),
        report.final_loss()
    );

    // 4. Evaluate on the held-out case.
    let rows = evaluate(&model, &eval_set)?;
    let r = &rows[0];
    println!(
        "eval {}: F1@90% = {:.2}, MAE = {:.2}e-4 V, TAT = {:.3}s (golden: {:.2}s)",
        r.id, r.f1, r.mae_e4, r.tat, eval_set[0].golden_seconds
    );
    println!(
        "speed-up over golden solver: {:.0}x",
        eval_set[0].golden_seconds / r.tat
    );
    Ok(())
}
