//! PDN fixing loop: use a trained predictor to sweep what-if pad insertions
//! and validate the best suggestion against the golden solver.
//!
//! ```bash
//! cargo run --release --example pdn_fix
//! ```
//!
//! This is the workflow the paper's introduction motivates: IR mitigation
//! "demands iterative analysis", and a fast predictor turns each iteration
//! from a full solve into one inference.

use lmm_ir::{build_sample, suggest_pad_fixes, train, LmmIr, LmmIrConfig, LntConfig, TrainConfig};
use lmmir_features::check_budget;
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_solver::solve_ir_drop;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input_size = 32;
    // 1. Train a small predictor.
    println!("training a small LMM-IR on 6 generated designs...");
    let train_set: Vec<_> = (0..6)
        .map(|i| {
            build_sample(
                &CaseSpec::new(format!("t{i}"), 32, 32, 700 + i, CaseKind::Real),
                input_size,
            )
        })
        .collect::<Result<_, _>>()?;
    let model = LmmIr::new(LmmIrConfig {
        widths: vec![8, 16],
        input_size,
        lnt: LntConfig {
            d_model: 16,
            heads: 2,
            layers: 1,
            max_points: 192,
            chunk: 96,
            ff_mult: 2,
        },
        ..LmmIrConfig::quick()
    });
    train(
        &model,
        &train_set,
        &TrainConfig {
            epochs: 10,
            pretrain_epochs: 1,
            oversample: (0, 1),
            ..TrainConfig::quick()
        },
    )?;

    // 2. A pad-starved design with a violation.
    let victim = CaseSpec::new("victim", 32, 32, 4242, CaseKind::Real);
    let case = victim.generate();
    let ir = solve_ir_drop(&case.netlist)?;
    println!(
        "victim design: worst golden drop {:.2} mV ({} pads)",
        ir.worst_drop() * 1e3,
        case.netlist.stats().voltage_sources
    );
    let gt = lmmir_features::ir_drop_map(
        &ir,
        &case.netlist,
        case.power.width(),
        case.power.height(),
        case.tech.dbu_per_um,
    );
    let report = check_budget(&gt, case.tech.vdd as f32, 0.005);
    println!(
        "violations at 0.5% budget: {} regions, {} px total",
        report.regions.len(),
        report.total_area
    );

    // 3. Sweep candidate pads with the predictor (fast loop).
    println!("\nsweeping a 4x4 grid of candidate pad sites with the predictor...");
    let t0 = std::time::Instant::now();
    let fixes = suggest_pad_fixes(&victim, &model, 4)?;
    println!(
        "  16 what-ifs in {:.2}s ({:.0} ms each)",
        t0.elapsed().as_secs_f64(),
        t0.elapsed().as_secs_f64() * 1000.0 / 16.0
    );
    for f in fixes.iter().take(3) {
        println!(
            "  candidate ({:>4.1}, {:>4.1}) um -> predicted worst {:.2} mV",
            f.position_um.0,
            f.position_um.1,
            f.predicted_worst * 1e3
        );
    }

    // 4. Validate the best fix with one golden solve.
    let best = &fixes[0];
    let mut fixed_spec = victim.clone();
    fixed_spec.extra_pads.push(best.position_um);
    let fixed_ir = solve_ir_drop(&fixed_spec.generate().netlist)?;
    println!(
        "\ngolden validation of the best fix: worst drop {:.2} mV -> {:.2} mV",
        ir.worst_drop() * 1e3,
        fixed_ir.worst_drop() * 1e3
    );
    Ok(())
}
