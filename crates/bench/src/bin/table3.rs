//! Regenerates Table III: the main comparison against the state of the art.
//!
//! Trains every model column (contest 1st/2nd place, IREDGe, IRPnet, ours)
//! on an identical generated training set and evaluates on the ten hidden
//! testcases, reporting F1 / MAE(×1e-4 V) / TAT(s) per case plus the Avg
//! and Ratio rows, side by side with the paper's numbers.

use lmm_ir::{average, evaluate, train, ArchSpec, CaseMetrics};
use lmmir_bench::{Harness, PAPER_TABLE3_AVG, TABLE3_COLUMNS};
use std::time::Instant;

fn main() {
    // Column heading: the paper prints its own model as "Ours".
    let label = |arch| match arch {
        ArchSpec::LmmIr => "Ours",
        other => other.name(),
    };
    let h = Harness::from_env();
    eprintln!(
        "[table3] scale {:.4}, input {}, {} fake + {} real train cases, {} epochs",
        h.scale, h.lmm.input_size, h.n_fake, h.n_real, h.train.epochs
    );
    let t0 = Instant::now();
    let train_set = h
        .build_training()
        .expect("training set generates and solves");
    eprintln!(
        "[table3] training set ready ({} cases, {:.1}s)",
        train_set.len(),
        t0.elapsed().as_secs_f64()
    );
    let t1 = Instant::now();
    let hidden = h.build_hidden().expect("hidden suite generates and solves");
    let golden_total: f64 = hidden.iter().map(|s| s.golden_seconds).sum();
    eprintln!(
        "[table3] hidden suite ready ({} cases, {:.1}s; golden solves {:.1}s)",
        hidden.len(),
        t1.elapsed().as_secs_f64(),
        golden_total
    );

    let mut columns: Vec<Vec<CaseMetrics>> = Vec::new();
    for arch in TABLE3_COLUMNS {
        let model = h.build_model(arch);
        let t = Instant::now();
        train(model.as_ref(), &train_set, &h.train).expect("training succeeds");
        eprintln!(
            "[table3] {} trained in {:.1}s",
            label(arch),
            t.elapsed().as_secs_f64()
        );
        let rows = evaluate(model.as_ref(), &hidden).expect("evaluation succeeds");
        columns.push(rows);
    }

    // ---- print ----
    println!("\nTable III: Comparison with state of the arts (measured, scaled reproduction).");
    let mut header = format!("{:<12}", "Circuits");
    for arch in TABLE3_COLUMNS {
        header += &format!(" | {:^22}", label(arch));
    }
    lmmir_bench::rule(&header);
    println!("{header}");
    let mut sub = format!("{:<12}", "");
    for _ in 0..5 {
        sub += &format!(" | {:>6} {:>7} {:>7}", "F1", "MAE", "TAT");
    }
    println!("{sub}");
    lmmir_bench::rule(&header);
    for case_ix in 0..hidden.len() {
        let mut line = format!("{:<12}", hidden[case_ix].id);
        for rows in &columns {
            let r = &rows[case_ix];
            line += &format!(" | {:>6.2} {:>7.2} {:>7.3}", r.f1, r.mae_e4, r.tat);
        }
        println!("{line}");
    }
    lmmir_bench::rule(&header);
    let avgs: Vec<CaseMetrics> = columns.iter().map(|rows| average(rows)).collect();
    let mut line = format!("{:<12}", "Avg");
    for a in &avgs {
        line += &format!(" | {:>6.2} {:>7.2} {:>7.3}", a.f1, a.mae_e4, a.tat);
    }
    println!("{line}");
    // Ratio row: column / Ours (same convention as the paper).
    let ours = avgs.last().expect("five columns");
    let mut line = format!("{:<12}", "Ratio");
    for a in &avgs {
        let f1r = if ours.f1 > 0.0 { a.f1 / ours.f1 } else { 0.0 };
        let maer = if ours.mae_e4 > 0.0 {
            a.mae_e4 / ours.mae_e4
        } else {
            0.0
        };
        let tatr = if ours.tat > 0.0 {
            a.tat / ours.tat
        } else {
            0.0
        };
        line += &format!(" | {:>6.2} {:>7.2} {:>7.3}", f1r, maer, tatr);
    }
    println!("{line}");
    lmmir_bench::rule(&header);

    println!("\nPaper Table III Avg row, for reference (absolute values are not");
    println!("expected to match: different hardware, data scale and substrate):");
    let mut line = format!("{:<12}", "Paper Avg");
    for (f1, mae, tat) in PAPER_TABLE3_AVG {
        line += &format!(" | {f1:>6.2} {mae:>7.2} {tat:>7.3}");
    }
    println!("{line}");

    // Shape checks the reproduction is expected to satisfy.
    println!("\nShape checks:");
    let ours_f1 = ours.f1;
    let best_other_f1 = avgs[..4].iter().map(|a| a.f1).fold(0.0, f64::max);
    println!(
        "  ours has best avg F1: {} (ours {:.2} vs best baseline {:.2})",
        if ours_f1 >= best_other_f1 {
            "PASS"
        } else {
            "FAIL"
        },
        ours_f1,
        best_other_f1
    );
    let ours_mae = ours.mae_e4;
    let best_other_mae = avgs[..4]
        .iter()
        .map(|a| a.mae_e4)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  ours has lowest avg MAE: {} (ours {:.2} vs best baseline {:.2})",
        if ours_mae <= best_other_mae {
            "PASS"
        } else {
            "FAIL"
        },
        ours_mae,
        best_other_mae
    );
    let iredge_f1 = avgs[2].f1;
    println!(
        "  IREDGe far behind ours on F1: {} ({:.2} vs {:.2})",
        if iredge_f1 < 0.6 * ours_f1 {
            "PASS"
        } else {
            "FAIL"
        },
        iredge_f1,
        ours_f1
    );
    let first_tat = avgs[0].tat;
    println!(
        "  1st place slowest (TAT {:.2}s vs ours {:.2}s): {}",
        first_tat,
        ours.tat,
        if first_tat > ours.tat { "PASS" } else { "FAIL" }
    );
    let golden_avg = golden_total / hidden.len() as f64;
    println!(
        "  inference beats golden solver: {} (golden avg {:.2}s vs ours {:.2}s)",
        if ours.tat < golden_avg {
            "PASS"
        } else {
            "FAIL"
        },
        golden_avg,
        ours.tat
    );
}
