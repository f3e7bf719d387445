//! Regenerates Fig. 5: IR-drop map visualizations on testcase10.
//!
//! Trains IREDGe, IRPnet and LMM-IR, predicts testcase10's IR map and dumps
//! ground truth plus all three predictions as PGM images and CSV rasters to
//! `bench_out/fig5/`.

use lmm_ir::{f1_score, mae, train, ArchSpec};
use lmmir_bench::Harness;
use lmmir_features::io::{save_csv, save_pgm};
use std::path::PathBuf;

fn main() {
    let h = Harness::from_env();
    let out_dir = PathBuf::from("bench_out/fig5");
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    eprintln!("[fig5] generating data...");
    let train_set = h
        .build_training()
        .expect("training set generates and solves");
    let hidden = h.build_hidden().expect("hidden suite generates and solves");
    let sample = hidden
        .iter()
        .find(|s| s.id == "testcase10")
        .expect("hidden suite contains testcase10");

    save_pgm(out_dir.join("ground_truth.pgm"), &sample.truth).expect("write gt pgm");
    save_csv(out_dir.join("ground_truth.csv"), &sample.truth).expect("write gt csv");
    println!(
        "Fig. 5 reproduction on {} ({}x{}): files in {}",
        sample.id,
        sample.truth.width(),
        sample.truth.height(),
        out_dir.display()
    );

    let header = format!(
        "{:<10} {:>8} {:>10} {:>24}",
        "Model", "F1", "MAE(e-4)", "files"
    );
    lmmir_bench::rule(&header);
    println!("{header}");
    lmmir_bench::rule(&header);
    for arch in [ArchSpec::Iredge, ArchSpec::IrpNet, ArchSpec::LmmIr] {
        let model = h.build_model(arch);
        train(model.as_ref(), &train_set, &h.train).expect("training succeeds");
        let images = sample.images_for(model.input_channels());
        let cloud = model.uses_netlist().then_some(&sample.cloud);
        let pred = model
            .forward(&images, cloud)
            .expect("forward succeeds")
            .to_tensor();
        let restored = sample.restore_prediction(&pred);
        let slug = arch.name().to_lowercase().replace(' ', "_");
        save_pgm(out_dir.join(format!("{slug}.pgm")), &restored).expect("write pgm");
        save_csv(out_dir.join(format!("{slug}.csv")), &restored).expect("write csv");
        println!(
            "{:<10} {:>8.2} {:>10.2} {:>24}",
            arch.name(),
            f1_score(&restored, &sample.truth),
            mae(&restored, &sample.truth) * 1e4,
            format!("{slug}.pgm/.csv"),
        );
    }
    lmmir_bench::rule(&header);
    println!("View the PGM files with any image viewer; brighter = larger IR drop.");
}
