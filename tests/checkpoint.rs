//! Checkpointing across crates: a model's state dict round-trips through
//! the binary tensor format and restores identical predictions.

use lmm_ir::{build_sample, IrPredictor, LmmIr, LmmIrConfig, LntConfig};
use lmmir_nn::{load_state_dict, state_dict};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_tensor::io;

fn tiny_cfg(seed: u64) -> LmmIrConfig {
    LmmIrConfig {
        widths: vec![4, 8],
        input_size: 16,
        seed,
        lnt: LntConfig {
            d_model: 8,
            heads: 2,
            layers: 1,
            max_points: 64,
            chunk: 64,
            ff_mult: 2,
        },
        ..LmmIrConfig::quick()
    }
}

#[test]
fn checkpoint_round_trip_restores_predictions() {
    let sample = build_sample(&CaseSpec::new("c", 16, 16, 5, CaseKind::Fake), 16).unwrap();
    let original = LmmIr::new(tiny_cfg(1));
    let images = sample.images_for(6);
    let expected = original
        .forward(&images, Some(&sample.cloud))
        .unwrap()
        .to_tensor();

    // Save to disk.
    let dir = std::env::temp_dir().join("lmmir_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.lmmt");
    io::save(&path, &state_dict(&original)).unwrap();

    // A *differently seeded* model restores the checkpoint exactly.
    let restored = LmmIr::new(tiny_cfg(2));
    let before = restored
        .forward(&images, Some(&sample.cloud))
        .unwrap()
        .to_tensor();
    assert_ne!(before.data(), expected.data(), "different seeds differ");
    let entries = io::load(&path).unwrap();
    load_state_dict(&restored, &entries).unwrap();
    let after = restored
        .forward(&images, Some(&sample.cloud))
        .unwrap()
        .to_tensor();
    assert_eq!(after.data(), expected.data());
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_rejects_architecture_mismatch() {
    let small = LmmIr::new(tiny_cfg(1));
    let mut big_cfg = tiny_cfg(1);
    big_cfg.widths = vec![6, 12];
    let big = LmmIr::new(big_cfg);
    let entries = state_dict(&small);
    assert!(load_state_dict(&big, &entries).is_err());
}
