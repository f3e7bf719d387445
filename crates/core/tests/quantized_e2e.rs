//! End-to-end int8 divergence guard: the quantized LMM-IR quick() model
//! must track the f32 model within a CI threshold on a real prediction
//! (features → forward → restore → hotspot mask), and `set_training(true)`
//! must restore the f32 path bit-exactly.

use lmm_ir::{InferenceSession, Layer, LmmIr, LmmIrConfig};
use lmmir_pdn::{CaseKind, CaseSpec};

/// Worst per-pixel divergence of the restored map, relative to the f32
/// map's peak. The untrained quick() model's small-init regression head
/// keeps the output peak tiny while the encoder activations the int8 error
/// accumulates over are orders of magnitude larger, so the worst pixel
/// lands around 15% of peak; a kernel regression (wrong scale, wrong
/// stats mode, stale weights) shows up as ≥100% and blows through this.
const CI_THRESHOLD: f32 = 0.25;

#[test]
fn int8_prediction_tracks_f32_within_ci_threshold() {
    let model = LmmIr::new(LmmIrConfig::quick());
    let case = CaseSpec::new("q8", 24, 24, 11, CaseKind::Hidden).generate();

    let session = InferenceSession::new(&model);
    let input = session
        .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
        .unwrap();
    let exact = session.predict(&input).unwrap();

    let layers = model.quantize();
    assert!(
        layers > 20,
        "quick() LMM-IR has dozens of quantizable layers, got {layers}"
    );
    let quant = session.predict(&input).unwrap();

    let peak = exact.map.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    assert!(peak > 0.0, "degenerate f32 prediction");
    let worst = exact
        .map
        .data()
        .iter()
        .zip(quant.map.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        worst > 0.0,
        "int8 and f32 bitwise identical — quantization did not engage"
    );
    assert!(
        worst < CI_THRESHOLD * peak,
        "int8 diverged by {worst} against an f32 peak of {peak} \
         (threshold {CI_THRESHOLD})"
    );

    // Flipping back to training discards every int8 weight: the forward
    // pass must again produce the f32 bits.
    model.set_training(true);
    model.set_training(false);
    let restored = session.predict(&input).unwrap();
    assert_eq!(
        restored.map.data(),
        exact.map.data(),
        "set_training(true) must drop the int8 state bit-exactly"
    );
}
