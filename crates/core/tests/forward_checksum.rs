//! One-line bitwise oracle for the whole model: the raw prediction of an
//! LMM-IR `quick()` forward at 32 px on a 64 µm design (the shape the
//! end-to-end benchmark serves) hashes to one pinned value at every thread
//! count and on both the lazy and the eager runtime. A kernel PR that
//! reorders any arithmetic anywhere in `tensor`/`nn`/`core` moves it.

use lmm_ir::{InferenceSession, IrPredictor, LmmIr, LmmIrConfig};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_tensor::lazy;

/// FNV-1a over the prediction's f32 bit patterns, taken at the parent of
/// the PR that added this test (odometer broadcast, 2^18 fork threshold)
/// and unchanged by it.
const PINNED: u64 = 0x1534_5119_eea5_0f1a;

fn forward_checksum() -> u64 {
    let model = LmmIr::new(LmmIrConfig {
        input_size: 32,
        ..LmmIrConfig::quick()
    });
    model.set_training(false);
    let case = CaseSpec::new("checksum", 64, 64, 5, CaseKind::Hidden).generate();
    let session = InferenceSession::new(&model);
    let input = session
        .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
        .unwrap();
    let (pred, _) = session.forward(&input).unwrap();
    assert_eq!(pred.dims(), &[1, 1, 32, 32]);
    pred.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

#[test]
fn forward_checksum_is_pinned_across_threads_and_runtimes() {
    for threads in [1, 2, 4] {
        let got = lmmir_par::with_threads(threads, forward_checksum);
        assert_eq!(got, PINNED, "{got:#018x} at {threads} threads (lazy)");
    }
    let got = lazy::with_eager(forward_checksum);
    assert_eq!(got, PINNED, "{got:#018x} on the eager runtime");
}
