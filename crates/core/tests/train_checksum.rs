//! Bitwise oracle for training, the twin of `forward_checksum.rs`: a short
//! LMM-IR training run on two 16 µm designs pins
//!
//! * every epoch's mean loss (pre-training and fine-tuning), bit for bit;
//! * the FNV-1a over every parameter and every BatchNorm buffer after the
//!   run — what the optimizer wrote and what an eval forward reads.
//!
//! The LNT budget (80 points, windows of 32) gives three chunks with a
//! short last one, and the fusion cross-attention runs on every step, so
//! both attention configurations are differentiated. The run is repeated
//! at one and at two threads; both must give the pinned values. A kernel,
//! autograd or optimizer change that reorders any arithmetic on the
//! training path moves the hash.

use lmm_ir::{build_sample, train, Layer, LmmIr, LmmIrConfig, LntConfig, Sample, TrainConfig};
use lmmir_features::Fnv1a;
use lmmir_pdn::{CaseKind, CaseSpec};

/// `f32::to_bits` of the per-epoch losses: one pre-training epoch, then
/// the fine-tuning epochs.
const PRETRAIN_LOSS_BITS: [u32; 1] = [0x3f80_608c];
const LOSS_BITS: [u32; 2] = [0x3dbe_10a9, 0x3dbb_161f];
/// FNV-1a over every parameter, then every buffer, after training.
const STATE_HASH: u64 = 0x2a70_bdea_3041_6c05;

const SIZE: usize = 16;
const MAX_POINTS: usize = 80;
const CHUNK: usize = 32;
// Several windows, the last one short.
const _: () = assert!(MAX_POINTS % CHUNK != 0 && MAX_POINTS / CHUNK >= 2);

fn samples() -> Vec<Sample> {
    [(1, CaseKind::Fake), (2, CaseKind::Real)]
        .into_iter()
        .map(|(seed, kind)| {
            build_sample(
                &CaseSpec::new(format!("pin{seed}"), 16, 16, seed, kind),
                SIZE,
            )
            .unwrap()
        })
        .collect()
}

fn model() -> LmmIr {
    LmmIr::new(LmmIrConfig {
        widths: vec![4, 8],
        input_size: SIZE,
        lnt: LntConfig {
            d_model: 8,
            heads: 2,
            layers: 1,
            max_points: MAX_POINTS,
            chunk: CHUNK,
            ff_mult: 2,
        },
        ..LmmIrConfig::quick()
    })
}

/// `(pre-training loss bits, fine-tuning loss bits, state hash)`.
fn run(samples: &[Sample]) -> (Vec<u32>, Vec<u32>, u64) {
    let model = model();
    let cfg = TrainConfig {
        epochs: LOSS_BITS.len(),
        pretrain_epochs: PRETRAIN_LOSS_BITS.len(),
        batch: 2,
        oversample: (1, 1),
        ..TrainConfig::quick()
    };
    let report = train(&model, samples, &cfg).unwrap();
    let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    let mut h = Fnv1a::new();
    for p in model.parameters() {
        p.value().data().iter().for_each(|&v| h.write_f32(v));
    }
    for b in model.buffers() {
        let b = b.read().unwrap();
        b.data().iter().for_each(|&v| h.write_f32(v));
    }
    (
        bits(&report.pretrain_losses),
        bits(&report.losses),
        h.finish(),
    )
}

#[test]
fn training_run_is_pinned_across_threads() {
    let samples = samples();
    for s in &samples {
        let points = s.cloud.len();
        assert!(
            points > MAX_POINTS,
            "{points} points do not fill the LNT budget"
        );
    }
    for threads in [1, 2] {
        let (pretrain, losses, state) = lmmir_par::with_threads(threads, || run(&samples));
        assert_eq!(
            pretrain, PRETRAIN_LOSS_BITS,
            "pre-training losses at {threads} threads: {pretrain:#010x?}"
        );
        assert_eq!(
            losses, LOSS_BITS,
            "fine-tuning losses at {threads} threads: {losses:#010x?}"
        );
        assert_eq!(
            state, STATE_HASH,
            "parameters and buffers at {threads} threads: {state:#018x}"
        );
    }
}
