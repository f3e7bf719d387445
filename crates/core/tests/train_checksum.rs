//! Bitwise oracle for training, the twin of `forward_checksum.rs`: one row
//! per [`ArchSpec`], each a short training run on two 16 µm designs that
//! pins
//!
//! * every epoch's mean loss (pre-training and fine-tuning), bit for bit;
//! * the FNV-1a over every parameter and every BatchNorm buffer after the
//!   run — what the optimizer wrote and what an eval forward reads.
//!
//! The models are the smallest plans that still reach every layer kind of
//! their family: one pooling stage (`Conv2d`, training-mode BN, max-pool,
//! `ConvTranspose2d`, concat), the contest winner's attention gates,
//! WACA-UNet's channel attention over the comprehensive stack, IRPnet's
//! flat CNN, DynIR's windows over one shared trunk, and LMM-IR's LNT and
//! fusion. Every run ends in Adam with gradient clipping.
//!
//! For LMM-IR the LNT budget (80 points, windows of 32) gives three chunks
//! with a short last one, and the fusion cross-attention runs on every
//! step, so both attention configurations are differentiated. Every run is
//! repeated at one and at two threads; both must give the pinned values. A
//! kernel, autograd or optimizer change that reorders any arithmetic on a
//! training path moves a hash.

use lmm_ir::{
    build_dynamic_sample, build_sample, train, ArchSpec, DynamicIrConfig, DynamicIrPredictor,
    IrPredictor, IrpNet, LmmIr, LmmIrConfig, LntConfig, Sample, TrainConfig, TrainSample,
    UNetConfig, UNetPredictor,
};
use lmmir_features::Fnv1a;
use lmmir_pdn::{CaseKind, CaseSpec};

/// One family's pins: `f32::to_bits` of the per-epoch losses (the
/// pre-training epochs, then the fine-tuning epochs; their lengths set the
/// epoch counts) and the FNV-1a over every parameter, then every buffer,
/// after training.
struct Pin {
    arch: ArchSpec,
    pretrain: &'static [u32],
    losses: &'static [u32],
    state: u64,
}

/// One row per family, in [`ArchSpec::ALL`] order. LMM-IR's row is the pin
/// this file held before it became a table. DynIR has no reconstruction
/// stage, so it runs its two epochs as fine-tuning.
#[rustfmt::skip]
const PINNED: [Pin; 8] = [
    Pin { arch: ArchSpec::Iredge, pretrain: &[0x3f81_38d2], losses: &[0x3db9_af18], state: 0x4c2b_bed5_3c5b_3206 },
    Pin { arch: ArchSpec::FirstPlace, pretrain: &[0x3f80_e29d], losses: &[0x3dfc_6e8a], state: 0xe1f9_5ec2_cbb4_d4df },
    Pin { arch: ArchSpec::SecondPlace, pretrain: &[0x3f82_253c], losses: &[0x3dcc_0a36], state: 0x49a3_736c_f42e_756e },
    Pin { arch: ArchSpec::IrpNet, pretrain: &[0x3f82_8f4d], losses: &[0x3de6_5d26], state: 0xd20b_c0d0_f858_3717 },
    Pin { arch: ArchSpec::LmmIr, pretrain: &[0x3f80_608c], losses: &[0x3dbe_10a9, 0x3dbb_161f], state: 0x2a70_bdea_3041_6c05 },
    Pin { arch: ArchSpec::DynIr, pretrain: &[], losses: &[0x3e05_ff05, 0x3e03_9b1a], state: 0x25e0_d710_088e_53c6 },
    Pin { arch: ArchSpec::CfirstNet, pretrain: &[0x3f7d_c9aa], losses: &[0x3dbe_1271], state: 0xa350_9377_7204_e4b4 },
    Pin { arch: ArchSpec::WacaUnet, pretrain: &[0x3f81_e570], losses: &[0x3df1_e5e0], state: 0xd5cf_a4aa_833a_1fb0 },
];

const SIZE: usize = 16;
/// The smallest U-Net plan: one pooling stage.
const WIDTHS: [usize; 2] = [4, 8];
const MAX_POINTS: usize = 80;
const CHUNK: usize = 32;
/// DynIR's window count.
const WINDOWS: usize = 2;
// Several windows, the last one short.
const _: () = assert!(MAX_POINTS % CHUNK != 0 && MAX_POINTS / CHUNK >= 2);

fn cases() -> [CaseSpec; 2] {
    [(1, CaseKind::Fake), (2, CaseKind::Real)]
        .map(|(seed, kind)| CaseSpec::new(format!("pin{seed}"), 16, 16, seed, kind))
}

fn model(arch: ArchSpec) -> Box<dyn IrPredictor> {
    match arch {
        ArchSpec::LmmIr => Box::new(LmmIr::new(LmmIrConfig {
            widths: WIDTHS.to_vec(),
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
        })),
        ArchSpec::IrpNet => Box::new(IrpNet::new(4, 2, SIZE, 0)),
        ArchSpec::DynIr => Box::new(DynamicIrPredictor::new(DynamicIrConfig {
            windows: WINDOWS,
            widths: WIDTHS.to_vec(),
            input_size: SIZE,
            ..DynamicIrConfig::quick()
        })),
        unet => Box::new(UNetPredictor::new(UNetConfig {
            widths: WIDTHS.to_vec(),
            input_size: SIZE,
            ..UNetConfig::quick(unet)
        })),
    }
}

/// `(pre-training loss bits, fine-tuning loss bits, state hash)`.
fn run<S: TrainSample>(pin: &Pin, samples: &[S]) -> (Vec<u32>, Vec<u32>, u64) {
    let model = model(pin.arch);
    let cfg = TrainConfig {
        epochs: pin.losses.len(),
        pretrain_epochs: pin.pretrain.len(),
        batch: 2,
        oversample: (1, 1),
        ..TrainConfig::quick()
    };
    let report = train(model.as_ref(), samples, &cfg).unwrap();
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
    assert_eq!(
        PINNED.map(|row| row.arch),
        ArchSpec::ALL,
        "one row per family"
    );
    let samples: Vec<Sample> = cases()
        .iter()
        .map(|c| build_sample(c, SIZE).unwrap())
        .collect();
    for s in &samples {
        let points = s.cloud.len();
        assert!(
            points > MAX_POINTS,
            "{points} points do not fill the LNT budget"
        );
    }
    let windows: Vec<_> = cases()
        .iter()
        .map(|c| build_dynamic_sample(c, WINDOWS, SIZE).unwrap())
        .collect();
    for pin in &PINNED {
        let name = pin.arch.name();
        for threads in [1, 2] {
            let (pretrain, losses, state) = lmmir_par::with_threads(threads, || match pin.arch {
                ArchSpec::DynIr => run(pin, &windows),
                _ => run(pin, &samples),
            });
            assert_eq!(
                pretrain, pin.pretrain,
                "{name}: pre-training losses at {threads} threads: {pretrain:#010x?}"
            );
            assert_eq!(
                losses, pin.losses,
                "{name}: fine-tuning losses at {threads} threads: {losses:#010x?}"
            );
            assert_eq!(
                state, pin.state,
                "{name}: parameters and buffers at {threads} threads: {state:#018x}"
            );
        }
    }
}
