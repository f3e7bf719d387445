//! One-line bitwise oracle per model family: for every [`ArchSpec`], the
//! family's default build at 32 px (what a config-less checkpoint rebuilds)
//! on a 64 µm design pins
//!
//! * the FNV-1a of the raw eval-mode prediction — identical at every thread
//!   count and on both the lazy and the eager runtime, so a kernel PR that
//!   reorders any arithmetic anywhere in `tensor`/`nn`/`core` moves it;
//! * the FNV-1a of the bytes [`save_predictor`] writes — parameter and
//!   buffer order, `config.*` payloads and int8 scales;
//! * `parameters().len()` and the `quantize()` layer count — no sub-layer
//!   dropped from (or added to) a model's walk.
//!
//! The LMM-IR row is the shape the end-to-end benchmark serves.

use lmm_ir::{save_predictor, ArchSpec, CheckpointMeta, InferenceSession, IrPredictor};
use lmmir_features::Fnv1a;
use lmmir_pdn::{CaseKind, CaseSpec, DynamicCase};
use lmmir_tensor::lazy;

/// `(family, forward hash, checkpoint-bytes hash, parameters, quantized layers)`.
/// LMM-IR's forward hash was taken at the parent of the PR that added this
/// test (odometer broadcast, 2^18 fork threshold) and is unchanged since;
/// the rest were taken before the model walk and the U-Net predictors were
/// unified, as the oracle for that change. The checkpoint-bytes hashes are
/// those of format v5 (buffers saved after the parameters).
#[rustfmt::skip]
const PINNED: [(ArchSpec, u64, u64, usize, usize); 8] = [
    (ArchSpec::Iredge, 0x5085_a51e_7182_c62c, 0xf847_9d74_6395_0436, 46, 11),
    (ArchSpec::FirstPlace, 0xec17_66b1_0a7a_9d7f, 0x044b_2af0_7dc3_79c0, 58, 17),
    (ArchSpec::SecondPlace, 0xab76_08e5_5f06_2b18, 0x2431_f44c_f6b5_3781, 46, 11),
    (ArchSpec::IrpNet, 0xe4b8_1dba_e2a3_a349, 0xddf2_8227_2581_b325, 18, 5),
    (ArchSpec::LmmIr, 0x1534_5119_eea5_0f1a, 0x7b9f_9dc2_eb86_5323, 106, 36),
    (ArchSpec::DynIr, 0x7463_77ec_b7cd_1ef4, 0xc74c_e655_090b_1be6, 46, 11),
    (ArchSpec::CfirstNet, 0x5ecb_2ff2_d97b_8b14, 0x74fe_2dda_22d0_72b5, 46, 11),
    (ArchSpec::WacaUnet, 0xf8e5_4da5_7e40_4234, 0x2b3a_e57c_32be_8218, 58, 17),
];

const SIZE: usize = 32;

fn build(arch: ArchSpec) -> Box<dyn IrPredictor> {
    let meta = CheckpointMeta {
        model: arch.name().to_string(),
        input_channels: arch.default_input_channels(),
        input_size: SIZE,
        config: None,
        quant_scales: Default::default(),
    };
    arch.build(&meta).unwrap()
}

fn forward_checksum(model: &dyn IrPredictor) -> u64 {
    let session = InferenceSession::new(model);
    let spec = CaseSpec::new("checksum", 64, 64, 5, CaseKind::Hidden);
    let input = match session.spec().windows {
        0 => {
            let case = spec.generate();
            session.prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
        }
        w => session.prepare_windows(&DynamicCase::generate(&spec, w).windows),
    }
    .unwrap();
    let (pred, _) = session.forward(&input).unwrap();
    assert_eq!(pred.dims(), &[1, 1, SIZE, SIZE]);
    let mut h = Fnv1a::new();
    pred.data().iter().for_each(|&v| h.write_f32(v));
    h.finish()
}

fn checkpoint_checksum(model: &dyn IrPredictor) -> u64 {
    let dir = std::env::temp_dir().join("lmmir_forward_checksum");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.lmmt", model.name().replace(' ', "_")));
    save_predictor(model, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut h = Fnv1a::new();
    h.write(&bytes);
    h.finish()
}

#[test]
fn forward_checksum_is_pinned_across_threads_and_runtimes() {
    assert_eq!(PINNED.map(|row| row.0), ArchSpec::ALL, "one row per family");
    for (arch, forward, checkpoint, parameters, quantized) in PINNED {
        let name = arch.name();
        let model = build(arch);
        for threads in [1, 2, 4] {
            let got = lmmir_par::with_threads(threads, || forward_checksum(model.as_ref()));
            assert_eq!(
                got, forward,
                "{name}: {got:#018x} at {threads} threads (lazy)"
            );
        }
        let got = lazy::with_eager(|| forward_checksum(model.as_ref()));
        assert_eq!(got, forward, "{name}: {got:#018x} on the eager runtime");
        let got = checkpoint_checksum(model.as_ref());
        assert_eq!(got, checkpoint, "{name}: checkpoint bytes {got:#018x}");
        assert_eq!(model.parameters().len(), parameters, "{name}: parameters");
        assert_eq!(model.quantize(), quantized, "{name}: quantized layers");
    }
}
