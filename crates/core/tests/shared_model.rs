//! One model, many threads: every predictor is `Send + Sync`, and a forward
//! only reads its parameters, so concurrent predictions on a shared model
//! must each be bitwise the prediction a single thread makes — for every
//! [`ArchSpec`] family. This is the property the inference lanes of
//! `lmmir-serve` stand on.

use lmm_ir::{ArchSpec, CheckpointMeta, InferenceSession, IrPredictor, PreparedInput};
use lmmir_pdn::{CaseKind, CaseSpec, DynamicCase};
use std::sync::Barrier;

const SIZE: usize = 16;
const THREADS: usize = 4;

// The handles a model is built from cross threads by type, not by luck.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Box<dyn IrPredictor>>();
    assert_send_sync::<PreparedInput>();
};

fn build(arch: ArchSpec) -> Box<dyn IrPredictor> {
    let meta = CheckpointMeta {
        model: arch.name().to_string(),
        input_channels: arch.default_input_channels(),
        input_size: SIZE,
        config: None,
    };
    arch.build(&meta).unwrap()
}

/// Two different designs prepared for `model`, so concurrent forwards do
/// different work.
fn inputs(model: &dyn IrPredictor) -> Vec<PreparedInput> {
    let session = InferenceSession::new(model);
    (0..2)
        .map(|seed| {
            let spec = CaseSpec::new("shared", 32, 32, 40 + seed, CaseKind::Hidden);
            match session.spec().windows {
                0 => {
                    let case = spec.generate();
                    session.prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
                }
                w => session.prepare_windows(&DynamicCase::generate(&spec, w).windows),
            }
            .unwrap()
        })
        .collect()
}

/// `(map bits, mask, threshold bits)` of one prediction.
type Bits = (Vec<u32>, Vec<u8>, u32);

fn predict(model: &dyn IrPredictor, input: &PreparedInput) -> Bits {
    // A session per call, as a lane makes one: `set_training(false)` runs
    // concurrently with other threads' forwards too.
    let p = InferenceSession::new(model).predict(input).unwrap();
    let map = p.map.data().iter().map(|v| v.to_bits()).collect();
    (map, p.mask, p.threshold.to_bits())
}

fn assert_concurrent_predictions_match(model: &dyn IrPredictor, what: &str) {
    let inputs = inputs(model);
    let reference: Vec<Bits> = inputs.iter().map(|i| predict(model, i)).collect();
    assert_ne!(reference[0].0, reference[1].0, "{what}: the designs differ");
    // All threads leave the barrier together, then each walks the inputs
    // from its own starting point: at any moment the model is inside
    // forwards of both designs.
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (inputs, reference, start) = (&inputs, &reference, &start);
            scope.spawn(move || {
                start.wait();
                for k in 0..inputs.len() {
                    let which = (t + k) % inputs.len();
                    assert_eq!(
                        predict(model, &inputs[which]),
                        reference[which],
                        "{what}: thread {t}, design {which}"
                    );
                }
            });
        }
    });
}

#[test]
fn concurrent_predictions_on_one_shared_model_are_bitwise_the_single_threaded_ones() {
    for arch in ArchSpec::ALL {
        let model = build(arch);
        assert_concurrent_predictions_match(model.as_ref(), arch.name());
    }
}
