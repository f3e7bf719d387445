//! Zoo-variant serving tests: the CFIRSTNET and WACA-UNet families end to
//! end — checkpoint → serve → predict with comprehensive (8-channel)
//! features, bitwise parity with the offline [`InferenceSession`] at 1 and
//! 4 inference lanes, and a precise client error for netlist-less
//! requests against a comprehensive-feature model — plus, for every
//! family, a trained model served from its checkpoint is bitwise the
//! trained model.

use lmm_ir::{
    build_dynamic_sample, build_predictor, build_sample, save_predictor, train, ArchSpec,
    CheckpointMeta, InferenceSession, IrPredictor, TrainConfig, UNetConfig, UNetPredictor,
};
use lmmir_pdn::{Case, CaseKind, CaseSpec, DynamicCase};
use lmmir_serve::{
    client, prepare_request, ModelRegistry, PredictRequest, PredictResponse, RegistrySpec,
    ServeConfig, Server,
};

const SIZE: usize = 16;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lmmir_zoo_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch: 4,
        threads: Some(threads),
        ..ServeConfig::default()
    }
}

/// Small untrained instances (weights are deterministic by seed — parity is
/// about the serving path, not accuracy).
fn zoo_models() -> Vec<(&'static str, UNetPredictor)> {
    vec![
        (
            "cfirst",
            UNetPredictor::new(UNetConfig {
                widths: vec![4, 8],
                input_size: SIZE,
                seed: 61,
                ..UNetConfig::quick(ArchSpec::CfirstNet)
            }),
        ),
        (
            "waca",
            UNetPredictor::new(UNetConfig {
                widths: vec![4, 8],
                channel_attention: Some(2),
                input_size: SIZE,
                seed: 62,
                ..UNetConfig::quick(ArchSpec::WacaUnet)
            }),
        ),
    ]
}

fn design(seed: u64) -> (Case, PredictRequest) {
    let case = CaseSpec::new(format!("z{seed}"), SIZE, SIZE, seed, CaseKind::Hidden).generate();
    let req = PredictRequest::from_case(&case);
    (case, req)
}

fn offline_reference(model: &dyn IrPredictor, req: &PredictRequest) -> (Vec<f32>, Vec<u8>, f32) {
    let session = InferenceSession::new(model);
    let input = prepare_request(session.spec(), req).unwrap();
    let pred = session.predict(&input).unwrap();
    (pred.map.data().to_vec(), pred.mask, pred.threshold)
}

fn assert_matches_offline(resp: &PredictResponse, expected: &(Vec<f32>, Vec<u8>, f32)) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&resp.map), bits(&expected.0), "IR map drifted");
    assert_eq!(resp.mask, expected.1, "hotspot mask drifted");
    assert_eq!(
        resp.threshold.to_bits(),
        expected.2.to_bits(),
        "threshold drifted"
    );
}

#[test]
fn zoo_checkpoints_serve_bitwise_offline_parity_across_thread_counts() {
    for (name, model) in zoo_models() {
        let path = tmp(&format!("{name}_parity.lmmt"));
        save_predictor(&model, &path).unwrap();
        let designs: Vec<PredictRequest> = (0..3).map(|s| design(700 + s).1).collect();
        let expected: Vec<_> = designs
            .iter()
            .map(|r| offline_reference(&model, r))
            .collect();
        let mut by_threads: Vec<Vec<PredictResponse>> = Vec::new();
        for threads in [1, 4] {
            let server = Server::start(config(threads), RegistrySpec::single(name, &path)).unwrap();
            let addr = server.addr();
            let mut got = Vec::new();
            for (req, exp) in designs.iter().zip(&expected) {
                let resp = client::predict(addr, req).unwrap();
                assert_eq!((resp.width, resp.height), (SIZE as u32, SIZE as u32));
                assert_matches_offline(&resp, exp);
                got.push(resp);
            }
            by_threads.push(got);
            server.stop();
        }
        // Both thread counts are pinned to the same offline reference, so
        // they are bitwise identical to each other by transitivity; assert
        // it directly anyway for a self-contained failure message.
        assert_eq!(by_threads[0].len(), by_threads[1].len());
        for (a, b) in by_threads[0].iter().zip(&by_threads[1]) {
            assert_eq!(a.map, b.map, "{name}: thread count changed the bits");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn comprehensive_model_without_netlist_is_a_client_error() {
    let (name, model) = zoo_models().remove(0);
    let path = tmp("cfirst_missing_netlist.lmmt");
    save_predictor(&model, &path).unwrap();
    let server = Server::start(config(2), RegistrySpec::single(name, &path)).unwrap();
    let addr = server.addr();

    let (_, mut req) = design(800);
    req.netlist = None;
    let err = client::predict(addr, &req).unwrap_err().to_string();
    assert!(
        err.contains("netlist"),
        "netlist-less comprehensive request must explain itself: {err}"
    );

    server.stop();
    std::fs::remove_file(&path).ok();
}

/// The eval-mode prediction of `model` on `spec`'s design, static or
/// windowed as the model's input contract asks.
fn eval_prediction(model: &dyn IrPredictor, spec: &CaseSpec) -> Vec<f32> {
    let session = InferenceSession::new(model);
    let input = match session.spec().windows {
        0 => {
            let case = spec.generate();
            session.prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
        }
        w => session.prepare_windows(&DynamicCase::generate(spec, w).windows),
    }
    .unwrap();
    session.predict(&input).unwrap().map.data().to_vec()
}

/// Every family trained for one epoch on two tiny cases, saved, and loaded
/// back through the registry: the served eval forward is bitwise the
/// in-process model's. BatchNorm running statistics are state an eval
/// forward reads, so a checkpoint that drops them serves a different model
/// from bitwise-identical weights.
#[test]
fn trained_checkpoints_serve_the_trained_model_in_every_family() {
    let cfg = TrainConfig {
        epochs: 1,
        pretrain_epochs: 0,
        batch: 2,
        oversample: (1, 1),
        ..TrainConfig::quick()
    };
    let cases: Vec<CaseSpec> = (0..2)
        .map(|s| CaseSpec::new(format!("t{s}"), SIZE, SIZE, 900 + s, CaseKind::Fake))
        .collect();
    let probe = CaseSpec::new("probe", SIZE, SIZE, 950, CaseKind::Hidden);
    let mut failures = Vec::new();
    for arch in ArchSpec::ALL {
        let name = arch.name();
        let model = build_predictor(&CheckpointMeta {
            model: name.to_string(),
            input_channels: arch.default_input_channels(),
            input_size: SIZE,
            config: None,
        })
        .unwrap();
        match InferenceSession::new(model.as_ref()).spec().windows {
            0 => {
                let samples: Vec<_> = cases
                    .iter()
                    .map(|c| build_sample(c, SIZE).unwrap())
                    .collect();
                train(model.as_ref(), &samples, &cfg).unwrap();
            }
            w => {
                let samples: Vec<_> = cases
                    .iter()
                    .map(|c| build_dynamic_sample(c, w, SIZE).unwrap())
                    .collect();
                train(model.as_ref(), &samples, &cfg).unwrap();
            }
        }
        let path = tmp(&format!("{}_trained.lmmt", name.replace(' ', "_")));
        save_predictor(model.as_ref(), &path).unwrap();
        let registry = ModelRegistry::load(RegistrySpec::single(name, &path)).unwrap();
        let served = eval_prediction(registry.resolve("").unwrap().model.as_ref(), &probe);
        let trained = eval_prediction(model.as_ref(), &probe);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&served) != bits(&trained) {
            let delta = served
                .iter()
                .zip(&trained)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            let peak = trained.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            failures.push(format!(
                "{name}: max |Δ| {delta:.4e} on a peak of {peak:.4e}"
            ));
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(
        failures.is_empty(),
        "served != trained:\n{}",
        failures.join("\n")
    );
}
