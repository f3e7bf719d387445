//! Dynamic-model serving tests: the DynIR family end to end — checkpoint
//! → serve → predict with per-window power maps, bitwise parity with the
//! offline [`InferenceSession`], precise client errors for window-less dynamic requests, and mixed
//! static+dynamic load making progress on both families in one server.

use lmm_ir::{
    iredge, save_predictor, DynamicIrConfig, DynamicIrPredictor, InferenceSession, IrPredictor,
};
use lmmir_pdn::{CaseKind, CaseSpec, DynamicCase};
use lmmir_serve::{
    client, prepare_request, PredictRequest, PredictResponse, RegistrySpec, ServeConfig, Server,
};

const SIZE: usize = 16;
const WINDOWS: usize = 3;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lmmir_dynamic_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch: 4,
        threads: Some(2),
        ..ServeConfig::default()
    }
}

/// A small dynamic model (untrained weights are deterministic by seed —
/// parity is about the serving path, not accuracy).
fn dyn_model(seed: u64) -> DynamicIrPredictor {
    DynamicIrPredictor::new(DynamicIrConfig {
        windows: WINDOWS,
        widths: vec![4, 8],
        stem_kernel: 3,
        input_size: SIZE,
        seed,
    })
}

/// A generated dynamic design and its wire request (window block set).
fn dyn_design(seed: u64) -> (DynamicCase, PredictRequest) {
    let spec = CaseSpec::new(format!("dd{seed}"), SIZE, SIZE, seed, CaseKind::Hidden);
    let dyn_case = DynamicCase::generate(&spec, WINDOWS);
    let req = PredictRequest::from_dynamic_case(&dyn_case);
    (dyn_case, req)
}

/// The offline reference the server must match bitwise: the identical
/// request payload through the identical preparation + session path.
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
fn dynamic_checkpoint_serves_bitwise_offline_parity() {
    let model = dyn_model(31);
    let path = tmp("dyn_parity.lmmt");
    save_predictor(&model, &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("dyn", &path)).unwrap();
    let addr = server.addr();

    for seed in 0..3u64 {
        let (_, req) = dyn_design(200 + seed);
        let expected = offline_reference(&model, &req);
        let resp = client::predict(addr, &req).unwrap();
        assert_eq!((resp.width, resp.height), (SIZE as u32, SIZE as u32));
        assert_matches_offline(&resp, &expected);
    }

    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn dynamic_request_without_windows_is_a_client_error() {
    let path = tmp("dyn_missing.lmmt");
    save_predictor(&dyn_model(32), &path).unwrap();
    let server = Server::start(config(), RegistrySpec::single("dyn", &path)).unwrap();
    let addr = server.addr();

    let (_, mut req) = dyn_design(300);
    req.windows.clear();
    let err = client::predict(addr, &req).unwrap_err().to_string();
    assert!(
        err.contains("per-window power maps"),
        "window-less dynamic request must explain itself: {err}"
    );

    server.stop();
    std::fs::remove_file(&path).ok();
}

#[test]
fn mixed_static_and_dynamic_load_progresses_on_both_models() {
    let static_model = iredge(SIZE, 33);
    let dynamic_model = dyn_model(34);
    let static_path = tmp("mix_static.lmmt");
    let dynamic_path = tmp("mix_dyn.lmmt");
    save_predictor(&static_model, &static_path).unwrap();
    save_predictor(&dynamic_model, &dynamic_path).unwrap();

    let mut spec = RegistrySpec::single("static", &static_path);
    spec.models.push(lmmir_serve::ModelSpec {
        name: "dyn".to_string(),
        path: dynamic_path.clone(),
    });
    let server = Server::start(config(), spec).unwrap();
    let addr = server.addr();

    // One design, both families: the static model consumes the envelope
    // power map, the dynamic model the per-window block — same payload.
    for seed in 0..3u64 {
        let (_, mut req) = dyn_design(400 + seed);
        req.model = "static".to_string();
        assert_matches_offline(
            &client::predict(addr, &req).unwrap(),
            &offline_reference(&static_model, &req),
        );
        req.model = "dyn".to_string();
        assert_matches_offline(
            &client::predict(addr, &req).unwrap(),
            &offline_reference(&dynamic_model, &req),
        );
    }

    // Both families show up in the per-model series: traffic counted under
    // the requested label and at least one forward pass each.
    let (status, text) = client::get_text(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    for key in [
        "lmmir_requests_total{model=\"static\"} 3",
        "lmmir_requests_total{model=\"dyn\"} 3",
        "lmmir_model_queue_depth{model=\"static\"} 0",
        "lmmir_model_queue_depth{model=\"dyn\"} 0",
        "lmmir_model_forward_seconds_count{model=\"static\"}",
        "lmmir_model_forward_seconds_count{model=\"dyn\"}",
        "lmmir_model_batch_size_count{model=\"static\"}",
        "lmmir_model_batch_size_count{model=\"dyn\"}",
    ] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }

    server.stop();
    std::fs::remove_file(&static_path).ok();
    std::fs::remove_file(&dynamic_path).ok();
}
