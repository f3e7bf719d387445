//! Zoo-variant serving tests: the CFIRSTNET and WACA-UNet families end to
//! end — checkpoint → serve → predict with comprehensive (8-channel)
//! features, bitwise parity with the offline [`InferenceSession`] at 1 and
//! 4 inference lanes, and a precise client error for netlist-less
//! requests against a comprehensive-feature model.

use lmm_ir::{save_predictor, ArchSpec, InferenceSession, IrPredictor, UNetConfig, UNetPredictor};
use lmmir_pdn::{Case, CaseKind, CaseSpec};
use lmmir_serve::{
    client, prepare_request, PredictRequest, PredictResponse, RegistrySpec, ServeConfig, Server,
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
