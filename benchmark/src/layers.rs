//! The per-layer metrics: their names and units, and the fixed-shape layer
//! probes every traced run measures.
//!
//! Two kinds of per-layer number exist. A **span** metric is the median
//! duration of the spans a workload's traced pass recorded around one layer
//! function, at that workload's sizes; it reads 0 in the traced run of a
//! workload whose op never enters the layer (`serve_warm` has no
//! `core.infer.forward_ms`; `offline_large` has no `serve.*`). A **probe**
//! metric times one layer function at a fixed shape that no workload
//! changes, so it means the same in every traced run.

use crate::library::offline_chain;
use crate::trace::{self, span};
use crate::workloads::Params;
use lmm_ir::{build_sample, save_predictor, InferenceSession, LmmIr};
use lmmir_features::FeatureStack;
use lmmir_nn::MultiHeadAttention;
use lmmir_pdn::CaseKind;
use lmmir_serve::{ModelRegistry, RegistrySpec};
use lmmir_tensor::conv::{conv2d, conv2d_backward, ConvSpec};
use lmmir_tensor::linalg::{gemm_reference, matmul, matmul_nt, matmul_tn};
use lmmir_tensor::{init, lazy, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric with its unit. A name ending in `_ms` is the
/// median duration of the spans named like it without the suffix.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve — spans of the serve workloads' library chain
    ("serve.http.parse_request_ms", "ms"),
    ("serve.proto.decode_request_ms", "ms"),
    ("serve.proto.fingerprint_ms", "ms"),
    ("serve.proto.encode_response_ms", "ms"),
    ("serve.batch.prepare_request_ms", "ms"),
    ("serve.wire.request_bytes", "B"),
    ("serve.wire.response_bytes", "B"),
    // serve — served latency minus the chain, and the server's own /metrics
    ("serve.overhead_ms", "ms"),
    ("serve.batch.jobs_per_batch_mean", "count"),
    ("serve.batch.forwards_per_request", "ratio"),
    ("serve.metrics.forward_mean_ms", "ms"),
    ("serve.cache.result_hit_rate", "ratio"),
    ("serve.cache.feature_hit_rate", "ratio"),
    ("serve.event.keepalive_reuse_share", "ratio"),
    // spice, features, core — spans
    ("spice.parse_ms", "ms"),
    ("spice.parse_mib_per_s", "MiB/s"),
    ("spice.elements", "count"),
    ("features.extended_parts_ms", "ms"),
    ("features.adjust_normalize_ms", "ms"),
    ("core.pointcloud.from_netlist_ms", "ms"),
    ("core.pointcloud.points", "count"),
    ("core.infer.prepare_parts_ms", "ms"),
    ("core.lnt.encode_cloud_ms", "ms"),
    ("core.infer.forward_ms", "ms"),
    ("core.infer.forward_minus_lnt_ms", "ms"),
    ("core.infer.restore_ms", "ms"),
    ("core.train.ms_per_sample", "ms"),
    ("core.train.final_loss", "loss"),
    // probes on the fixed 64 µm design and the 32 px model
    ("pdn.generate_ms", "ms"),
    ("spice.write_ms", "ms"),
    ("solver.golden_solve_ms", "ms"),
    ("features.comprehensive_parts_ms", "ms"),
    ("core.data.build_sample_ms", "ms"),
    ("core.checkpoint.save_ms", "ms"),
    ("serve.registry.load_ms", "ms"),
    ("core.speedup_vs_golden", "ratio"),
    ("nn.attention.mha_forward_ms", "ms"),
    // probes on fixed tensor shapes
    ("tensor.gemm_reference_256_ms", "ms"),
    ("tensor.matmul_256_ms", "ms"),
    ("tensor.matmul_tn_256_ms", "ms"),
    ("tensor.matmul_nt_256_ms", "ms"),
    ("tensor.conv2d_fwd_ms", "ms"),
    ("tensor.conv2d_bwd_ms", "ms"),
    ("tensor.fused_chain9_ms", "ms"),
    ("tensor.lazy.programs_per_forward", "count"),
    ("tensor.lazy.instructions_per_forward", "count"),
    ("tensor.lazy.fresh_allocs_per_forward", "count"),
    ("tensor.lazy.pool_hits_per_forward", "count"),
    ("par.threads", "count"),
    ("par.par_map_dispatch_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Runs `f` under a span `reps` times (after one unrecorded warm-up call).
fn repeat(name: &'static str, reps: usize, mut f: impl FnMut()) {
    trace::set_enabled(false);
    f();
    trace::set_enabled(true);
    for _ in 0..reps {
        span(name, &mut f);
    }
}

/// The fixed-shape probes. Records spans (tracing must be on) and returns
/// the values that are not span medians.
pub fn probes(p: &Params) -> Result<Vec<(&'static str, f64)>, String> {
    let reps = if p.smoke { 3 } else { 9 };
    let few = if p.smoke { 1 } else { 3 };
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut values = Vec::new();
    trace::set_op(u64::MAX);

    // --- tensor: gemm families at 256³, conv at the U-Net's mid shape,
    // a nine-op fused elementwise chain.
    let side = 256;
    let a = init::uniform(&[side, side], 1.0, &mut rng);
    let b = init::uniform(&[side, side], 1.0, &mut rng);
    repeat("tensor.gemm_reference_256", reps, || {
        let mut c = vec![0.0f32; side * side];
        gemm_reference(
            side,
            side,
            side,
            black_box(a.data()),
            black_box(b.data()),
            &mut c,
        );
        black_box(c);
    });
    repeat("tensor.matmul_256", reps, || {
        black_box(matmul(black_box(&a), black_box(&b)).expect("square matmul"));
    });
    repeat("tensor.matmul_tn_256", reps, || {
        black_box(matmul_tn(black_box(&a), black_box(&b)).expect("square matmul"));
    });
    repeat("tensor.matmul_nt_256", reps, || {
        black_box(matmul_nt(black_box(&a), black_box(&b)).expect("square matmul"));
    });
    let x = init::uniform(&[1, 24, 32, 32], 1.0, &mut rng);
    let w = init::uniform(&[24, 24, 3, 3], 0.1, &mut rng);
    let same = ConvSpec::new(1, 1);
    repeat("tensor.conv2d_fwd", reps, || {
        black_box(conv2d(black_box(&x), &w, None, same).expect("conv shapes"));
    });
    let grad = init::uniform(&[1, 24, 32, 32], 1.0, &mut rng);
    repeat("tensor.conv2d_bwd", reps, || {
        black_box(conv2d_backward(black_box(&x), &w, &grad, same).expect("conv shapes"));
    });
    let dims = [16, 128, 128];
    let feat = init::uniform(&dims, 2.0, &mut rng);
    let (gain, bias) = (Tensor::full(&dims, 1.07), Tensor::full(&dims, -0.02));
    repeat("tensor.fused_chain9", reps, || {
        // scale, bias, relu twice, then the residual head x + relu(t − x).
        let t = feat.mul(&gain).unwrap().add(&bias).unwrap().relu();
        let t = t.mul(&gain).unwrap().add(&bias).unwrap().relu();
        let out = feat.add(&t.sub(&feat).unwrap().relu()).unwrap();
        out.force();
        black_box(&out);
    });

    // --- nn: self-attention at the LNT's shape (one 128-token chunk).
    let lnt = p.model_config().lnt;
    let attention = MultiHeadAttention::new(lnt.d_model, lnt.heads, &mut rng);
    let tokens = Var::constant(init::uniform(&[1, lnt.chunk, lnt.d_model], 1.0, &mut rng));
    repeat("nn.attention.mha_forward", reps, || {
        let out = attention
            .forward_qkv(&tokens, &tokens, &tokens)
            .expect("attention shapes");
        out.value().force();
    });

    // --- par: what handing two empty items to the pool costs.
    values.push(("par.threads", lmmir_par::num_threads() as f64));
    let calls = 200;
    let per_call_us: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(lmmir_par::par_map(2, black_box));
            }
            started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    values.push((
        "par.par_map_dispatch_us",
        crate::stats::median(&per_call_us),
    ));

    // --- pdn, spice, solver, features, core on one fixed design.
    let spec = p.design(9, 0, p.small_um(), CaseKind::Fake);
    repeat("pdn.generate", few, || {
        black_box(spec.generate());
    });
    let case = spec.generate();
    repeat("spice.write", few, || {
        black_box(case.netlist.to_spice());
    });
    repeat("solver.golden_solve", few, || {
        black_box(case.solve().expect("generated case solves"));
    });
    repeat("features.comprehensive_parts", few, || {
        black_box(FeatureStack::comprehensive_parts(
            &case.power,
            &case.netlist,
            case.tech.dbu_per_um,
        ));
    });
    repeat("core.data.build_sample", few, || {
        black_box(build_sample(&spec, p.input_px()).expect("generated case solves"));
    });

    // --- checkpoint save and registry load of the benchmark's model.
    let model = LmmIr::new(p.model_config());
    std::fs::create_dir_all(&p.out).map_err(|e| format!("creating {:?}: {e}", p.out))?;
    let ckpt = p.out.join(format!("probe-{}.lmmt", std::process::id()));
    repeat("core.checkpoint.save", few, || {
        save_predictor(&model, &ckpt).expect("checkpoint written");
    });
    repeat("serve.registry.load", few, || {
        black_box(ModelRegistry::load(RegistrySpec::single("lmmir", &ckpt)).expect("loads back"));
    });
    let _ = std::fs::remove_file(&ckpt);

    // --- the paper's headline ratio on that design: golden solve time over
    // parse + prepare + forward + restore.
    let session = InferenceSession::new(&model);
    let text = case.netlist.to_spice();
    // Timed with tracing off: the chain's own spans carry the names of the
    // workloads' span metrics and must not mix with them.
    trace::set_enabled(false);
    let chain_times: Vec<f64> = (0..=reps)
        .map(|_| {
            let started = Instant::now();
            black_box(offline_chain(
                &session,
                &text,
                &case.power,
                case.tech.dbu_per_um,
            ))
            .map(|_| started.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()?;
    trace::set_enabled(true);
    let chain_ms = crate::stats::median(&chain_times[1..]);
    values.push((
        "core.speedup_vs_golden",
        trace::median_ms("solver.golden_solve") / chain_ms,
    ));

    // --- lazy-runtime work per steady-state forward (exact counts).
    let netlist = &case.netlist;
    let input = session
        .prepare(&case.power, Some(netlist), case.tech.dbu_per_um)
        .map_err(|e| e.to_string())?;
    session.forward(&input).map_err(|e| e.to_string())?;
    lazy::reset_stats();
    session.forward(&input).map_err(|e| e.to_string())?;
    let stats = lazy::stats();
    values.extend([
        ("tensor.lazy.programs_per_forward", stats.programs as f64),
        (
            "tensor.lazy.instructions_per_forward",
            stats.instructions as f64,
        ),
        (
            "tensor.lazy.fresh_allocs_per_forward",
            stats.fresh_allocs as f64,
        ),
        ("tensor.lazy.pool_hits_per_forward", stats.pool_hits as f64),
    ]);

    // --- what the spans themselves cost: the price of one empty span times
    // the spans of one chain op, as a share of that op. (The on/off
    // difference of the chain itself is far below its run-to-run noise.)
    let empties = 20_000u32;
    let recorded = trace::len();
    let started = Instant::now();
    for _ in 0..empties {
        span("trace.empty", || ());
    }
    trace::truncate(recorded);
    let span_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(empties);
    let spans_per_op = 5.0; // op, parse, prepare_parts, forward, restore
    values.push(("trace.overhead_share", span_ms * spans_per_op / chain_ms));
    Ok(values)
}
