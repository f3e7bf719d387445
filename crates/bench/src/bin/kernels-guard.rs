//! `kernels-guard`: the perf + parity regression gate for the compute
//! kernels, runnable locally and in CI.
//!
//! ```text
//! kernels-guard [--json PATH] [--reps N] [--only gemm|int8|fusion]
//! ```
//!
//! Four guards, any violation exits nonzero:
//!
//! 1. **Tiled GEMM wins.** The cache-tiled packed kernel must be at least
//!    as fast as the naive reference at 256³ — and bitwise identical to it
//!    (the tiling contract the determinism suite relies on).
//! 2. **int8 forward wins.** The quantized forward pass of the quick()
//!    LMM-IR model must be at least as fast as the f32 pass.
//! 3. **int8 stays close.** Worst per-pixel divergence of the quantized
//!    prediction must stay under the same relative threshold the
//!    `quantized_e2e` CI test pins.
//! 4. **Fusion wins.** A conv-block-shaped elementwise chain (scale, bias,
//!    relu ×2, plus the residual max head `skip + relu(t - skip)`) realized
//!    through the lazy op-graph runtime must run at least
//!    [`FUSION_TARGET`]× faster than the eager (`lazy::with_eager`) per-op path — and
//!    stay bitwise identical to it.
//!
//! `--only` runs a single guard section (the CI matrix splits the sections
//! across jobs); `--json` writes the measured numbers of the sections that
//! ran as a machine-readable record (a full run is committed as
//! `BENCH_kernels.json`). Timings are medians over `--reps` runs (default 9
//! for GEMM and fusion, 5 for forwards), so one scheduler hiccup cannot
//! flake the gate; the speed guards additionally allow 5% noise.

use lmm_ir::{InferenceSession, Layer, LmmIr, LmmIrConfig};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_tensor::lazy;
use lmmir_tensor::linalg::{gemm_reference, gemm_tiled};
use lmmir_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Same bound as `crates/core/tests/quantized_e2e.rs` — worst per-pixel
/// divergence relative to the f32 map's peak.
const DIVERGENCE_THRESHOLD: f32 = 0.25;

/// Speed guards tolerate this much measurement noise.
const NOISE: f64 = 1.05;

/// Required fused-over-eager speedup on the conv-block chain.
const FUSION_TARGET: f64 = 1.2;

const GEMM_SIDE: usize = 256;

/// Conv-block-shaped fusion workload: `[C, H, W]` feature map.
const FUSION_DIMS: [usize; 3] = [16, 128, 128];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Gemm,
    Int8,
    Fusion,
}

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in buffers, JIT nothing (but fill caches)
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() -> ExitCode {
    let mut json: Option<String> = None;
    let mut reps = 9usize;
    let mut only: Option<Section> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json = Some(p),
                None => return usage(),
            },
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => reps = n,
                _ => return usage(),
            },
            "--only" => match args.next().as_deref() {
                Some("gemm") => only = Some(Section::Gemm),
                Some("int8") => only = Some(Section::Int8),
                Some("fusion") => only = Some(Section::Fusion),
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let run = |s: Section| only.is_none() || only == Some(s);
    let mut fields: Vec<String> = Vec::new();
    let mut failed = false;

    // --- Guard 1: tiled GEMM vs naive at 256³, speed and bits. ---
    if run(Section::Gemm) {
        let n = GEMM_SIDE;
        let mut rng = StdRng::seed_from_u64(42);
        let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut c_naive = vec![0.0f32; n * n];
        let mut c_tiled = vec![0.0f32; n * n];
        gemm_reference(n, n, n, &a, &b, &mut c_naive);
        gemm_tiled(n, n, n, &a, &b, &mut c_tiled);
        if c_naive != c_tiled {
            eprintln!("[kernels-guard] FAIL: tiled GEMM is not bitwise identical to naive");
            return ExitCode::FAILURE;
        }
        let naive_ms = 1e3
            * median_secs(reps, || {
                let mut c = vec![0.0f32; n * n];
                gemm_reference(n, n, n, black_box(&a), black_box(&b), &mut c);
                black_box(c);
            });
        let tiled_ms = 1e3
            * median_secs(reps, || {
                let mut c = vec![0.0f32; n * n];
                gemm_tiled(n, n, n, black_box(&a), black_box(&b), &mut c);
                black_box(c);
            });
        eprintln!(
            "[kernels-guard] gemm {n}³: naive {naive_ms:.3} ms, tiled {tiled_ms:.3} ms \
             ({:.2}x)",
            naive_ms / tiled_ms
        );
        fields.push(format!("\"gemm_side\": {n}"));
        fields.push(format!("\"gemm_naive_ms\": {naive_ms:.4}"));
        fields.push(format!("\"gemm_tiled_ms\": {tiled_ms:.4}"));
        fields.push(format!("\"gemm_speedup\": {:.4}", naive_ms / tiled_ms));
        if tiled_ms > naive_ms * NOISE {
            eprintln!("[kernels-guard] FAIL: tiled GEMM slower than naive at {n}³");
            failed = true;
        }
    }

    // --- Guards 2+3: int8 vs f32 forward on the quick() LMM-IR model. ---
    if run(Section::Int8) {
        let model = LmmIr::new(LmmIrConfig::quick());
        let case = CaseSpec::new("guard", 24, 24, 11, CaseKind::Hidden).generate();
        let session = InferenceSession::new(&model);
        let input = session
            .prepare(&case.power, Some(&case.netlist), case.tech.dbu_per_um)
            .expect("guard case prepares");
        let fwd_reps = reps.min(5);
        let exact = session.predict(&input).expect("f32 predict");
        let f32_ms = 1e3
            * median_secs(fwd_reps, || {
                black_box(session.predict(black_box(&input)).expect("f32 predict"));
            });
        let layers = model.quantize();
        assert!(layers > 0, "quick() model must have quantizable layers");
        let quant = session.predict(&input).expect("int8 predict");
        let int8_ms = 1e3
            * median_secs(fwd_reps, || {
                black_box(session.predict(black_box(&input)).expect("int8 predict"));
            });
        let peak = exact.map.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let worst = exact
            .map
            .data()
            .iter()
            .zip(quant.map.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        let divergence = worst / peak;
        eprintln!(
            "[kernels-guard] quick() forward: f32 {f32_ms:.2} ms, int8 {int8_ms:.2} ms \
             ({:.2}x), divergence {divergence:.4} of peak ({layers} int8 layers)",
            f32_ms / int8_ms
        );
        fields.push(format!("\"forward_f32_ms\": {f32_ms:.4}"));
        fields.push(format!("\"forward_int8_ms\": {int8_ms:.4}"));
        fields.push(format!("\"forward_speedup\": {:.4}", f32_ms / int8_ms));
        fields.push(format!("\"int8_layers\": {layers}"));
        fields.push(format!("\"int8_divergence_of_peak\": {divergence:.6}"));
        fields.push(format!("\"divergence_threshold\": {DIVERGENCE_THRESHOLD}"));
        if int8_ms > f32_ms * NOISE {
            eprintln!("[kernels-guard] FAIL: int8 forward slower than f32");
            failed = true;
        }
        if !(divergence > 0.0 && divergence < DIVERGENCE_THRESHOLD) {
            eprintln!(
                "[kernels-guard] FAIL: int8 divergence {divergence} outside \
                 (0, {DIVERGENCE_THRESHOLD})"
            );
            failed = true;
        }
    }

    // --- Guard 4: fused elementwise chain vs the eager per-op path. ---
    if run(Section::Fusion) {
        let elems: usize = FUSION_DIMS.iter().product();
        let mut rng = StdRng::seed_from_u64(7);
        let feat: Vec<f32> = (0..elems).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = Tensor::from_vec(feat, &FUSION_DIMS).expect("fusion input");
        let gain = Tensor::full(&FUSION_DIMS, 1.07);
        let bias = Tensor::full(&FUSION_DIMS, -0.02);
        let gain2 = Tensor::full(&FUSION_DIMS, 0.93);
        let bias2 = Tensor::full(&FUSION_DIMS, 0.01);
        // Two scale+bias+relu stages plus the residual max head
        // `x + relu(t - x)` — the elementwise spine of a conv block, with
        // the gemm itself (a realization boundary) factored out.
        let conv_block_chain = || {
            let t = x.mul(&gain).unwrap().add(&bias).unwrap().relu();
            let t = t.mul(&gain2).unwrap().add(&bias2).unwrap().relu();
            x.add(&t.sub(&x).unwrap().relu()).unwrap()
        };
        let ops = 9usize; // mul,add,relu ×2 + sub,relu,add
        let fused_ref = conv_block_chain();
        let eager_ref = lazy::with_eager(conv_block_chain);
        let parity = fused_ref
            .data()
            .iter()
            .zip(eager_ref.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !parity {
            eprintln!("[kernels-guard] FAIL: fused chain is not bitwise identical to eager");
            return ExitCode::FAILURE;
        }
        drop(fused_ref);
        drop(eager_ref);
        let fused_ms = 1e3
            * median_secs(reps, || {
                let t = conv_block_chain();
                t.force();
                black_box(&t);
            });
        let eager_ms = 1e3
            * median_secs(reps, || {
                lazy::with_eager(|| {
                    black_box(conv_block_chain());
                });
            });
        eprintln!(
            "[kernels-guard] fusion {FUSION_DIMS:?} ({ops} ops): eager {eager_ms:.3} ms, \
             fused {fused_ms:.3} ms ({:.2}x, target {FUSION_TARGET}x)",
            eager_ms / fused_ms
        );
        fields.push(format!("\"fusion_elems\": {elems}"));
        fields.push(format!("\"fusion_ops\": {ops}"));
        fields.push(format!("\"fusion_eager_ms\": {eager_ms:.4}"));
        fields.push(format!("\"fusion_fused_ms\": {fused_ms:.4}"));
        fields.push(format!("\"fusion_speedup\": {:.4}", eager_ms / fused_ms));
        fields.push(format!("\"fusion_target\": {FUSION_TARGET}"));
        if eager_ms < fused_ms * FUSION_TARGET / NOISE {
            eprintln!(
                "[kernels-guard] FAIL: fused chain only {:.2}x faster than eager \
                 (target {FUSION_TARGET}x)",
                eager_ms / fused_ms
            );
            failed = true;
        }
    }

    if let Some(path) = &json {
        let record = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("[kernels-guard] writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[kernels-guard] wrote benchmark record to {path}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("[kernels-guard] all guards passed");
        ExitCode::SUCCESS
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: kernels-guard [--json PATH] [--reps N] [--only gemm|int8|fusion]");
    ExitCode::from(2)
}
