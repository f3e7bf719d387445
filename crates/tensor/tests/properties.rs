//! Property tests: broadcasting algebra, autograd-vs-numeric gradients,
//! parallel-kernel-vs-naive-reference agreement on randomized shapes and
//! values (including degenerate ones), and a backward that forks
//! independent branches keeping every gradient's bits.

use lmmir_tensor::conv::{conv2d, ConvSpec};
use lmmir_tensor::{autograd, lazy, linalg, Tensor, Var};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Naive triple-loop matmul: the reference the row-partitioned gemm must
/// agree with for every shape.
fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Naive 7-loop conv2d reference.
fn conv2d_reference(x: &Tensor, w: &Tensor, spec: ConvSpec) -> Tensor {
    let (nb, c, h, ww) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, _, kh, kw) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    let oh = spec.conv_out(h, kh).unwrap();
    let ow = spec.conv_out(ww, kw).unwrap();
    let mut out = Tensor::zeros(&[nb, o, oh, ow]);
    for ni in 0..nb {
        for oi in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < ww as isize {
                                    acc += x.at(&[ni, ci, iy as usize, ix as usize])
                                        * w.at(&[oi, ci, ky, kx]);
                                }
                            }
                        }
                    }
                    out.set(&[ni, oi, oy, ox], acc);
                }
            }
        }
    }
    out
}

fn pseudo(count: usize, seed: u64) -> Vec<f32> {
    (0..count)
        .map(|i| (((seed + i as u64) as f32) * 0.53).sin())
        .collect()
}

/// Above-threshold companion to the randomized conv property below: the
/// small proptest shapes all fall under the parallel-work gates (they pin
/// the sequential boundary), so this fixed shape — im2col buffer 144×7744
/// (≥ 2^20 elements), gemm 16·144·7744 MACs (≥ 2^22) — genuinely drives the
/// partitioned path and checks it against both the naive reference and the
/// sequential run bitwise.
#[test]
fn large_conv2d_crosses_parallel_threshold_and_matches() {
    let x = Tensor::from_vec(pseudo(16 * 88 * 88, 3), &[1, 16, 88, 88]).unwrap();
    let w = Tensor::from_vec(pseudo(16 * 16 * 9, 41), &[16, 16, 3, 3]).unwrap();
    let spec = ConvSpec::new(1, 1);
    let slow = conv2d_reference(&x, &w, spec);
    let sequential = lmmir_par::with_threads(1, || conv2d(&x, &w, None, spec).unwrap());
    for threads in [2, 3, 7] {
        let fast = lmmir_par::with_threads(threads, || conv2d(&x, &w, None, spec).unwrap());
        assert_eq!(
            fast.data(),
            sequential.data(),
            "bitwise drift at {threads} threads"
        );
        assert!(close(&fast, &slow, 1e-4), "reference mismatch at {threads}");
    }
}

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, 1..=max_len).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("vector shape")
    })
}

/// Central-difference gradient of a scalar-valued tensor function.
fn numeric_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut g = Tensor::zeros(x.dims());
    for i in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        g.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
    }
    g
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_commutes(
        (a, b) in (1usize..32).prop_flat_map(|n| (
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
        )),
    ) {
        let n = a.len();
        let a = Tensor::from_vec(a, &[n]).unwrap();
        let b = Tensor::from_vec(b, &[n]).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn mul_distributes_over_add(
        (a, b, c) in (1usize..16).prop_flat_map(|n| (
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
        )),
    ) {
        let n = a.len();
        let a = Tensor::from_vec(a, &[n]).unwrap();
        let b = Tensor::from_vec(b, &[n]).unwrap();
        let c = Tensor::from_vec(c, &[n]).unwrap();
        let lhs = a.mul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.mul(&b).unwrap().add(&a.mul(&c).unwrap()).unwrap();
        prop_assert!(close(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn scalar_broadcast_matches_scale(a in tensor_strategy(32), k in -2.0f32..2.0) {
        let s = Tensor::scalar(k);
        let via_broadcast = a.mul(&s).unwrap();
        let via_scale = a.scale(k);
        prop_assert_eq!(via_broadcast.data(), via_scale.data());
    }

    #[test]
    fn reduce_to_shape_preserves_total(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let n = rows * cols;
        let data: Vec<f32> = (0..n).map(|i| ((seed as f32 + i as f32) * 0.37).sin()).collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let reduced = t.reduce_to_shape(&[cols]).unwrap();
        prop_assert!((reduced.sum_all() - t.sum_all()).abs() < 1e-3);
        let reduced2 = t.reduce_to_shape(&[rows, 1]).unwrap();
        prop_assert!((reduced2.sum_all() - t.sum_all()).abs() < 1e-3);
    }

    #[test]
    fn autograd_matches_numeric_elementwise(x in tensor_strategy(12)) {
        // f(x) = sum(sigmoid(x) * x)
        let v = Var::parameter(x.clone());
        v.sigmoid().mul(&v).unwrap().sum().backward();
        let auto = v.grad().unwrap();
        let num = numeric_grad(
            |t| t.map(|u| u / (1.0 + (-u).exp())).sum_all(),
            &x,
            1e-2,
        );
        prop_assert!(close(&auto, &num, 5e-2), "auto {:?} vs num {:?}", auto, num);
    }

    #[test]
    fn autograd_matches_numeric_add(
        (a0, b0) in (1usize..12).prop_flat_map(|n| (
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
        )),
    ) {
        // f(a, b) = sum((a + b) * a)  =>  df/da = 2a + b, df/db = a.
        let n = a0.len();
        let a0 = Tensor::from_vec(a0, &[n]).unwrap();
        let b0 = Tensor::from_vec(b0, &[n]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::parameter(b0.clone());
        a.add(&b).unwrap().mul(&a).unwrap().sum().backward();

        let num_a = numeric_grad(
            |t| t.add(&b0).unwrap().mul(t).unwrap().sum_all(),
            &a0,
            1e-2,
        );
        let num_b = numeric_grad(
            |t| a0.add(t).unwrap().mul(&a0).unwrap().sum_all(),
            &b0,
            1e-2,
        );
        prop_assert!(close(&a.grad().unwrap(), &num_a, 5e-2));
        prop_assert!(close(&b.grad().unwrap(), &num_b, 5e-2));
    }

    #[test]
    fn autograd_matches_numeric_mul_both_operands(
        (a0, b0) in (1usize..12).prop_flat_map(|n| (
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
        )),
    ) {
        // f(a, b) = sum(a * b)  =>  df/da = b, df/db = a.
        let n = a0.len();
        let a0 = Tensor::from_vec(a0, &[n]).unwrap();
        let b0 = Tensor::from_vec(b0, &[n]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::parameter(b0.clone());
        a.mul(&b).unwrap().sum().backward();
        prop_assert!(close(&a.grad().unwrap(), &b0, 1e-5));
        prop_assert!(close(&b.grad().unwrap(), &a0, 1e-5));
    }

    #[test]
    fn autograd_matches_numeric_matmul_rhs(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..100) {
        let gen = |count: usize, s: u64| -> Vec<f32> {
            (0..count).map(|i| (((s + i as u64) as f32) * 0.47).sin()).collect()
        };
        let a0 = Tensor::from_vec(gen(m * k, seed), &[m, k]).unwrap();
        let b0 = Tensor::from_vec(gen(k * n, seed + 13), &[k, n]).unwrap();
        let a = Var::constant(a0.clone());
        let b = Var::parameter(b0.clone());
        a.matmul(&b).unwrap().sum().backward();
        let num = numeric_grad(|t| linalg::matmul(&a0, t).unwrap().sum_all(), &b0, 1e-2);
        prop_assert!(close(&b.grad().unwrap(), &num, 5e-2));
    }

    #[test]
    fn matmul_shape_contract(m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let a = Tensor::zeros(&[m, k]);
        let b = Tensor::zeros(&[k, n]);
        prop_assert_eq!(linalg::matmul(&a, &b).unwrap().dims(), &[m, n]);
        // Mismatched inner dimension must refuse, never panic.
        let bad = Tensor::zeros(&[k + 1, n]);
        prop_assert!(linalg::matmul(&a, &bad).is_err());
    }

    #[test]
    fn elementwise_ops_preserve_shape(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| (((seed + i as u64) as f32) * 0.91).sin())
            .collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let dims = t.dims().to_vec();
        prop_assert_eq!(t.add(&t).unwrap().dims(), &dims[..]);
        prop_assert_eq!(t.mul(&t).unwrap().dims(), &dims[..]);
        prop_assert_eq!(t.scale(2.5).dims(), &dims[..]);
        prop_assert_eq!(t.map(f32::abs).dims(), &dims[..]);
        // Broadcasting against a scalar keeps the larger shape.
        prop_assert_eq!(t.add(&Tensor::scalar(1.0)).unwrap().dims(), &dims[..]);
    }

    #[test]
    fn autograd_matches_numeric_matmul(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..100) {
        let gen = |count: usize, s: u64| -> Vec<f32> {
            (0..count).map(|i| (((s + i as u64) as f32) * 0.61).sin()).collect()
        };
        let a0 = Tensor::from_vec(gen(m * k, seed), &[m, k]).unwrap();
        let b0 = Tensor::from_vec(gen(k * n, seed + 7), &[k, n]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::constant(b0.clone());
        a.matmul(&b).unwrap().sum().backward();
        let auto = a.grad().unwrap();
        let num = numeric_grad(|t| linalg::matmul(t, &b0).unwrap().sum_all(), &a0, 1e-2);
        prop_assert!(close(&auto, &num, 5e-2));
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..5, cols in 1usize..6, seed in 0u64..100) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| (((seed + i as u64) as f32) * 1.3).sin() * 4.0)
            .collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let s = t.softmax_last();
        for row in s.data().chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn reshape_permute_round_trip(d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..4) {
        let n = d0 * d1 * d2;
        let t = Tensor::arange(n).reshape(&[d0, d1, d2]).unwrap();
        let p = t.permute(&[2, 0, 1]).unwrap().permute(&[1, 2, 0]).unwrap();
        prop_assert_eq!(p.data(), t.data());
    }

    #[test]
    fn large_matmul_crosses_parallel_threshold_and_matches(
        threads in 2usize..8, seed in 0u64..20,
    ) {
        // 176·160·152 ≈ 4.3e6 MACs — past the 2^22 gemm parallel threshold,
        // so this genuinely exercises the row-partitioned path (unlike the
        // small randomized shapes above, which validate the sequential
        // boundary).
        let a = Tensor::from_vec(pseudo(176 * 160, seed), &[176, 160]).unwrap();
        let b = Tensor::from_vec(pseudo(160 * 152, seed + 13), &[160, 152]).unwrap();
        let fast = lmmir_par::with_threads(threads, || linalg::matmul(&a, &b).unwrap());
        let slow = lmmir_par::with_threads(1, || linalg::matmul(&a, &b).unwrap());
        prop_assert_eq!(fast.data(), slow.data(), "bitwise drift at {} threads", threads);
        prop_assert!(close(&fast, &matmul_reference(&a, &b), 1e-4));
    }

    #[test]
    fn concat_then_slice_identity(parts in prop::collection::vec(tensor_strategy(8), 1..4)) {
        let refs: Vec<&Tensor> = parts.iter().collect();
        let joined = Tensor::concat(&refs, 0).unwrap();
        let mut off = 0;
        for p in &parts {
            let s = joined.slice_axis(0, off, off + p.numel()).unwrap();
            prop_assert_eq!(s.data(), p.data());
            off += p.numel();
        }
    }

    #[test]
    fn parallel_matmul_matches_naive_reference(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        threads in 1usize..8, seed in 0u64..500,
    ) {
        // Degenerate row counts (1×N) and thread counts exceeding the row
        // count are all legal partitions.
        let a = Tensor::from_vec(pseudo(m * k, seed), &[m, k]).unwrap();
        let b = Tensor::from_vec(pseudo(k * n, seed + 101), &[k, n]).unwrap();
        let fast = lmmir_par::with_threads(threads, || linalg::matmul(&a, &b).unwrap());
        let slow = matmul_reference(&a, &b);
        prop_assert!(close(&fast, &slow, 1e-5), "matmul mismatch at {} threads", threads);
    }

    #[test]
    fn parallel_matmul_row_vector_and_tall_shapes(
        n in 1usize..64, threads in 1usize..8, seed in 0u64..200,
    ) {
        // 1×N row vector times N×1 column: the extreme degenerate shapes.
        let row = Tensor::from_vec(pseudo(n, seed), &[1, n]).unwrap();
        let col = Tensor::from_vec(pseudo(n, seed + 7), &[n, 1]).unwrap();
        let fast = lmmir_par::with_threads(threads, || linalg::matmul(&row, &col).unwrap());
        prop_assert!(close(&fast, &matmul_reference(&row, &col), 1e-5));
        let outer = lmmir_par::with_threads(threads, || linalg::matmul(&col, &row).unwrap());
        prop_assert!(close(&outer, &matmul_reference(&col, &row), 1e-5));
    }

    #[test]
    fn parallel_conv2d_matches_naive_reference(
        nb in 0usize..3, c in 1usize..9, side in 3usize..10,
        threads in 1usize..8, seed in 0u64..200,
    ) {
        // `nb == 0` is the empty batch; `c` may exceed `threads`.
        let o = 2;
        let x = Tensor::from_vec(pseudo(nb * c * side * side, seed), &[nb, c, side, side]).unwrap();
        let w = Tensor::from_vec(pseudo(o * c * 9, seed + 31), &[o, c, 3, 3]).unwrap();
        let spec = ConvSpec::new(1, 1);
        let fast = lmmir_par::with_threads(threads, || conv2d(&x, &w, None, spec).unwrap());
        let slow = conv2d_reference(&x, &w, spec);
        prop_assert_eq!(fast.dims(), slow.dims());
        prop_assert!(close(&fast, &slow, 1e-4), "conv mismatch at {} threads", threads);
    }

    #[test]
    fn conv2d_linearity(seed in 0u64..50, alpha in -2.0f32..2.0) {
        use lmmir_tensor::conv::{conv2d, ConvSpec};
        let gen = |count: usize, s: u64| -> Vec<f32> {
            (0..count).map(|i| (((s + i as u64) as f32) * 0.83).sin()).collect()
        };
        let x = Tensor::from_vec(gen(2 * 5 * 5, seed), &[1, 2, 5, 5]).unwrap();
        let w = Tensor::from_vec(gen(3 * 2 * 3 * 3, seed + 3), &[3, 2, 3, 3]).unwrap();
        let spec = ConvSpec::new(1, 1);
        let y1 = conv2d(&x.scale(alpha), &w, None, spec).unwrap();
        let y2 = conv2d(&x, &w, None, spec).unwrap().scale(alpha);
        prop_assert!(close(&y1, &y2, 1e-3));
    }
}

/// The composed chain [`Var::attention`] replaced — `bmm` with a permuted
/// `k`, `scale`, `softmax_last`, `bmm` — kept as its oracle.
fn attention_chain(q: &Var, k: &Var, v: &Var, scale: f32) -> Var {
    q.bmm(&k.permute(&[0, 2, 1]).unwrap())
        .unwrap()
        .scale(scale)
        .softmax_last()
        .bmm(v)
        .unwrap()
}

/// Bits of the output and of the `q`, `k`, `v` gradients under the
/// gradient `upstream`.
fn attention_bits(
    op: impl Fn(&Var, &Var, &Var) -> Var,
    (q, k, v): (&Tensor, &Tensor, &Tensor),
    upstream: &Tensor,
) -> [Vec<u32>; 4] {
    let (q, k, v) = (
        Var::parameter(q.clone()),
        Var::parameter(k.clone()),
        Var::parameter(v.clone()),
    );
    let out = op(&q, &k, &v);
    out.backward_with(upstream.clone());
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    [
        bits(&out.to_tensor()),
        bits(&q.grad().expect("q gradient")),
        bits(&k.grad().expect("k gradient")),
        bits(&v.grad().expect("v gradient")),
    ]
}

/// `q [e, nq, dh]`, `k [e, nk, dh]`, `v [e, nk, dv]` with entries in
/// `[-magnitude, magnitude]`, and an upstream gradient `[e, nq, dv]` in
/// `[-1, 1]`.
fn attention_case([e, nq, nk, dh, dv]: [usize; 5], magnitude: f32, seed: u64) -> [Tensor; 4] {
    let t = |dims: &[usize], offset: u64| {
        let n = dims.iter().product();
        let data = pseudo(n, seed.wrapping_mul(7919).wrapping_add(offset));
        Tensor::from_vec(data, dims).unwrap()
    };
    [
        t(&[e, nq, dh], 0).scale(magnitude),
        t(&[e, nk, dh], 1_000).scale(magnitude),
        t(&[e, nk, dv], 2_000).scale(magnitude),
        t(&[e, nq, dv], 3_000),
    ]
}

/// [`Var::attention`] against [`attention_chain`], bit for bit, on
/// [`attention_case`] at threads {1, 2, 4}.
fn fused_attention_agrees_with_chain(dims: [usize; 5], magnitude: f32, scale: f32, seed: u64) {
    let [q, k, v, grad] = attention_case(dims, magnitude, seed);
    let [e, nq, nk, dh, dv] = dims;
    for threads in [1, 2, 4] {
        let (fused, chain) = lmmir_par::with_threads(threads, || {
            (
                attention_bits(
                    |q, k, v| Var::attention(q, k, v, scale).unwrap(),
                    (&q, &k, &v),
                    &grad,
                ),
                attention_bits(
                    |q, k, v| attention_chain(q, k, v, scale),
                    (&q, &k, &v),
                    &grad,
                ),
            )
        });
        for (name, (f, c)) in ["output", "dq", "dk", "dv"]
            .iter()
            .zip(fused.iter().zip(&chain))
        {
            assert_eq!(
                f, c,
                "{name} differs at {threads} threads: e {e}, nq {nq}, nk {nk}, dh {dh}, dv {dv}, \
                 magnitude {magnitude}, scale {scale}, seed {seed}"
            );
        }
    }
}

/// Magnitudes of the random operands: at 40 the scores of a row span far
/// more than the ~104 below its maximum where `exp` underflows to 0.
const ATTENTION_MAGNITUDES: [f32; 3] = [0.5, 3.0, 40.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_attention_matches_the_composed_chain(
        e in 1usize..6, nq in 1usize..10, nk in 1usize..10, dh in 1usize..7, dv in 1usize..7,
        magnitude in 0usize..3, scale in 0.1f32..1.5, seed in 0u64..1_000_000,
    ) {
        fused_attention_agrees_with_chain(
            [e, nq, nk, dh, dv],
            ATTENTION_MAGNITUDES[magnitude],
            scale,
            seed,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// The same property, deep: `cargo test --release -p lmmir-tensor -- --ignored`.
    #[test]
    #[ignore = "10,000 cases; run with --ignored"]
    fn fused_attention_matches_the_composed_chain_deep(
        e in 1usize..6, nq in 1usize..10, nk in 1usize..10, dh in 1usize..7, dv in 1usize..7,
        magnitude in 0usize..3, scale in 0.1f32..1.5, seed in 0u64..1_000_000,
    ) {
        fused_attention_agrees_with_chain(
            [e, nq, nk, dh, dv],
            ATTENTION_MAGNITUDES[magnitude],
            scale,
            seed,
        );
    }
}

/// Above both gates: every product of the chain is 2^22 MACs or more and
/// the four entries can occupy the pool, so the chain's batched products
/// and the fused op both fork whole entries at 2 and 4 threads.
#[test]
fn large_fused_attention_forks_entries_and_matches_the_chain() {
    fused_attention_agrees_with_chain([4, 128, 256, 32, 32], 1.0, 32f32.sqrt().recip(), 11);
}

/// Scores spread past `exp`'s underflow: some attention weights are exactly
/// 0, and the fused op still has the chain's bits.
#[test]
fn fused_attention_matches_the_chain_where_exp_underflows() {
    let [q, k, ..] = attention_case([2, 3, 5, 4, 2], 40.0, 5);
    let scores = linalg::bmm(&q, &k.permute(&[0, 2, 1]).unwrap()).unwrap();
    let attn = scores.scale(0.5).softmax_last();
    assert!(attn.data().contains(&0.0), "no weight underflowed");
    fused_attention_agrees_with_chain([2, 3, 5, 4, 2], 40.0, 0.5, 5);
}

// ---------------------------------------------------------------------------
// The backward engine: independent branches run side by side
// ---------------------------------------------------------------------------

/// Side of every branch value: 64² = 4096 elements, so a branch of eight or
/// more ops is worth a fork.
const SIDE: usize = 64;

/// The threads that ran a probe's backward.
type Seen = Arc<Mutex<HashSet<std::thread::ThreadId>>>;

/// Identity op whose backward records the thread it runs on.
fn probe(x: &Var, seen: &Seen) -> Var {
    let seen = Arc::clone(seen);
    Var::from_op(
        x.to_tensor(),
        vec![x.clone()],
        Box::new(move |g| {
            seen.lock().unwrap().insert(std::thread::current().id());
            vec![Some(g.clone())]
        }),
    )
}

fn param(dims: &[usize], seed: u64) -> Var {
    let data = pseudo(dims.iter().product(), seed);
    Var::parameter(Tensor::from_vec(data, dims).unwrap().scale(0.2))
}

/// A random graph of `branches` independent chains (each 10 to 15 ops over
/// its own parameters, starting at a probe), summed into a short trunk.
/// With `shared`, every branch also adds one common parameter twice, so
/// that leaf joins them and it collects four or more contributions whose
/// order shows in its bits. Returns the loss, the parameters and the
/// probes' threads.
fn branchy_graph(branches: usize, shared: bool, seed: u64) -> (Var, Vec<Var>, Seen) {
    let seen = Seen::default();
    let mut params = Vec::new();
    let common = param(&[SIDE, SIDE], seed ^ 0x5eed);
    if shared {
        params.push(common.clone());
    }
    let mut rng = seed;
    let mut next = |n: u64| {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (rng >> 33) % n
    };
    let mut sum: Option<Var> = None;
    for b in 0..branches {
        let input = param(&[SIDE, SIDE], seed.wrapping_add(100 * b as u64));
        params.push(input.clone());
        let mut h = probe(&input, &seen);
        let len = 10 + next(6);
        for step in 0..len {
            let op = next(7);
            // A small product keeps a debug build quick.
            let dims: &[usize] = if op == 4 { &[16, 16] } else { &[SIDE, SIDE] };
            let p = param(dims, seed.wrapping_add(100 * b as u64 + step + 1));
            h = match op {
                0 => h.relu(),
                1 => h.tanh(),
                2 => h.scale(0.75).add_scalar(0.1),
                3 => h.mul(&p).unwrap(),
                4 => {
                    let rows = h.reshape(&[SIDE * SIDE / 16, 16]).unwrap();
                    rows.matmul(&p).unwrap().reshape(&[SIDE, SIDE]).unwrap()
                }
                5 => h.add(&p).unwrap().sigmoid(),
                _ => h.square().scale(0.5),
            };
            if (3..6).contains(&op) {
                params.push(p);
            }
            if shared && (step == 0 || step == len - 1) {
                h = h.add(&common).unwrap();
            }
        }
        sum = Some(match sum {
            None => h,
            Some(acc) => acc.add(&h).unwrap(),
        });
    }
    let trunk = sum.expect("branches >= 2").tanh().square();
    (trunk.sum(), params, seen)
}

/// Every parameter's gradient bits after one backward of the graph.
fn branchy_grads(branches: usize, shared: bool, seed: u64) -> (Vec<Vec<u32>>, Seen) {
    let (loss, params, seen) = branchy_graph(branches, shared, seed);
    loss.backward();
    let bits = params
        .iter()
        .map(|p| {
            let g = p.grad().expect("every parameter is reached");
            g.data().iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    (bits, seen)
}

fn forked_backward_keeps_the_bits(branches: usize, shared: bool, seed: u64) {
    let me = std::thread::current().id();
    for eager in [false, true] {
        let run = |threads: usize| {
            let go = || lmmir_par::with_threads(threads, || branchy_grads(branches, shared, seed));
            if eager {
                lazy::with_eager(go)
            } else {
                go()
            }
        };
        let (want, seen) = run(1);
        assert_eq!(*seen.lock().unwrap(), HashSet::from([me]));
        for threads in [2, 4] {
            let (got, seen) = run(threads);
            assert!(
                got == want,
                "{branches} branches, shared {shared}, eager {eager}: \
                 gradients differ at {threads} threads"
            );
            // Independent branches fork; a shared leaf keeps them together.
            let threads_seen = seen.lock().unwrap().len();
            assert_eq!(
                threads_seen,
                if shared { 1 } else { 2 },
                "{branches} branches, shared {shared}: probes ran on {threads_seen} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn forked_backward_matches_one_thread(
        branches in 2usize..4, shared in 0usize..2, seed in 0u64..1_000_000,
    ) {
        forked_backward_keeps_the_bits(branches, shared == 1, seed);
    }
}

#[test]
fn forked_backward_matches_one_thread_with_a_shared_leaf() {
    for branches in [2, 3] {
        forked_backward_keeps_the_bits(branches, true, 7);
    }
}

/// What `autograd::join` carries into its worker: the tape switch, the
/// eager switch and the lazy counters (the worker's programs add to the
/// caller's). A raw thread carries nothing.
#[test]
fn a_forked_span_sees_the_callers_modes_and_counts() {
    let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
    let modes = || (x.scale(2.0).needs_grad(), lazy::eager_mode());
    lmmir_par::with_threads(2, || {
        let me = std::thread::current().id();
        let worker = || (std::thread::current().id() != me, modes());
        assert_eq!(
            autograd::join(worker, modes),
            ((true, (true, false)), (true, false))
        );
        let forked = autograd::no_grad(|| lazy::with_eager(|| autograd::join(worker, modes)));
        assert_eq!(forked, ((true, (false, true)), (false, true)));
        let raw = autograd::no_grad(|| {
            lazy::with_eager(|| std::thread::scope(|s| s.spawn(modes).join().unwrap()))
        });
        assert_eq!(raw, (true, false), "a raw thread starts from the defaults");

        let chain = |seed: u64| {
            let t = Tensor::from_vec(pseudo(4096, seed), &[4096]).unwrap();
            t.add_scalar(1.0).relu().scale(0.5).data()[0]
        };
        lazy::reset_stats();
        let _ = autograd::join(|| chain(1), || chain(2));
        let stats = lazy::stats();
        assert_eq!((stats.programs, stats.instructions), (2, 6), "{stats:?}");
    });
}
