//! Pins the lazy op-graph runtime: realized-vs-eager bitwise parity
//! (including NaN/Inf operands and the `0·inf` discipline), fused graph
//! shape, buffer reuse, diamond idempotence, and thread-count invariance.

use lmmir_tensor::lazy::{self, BinOp, Stats};
use lmmir_tensor::shape::{broadcast_shapes, BroadcastIter};
use lmmir_tensor::{Tensor, Var};
use proptest::prelude::*;

/// Applies the same op sequence lazily or eagerly. `codes` drives which op
/// runs at each step; `b` is the second operand for the binary steps.
fn run_chain(a: &Tensor, b: &Tensor, codes: &[u8]) -> Tensor {
    let mut t = a.clone();
    for (i, &c) in codes.iter().enumerate() {
        let k = (i as f32).mul_add(0.25, -1.0);
        t = match c % 10 {
            0 => t.relu(),
            1 => t.neg(),
            2 => t.add(b).expect("same shape"),
            3 => t.sub(b).expect("same shape"),
            4 => t.mul(b).expect("same shape"),
            5 => t.maximum(b).expect("same shape"),
            6 => t.scale(k),
            7 => t.add_scalar(k),
            8 => t.clamp(-2.0, 2.0),
            _ => t.div(b).expect("same shape"),
        };
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Operand values spanning the awkward cases: zeros, infinities, NaN.
fn awkward_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        10 => -3.0f32..3.0,
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => Just(f32::NAN),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any fused chain must be bitwise identical to the eager bypass,
    /// NaN payloads included.
    #[test]
    fn realized_matches_eager_bitwise(
        (a, b, codes) in (1usize..64).prop_flat_map(|n| (
            proptest::collection::vec(awkward_f32(), n),
            proptest::collection::vec(awkward_f32(), n),
            proptest::collection::vec(0u8..10, 1..12),
        )),
    ) {
        let n = a.len();
        let a = Tensor::from_vec(a, &[n]).unwrap();
        let b = Tensor::from_vec(b, &[n]).unwrap();
        let fused = run_chain(&a, &b, &codes);
        let eager = lazy::with_eager(|| run_chain(&a, &b, &codes));
        prop_assert_eq!(bits(&fused), bits(&eager));
    }

    /// PR 6 discipline: `0 · inf` must produce NaN — fusion may not skip
    /// "trivial" multiplies.
    #[test]
    fn zero_times_inf_is_nan_through_fusion(n in 1usize..32) {
        let zeros = Tensor::zeros(&[n]);
        let infs = Tensor::full(&[n], f32::INFINITY);
        // A chain around the product, so the product itself is fused. NaN is
        // checked before the relu (relu maps NaN to 0 in both paths).
        let fused = zeros.mul(&infs).unwrap().add_scalar(1.0);
        let eager = lazy::with_eager(|| {
            zeros.mul(&infs).unwrap().add_scalar(1.0)
        });
        prop_assert!(fused.data().iter().all(|v| v.is_nan()));
        prop_assert_eq!(bits(&fused), bits(&eager));
        prop_assert_eq!(bits(&fused.relu()), bits(&lazy::with_eager(|| eager.relu())));
    }
}

const BIN_OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Max];

fn apply_bin(op: BinOp, a: &Tensor, b: &Tensor) -> Tensor {
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::Div => a.div(b),
        BinOp::Max => a.maximum(b),
    }
    .expect("broadcast-compatible")
}

/// The odometer oracle: every output element through `BroadcastIter`'s
/// index pairs and the one scalar formula of the opcode.
fn oracle_bin(op: BinOp, a: &Tensor, b: &Tensor) -> Tensor {
    let dims = broadcast_shapes(a.dims(), b.dims(), "oracle").unwrap();
    let data = BroadcastIter::new(&dims, a.dims(), b.dims())
        .map(|(i, j)| op.apply(a.data()[i], b.data()[j]))
        .collect();
    Tensor::from_vec(data, &dims).unwrap()
}

/// `dims` with the axes in `mask` set to 1 and, when `strip`, leading
/// size-1 axes dropped (a lower-rank operand).
fn masked_dims(dims: &[usize], mask: u8, strip: bool) -> Vec<usize> {
    let masked: Vec<usize> = dims
        .iter()
        .enumerate()
        .map(|(ax, &d)| if mask >> ax & 1 == 1 { 1 } else { d })
        .collect();
    let lead = if strip {
        masked.iter().take_while(|&&d| d == 1).count()
    } else {
        0
    };
    masked[lead..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Broadcast binaries — expand nodes inside fused programs, the eager
    /// twin, and the odometer fallback for non-collapsible shapes — are
    /// bitwise identical to the `BroadcastIter` oracle: any rank, either
    /// operand (or both, or a scalar) broadcast, NaN/±inf operands, chained
    /// so two expands share a program, at any thread count.
    #[test]
    fn broadcast_binary_matches_odometer_oracle_bitwise(
        dims in proptest::collection::vec(1usize..6, 1..5),
        (mask_a, mask_b, mode) in (0u8..16, 0u8..16, 0u8..3),
        (strip_a, strip_b) in (0u8..2, 0u8..2),
        (op1, op2) in (0usize..5, 0usize..5),
        va in proptest::collection::vec(awkward_f32(), 625),
        vb in proptest::collection::vec(awkward_f32(), 625),
    ) {
        // mode 0/1: one side full (the fused patterns, both operand orders,
        // scalar when every axis is masked); mode 2: both sides broadcast.
        let mask_a = if mode == 0 { 0 } else { mask_a };
        let mask_b = if mode == 1 { 0 } else { mask_b };
        let da = masked_dims(&dims, mask_a, strip_a == 1);
        let db = masked_dims(&dims, mask_b, strip_b == 1);
        let a = Tensor::from_vec(va[..da.iter().product()].to_vec(), &da).unwrap();
        let b = Tensor::from_vec(vb[..db.iter().product()].to_vec(), &db).unwrap();
        let (op1, op2) = (BIN_OPS[op1], BIN_OPS[op2]);
        // (a op1 b) + 1, then op2 with `a` again as the left operand.
        let chain = || {
            let first = apply_bin(op1, &a, &b);
            (bits(&first), bits(&apply_bin(op2, &a, &first.add_scalar(1.0))))
        };
        let first = oracle_bin(op1, &a, &b);
        let second = oracle_bin(op2, &a, &first.map(|v| v + 1.0));
        let expect = (bits(&first), bits(&second));
        for threads in [1, 2, 7] {
            let got = lmmir_par::with_threads(threads, chain);
            prop_assert_eq!(&got, &expect, "lazy drift at {} threads", threads);
        }
        prop_assert_eq!(&lazy::with_eager(chain), &expect, "eager twin drift");
    }
}

/// Stats delta across `f`, on this thread.
fn stat_delta(f: impl FnOnce()) -> Stats {
    lazy::reset_stats();
    f();
    lazy::stats()
}

#[test]
fn chain_of_n_ops_realizes_as_one_fused_loop() {
    const N: usize = 9;
    let x = Tensor::from_vec((0..256).map(|i| i as f32 * 0.1 - 12.0).collect(), &[256]).unwrap();
    let y = Tensor::full(&[256], 0.75);
    let s = stat_delta(|| {
        let mut t = x.clone();
        for _ in 0..N / 3 {
            t = t.mul(&y).unwrap().add_scalar(0.01).relu();
        }
        assert!(!t.is_realized());
        t.force();
        assert!(t.is_realized());
    });
    assert_eq!(s.programs, 1, "N elementwise ops must fuse into one loop");
    assert_eq!(s.instructions, N, "every op must appear in the one program");
}

/// conv → +bias → eval-BatchNorm (`sub·div·mul·add`) → relu: every operand
/// after the activation is a per-channel `[1,C,1,1]` broadcast, and the
/// whole block is one pass and one buffer (plus the C-element `denom`).
#[test]
fn broadcast_block_realizes_as_one_program() {
    let (c, hw) = (8, 16 * 16);
    let per_channel = |k: f32| {
        Tensor::from_vec((0..c).map(|i| k + i as f32 * 0.25).collect(), &[1, c, 1, 1]).unwrap()
    };
    let x = Tensor::from_vec(
        (0..c * hw).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
        &[1, c, 16, 16],
    )
    .unwrap();
    let (bias, mean, var) = (per_channel(-1.0), per_channel(0.1), per_channel(0.5));
    let (gamma, beta) = (per_channel(1.5), per_channel(-0.5));
    let block = || {
        let denom = var.add_scalar(1e-5).sqrt();
        let y = x
            .add(&bias)
            .unwrap()
            .sub(&mean)
            .unwrap()
            .div(&denom)
            .unwrap();
        y.mul(&gamma).unwrap().add(&beta).unwrap().relu()
    };
    let mut fused = Vec::new();
    let s = stat_delta(|| {
        let y = block();
        assert!(!y.is_realized(), "broadcast ops must stay pending");
        fused = bits(&y);
    });
    assert_eq!(s.programs, 2, "one program for denom, one for the block");
    // denom: add_scalar, sqrt; block: 5 binaries + 5 expands + relu.
    assert_eq!(s.instructions, 2 + 11);
    assert!(
        s.fresh_allocs + s.pool_hits == 2,
        "two output buffers in total"
    );
    assert_eq!(
        fused,
        lazy::with_eager(|| bits(&block())),
        "lazy vs eager drift"
    );
}

/// `0 · inf` through a broadcast operand is still NaN, on both runtimes.
#[test]
fn zero_times_inf_is_nan_through_broadcast() {
    let zeros = Tensor::zeros(&[3, 4]);
    let infs = Tensor::full(&[4], f32::INFINITY);
    for (a, b) in [(&zeros, &infs), (&infs, &zeros)] {
        let run = || bits(&a.mul(b).unwrap().add_scalar(1.0));
        let lazy_bits = run();
        assert!(lazy_bits.iter().all(|&v| f32::from_bits(v).is_nan()));
        assert_eq!(lazy_bits, lazy::with_eager(run));
    }
}

/// Past the executor's fork threshold the expand instruction runs in worker
/// spans at non-zero block offsets; planes of 900 and 50 channels make every
/// run boundary fall inside a block.
#[test]
fn large_broadcast_program_is_thread_invariant_and_matches_oracle() {
    let dims = [3, 50, 30, 30];
    let gen = |n: usize, k: f32| (0..n).map(|i| (i as f32 * k).sin() * 2.0).collect();
    let x = Tensor::from_vec(gen(135_000, 0.37), &dims).unwrap();
    let scale = Tensor::from_vec(gen(50, 0.91), &[1, 50, 1, 1]).unwrap();
    let gate = Tensor::from_vec(gen(900, 0.13), &[1, 1, 30, 30]).unwrap();
    let shift = Tensor::from_vec(gen(30, 0.71), &[30]).unwrap();
    // 4 binaries + 4 expands over 135 000 elements: 1.08e6 >= 2^20.
    let chain = || {
        let y = x.mul(&scale).unwrap().add(&shift).unwrap();
        bits(&gate.sub(&y).unwrap().maximum(&scale).unwrap())
    };
    let y = oracle_bin(BinOp::Add, &oracle_bin(BinOp::Mul, &x, &scale), &shift);
    let expect = bits(&oracle_bin(
        BinOp::Max,
        &oracle_bin(BinOp::Sub, &gate, &y),
        &scale,
    ));
    for threads in [1, 2, 7] {
        let got = lmmir_par::with_threads(threads, chain);
        assert_eq!(got, expect, "drift at {threads} threads");
    }
    assert_eq!(lazy::with_eager(chain), expect, "eager twin drift");
}

#[test]
fn fused_chain_allocates_one_output_and_recycles_it() {
    let n = 4096;
    let x = Tensor::full(&[n], 1.5);
    let y = Tensor::full(&[n], -0.5);
    let chain = |x: &Tensor, y: &Tensor| {
        x.mul(y)
            .unwrap()
            .relu()
            .add_scalar(1.0)
            .sub(y)
            .unwrap()
            .scale(0.5)
    };
    // Warm-up realizes leaves and fills nothing: x/y buffers pre-exist.
    let first = stat_delta(|| {
        let t = chain(&x, &y);
        t.force();
        drop(t); // returns the single output buffer to the pool
    });
    assert_eq!(first.programs, 1);
    assert_eq!(
        first.fresh_allocs, 1,
        "a fused chain must allocate exactly its output — no per-op intermediates"
    );
    // Steady state: the recycled output buffer serves the next realize.
    let second = stat_delta(|| {
        let t = chain(&x, &y);
        t.force();
        drop(t);
    });
    assert_eq!(second.programs, 1);
    assert_eq!(second.fresh_allocs, 0, "steady state must not allocate");
    assert_eq!(second.pool_hits, 1);
}

#[test]
fn diamond_subexpression_computes_once_and_realize_is_idempotent() {
    let a = Tensor::full(&[512], 2.0);
    let b = Tensor::full(&[512], 3.0);
    let s = stat_delta(|| {
        // shared = a*b, consumed twice: out = relu(shared) + (shared - b).
        let shared = a.mul(&b).unwrap();
        let out = shared.relu().add(&shared.sub(&b).unwrap()).unwrap();
        out.force();
        assert!(shared.is_realized(), "diamond base must be materialized");
        assert_eq!(out.data()[0], 9.0);
        // Realizing again must be a no-op (idempotence)...
        out.force();
        assert_eq!(out.data()[0], 9.0);
        // ...and the shared node's buffer stays valid for direct reads.
        assert_eq!(shared.data()[0], 6.0);
    });
    assert_eq!(
        s.programs, 2,
        "diamond: one program for the shared base, one for the fused rest"
    );
    // relu + sub + add fused into the root program; mul ran alone.
    assert_eq!(s.instructions, 4);
}

#[test]
fn realizing_shared_subexpression_twice_never_double_frees() {
    // Drop order stress: realize a diamond, drop the root first, then the
    // shared node, then rebuild from recycled buffers — a double-free or
    // stale-buffer bug would corrupt the second round's values.
    for _ in 0..16 {
        let base = Tensor::full(&[1024], 1.0);
        let shared = base.add_scalar(1.0);
        let left = shared.scale(2.0);
        let right = shared.neg();
        let root = left.add(&right).unwrap();
        root.force();
        root.force();
        assert_eq!(root.data()[0], 2.0);
        drop(root);
        drop(shared);
        let rebuilt = base.add_scalar(5.0).scale(3.0);
        assert_eq!(rebuilt.data()[0], 18.0);
    }
}

#[test]
fn fused_loops_are_thread_count_invariant() {
    // Big enough to cross the executor's parallel threshold: six fused
    // instructions over 2^18 elements against a bar of 2^20 element-ops.
    let n = 256 * 1024;
    let vals: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin() * 4.0).collect();
    let x = Tensor::from_vec(vals, &[n]).unwrap();
    let skip = x.scale(0.9).add_scalar(0.05);
    let chain = || {
        // The PR 8 max head shape: skip + relu(t - skip).
        let t = x.mul(&skip).unwrap().add_scalar(0.1).relu();
        skip.add(&t.sub(&skip).unwrap().relu()).unwrap()
    };
    skip.force();
    let sequential = lmmir_par::with_threads(1, || bits(&chain()));
    for threads in [2, 3, 7] {
        let parallel = lmmir_par::with_threads(threads, || bits(&chain()));
        assert_eq!(parallel, sequential, "bitwise drift at {threads} threads");
    }
    let eager = lazy::with_eager(|| bits(&chain()));
    assert_eq!(eager, sequential, "lazy vs eager drift");
}

#[test]
fn forward_and_backward_chains_match_eager_bitwise() {
    let run = || {
        let x = Var::parameter(
            Tensor::from_vec((0..128).map(|i| (i as f32) * 0.11 - 7.0).collect(), &[128]).unwrap(),
        );
        let w = Var::parameter(Tensor::full(&[128], 0.3));
        let y = x
            .mul(&w)
            .expect("same shape")
            .relu()
            .sigmoid()
            .square()
            .sum();
        y.backward();
        (
            y.to_tensor().into_vec(),
            bits(&x.grad().expect("x grad")),
            bits(&w.grad().expect("w grad")),
        )
    };
    let lazy_out = run();
    let eager_out = lazy::with_eager(run);
    assert_eq!(lazy_out.0, eager_out.0);
    assert_eq!(lazy_out.1, eager_out.1, "x gradient drift");
    assert_eq!(lazy_out.2, eager_out.2, "w gradient drift");
}

#[test]
fn deep_pending_chain_realizes_and_drops_without_overflow() {
    let mut t = Tensor::zeros(&[8]);
    for _ in 0..20_000 {
        t = t.add_scalar(1.0);
    }
    assert_eq!(t.data()[0], 20_000.0);
}
