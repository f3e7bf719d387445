//! Tiled-packed GEMM vs naive reference: exact (bitwise) equality over
//! adversarial shapes, IEEE NaN/Inf propagation parity across every kernel
//! variant, and thread-count invariance.
//!
//! The tiled kernels claim *bitwise* interchangeability with the reference
//! kernels (see `linalg`), so every comparison here is on bit patterns, not
//! tolerances — NaN payloads included.

use lmmir_tensor::linalg::{
    bmm, bmm_nt, bmm_tn, gemm_reference, gemm_tiled, matmul, matmul_nt, matmul_tn,
};
use lmmir_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic pseudo-random values spanning magnitudes and signs.
fn pseudo(count: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
            (u - 0.5) * 4.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Adversarial sizes around the register-tile (4/16), band (64), slab (256)
/// and stripe (512) boundaries, plus non-multiples.
const SIZES: &[usize] = &[1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 100, 255, 256, 257];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed NN kernel is bitwise identical to the naive `i-k-j`
    /// reference on every shape, including single rows/columns and sizes
    /// straddling each block boundary.
    #[test]
    fn tiled_gemm_bitwise_matches_reference(
        mi in 0usize..14,
        ki in 0usize..14,
        ni in 0usize..14,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (SIZES[mi], SIZES[ki], SIZES[ni]);
        let a = pseudo(m * k, seed);
        let b = pseudo(k * n, seed ^ 0xABCD);
        // Nonzero initial C exercises the store/reload chain between slabs.
        let c0 = pseudo(m * n, seed ^ 0x1234);
        let mut c_ref = c0.clone();
        gemm_reference(m, k, n, &a, &b, &mut c_ref);
        let mut c_tiled = c0;
        gemm_tiled(m, k, n, &a, &b, &mut c_tiled);
        prop_assert_eq!(bits(&c_ref), bits(&c_tiled));
    }

    /// The public matmul variants (which dispatch between the families by
    /// size and partition rows by thread count) stay bitwise identical to
    /// a forced-sequential naive run.
    #[test]
    fn matmul_variants_bitwise_thread_invariant(
        mi in 0usize..14,
        ki in 0usize..10,
        ni in 0usize..10,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (SIZES[mi], SIZES[ki], SIZES[ni]);
        let a = Tensor::from_vec(pseudo(m * k, seed), &[m, k]).unwrap();
        let b = Tensor::from_vec(pseudo(k * n, seed ^ 99), &[k, n]).unwrap();
        let at = Tensor::from_vec(pseudo(k * m, seed ^ 7), &[k, m]).unwrap();
        let bt = Tensor::from_vec(pseudo(n * k, seed ^ 13), &[n, k]).unwrap();
        let base = lmmir_par::with_threads(1, || {
            (
                matmul(&a, &b).unwrap(),
                matmul_tn(&at, &b).unwrap(),
                matmul_nt(&a, &bt).unwrap(),
            )
        });
        for threads in [2, 4] {
            let (nn, tn, nt) = lmmir_par::with_threads(threads, || {
                (
                    matmul(&a, &b).unwrap(),
                    matmul_tn(&at, &b).unwrap(),
                    matmul_nt(&a, &bt).unwrap(),
                )
            });
            prop_assert_eq!(bits(base.0.data()), bits(nn.data()));
            prop_assert_eq!(bits(base.1.data()), bits(tn.data()));
            prop_assert_eq!(bits(base.2.data()), bits(nt.data()));
        }
    }
}

/// The randomized shapes above top out near 1e6 MACs — below the 2^22 fork
/// threshold, so they pin the sequential dispatch. These fixed adversarial
/// shapes (block-boundary straddlers, a tall ragged one) cross it, so the
/// row-partitioned drivers of all three variants genuinely run and must
/// reproduce the one-thread bits.
#[test]
fn matmul_variants_past_the_fork_threshold_are_thread_invariant() {
    for (m, k, n) in [(257, 130, 129), (129, 257, 130), (1030, 65, 64)] {
        assert!(m * k * n >= 1 << 22);
        let a = Tensor::from_vec(pseudo(m * k, 5), &[m, k]).unwrap();
        let b = Tensor::from_vec(pseudo(k * n, 6), &[k, n]).unwrap();
        let at = Tensor::from_vec(pseudo(k * m, 7), &[k, m]).unwrap();
        let bt = Tensor::from_vec(pseudo(n * k, 8), &[n, k]).unwrap();
        let run = || {
            [
                bits(matmul(&a, &b).unwrap().data()),
                bits(matmul_tn(&at, &b).unwrap().data()),
                bits(matmul_nt(&a, &bt).unwrap().data()),
            ]
        };
        let base = lmmir_par::with_threads(1, run);
        for threads in [2, 4, 7] {
            assert_eq!(
                lmmir_par::with_threads(threads, run),
                base,
                "{m}x{k}x{n} drifted at {threads} threads"
            );
        }
    }
}

/// Builds an `[m,k]` left operand whose row 0 contains an exact `0.0` at
/// contraction index 0, paired with a right operand carrying `inf` there:
/// IEEE 754 requires the product to be NaN, which must survive into the
/// output (the old kernels skipped zero multiplicands and lost it).
fn poisoned_pair(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let mut a = pseudo(m * k, 42);
    let mut b = pseudo(k * n, 43);
    a[0] = 0.0; // a[0,0]
    b[0] = f32::INFINITY; // b[0,0]
                          // A second poisoned site away from the origin, mid-matrix.
    let (ip, pp, jp) = (m - 1, k - 1, n - 1);
    a[ip * k + pp] = -0.0;
    b[pp * n + jp] = f32::NEG_INFINITY;
    (a, b)
}

#[test]
fn zero_times_inf_propagates_nan_in_all_variants() {
    // Big enough to cross both the tiling and the 2^22-MAC parallel
    // thresholds.
    let (m, k, n) = (176, 160, 152);
    let (a, b) = poisoned_pair(m, k, n);
    let av = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
    let bv = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
    // Transposed layouts carrying the same poisoned contraction sites.
    let at = Tensor::from_vec(av.transpose2().unwrap().data().to_vec(), &[k, m]).unwrap();
    let bt = Tensor::from_vec(bv.transpose2().unwrap().data().to_vec(), &[n, k]).unwrap();
    let a3 = Tensor::from_vec(a, &[1, m, k]).unwrap();
    let b3 = Tensor::from_vec(b, &[1, k, n]).unwrap();
    let at3 = Tensor::from_vec(at.data().to_vec(), &[1, k, m]).unwrap();
    let bt3 = Tensor::from_vec(bt.data().to_vec(), &[1, n, k]).unwrap();

    let mut reference = None;
    for threads in [1, 4] {
        let outs = lmmir_par::with_threads(threads, || {
            [
                matmul(&av, &bv).unwrap(),
                matmul_tn(&at, &bv).unwrap(),
                matmul_nt(&av, &bt).unwrap(),
                bmm(&a3, &b3).unwrap().reshape(&[m, n]).unwrap(),
                bmm_tn(&at3, &b3).unwrap().reshape(&[m, n]).unwrap(),
                bmm_nt(&a3, &bt3).unwrap().reshape(&[m, n]).unwrap(),
            ]
        });
        for (vi, out) in outs.iter().enumerate() {
            assert!(
                out.data()[0].is_nan(),
                "variant {vi} at {threads} threads lost 0*inf => NaN at (0,0)"
            );
            assert!(
                out.data()[(m - 1) * n + (n - 1)].is_nan(),
                "variant {vi} at {threads} threads lost -0*-inf => NaN at (m-1,n-1)"
            );
        }
        // All six variants must also agree bitwise across thread counts.
        let fingerprint: Vec<Vec<u32>> = outs.iter().map(|o| bits(o.data())).collect();
        match &reference {
            None => reference = Some(fingerprint),
            Some(base) => assert_eq!(base, &fingerprint, "NaN bits differ across thread counts"),
        }
    }
}

#[test]
fn tiled_kernel_propagates_nan_like_reference() {
    let (m, k, n) = (17, 300, 33); // two KC slabs, ragged tiles
    let (a, b) = poisoned_pair(m, k, n);
    let mut c_ref = vec![0.0f32; m * n];
    gemm_reference(m, k, n, &a, &b, &mut c_ref);
    let mut c_tiled = vec![0.0f32; m * n];
    gemm_tiled(m, k, n, &a, &b, &mut c_tiled);
    assert!(c_ref[0].is_nan() && c_tiled[0].is_nan());
    assert_eq!(bits(&c_ref), bits(&c_tiled), "NaN payload/bit parity");
}

/// Row-major transpose of an `[r, c]` matrix.
fn transposed(v: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; v.len()];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = v[i * c + j];
        }
    }
    out
}

/// The layout oracle: `matmul_tn`, `matmul_nt`, `bmm_tn` and `bmm_nt` over
/// `ba` entries of an `m`×`k`×`n` product must equal, bit for bit,
/// [`gemm_reference`] run on explicitly transposed operands into a zeroed
/// `C`, at one, two and four threads.
fn assert_layouts_match_reference(ba: usize, m: usize, k: usize, n: usize, seed: u64) {
    let (mk, kn) = (m * k, k * n);
    // TN operands: `at` holds each entry's `[k, m]`; NT: `bt` each `[n, k]`.
    let at = pseudo(ba * mk, seed);
    let b = pseudo(ba * kn, seed ^ 0x55);
    let a = pseudo(ba * mk, seed ^ 0x77);
    let bt = pseudo(ba * kn, seed ^ 0x99);
    let mut tn_ref = vec![0.0f32; ba * m * n];
    let mut nt_ref = vec![0.0f32; ba * m * n];
    for e in 0..ba {
        let (ea, eb) = (e * mk..(e + 1) * mk, e * kn..(e + 1) * kn);
        let c = e * m * n..(e + 1) * m * n;
        let a_explicit = transposed(&at[ea.clone()], k, m);
        gemm_reference(m, k, n, &a_explicit, &b[eb.clone()], &mut tn_ref[c.clone()]);
        let b_explicit = transposed(&bt[eb], n, k);
        gemm_reference(m, k, n, &a[ea], &b_explicit, &mut nt_ref[c]);
    }
    let t3 = |v: &[f32], d: [usize; 3]| Tensor::from_vec(v.to_vec(), &d).unwrap();
    let (at3, b3) = (t3(&at, [ba, k, m]), t3(&b, [ba, k, n]));
    let (a3, bt3) = (t3(&a, [ba, m, k]), t3(&bt, [ba, n, k]));
    for threads in [1, 2, 4] {
        let (tn, nt) = lmmir_par::with_threads(threads, || {
            (bmm_tn(&at3, &b3).unwrap(), bmm_nt(&a3, &bt3).unwrap())
        });
        let at_ = format!("{ba}x{m}x{k}x{n} at {threads} threads");
        assert_eq!(bits(&tn_ref), bits(tn.data()), "bmm_tn {at_}");
        assert_eq!(bits(&nt_ref), bits(nt.data()), "bmm_nt {at_}");
        if ba == 1 {
            let t2 = |v: &[f32], r, c| Tensor::from_vec(v.to_vec(), &[r, c]).unwrap();
            let (tn, nt) = lmmir_par::with_threads(threads, || {
                (
                    matmul_tn(&t2(&at, k, m), &t2(&b, k, n)).unwrap(),
                    matmul_nt(&t2(&a, m, k), &t2(&bt, n, k)).unwrap(),
                )
            });
            assert_eq!(bits(&tn_ref), bits(tn.data()), "matmul_tn {at_}");
            assert_eq!(bits(&nt_ref), bits(nt.data()), "matmul_nt {at_}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The transposed layouts against the NN oracle over the adversarial
    /// block-boundary sizes, one and two batch entries.
    #[test]
    fn transposed_layouts_bitwise_match_reference(
        mi in 0usize..14,
        ki in 0usize..14,
        ni in 0usize..11,
        ba in 1usize..3,
        seed in 0u64..1000,
    ) {
        assert_layouts_match_reference(ba, SIZES[mi], SIZES[ki], SIZES[ni], seed);
    }
}

/// Depths straddling 2048 and spanning several 256-deep slabs: a deep NT
/// product must keep the reference's rounding chain however its depth is
/// blocked.
#[test]
fn transposed_layouts_bitwise_match_reference_at_depth() {
    for (i, k) in [2047, 2048, 2049, 4100].into_iter().enumerate() {
        assert_layouts_match_reference(1, 17, k, 33, i as u64);
        assert_layouts_match_reference(2, 9, k, 20, 10 + i as u64);
    }
}

/// Shapes past the `2^22`-MAC fork gate, so the row-partitioned products
/// and the entry-forked batches both run.
#[test]
fn transposed_layouts_bitwise_match_reference_past_the_fork_gate() {
    // 4.31 M and 4.36 M multiply-accumulates, against 2^22 = 4.19 M.
    assert_layouts_match_reference(1, 129, 257, 130, 21);
    assert_layouts_match_reference(4, 65, 129, 130, 22);
}
