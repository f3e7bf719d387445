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
