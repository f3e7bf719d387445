//! Determinism suite: the compute kernels threaded through `lmmir-par`
//! must produce **bitwise identical** outputs at every thread count.
//!
//! Each kernel runs at `LMMIR_THREADS` ∈ {1, 2, 7} — `1` is the forced
//! sequential path, `2` the smallest real fan-out, and `7` an odd count
//! chosen to produce ragged remainder chunks (uneven spans plus a short
//! tail unit). Shapes are sized past the kernels' parallel-work thresholds
//! so the parallel code path genuinely executes.
//!
//! A process-global mutex serializes the tests because the thread count is
//! process-global state.

use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_solver::{grid_laplacian, stamp, Cholesky, Csr};
use lmmir_tensor::conv::{conv2d, conv2d_backward, ConvSpec};
use lmmir_tensor::{linalg, Tensor};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Deterministic pseudo-random f32s (splitmix-style), no rand dependency.
fn noise(count: usize, mut seed: u64) -> Vec<f32> {
    (0..count)
        .map(|_| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str, threads: usize) {
    assert_eq!(
        a.len(),
        b.len(),
        "{what}: length drift at {threads} threads"
    );
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} drifted at {threads} threads ({x} vs {y})"
        );
    }
}

#[test]
fn matmul_is_bitwise_identical_across_thread_counts() {
    let _guard = lock();
    // 176·160·168 ≈ 4.7e6 MACs — past the 2^22 gemm parallel threshold.
    let a = Tensor::from_vec(noise(176 * 160, 1), &[176, 160]).unwrap();
    let b = Tensor::from_vec(noise(160 * 168, 2), &[160, 168]).unwrap();
    let at = Tensor::from_vec(noise(160 * 176, 3), &[160, 176]).unwrap();
    let bt = Tensor::from_vec(noise(168 * 160, 4), &[168, 160]).unwrap();

    let reference = lmmir_par::with_threads(1, || {
        (
            linalg::matmul(&a, &b).unwrap(),
            linalg::matmul_tn(&at, &b).unwrap(),
            linalg::matmul_nt(&a, &bt).unwrap(),
        )
    });
    for threads in THREAD_COUNTS {
        let (nn, tn, nt) = lmmir_par::with_threads(threads, || {
            (
                linalg::matmul(&a, &b).unwrap(),
                linalg::matmul_tn(&at, &b).unwrap(),
                linalg::matmul_nt(&a, &bt).unwrap(),
            )
        });
        assert_bits_eq(reference.0.data(), nn.data(), "matmul", threads);
        assert_bits_eq(reference.1.data(), tn.data(), "matmul_tn", threads);
        assert_bits_eq(reference.2.data(), nt.data(), "matmul_nt", threads);
    }
}

#[test]
fn conv2d_forward_and_backward_are_bitwise_identical_across_thread_counts() {
    let _guard = lock();
    // 16 input channels (> the odd 7-thread count), 88×88 plane: the im2col
    // buffer (144×7744 ≈ 1.1e6 elements, bar 2^20) and the gemms (1.8e7
    // MACs, bar 2^22) both cross their parallel thresholds.
    let x = Tensor::from_vec(noise(2 * 16 * 88 * 88, 5), &[2, 16, 88, 88]).unwrap();
    let w = Tensor::from_vec(noise(16 * 16 * 3 * 3, 6), &[16, 16, 3, 3]).unwrap();
    let spec = ConvSpec::new(1, 1);

    let y_ref = lmmir_par::with_threads(1, || conv2d(&x, &w, None, spec).unwrap());
    let g = Tensor::from_vec(noise(y_ref.numel(), 7), y_ref.dims()).unwrap();
    let grads_ref = lmmir_par::with_threads(1, || conv2d_backward(&x, &w, &g, spec).unwrap());

    for threads in THREAD_COUNTS {
        let (y, grads) = lmmir_par::with_threads(threads, || {
            (
                conv2d(&x, &w, None, spec).unwrap(),
                conv2d_backward(&x, &w, &g, spec).unwrap(),
            )
        });
        assert_bits_eq(y_ref.data(), y.data(), "conv2d forward", threads);
        assert_bits_eq(grads_ref.0.data(), grads.0.data(), "conv2d dx", threads);
        assert_bits_eq(
            grads_ref.1.data(),
            grads.1.data(),
            "conv2d dweight",
            threads,
        );
        assert_bits_eq(grads_ref.2.data(), grads.2.data(), "conv2d dbias", threads);
    }
}

/// Factors `matrix` and solves `rhs` at each of `LMMIR_THREADS` {1, 2, 4}:
/// `nnz(L)` and every solution bit must match the single-thread run.
fn assert_factor_and_solve_bitwise(what: &str, matrix: &Csr, coords: &[(i64, i64)], rhs: &[f64]) {
    let run = |threads: usize| {
        lmmir_par::with_threads(threads, || {
            let factor = Cholesky::factor(matrix, coords).expect("SPD system factors");
            (
                factor.nnz(),
                factor.solve(rhs).expect("solve passes its residual check"),
            )
        })
    };
    let (nnz, reference) = run(1);
    assert!(nnz > matrix.n(), "{what}: the factor fills in");
    for threads in [2, 4] {
        let (other_nnz, x) = run(threads);
        assert_eq!(
            nnz, other_nnz,
            "{what}: nnz(L) drifted at {threads} threads"
        );
        for (i, (a, b)) in reference.iter().zip(&x).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: solution element {i} drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn factor_and_solve_are_bitwise_identical_across_thread_counts() {
    let _guard = lock();
    let side = 116;
    let coords: Vec<(i64, i64)> = (0..side * side)
        .map(|i| ((i % side) as i64, (i / side) as i64))
        .collect();
    let b: Vec<f64> = (0..side * side)
        .map(|i| 1.0 + 0.25 * (i as f64 * 0.37).sin())
        .collect();
    assert_factor_and_solve_bitwise("grid Laplacian", &grid_laplacian(side), &coords, &b);

    let case = CaseSpec::new("det", 64, 64, 5, CaseKind::Hidden).generate();
    let sys = stamp(&case.netlist).expect("generated design stamps");
    let coords: Vec<(i64, i64)> = sys.unknowns.iter().map(|n| (n.x, n.y)).collect();
    assert_factor_and_solve_bitwise("64 um design", &sys.matrix, &coords, &sys.rhs);
}

#[test]
fn lmmir_threads_env_var_selects_the_pool_size() {
    let _guard = lock();
    // Restore the pre-test variable on exit so a CI-matrix pin
    // (`LMMIR_THREADS=4 cargo test`) survives this test.
    struct EnvRestore(Option<String>);
    impl Drop for EnvRestore {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var("LMMIR_THREADS", v),
                None => std::env::remove_var("LMMIR_THREADS"),
            }
        }
    }
    let _env = EnvRestore(std::env::var("LMMIR_THREADS").ok());

    assert_eq!(lmmir_par::thread_override(), None, "no override leaking in");
    std::env::set_var("LMMIR_THREADS", "7");
    assert_eq!(lmmir_par::num_threads(), 7);
    // The env var drives real kernels exactly like the override does.
    let a = Tensor::from_vec(noise(96 * 64, 8), &[96, 64]).unwrap();
    let b = Tensor::from_vec(noise(64 * 80, 9), &[64, 80]).unwrap();
    let via_env = linalg::matmul(&a, &b).unwrap();
    std::env::set_var("LMMIR_THREADS", "1");
    let sequential = linalg::matmul(&a, &b).unwrap();
    assert_bits_eq(sequential.data(), via_env.data(), "env-var matmul", 7);
}
