//! Jacobi-preconditioned conjugate-gradient solver.
//!
//! The iteration is organized as three fused, parallel phases per step —
//! `Ap` + `p·Ap`, the `x`/`r`/`z` update + `r·r`/`r·z`, and the search-
//! direction update — partitioned over fixed [`BLOCK`]-row blocks. Block
//! boundaries and the fold order of per-block partial sums depend only on
//! the system size, never on `LMMIR_THREADS`, so the solve is bitwise
//! deterministic at every thread count (including the sequential `1`).
//!
//! Whether the phases fork at all is decided **once per solve**
//! (`PAR_MIN_ITER_WORK`): an iteration forks three times, so on small
//! systems the forks used to cost more than the arithmetic.

use crate::sparse::Csr;
use lmmir_par::{par_chunks_mut, par_parts, par_sum_blocks, units_mut};
use std::fmt;

/// Rows per reduction/update block. One block is also the smallest unit of
/// parallel work, so systems below this size run inline on the caller.
const BLOCK: usize = 4096;

/// Minimum per-iteration work (`nnz + 8 n`: one SpMV plus the vector
/// updates and dot products, ~1–2 ns each) before a solve forks. Each
/// iteration forks three times at 30–100 µs per fork on the bench box, so
/// `2^21` ≈ 2–4 ms of arithmetic keeps forking under ~10 % of an iteration.
/// Below it the 64 µm golden solve took 70–106 ms at 2 threads against
/// 20.9 ms at 1.
const PAR_MIN_ITER_WORK: usize = 1 << 21;

/// Convergence parameters for [`solve_cg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Maximum number of iterations before giving up.
    pub max_iters: usize,
    /// Relative residual tolerance `||r|| / ||b||`.
    pub tol: f64,
    /// Enable Jacobi (diagonal) preconditioning. PDN conductance matrices
    /// have wildly varying diagonals (fine `m1` rails vs thick top stripes),
    /// so disabling this typically multiplies iteration counts — exposed as
    /// a design-choice ablation for the solver benchmark.
    pub jacobi: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            max_iters: 20_000,
            tol: 1e-10,
            jacobi: true,
        }
    }
}

/// Successful CG solve with convergence diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations consumed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Error from [`solve_cg`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveCgError {
    /// Right-hand side length differs from the matrix dimension.
    DimensionMismatch {
        /// Matrix dimension.
        n: usize,
        /// RHS length.
        rhs: usize,
    },
    /// A zero or negative diagonal entry makes Jacobi preconditioning (and
    /// SPD-ness) impossible — typically a floating node.
    BadDiagonal {
        /// Row with the bad diagonal.
        row: usize,
        /// The diagonal value.
        value: f64,
    },
    /// The iteration did not reach `tol` within `max_iters`.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Relative residual reached.
        residual: f64,
    },
}

impl fmt::Display for SolveCgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveCgError::DimensionMismatch { n, rhs } => {
                write!(f, "rhs length {rhs} does not match matrix dimension {n}")
            }
            SolveCgError::BadDiagonal { row, value } => {
                write!(
                    f,
                    "non-positive diagonal {value} at row {row} (floating node?)"
                )
            }
            SolveCgError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "cg did not converge: residual {residual:.3e} after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for SolveCgError {}

/// Solves `A x = b` for symmetric positive definite `A` with
/// Jacobi-preconditioned conjugate gradients.
///
/// # Errors
///
/// Returns [`SolveCgError`] on dimension mismatch, a non-positive diagonal,
/// or failure to converge within `cfg.max_iters`.
pub fn solve_cg(a: &Csr, b: &[f64], cfg: CgConfig) -> Result<CgSolution, SolveCgError> {
    let n = a.n();
    let blocks = n.div_ceil(BLOCK);
    if lmmir_par::worth_parallelizing(blocks, a.nnz() + 8 * n, PAR_MIN_ITER_WORK) {
        solve_cg_forked(a, b, cfg)
    } else {
        lmmir_par::with_threads(1, || solve_cg_forked(a, b, cfg))
    }
}

/// [`solve_cg`] without the size gate: every phase goes through the
/// parallel drivers at the caller's thread count. Bitwise identical to
/// [`solve_cg`]; exists so parity tests can fork on systems far below the
/// size where forking pays.
///
/// # Errors
///
/// As for [`solve_cg`].
pub fn solve_cg_forked(a: &Csr, b: &[f64], cfg: CgConfig) -> Result<CgSolution, SolveCgError> {
    let n = a.n();
    if b.len() != n {
        return Err(SolveCgError::DimensionMismatch { n, rhs: b.len() });
    }
    if n == 0 {
        return Ok(CgSolution {
            x: Vec::new(),
            iterations: 0,
            residual: 0.0,
        });
    }
    let diag = a.diag();
    for (i, &d) in diag.iter().enumerate() {
        if d <= 0.0 {
            return Err(SolveCgError::BadDiagonal { row: i, value: d });
        }
    }
    let inv_diag: Vec<f64> = if cfg.jacobi {
        diag.iter().map(|&d| 1.0 / d).collect()
    } else {
        vec![1.0; n]
    };

    let bnorm = dot(b, b).sqrt();
    if bnorm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }

    let blocks = n.div_ceil(BLOCK);
    let mut pap_partials = vec![0.0f64; blocks];
    let mut norm_partials = vec![(0.0f64, 0.0f64); blocks];

    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec(); // r = b - A*0
    let mut z = vec![0.0f64; n];
    apply_preconditioner(&r, &inv_diag, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0f64; n];

    for it in 1..=cfg.max_iters {
        let pap = matvec_pap(a, &p, &mut ap, &mut pap_partials);
        if pap <= 0.0 {
            // Matrix is not SPD on this subspace; report as non-convergence.
            return Err(SolveCgError::NotConverged {
                iterations: it,
                residual: dot(&r, &r).sqrt() / bnorm,
            });
        }
        let alpha = rz / pap;
        let (rr, rz_new) = update_xrz(
            alpha,
            &p,
            &ap,
            &inv_diag,
            &mut x,
            &mut r,
            &mut z,
            &mut norm_partials,
        );
        let rel = rr.sqrt() / bnorm;
        if rel <= cfg.tol {
            return Ok(CgSolution {
                x,
                iterations: it,
                residual: rel,
            });
        }
        let beta = rz_new / rz;
        rz = rz_new;
        update_p(beta, &z, &mut p);
    }
    Err(SolveCgError::NotConverged {
        iterations: cfg.max_iters,
        residual: dot(&r, &r).sqrt() / bnorm,
    })
}

/// Deterministic blocked dot product: per-[`BLOCK`] partials folded in
/// ascending block order, bitwise identical at every thread count.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    par_sum_blocks(a.len(), BLOCK, |range| {
        a[range.clone()]
            .iter()
            .zip(&b[range])
            .map(|(x, y)| x * y)
            .sum()
    })
}

/// `z = r ⊙ inv_diag`, block-partitioned.
fn apply_preconditioner(r: &[f64], inv_diag: &[f64], z: &mut [f64]) {
    par_chunks_mut(z, BLOCK, |u0, chunk| {
        let g0 = u0 * BLOCK;
        for (i, zi) in chunk.iter_mut().enumerate() {
            *zi = r[g0 + i] * inv_diag[g0 + i];
        }
    });
}

/// Fused phase 1: `ap = A p` and the blockwise partials of `p · Ap`.
///
/// Rows of `ap` and the partial of their block are produced together by the
/// worker owning the block; partials are folded in block order afterwards,
/// so the returned `p·Ap` never depends on the thread count.
fn matvec_pap(a: &Csr, p: &[f64], ap: &mut [f64], partials: &mut [f64]) -> f64 {
    par_parts(
        (units_mut(ap, BLOCK), units_mut(partials, 1)),
        |k0, (ap_part, partial_part)| {
            let ap_rows = ap_part.into_slice();
            let parts = partial_part.into_slice();
            for (j, partial) in parts.iter_mut().enumerate() {
                let lo = j * BLOCK;
                let hi = (lo + BLOCK).min(ap_rows.len());
                let r0 = (k0 + j) * BLOCK;
                let rows = &mut ap_rows[lo..hi];
                a.matvec_rows(p, r0, rows);
                *partial = rows
                    .iter()
                    .zip(&p[r0..r0 + rows.len()])
                    .map(|(y, x)| x * y)
                    .sum();
            }
        },
    );
    partials.iter().sum()
}

/// Fused phase 2: `x += α p`, `r -= α ap`, `z = r ⊙ inv_diag`, plus the
/// blockwise partials of `r·r` and `r·z`, folded in block order.
#[allow(clippy::too_many_arguments)]
fn update_xrz(
    alpha: f64,
    p: &[f64],
    ap: &[f64],
    inv_diag: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
    partials: &mut [(f64, f64)],
) -> (f64, f64) {
    par_parts(
        (
            units_mut(x, BLOCK),
            units_mut(r, BLOCK),
            units_mut(z, BLOCK),
            units_mut(partials, 1),
        ),
        |k0, (x_part, r_part, z_part, partial_part)| {
            let xs = x_part.into_slice();
            let rs = r_part.into_slice();
            let zs = z_part.into_slice();
            let parts = partial_part.into_slice();
            for (j, partial) in parts.iter_mut().enumerate() {
                let lo = j * BLOCK;
                let hi = (lo + BLOCK).min(xs.len());
                let g0 = (k0 + j) * BLOCK;
                let (mut rr, mut rz) = (0.0f64, 0.0f64);
                for i in lo..hi {
                    let gi = g0 + (i - lo);
                    xs[i] += alpha * p[gi];
                    rs[i] -= alpha * ap[gi];
                    zs[i] = rs[i] * inv_diag[gi];
                    rr += rs[i] * rs[i];
                    rz += rs[i] * zs[i];
                }
                *partial = (rr, rz);
            }
        },
    );
    partials
        .iter()
        .fold((0.0, 0.0), |(rr, rz), &(br, bz)| (rr + br, rz + bz))
}

/// Fused phase 3: `p = z + β p`, block-partitioned.
fn update_p(beta: f64, z: &[f64], p: &mut [f64]) {
    par_chunks_mut(p, BLOCK, |u0, chunk| {
        let g0 = u0 * BLOCK;
        for (i, pi) in chunk.iter_mut().enumerate() {
            *pi = z[g0 + i] + beta * *pi;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = Csr::from_triplets(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let sol = solve_cg(&a, &[1.0, 2.0, 3.0], CgConfig::default()).unwrap();
        assert_eq!(sol.x, vec![1.0, 2.0, 3.0]);
        assert!(sol.iterations <= 2);
    }

    #[test]
    fn solves_2x2_spd() {
        // [[4,1],[1,3]] x = [1,2]  => x = [1/11, 7/11]
        let a = Csr::from_triplets(2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let sol = solve_cg(&a, &[1.0, 2.0], CgConfig::default()).unwrap();
        assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-8);
        assert!((sol.x[1] - 7.0 / 11.0).abs() < 1e-8);
    }

    #[test]
    fn solves_1d_laplacian_chain() {
        // Dirichlet chain: -u'' = f discretized; compare against direct solve
        // via residual check.
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::from_triplets(n, &t);
        let b = vec![1.0; n];
        let sol = solve_cg(&a, &b, CgConfig::default()).unwrap();
        let mut ax = vec![0.0; n];
        a.matvec(&sol.x, &mut ax);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-6);
        }
        // Known closed form: x_i = i(n+1-i)/2 at 1-based i with h=1.
        let mid = sol.x[n / 2];
        assert!(mid > sol.x[0], "solution should bulge in the middle");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let sol = solve_cg(&a, &[0.0, 0.0], CgConfig::default()).unwrap();
        assert_eq!(sol.x, vec![0.0, 0.0]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn empty_system_ok() {
        let a = Csr::from_triplets(0, &[]);
        let sol = solve_cg(&a, &[], CgConfig::default()).unwrap();
        assert!(sol.x.is_empty());
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            solve_cg(&a, &[1.0], CgConfig::default()),
            Err(SolveCgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_diagonal_errors() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0)]);
        assert!(matches!(
            solve_cg(&a, &[1.0, 1.0], CgConfig::default()),
            Err(SolveCgError::BadDiagonal { row: 1, .. })
        ));
    }

    #[test]
    fn iteration_budget_respected() {
        let n = 100;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::from_triplets(n, &t);
        let err = solve_cg(
            &a,
            &vec![1.0; n],
            CgConfig {
                max_iters: 2,
                tol: 1e-14,
                ..CgConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SolveCgError::NotConverged { iterations: 2, .. }
        ));
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations_on_skewed_diagonal() {
        // Strongly varying diagonal (like mixed fine/coarse PDN layers):
        // Jacobi must converge in (much) fewer iterations.
        let n = 60;
        let mut t = Vec::new();
        for i in 0..n {
            let scale = if i % 2 == 0 { 100.0 } else { 0.5 };
            t.push((i, i, 2.0 * scale));
            if i > 0 {
                t.push((i, i - 1, -0.4));
                t.push((i - 1, i, -0.4));
            }
        }
        let a = Csr::from_triplets(n, &t);
        let b = vec![1.0; n];
        let with = solve_cg(&a, &b, CgConfig::default()).unwrap();
        let without = solve_cg(
            &a,
            &b,
            CgConfig {
                jacobi: false,
                ..CgConfig::default()
            },
        )
        .unwrap();
        assert!(
            with.iterations < without.iterations,
            "jacobi {} vs plain {}",
            with.iterations,
            without.iterations
        );
        // Both converge to the same solution.
        for (x, y) in with.x.iter().zip(&without.x) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
