//! Sparse direct solver: `P·G·Pᵀ = L·Lᵀ`, factored once and reused for
//! every right-hand side that shares the matrix.
//!
//! 1. **Ordering.** A geometric nested dissection over the unknowns'
//!    `(x, y)`: split at the median of the longer axis and take as
//!    separator the right-side nodes that touch the left side. Both halves
//!    are ordered first (recursively, down to leaves of `LEAF` nodes),
//!    the separator last, so fill stays inside the halves.
//! 2. **Symbolic.** The elimination tree of the permuted matrix, then the
//!    column counts of `L` from each row's pattern (its reach in the tree).
//! 3. **Numeric.** An up-looking Cholesky: row `k` of `L` is a sparse
//!    triangular solve against the rows above it.
//! 4. **Solve.** Forward and back substitution, then the true relative
//!    residual `‖b − G·x‖ / ‖b‖`, which must be ≤ [`MAX_RESIDUAL`].
//!
//! Every step is sequential with a fixed operation order, so factor and
//! solve are bitwise identical at any `LMMIR_THREADS` by construction.

use crate::sparse::Csr;
use std::fmt;

/// Nested dissection stops splitting at this many nodes.
const LEAF: usize = 64;

/// Largest relative residual a solve may return.
pub const MAX_RESIDUAL: f64 = 1e-10;

/// A pivot at or below this fraction of its diagonal entry means the matrix
/// is singular to working precision: a resistor island without a path to a
/// pad leaves a pivot of roundoff size, while the smallest pivot of a
/// generated PDN (32–384 µm, every case kind) is 9e-2 of its diagonal.
const MIN_PIVOT: f64 = 1e-12;

/// Sentinel for "no node" in the elimination tree and the reach marks.
const NONE: usize = usize::MAX;

/// Error from [`Cholesky::factor`] or [`Cholesky::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Right-hand side length differs from the matrix dimension.
    DimensionMismatch {
        /// Matrix dimension.
        n: usize,
        /// RHS length.
        rhs: usize,
    },
    /// A pivot vanished: the matrix is not positive definite, typically a
    /// node (or resistor island) without a resistive path to a pad.
    NotPositiveDefinite {
        /// Matrix row whose pivot failed.
        row: usize,
        /// The pivot left after elimination.
        pivot: f64,
    },
    /// The solution's relative residual exceeds [`MAX_RESIDUAL`].
    Inaccurate {
        /// Relative residual reached.
        residual: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DimensionMismatch { n, rhs } => {
                write!(f, "rhs length {rhs} does not match matrix dimension {n}")
            }
            SolveError::NotPositiveDefinite { row, pivot } => write!(
                f,
                "matrix is singular at row {row} (pivot {pivot:.3e}): \
                 no resistive path to a pad?"
            ),
            SolveError::Inaccurate { residual } => write!(
                f,
                "relative residual {residual:.3e} exceeds {MAX_RESIDUAL:.0e}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Cholesky factor of a symmetric positive definite [`Csr`] matrix.
///
/// Borrows the matrix so every [`Cholesky::solve`] can check its residual
/// against the system it claims to solve.
#[derive(Debug, Clone)]
pub struct Cholesky<'a> {
    matrix: &'a Csr,
    /// `perm[k]` is the matrix row eliminated `k`-th.
    perm: Vec<usize>,
    /// `L` by columns, diagonal first in each column.
    col_ptr: Vec<usize>,
    row_ix: Vec<usize>,
    values: Vec<f64>,
}

impl<'a> Cholesky<'a> {
    /// Orders and factors `matrix`, whose row `i` is the unknown at
    /// `coords[i]`. Only the ordering reads the coordinates, so any
    /// placement gives a correct factor; a geometric one keeps it sparse.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] naming the first row
    /// whose pivot vanishes.
    ///
    /// # Panics
    ///
    /// Panics when `coords.len()` differs from the matrix dimension.
    pub fn factor(matrix: &'a Csr, coords: &[(i64, i64)]) -> Result<Self, SolveError> {
        let n = matrix.n();
        assert_eq!(coords.len(), n, "one coordinate per matrix row");
        let perm = nested_dissection(matrix, coords);
        let mut pinv = vec![0; n];
        for (k, &p) in perm.iter().enumerate() {
            pinv[p] = k;
        }
        // Column `k` of the permuted upper triangle: row `perm[k]` of the
        // symmetric matrix, restricted to rows eliminated no later than `k`.
        let upper = |k: usize| {
            let (cols, vals) = matrix.row(perm[k]);
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| (pinv[c], v))
                .filter(move |&(i, _)| i <= k)
        };

        let parent = etree(n, &upper);
        let mut stack = vec![0; n];
        let mut mark = vec![NONE; n];
        let mut counts = vec![1usize; n];
        for k in 0..n {
            let top = reach(k, &upper, &parent, &mut stack, &mut mark);
            for &i in &stack[top..] {
                counts[i] += 1;
            }
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut total = 0;
        col_ptr.push(total);
        for c in counts {
            total += c;
            col_ptr.push(total);
        }

        let nnz = col_ptr[n];
        let mut row_ix = vec![0; nnz];
        let mut values = vec![0.0; nnz];
        let mut next: Vec<usize> = col_ptr[..n].iter().map(|&p| p + 1).collect();
        let mut x = vec![0.0f64; n];
        mark.fill(NONE);
        for k in 0..n {
            let top = reach(k, &upper, &parent, &mut stack, &mut mark);
            for (i, v) in upper(k) {
                x[i] += v;
            }
            let diag = x[k];
            let mut d = diag;
            x[k] = 0.0;
            for &i in &stack[top..] {
                let lki = x[i] / values[col_ptr[i]];
                x[i] = 0.0;
                for q in col_ptr[i] + 1..next[i] {
                    x[row_ix[q]] -= values[q] * lki;
                }
                d -= lki * lki;
                row_ix[next[i]] = k;
                values[next[i]] = lki;
                next[i] += 1;
            }
            if d.is_nan() || d <= MIN_PIVOT * diag {
                return Err(SolveError::NotPositiveDefinite {
                    row: perm[k],
                    pivot: d,
                });
            }
            row_ix[col_ptr[k]] = k;
            values[col_ptr[k]] = d.sqrt();
        }
        Ok(Cholesky {
            matrix,
            perm,
            col_ptr,
            row_ix,
            values,
        })
    }

    /// Stored entries of `L`, diagonal included.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Solves `G·x = b` by forward and back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] when `b` has the wrong
    /// length and [`SolveError::Inaccurate`] when the relative residual
    /// exceeds [`MAX_RESIDUAL`] (or is not finite).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let n = self.perm.len();
        if b.len() != n {
            return Err(SolveError::DimensionMismatch { n, rhs: b.len() });
        }
        let (ptr, rows, vals) = (&self.col_ptr, &self.row_ix, &self.values);
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for j in 0..n {
            let yj = y[j] / vals[ptr[j]];
            y[j] = yj;
            for q in ptr[j] + 1..ptr[j + 1] {
                y[rows[q]] -= vals[q] * yj;
            }
        }
        for j in (0..n).rev() {
            let mut s = y[j];
            for q in ptr[j] + 1..ptr[j + 1] {
                s -= vals[q] * y[rows[q]];
            }
            y[j] = s / vals[ptr[j]];
        }
        let mut x = vec![0.0; n];
        for (&p, &v) in self.perm.iter().zip(&y) {
            x[p] = v;
        }

        let mut gx = vec![0.0; n];
        self.matrix.matvec(&x, &mut gx);
        let r2: f64 = b
            .iter()
            .zip(&gx)
            .map(|(bi, gi)| (bi - gi) * (bi - gi))
            .sum();
        let b2: f64 = b.iter().map(|bi| bi * bi).sum();
        let residual = if b2 == 0.0 && r2 == 0.0 {
            0.0
        } else {
            (r2 / b2).sqrt()
        };
        if residual <= MAX_RESIDUAL {
            Ok(x)
        } else {
            Err(SolveError::Inaccurate { residual })
        }
    }
}

/// Geometric nested-dissection order of the matrix rows: `order[k]` is the
/// row eliminated `k`-th.
fn nested_dissection(matrix: &Csr, coords: &[(i64, i64)]) -> Vec<usize> {
    let n = matrix.n();
    let mut nodes: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut in_left = vec![false; n];
    dissect(matrix, coords, &mut nodes, &mut in_left, &mut order);
    order
}

fn dissect(
    matrix: &Csr,
    coords: &[(i64, i64)],
    nodes: &mut [usize],
    in_left: &mut [bool],
    order: &mut Vec<usize>,
) {
    let (mut lo, mut hi) = ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN));
    for &i in nodes.iter() {
        let (x, y) = coords[i];
        lo = (lo.0.min(x), lo.1.min(y));
        hi = (hi.0.max(x), hi.1.max(y));
    }
    // Longer axis first (saturating: hostile coordinates may span all of
    // `i64`); the index breaks coordinate ties, so every split and every
    // leaf order is unique.
    let along_x = hi.0.saturating_sub(lo.0) >= hi.1.saturating_sub(lo.1);
    let key = |&i: &usize| {
        let (x, y) = coords[i];
        if along_x {
            (x, y, i)
        } else {
            (y, x, i)
        }
    };
    if nodes.len() <= LEAF {
        // Sweeping a leaf along its longer axis keeps its fill to a band
        // one short-axis slice wide.
        nodes.sort_unstable_by_key(key);
        order.extend_from_slice(nodes);
        return;
    }
    let mid = nodes.len() / 2;
    nodes.select_nth_unstable_by_key(mid, key);
    let (left, right) = nodes.split_at_mut(mid);
    for &i in left.iter() {
        in_left[i] = true;
    }
    let (rest, separator): (Vec<usize>, Vec<usize>) = right
        .iter()
        .partition(|&&i| !matrix.row(i).0.iter().any(|&c| in_left[c]));
    for &i in left.iter() {
        in_left[i] = false;
    }
    right[..rest.len()].copy_from_slice(&rest);
    right[rest.len()..].copy_from_slice(&separator);
    dissect(matrix, coords, left, in_left, order);
    dissect(matrix, coords, &mut right[..rest.len()], in_left, order);
    order.extend_from_slice(&separator);
}

/// Elimination tree of the permuted matrix whose upper-triangular column
/// `k` is `upper(k)`; `NONE` marks a root.
fn etree<I: Iterator<Item = (usize, f64)>>(n: usize, upper: &impl Fn(usize) -> I) -> Vec<usize> {
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for (mut i, _) in upper(k) {
            // Walk from `i` to the root of its current subtree, compressing
            // the path onto `k`.
            while i != NONE && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NONE {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    parent
}

/// Nonzero pattern of row `k` of `L` (excluding the diagonal): the nodes
/// reached from `upper(k)` up the elimination tree, left in
/// `stack[top..]` in topological order. Returns `top`.
fn reach<I: Iterator<Item = (usize, f64)>>(
    k: usize,
    upper: &impl Fn(usize) -> I,
    parent: &[usize],
    stack: &mut [usize],
    mark: &mut [usize],
) -> usize {
    let n = parent.len();
    let mut top = n;
    mark[k] = k;
    for (mut i, _) in upper(k) {
        let mut len = 0;
        while mark[i] != k {
            stack[len] = i;
            len += 1;
            mark[i] = k;
            i = parent[i];
        }
        // Push the path onto the output end in reverse, so ancestors come
        // after their descendants.
        while len > 0 {
            len -= 1;
            top -= 1;
            stack[top] = stack[len];
        }
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Vec<(i64, i64)> {
        (0..n as i64).map(|i| (i, 0)).collect()
    }

    fn solve(a: &Csr, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        Cholesky::factor(a, &line(a.n()))?.solve(b)
    }

    #[test]
    fn solves_identity() {
        let a = Csr::from_triplets(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        assert_eq!(solve(&a, &[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_2x2_spd() {
        // [[4,1],[1,3]] x = [1,2]  => x = [1/11, 7/11]
        let a = Csr::from_triplets(2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let x = solve(&a, &[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn solves_1d_laplacian_chain() {
        // Dirichlet chain -u'' = 1 with h = 1: x_i = i(n+1-i)/2 at 1-based i.
        // 250 nodes, so the ordering dissects before it reaches a leaf.
        let n = 250;
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
        let x = solve(&a, &vec![1.0; n]).unwrap();
        for (i, xi) in x.iter().enumerate() {
            let k = (i + 1) as f64;
            let exact = k * (n as f64 + 1.0 - k) / 2.0;
            assert!(
                (xi - exact).abs() < 1e-8 * exact,
                "x[{i}] = {xi} vs {exact}"
            );
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert_eq!(solve(&a, &[0.0, 0.0]).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn empty_system_ok() {
        let a = Csr::from_triplets(0, &[]);
        assert!(solve(&a, &[]).unwrap().is_empty());
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            solve(&a, &[1.0]),
            Err(SolveError::DimensionMismatch { n: 2, rhs: 1 })
        ));
    }

    #[test]
    fn zero_diagonal_errors() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0)]);
        assert!(matches!(
            Cholesky::factor(&a, &line(2)),
            Err(SolveError::NotPositiveDefinite { row: 1, .. })
        ));
    }

    #[test]
    fn non_finite_rhs_is_inaccurate() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            solve(&a, &[f64::NAN, 1.0]),
            Err(SolveError::Inaccurate { .. })
        ));
    }

    #[test]
    fn dissection_orders_every_row_once_with_fill_below_banded() {
        let side = 100;
        let a = crate::grid_laplacian(side);
        let coords: Vec<(i64, i64)> = (0..side * side)
            .map(|i| ((i % side) as i64, (i / side) as i64))
            .collect();
        let mut order = nested_dissection(&a, &coords);
        order.sort_unstable();
        assert_eq!(order, (0..side * side).collect::<Vec<_>>());
        let f = Cholesky::factor(&a, &coords).unwrap();
        // The natural row-by-row order fills a band of `side + 1` per column.
        let banded = side * side * (side + 1);
        assert!(f.nnz() < banded / 2, "nnz(L) = {} vs {banded}", f.nnz());
    }
}
