//! Compressed-sparse-row matrices for conductance systems.

use std::fmt;

/// A square sparse matrix in CSR layout with `f64` values.
///
/// Built from (row, col, value) triplets; duplicate entries are summed,
/// which is exactly the semantics of conductance stamping.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<usize>,
    col_ix: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds an `n × n` CSR matrix from triplets, summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics when a triplet index is out of range.
    #[must_use]
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < n && c < n, "triplet ({r},{c}) out of range for n={n}");
        }
        // Count entries per row, then bucket and sort/merge by column.
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(r, c, v) in triplets {
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_ix = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    col_ix.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_ix.len());
        }
        Csr {
            n,
            row_ptr,
            col_ix,
            values,
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Dense matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != n` or `y.len() != n`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (r, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *out = acc;
        }
    }

    /// Column indices and values of row `r`, in ascending column order.
    pub(crate) fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_ix[span.clone()], &self.values[span])
    }

    /// The matrix diagonal (zeros where no entry is stored).
    #[must_use]
    pub fn diag(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (r, out) in d.iter_mut().enumerate() {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.col_ix[k] == r {
                    *out = self.values[k];
                }
            }
        }
        d
    }

    /// Entry accessor (O(row nnz)); diagnostic use only.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        for k in self.row_ptr[r]..self.row_ptr[r + 1] {
            if self.col_ix[k] == c {
                return self.values[k];
            }
        }
        0.0
    }

    /// Verifies symmetry within `tol` (conductance matrices must be
    /// symmetric). O(nnz · log) via per-entry lookup; test/diagnostic use.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_ix[k];
                if (self.values[k] - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// 5-point 2-D Dirichlet Laplacian on a `side × side` grid — the sparsity
/// structure of a stamped PDN layer, and the standard SPD model problem
/// the solver tests factor.
#[must_use]
pub fn grid_laplacian(side: usize) -> Csr {
    let n = side * side;
    let mut triplets = Vec::with_capacity(5 * n);
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            triplets.push((i, i, 4.0));
            if x > 0 {
                triplets.push((i, i - 1, -1.0));
            }
            if x + 1 < side {
                triplets.push((i, i + 1, -1.0));
            }
            if y > 0 {
                triplets.push((i, i - side, -1.0));
            }
            if y + 1 < side {
                triplets.push((i, i + side, -1.0));
            }
        }
    }
    Csr::from_triplets(n, &triplets)
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Csr({}x{}, nnz={})", self.n, self.n, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_merge_duplicates() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 4.0), (0, 1, -1.0)]);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn zero_sum_entries_dropped() {
        let a = Csr::from_triplets(1, &[(0, 0, 1.0), (0, 0, -1.0)]);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        // [[2, -1], [-1, 2]] * [1, 2] = [0, 3]
        let a = Csr::from_triplets(2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
        let mut y = vec![0.0; 2];
        a.matvec(&[1.0, 2.0], &mut y);
        assert_eq!(y, vec![0.0, 3.0]);
    }

    #[test]
    fn diag_and_symmetry() {
        let a = Csr::from_triplets(3, &[(0, 0, 1.0), (1, 1, 2.0), (0, 1, -0.5), (1, 0, -0.5)]);
        assert_eq!(a.diag(), vec![1.0, 2.0, 0.0]);
        assert!(a.is_symmetric(1e-12));
        let b = Csr::from_triplets(2, &[(0, 1, 1.0)]);
        assert!(!b.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_triplet_panics() {
        let _ = Csr::from_triplets(2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn display_mentions_size() {
        let a = Csr::from_triplets(2, &[(0, 0, 1.0)]);
        assert_eq!(a.to_string(), "Csr(2x2, nnz=1)");
    }
}
