//! Shape arithmetic: strides, broadcasting, axis normalization.
//!
//! Broadcasting follows the NumPy/PyTorch convention: shapes are aligned at
//! the trailing axis, and two dims are compatible when they are equal or one
//! of them is `1`.

use crate::error::TensorError;

/// Number of elements implied by `dims`.
///
/// A rank-0 (scalar) shape has one element.
#[must_use]
pub fn numel(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Row-major strides for `dims`.
///
/// ```
/// assert_eq!(lmmir_tensor::shape::strides(&[2, 3, 4]), vec![12, 4, 1]);
/// ```
#[must_use]
pub fn strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * dims[i + 1];
    }
    s
}

/// Computes the broadcast result shape of two operand shapes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when a pair of aligned dims is
/// incompatible (neither equal nor `1`).
pub fn broadcast_shapes(
    lhs: &[usize],
    rhs: &[usize],
    op: &'static str,
) -> Result<Vec<usize>, TensorError> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let a = if i < rank - lhs.len() {
            1
        } else {
            lhs[i - (rank - lhs.len())]
        };
        let b = if i < rank - rhs.len() {
            1
        } else {
            rhs[i - (rank - rhs.len())]
        };
        out[i] = if a == b {
            a
        } else if a == 1 {
            b
        } else if b == 1 {
            a
        } else {
            return Err(TensorError::ShapeMismatch {
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
                op,
            });
        };
    }
    Ok(out)
}

/// Strides of an operand *as viewed through* a broadcast output shape.
///
/// Axes where the operand was expanded (size 1 against a larger output dim,
/// or missing leading axes) get stride 0, so walking the output index space
/// with these strides re-reads the operand value along broadcast axes.
#[must_use]
pub fn broadcast_strides(operand_dims: &[usize], out_dims: &[usize]) -> Vec<usize> {
    let rank = out_dims.len();
    let offset = rank - operand_dims.len();
    let base = strides(operand_dims);
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        if i < offset {
            out[i] = 0;
        } else {
            let d = operand_dims[i - offset];
            out[i] = if d == 1 { 0 } else { base[i - offset] };
        }
    }
    out
}

/// Collapses the broadcast of `operand_dims` into `out_dims` to a flat
/// pattern: `Some(inner)` when output element `i` reads operand element
/// `(i / inner) % numel(operand_dims)` — the operand's axes form one
/// contiguous run of the output's, with only broadcast (or size-1) axes
/// before and after it. Bias, LayerNorm, BatchNorm and attention-gate
/// operands all do; `[N,1,H,W]` into `[N,C,H,W]` with `N > 1` does not.
#[must_use]
pub fn collapse_broadcast(operand_dims: &[usize], out_dims: &[usize]) -> Option<usize> {
    let offset = out_dims.len().checked_sub(operand_dims.len())?;
    // Walk from the innermost axis: broadcast tail, matched run, then only
    // broadcast axes may remain. Size-1 output axes fit anywhere.
    let mut inner = 1usize;
    let mut matched = false;
    let mut closed = false;
    for (ax, &d) in out_dims.iter().enumerate().rev() {
        let od = if ax < offset {
            1
        } else {
            operand_dims[ax - offset]
        };
        if d == 1 && od == 1 {
            continue;
        }
        if od == d {
            if closed {
                return None;
            }
            matched = true;
        } else if od == 1 {
            if matched {
                closed = true;
            } else {
                inner *= d;
            }
        } else {
            return None;
        }
    }
    Some(inner)
}

/// Validates an axis against a rank.
///
/// # Errors
///
/// Returns [`TensorError::AxisOutOfRange`] when `axis >= rank`.
pub fn check_axis(axis: usize, rank: usize) -> Result<(), TensorError> {
    if axis >= rank {
        Err(TensorError::AxisOutOfRange { axis, rank })
    } else {
        Ok(())
    }
}

/// An odometer-style iterator over a multi-dimensional index space.
///
/// Yields flat offsets into two operands (with independent strides) for each
/// logical position of the output. This is the engine behind generic
/// broadcast binary ops.
#[derive(Debug)]
pub struct BroadcastIter {
    dims: Vec<usize>,
    idx: Vec<usize>,
    lhs_strides: Vec<usize>,
    rhs_strides: Vec<usize>,
    lhs_off: usize,
    rhs_off: usize,
    remaining: usize,
}

impl BroadcastIter {
    /// Creates an iterator over `out_dims`, reading `lhs`/`rhs` through their
    /// broadcast strides.
    #[must_use]
    pub fn new(out_dims: &[usize], lhs_dims: &[usize], rhs_dims: &[usize]) -> Self {
        BroadcastIter {
            dims: out_dims.to_vec(),
            idx: vec![0; out_dims.len()],
            lhs_strides: broadcast_strides(lhs_dims, out_dims),
            rhs_strides: broadcast_strides(rhs_dims, out_dims),
            lhs_off: 0,
            rhs_off: 0,
            remaining: numel(out_dims),
        }
    }
}

impl Iterator for BroadcastIter {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.remaining == 0 {
            return None;
        }
        let item = (self.lhs_off, self.rhs_off);
        self.remaining -= 1;
        // Advance the odometer from the innermost axis.
        for ax in (0..self.dims.len()).rev() {
            self.idx[ax] += 1;
            self.lhs_off += self.lhs_strides[ax];
            self.rhs_off += self.rhs_strides[ax];
            if self.idx[ax] < self.dims[ax] {
                break;
            }
            self.lhs_off -= self.lhs_strides[ax] * self.dims[ax];
            self.rhs_off -= self.rhs_strides[ax] * self.dims[ax];
            self.idx[ax] = 0;
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BroadcastIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[3, 4]), 12);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3], "t").unwrap(), vec![2, 3]);
    }

    #[test]
    fn broadcast_scalar() {
        assert_eq!(broadcast_shapes(&[2, 3], &[], "t").unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4], "t").unwrap(), vec![4]);
    }

    #[test]
    fn broadcast_ones_expand() {
        assert_eq!(
            broadcast_shapes(&[4, 1, 3], &[2, 1], "t").unwrap(),
            vec![4, 2, 3]
        );
    }

    #[test]
    fn broadcast_incompatible_errors() {
        let err = broadcast_shapes(&[2, 3], &[4], "myop").unwrap_err();
        match err {
            TensorError::ShapeMismatch { op, .. } => assert_eq!(op, "myop"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn broadcast_strides_zero_on_expanded_axes() {
        // operand [3] viewed as [2,3]: leading axis is broadcast.
        assert_eq!(broadcast_strides(&[3], &[2, 3]), vec![0, 1]);
        // operand [2,1] viewed as [2,3]: trailing axis is broadcast.
        assert_eq!(broadcast_strides(&[2, 1], &[2, 3]), vec![1, 0]);
    }

    #[test]
    fn collapse_broadcast_recognizes_repeat_cycle_patterns() {
        // bias over the last axis, channel affine, spatial gate, row stats
        assert_eq!(collapse_broadcast(&[5], &[2, 3, 5]), Some(1));
        assert_eq!(collapse_broadcast(&[1, 4, 1, 1], &[2, 4, 3, 3]), Some(9));
        assert_eq!(collapse_broadcast(&[1, 1, 3, 3], &[1, 4, 3, 3]), Some(1));
        assert_eq!(collapse_broadcast(&[1, 6, 1], &[1, 6, 8]), Some(8));
        // a full operand is the degenerate pattern
        assert_eq!(collapse_broadcast(&[2, 3], &[1, 2, 3]), Some(1));
        // two separated matched runs cannot be one (repeat, cycle) pair
        assert_eq!(collapse_broadcast(&[2, 1, 3, 3], &[2, 4, 3, 3]), None);
        assert_eq!(collapse_broadcast(&[2, 1], &[1, 3]), None);
    }

    #[test]
    fn broadcast_iter_covers_output_space() {
        // lhs [2,1], rhs [1,3] -> out [2,3]
        let it = BroadcastIter::new(&[2, 3], &[2, 1], &[1, 3]);
        let pairs: Vec<(usize, usize)> = it.collect();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn broadcast_iter_len() {
        let it = BroadcastIter::new(&[2, 3], &[2, 3], &[2, 3]);
        assert_eq!(it.len(), 6);
    }

    #[test]
    fn check_axis_bounds() {
        assert!(check_axis(1, 2).is_ok());
        assert!(check_axis(2, 2).is_err());
    }
}
