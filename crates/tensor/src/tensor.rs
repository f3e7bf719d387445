//! The dense, contiguous, row-major `f32` tensor and its raw kernels.
//!
//! Elementwise ops are **lazy**: they record nodes into the op graph of
//! [`crate::lazy`] and fuse into single loops when the buffer is first
//! needed — broadcast operands included, whenever the small side is a
//! repeat/cycle pattern (bias, norm statistics, gates). Everything else (reductions, shape ops, the linalg/conv kernels)
//! realizes its inputs and computes eagerly, exactly as before the lazy
//! runtime existed — results are bitwise identical either way.

use crate::error::TensorError;
use crate::lazy::{self, BinOp, LazyNode, UnaryOp};
use crate::shape::{
    broadcast_shapes, check_axis, collapse_broadcast, numel, strides, BroadcastIter,
};
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// A dense n-dimensional `f32` array in row-major (C) order.
///
/// `Tensor` carries no gradient information — see [`crate::Var`] for the
/// autograd wrapper. Cloning a tensor is cheap (the buffer is shared and
/// copied on write); mutation through [`Tensor::data_mut`] / [`Tensor::set`]
/// never affects clones.
///
/// ```
/// use lmmir_tensor::Tensor;
/// # fn main() -> Result<(), lmmir_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum_all(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Tensor {
    dims: Vec<usize>,
    node: Arc<LazyNode>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.data() == other.data()
    }
}

impl Tensor {
    /// Internal: realized tensor over an exact-length buffer.
    fn leaf(dims: Vec<usize>, data: Vec<f32>) -> Self {
        debug_assert_eq!(data.len(), numel(&dims));
        Tensor {
            dims,
            node: LazyNode::leaf(data),
        }
    }

    /// Internal: lazy (or eager-bypass) elementwise unary over `self`.
    fn lazy_unary(&self, op: UnaryOp) -> Self {
        if lazy::eager_mode() {
            return Tensor::leaf(self.dims.clone(), lazy::unary_eager(op, self.data()));
        }
        Tensor {
            dims: self.dims.clone(),
            node: LazyNode::unary(op, self.node.clone()),
        }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let expected = numel(dims);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor::leaf(dims.to_vec(), data))
    }

    /// All-zeros tensor of the given shape.
    #[must_use]
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::leaf(dims.to_vec(), vec![0.0; numel(dims)])
    }

    /// All-ones tensor of the given shape.
    #[must_use]
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Tensor filled with a constant.
    #[must_use]
    pub fn full(dims: &[usize], value: f32) -> Self {
        Tensor::leaf(dims.to_vec(), vec![value; numel(dims)])
    }

    /// Rank-0 scalar tensor.
    #[must_use]
    pub fn scalar(value: f32) -> Self {
        Tensor::leaf(Vec::new(), vec![value])
    }

    /// `n × n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::leaf(vec![n, n], data)
    }

    /// Evenly spaced values `[0, 1, ..., n-1]` as a rank-1 tensor.
    #[must_use]
    pub fn arange(n: usize) -> Self {
        Tensor::leaf(vec![n], (0..n).map(|i| i as f32).collect())
    }

    /// Shape of the tensor.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements. Does not force realization.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.node.numel()
    }

    /// Forces any pending fused chain to compute (idempotent), then returns
    /// `self`. Useful at module/serving boundaries where timing or memory
    /// footprint should reflect finished work; plain reads via
    /// [`Tensor::data`] realize on their own.
    pub fn force(&self) -> &Self {
        lazy::realize(&self.node);
        self
    }

    /// True when the buffer has been computed (i.e. no fused chain is
    /// pending on this tensor).
    #[must_use]
    pub fn is_realized(&self) -> bool {
        self.node.is_realized()
    }

    /// Read-only view of the flat buffer (realizes any pending chain).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        lazy::realize(&self.node)
    }

    /// Mutable view of the flat buffer. Realizes first; unshares the buffer
    /// (copy-on-write) when clones exist.
    pub fn data_mut(&mut self) -> &mut [f32] {
        lazy::realize(&self.node);
        let n = Arc::make_mut(&mut self.node);
        n.clear_expr();
        n.buf_mut().as_mut_slice()
    }

    /// Consumes the tensor and returns its flat buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        lazy::realize(&self.node);
        match Arc::try_unwrap(self.node) {
            Ok(mut n) => n.take_buf(),
            Err(shared) => shared.buf_ref().clone(),
        }
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `index` has the wrong rank or is out of bounds (this is a
    /// debugging accessor; hot paths index the flat buffer directly).
    #[must_use]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data()[self.flat_index(index)]
    }

    /// Writes a value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `index` has the wrong rank or is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data_mut()[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.dims.len()
        );
        let st = strides(&self.dims);
        let mut off = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(ix < d, "index {ix} out of bounds for axis {i} (size {d})");
            off += ix * st[i];
        }
        off
    }

    /// The single value of a scalar (or one-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor has more than one element.
    #[must_use]
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a single-element tensor, got shape {:?}",
            self.dims
        );
        self.data()[0]
    }

    // ---------------------------------------------------------------------
    // Unary ops
    // ---------------------------------------------------------------------

    /// Applies `f` elementwise, producing a new tensor. Arbitrary closures
    /// cannot be recorded into the fused graph, so this realizes and
    /// computes eagerly — prefer the named ops where fusion matters.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor::leaf(
            self.dims.clone(),
            self.data().iter().map(|&x| f(x)).collect(),
        )
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Elementwise negation.
    #[must_use]
    pub fn neg(&self) -> Self {
        self.lazy_unary(UnaryOp::Neg)
    }

    /// Elementwise `max(x, 0)`.
    #[must_use]
    pub fn relu(&self) -> Self {
        self.lazy_unary(UnaryOp::Relu)
    }

    /// Elementwise `x > 0 ? 1 : 0` — the relu backward mask.
    #[must_use]
    pub fn relu_mask(&self) -> Self {
        self.lazy_unary(UnaryOp::GtzMask)
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^-x)`.
    #[must_use]
    pub fn sigmoid(&self) -> Self {
        self.lazy_unary(UnaryOp::Sigmoid)
    }

    /// Elementwise hyperbolic tangent.
    #[must_use]
    pub fn tanh(&self) -> Self {
        self.lazy_unary(UnaryOp::Tanh)
    }

    /// Elementwise `e^x`.
    #[must_use]
    pub fn exp(&self) -> Self {
        self.lazy_unary(UnaryOp::Exp)
    }

    /// Elementwise natural logarithm.
    #[must_use]
    pub fn ln(&self) -> Self {
        self.lazy_unary(UnaryOp::Ln)
    }

    /// Elementwise square root.
    #[must_use]
    pub fn sqrt(&self) -> Self {
        self.lazy_unary(UnaryOp::Sqrt)
    }

    /// Elementwise `x * x`.
    #[must_use]
    pub fn square(&self) -> Self {
        self.lazy_unary(UnaryOp::Square)
    }

    /// Elementwise scaling by a constant.
    #[must_use]
    pub fn scale(&self, k: f32) -> Self {
        self.lazy_unary(UnaryOp::ScalarRhs(BinOp::Mul, k))
    }

    /// Elementwise addition of a constant.
    #[must_use]
    pub fn add_scalar(&self, k: f32) -> Self {
        self.lazy_unary(UnaryOp::ScalarRhs(BinOp::Add, k))
    }

    /// Clamps every element into `[lo, hi]`.
    #[must_use]
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.lazy_unary(UnaryOp::Clamp(lo, hi))
    }

    // ---------------------------------------------------------------------
    // Binary broadcast ops
    // ---------------------------------------------------------------------

    fn binary(&self, rhs: &Tensor, name: &'static str, op: BinOp) -> Result<Self> {
        if self.dims == rhs.dims {
            // Fast path: identical shapes — records a fused graph node.
            if lazy::eager_mode() {
                return Ok(Tensor::leaf(
                    self.dims.clone(),
                    lazy::binary_eager(op, self.data(), rhs.data()),
                ));
            }
            return Ok(Tensor {
                dims: self.dims.clone(),
                node: LazyNode::binary(op, self.node.clone(), rhs.node.clone()),
            });
        }
        if rhs.numel() == 1 {
            // Fast path: rhs scalar folds into a unary (keeps self's shape).
            let b = rhs.data()[0];
            return Ok(self.lazy_unary(UnaryOp::ScalarRhs(op, b)));
        }
        if self.numel() == 1 {
            let a = self.data()[0];
            let mut out = rhs.lazy_unary(UnaryOp::ScalarLhs(op, a));
            // Result shape follows broadcasting (scalar lhs adopts rhs shape).
            out.dims = broadcast_shapes(&self.dims, &rhs.dims, name)?;
            return Ok(out);
        }
        let out_dims = broadcast_shapes(&self.dims, &rhs.dims, name)?;
        // One operand full-size, the other a repeat/cycle pattern (bias,
        // norm statistics, gates): the small side joins the fused program
        // as an expand node instead of being materialized.
        let n = numel(&out_dims);
        for (full, small, small_is_lhs) in [(self, rhs, false), (rhs, self, true)] {
            if full.numel() != n {
                continue;
            }
            let Some(inner) = collapse_broadcast(&small.dims, &out_dims) else {
                continue;
            };
            let node = if lazy::eager_mode() {
                let (f, s) = (full.data(), small.data());
                LazyNode::leaf(lazy::binary_expand_eager(op, f, s, inner, small_is_lhs))
            } else {
                let expanded = LazyNode::expand(small.node.clone(), inner, n);
                let (a, b) = if small_is_lhs {
                    (expanded, full.node.clone())
                } else {
                    (full.node.clone(), expanded)
                };
                LazyNode::binary(op, a, b)
            };
            return Ok(Tensor {
                dims: out_dims,
                node,
            });
        }
        // Both sides broadcast, or a pattern with two separated runs: a
        // gather the fused programs do not express — realize and fall back
        // to the odometer kernel.
        let (a, b) = (self.data(), rhs.data());
        let mut data = Vec::with_capacity(n);
        for (ai, bi) in BroadcastIter::new(&out_dims, &self.dims, &rhs.dims) {
            data.push(op.apply(a[ai], b[bi]));
        }
        Ok(Tensor::leaf(out_dims, data))
    }

    /// Broadcast elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes are not
    /// broadcast-compatible.
    pub fn add(&self, rhs: &Tensor) -> Result<Self> {
        self.binary(rhs, "add", BinOp::Add)
    }

    /// Broadcast elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn sub(&self, rhs: &Tensor) -> Result<Self> {
        self.binary(rhs, "sub", BinOp::Sub)
    }

    /// Broadcast elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn mul(&self, rhs: &Tensor) -> Result<Self> {
        self.binary(rhs, "mul", BinOp::Mul)
    }

    /// Broadcast elementwise division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn div(&self, rhs: &Tensor) -> Result<Self> {
        self.binary(rhs, "div", BinOp::Div)
    }

    /// Broadcast elementwise maximum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn maximum(&self, rhs: &Tensor) -> Result<Self> {
        self.binary(rhs, "maximum", BinOp::Max)
    }

    /// Accumulates `rhs` into `self` (shapes must match exactly).
    ///
    /// Lazily rebinds `self` to `self + rhs`, so gradient-accumulation
    /// chains fuse; the sum is computed when the buffer is next read.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        if self.dims != rhs.dims {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims.clone(),
                rhs: rhs.dims.clone(),
                op: "add_assign",
            });
        }
        if lazy::eager_mode() {
            let src = rhs.data();
            for (a, &b) in self.data_mut().iter_mut().zip(src) {
                *a += b;
            }
            return Ok(());
        }
        self.node = LazyNode::binary(BinOp::Add, self.node.clone(), rhs.node.clone());
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------------

    /// Sum of all elements.
    #[must_use]
    pub fn sum_all(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    #[must_use]
    pub fn mean_all(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum_all() / self.numel() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    #[must_use]
    pub fn max_all(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    #[must_use]
    pub fn min_all(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum along `axes`. When `keepdim` is true the reduced axes remain with
    /// size 1, which makes the result broadcast-compatible with the input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Result<Self> {
        for &a in axes {
            check_axis(a, self.rank())?;
        }
        let mut reduced = self.dims.clone();
        for &a in axes {
            reduced[a] = 1;
        }
        let mut out = vec![0.0f32; numel(&reduced)];
        let src = self.data();
        match collapse_reduction(&self.dims, &reduced) {
            _ if src.is_empty() => {}
            // [o, m, i] -> [o, i]: row adds, m ascending per output slot.
            Some(([_, m, i], true)) => {
                for (acc, block) in out.chunks_mut(i).zip(src.chunks(m * i)) {
                    for row in block.chunks(i) {
                        for (a, &v) in acc.iter_mut().zip(row) {
                            *a += v;
                        }
                    }
                }
            }
            // [o, m, i] -> [m]: each slot folds its runs in input order.
            Some(([_, m, i], false)) => {
                for block in src.chunks(m * i) {
                    for (slot, run) in out.iter_mut().zip(block.chunks(i)) {
                        let mut acc = *slot;
                        for &v in run {
                            acc += v;
                        }
                        *slot = acc;
                    }
                }
            }
            None => sum_axes_odometer(src, &self.dims, &reduced, &mut out),
        }
        let out_dims = if keepdim {
            reduced
        } else {
            // Reducing every axis yields a scalar (empty dims).
            self.dims
                .iter()
                .enumerate()
                .filter(|(i, _)| !axes.contains(i))
                .map(|(_, &d)| d)
                .collect()
        };
        Ok(Tensor::leaf(out_dims, out))
    }

    /// Mean along `axes`; see [`Tensor::sum_axes`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Result<Self> {
        let mut n = 1usize;
        for &a in axes {
            check_axis(a, self.rank())?;
            n *= self.dims[a];
        }
        let s = self.sum_axes(axes, keepdim)?;
        Ok(s.scale(1.0 / n as f32))
    }

    /// Collapses `self` (a gradient w.r.t. a broadcast output) back to
    /// `target_dims` by summing over the axes that were expanded.
    ///
    /// This is the adjoint of broadcasting and is used by the autograd layer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `target_dims` is not
    /// broadcast-compatible with the tensor's shape.
    pub fn reduce_to_shape(&self, target_dims: &[usize]) -> Result<Self> {
        if self.dims == target_dims {
            return Ok(self.clone());
        }
        let rank = self.rank();
        let offset =
            rank.checked_sub(target_dims.len())
                .ok_or_else(|| TensorError::ShapeMismatch {
                    lhs: self.dims.clone(),
                    rhs: target_dims.to_vec(),
                    op: "reduce_to_shape",
                })?;
        // Leading axes not present in the target are summed away; axes where
        // the target is 1 but the source is larger are summed keeping dims.
        let mut axes: Vec<usize> = (0..offset).collect();
        for (i, &td) in target_dims.iter().enumerate() {
            let sd = self.dims[offset + i];
            if td == 1 && sd != 1 {
                axes.push(offset + i);
            } else if td != sd {
                return Err(TensorError::ShapeMismatch {
                    lhs: self.dims.clone(),
                    rhs: target_dims.to_vec(),
                    op: "reduce_to_shape",
                });
            }
        }
        let mut out = self.sum_axes(&axes, true)?;
        out.dims = target_dims.to_vec();
        Ok(out)
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape. O(1): the buffer
    /// (or pending fused chain) is shared copy-on-write, so fusion flows
    /// through reshapes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let expected = numel(dims);
        if expected != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            dims: dims.to_vec(),
            node: self.node.clone(),
        })
    }

    /// Permutes axes: `out[i0,..,ik] = self[i_perm[0],..]` with
    /// `out.dims[k] = self.dims[perm[k]]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when `perm` is not a permutation
    /// of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        let rank = self.rank();
        let mut seen = vec![false; rank];
        if perm.len() != rank {
            return Err(TensorError::InvalidShape {
                dims: perm.to_vec(),
                reason: format!("permutation rank {} != tensor rank {}", perm.len(), rank),
            });
        }
        for &p in perm {
            if p >= rank || seen[p] {
                return Err(TensorError::InvalidShape {
                    dims: perm.to_vec(),
                    reason: "not a permutation".to_string(),
                });
            }
            seen[p] = true;
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.dims[p]).collect();
        let src = self.data();
        let mut out = vec![0.0f32; numel(&out_dims)];
        match swap_groups(&self.dims, perm) {
            _ if src.is_empty() => {}
            // [o, a, b, inner] -> [o, b, a, inner]: contiguous runs of
            // `inner`, written in output order.
            Some([_, a, b, inner]) => {
                for (dst, block) in out.chunks_mut(a * b * inner).zip(src.chunks(a * b * inner)) {
                    for (j, dst) in dst.chunks_mut(a * inner).enumerate() {
                        if inner == 1 {
                            for (i, slot) in dst.iter_mut().enumerate() {
                                *slot = block[i * b + j];
                            }
                            continue;
                        }
                        for (i, run) in dst.chunks_mut(inner).enumerate() {
                            let at = (i * b + j) * inner;
                            run.copy_from_slice(&block[at..at + inner]);
                        }
                    }
                }
            }
            None => permute_odometer(src, &self.dims, perm, &mut out),
        }
        Ok(Tensor::leaf(out_dims, out))
    }

    /// 2-D transpose: [`Tensor::permute`] by `[1, 0]`, rank-checked.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when the tensor is not rank-2.
    pub fn transpose2(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::InvalidShape {
                dims: self.dims.clone(),
                reason: "transpose2 requires rank 2".to_string(),
            });
        }
        self.permute(&[1, 0])
    }

    /// Slices `[start, end)` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] or
    /// [`TensorError::IndexOutOfBounds`] for bad arguments.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Self> {
        check_axis(axis, self.rank())?;
        if end > self.dims[axis] || start > end {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: self.dims[axis],
            });
        }
        let mut out_dims = self.dims.clone();
        out_dims[axis] = end - start;
        let outer: usize = self.dims[..axis].iter().product();
        let inner: usize = self.dims[axis + 1..].iter().product();
        let src = self.data();
        let mut data = Vec::with_capacity(numel(&out_dims));
        for o in 0..outer {
            let base = o * self.dims[axis] * inner;
            data.extend_from_slice(&src[base + start * inner..base + end * inner]);
        }
        Ok(Tensor::leaf(out_dims, data))
    }

    /// Concatenates tensors along `axis`. All other dims must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when `parts` is empty or shapes
    /// disagree off-axis.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Self> {
        let first = parts.first().ok_or_else(|| TensorError::InvalidShape {
            dims: vec![],
            reason: "concat of zero tensors".to_string(),
        })?;
        check_axis(axis, first.rank())?;
        let mut axis_total = 0usize;
        for p in parts {
            if p.rank() != first.rank() {
                return Err(TensorError::InvalidShape {
                    dims: p.dims.clone(),
                    reason: "concat rank mismatch".to_string(),
                });
            }
            for (i, (&a, &b)) in p.dims.iter().zip(&first.dims).enumerate() {
                if i != axis && a != b {
                    return Err(TensorError::InvalidShape {
                        dims: p.dims.clone(),
                        reason: format!("concat off-axis dim mismatch at axis {i}"),
                    });
                }
            }
            axis_total += p.dims[axis];
        }
        let mut out_dims = first.dims.clone();
        out_dims[axis] = axis_total;
        let outer: usize = first.dims[..axis].iter().product();
        let inner: usize = first.dims[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(numel(&out_dims));
        for o in 0..outer {
            for p in parts {
                let len = p.dims[axis] * inner;
                let base = o * len;
                data.extend_from_slice(&p.data()[base..base + len]);
            }
        }
        Ok(Tensor::leaf(out_dims, data))
    }

    /// Gathers rows of a rank-2 tensor: `out[i, :] = self[indices[i], :]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for non-matrix input or
    /// [`TensorError::IndexOutOfBounds`] for a bad row index.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::InvalidShape {
                dims: self.dims.clone(),
                reason: "gather_rows requires rank 2".to_string(),
            });
        }
        let (rows, cols) = (self.dims[0], self.dims[1]);
        let src = self.data();
        let mut data = Vec::with_capacity(indices.len() * cols);
        for &ix in indices {
            if ix >= rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: ix,
                    bound: rows,
                });
            }
            data.extend_from_slice(&src[ix * cols..(ix + 1) * cols]);
        }
        Tensor::from_vec(data, &[indices.len(), cols])
    }

    /// Scatter-add of rows: `out[indices[i], :] += rows[i, :]` into a zeros
    /// matrix of shape `[num_rows, cols]`. Adjoint of [`Tensor::gather_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] / [`TensorError::IndexOutOfBounds`]
    /// on malformed input.
    pub fn scatter_add_rows(rows: &Tensor, indices: &[usize], num_rows: usize) -> Result<Self> {
        if rows.rank() != 2 || rows.dims[0] != indices.len() {
            return Err(TensorError::InvalidShape {
                dims: rows.dims.clone(),
                reason: "scatter_add_rows requires [len(indices), cols]".to_string(),
            });
        }
        let cols = rows.dims[1];
        let src = rows.data();
        let mut out = vec![0.0f32; num_rows * cols];
        for (i, &ix) in indices.iter().enumerate() {
            if ix >= num_rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: ix,
                    bound: num_rows,
                });
            }
            for c in 0..cols {
                out[ix * cols + c] += src[i * cols + c];
            }
        }
        Ok(Tensor::leaf(vec![num_rows, cols], out))
    }

    /// Zero-pads the last two axes of an NCHW (or CHW / HW) tensor.
    ///
    /// `pad = (top, bottom, left, right)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when the tensor has rank < 2.
    pub fn pad_spatial(&self, pad: (usize, usize, usize, usize)) -> Result<Self> {
        if self.rank() < 2 {
            return Err(TensorError::InvalidShape {
                dims: self.dims.clone(),
                reason: "pad_spatial requires rank >= 2".to_string(),
            });
        }
        let (top, bottom, left, right) = pad;
        let rank = self.rank();
        let h = self.dims[rank - 2];
        let w = self.dims[rank - 1];
        let nh = h + top + bottom;
        let nw = w + left + right;
        let mut out_dims = self.dims.clone();
        out_dims[rank - 2] = nh;
        out_dims[rank - 1] = nw;
        let planes: usize = self.dims[..rank - 2].iter().product();
        let src = self.data();
        let mut out = vec![0.0f32; numel(&out_dims)];
        for p in 0..planes {
            for y in 0..h {
                let s = p * h * w + y * w;
                let dst = p * nh * nw + (y + top) * nw + left;
                out[dst..dst + w].copy_from_slice(&src[s..s + w]);
            }
        }
        Ok(Tensor::leaf(out_dims, out))
    }

    /// Crops the last two axes (adjoint of [`Tensor::pad_spatial`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when the crop does not fit.
    pub fn crop_spatial(&self, top: usize, left: usize, h: usize, w: usize) -> Result<Self> {
        if self.rank() < 2 {
            return Err(TensorError::InvalidShape {
                dims: self.dims.clone(),
                reason: "crop_spatial requires rank >= 2".to_string(),
            });
        }
        let rank = self.rank();
        let sh = self.dims[rank - 2];
        let sw = self.dims[rank - 1];
        if top + h > sh || left + w > sw {
            return Err(TensorError::InvalidShape {
                dims: self.dims.clone(),
                reason: format!("crop {h}x{w}+{top}+{left} exceeds {sh}x{sw}"),
            });
        }
        let mut out_dims = self.dims.clone();
        out_dims[rank - 2] = h;
        out_dims[rank - 1] = w;
        let planes: usize = self.dims[..rank - 2].iter().product();
        let src = self.data();
        let mut out = vec![0.0f32; numel(&out_dims)];
        for p in 0..planes {
            for y in 0..h {
                let s = p * sh * sw + (y + top) * sw + left;
                let dst = p * h * w + y * w;
                out[dst..dst + w].copy_from_slice(&src[s..s + w]);
            }
        }
        Ok(Tensor::leaf(out_dims, out))
    }

    /// Numerically stable softmax along the last axis.
    #[must_use]
    pub fn softmax_last(&self) -> Self {
        let inner = *self.dims.last().unwrap_or(&1);
        if inner == 0 {
            return self.clone();
        }
        let mut data = self.data().to_vec();
        for row in data.chunks_mut(inner) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        Tensor::leaf(self.dims.clone(), data)
    }

    /// Frobenius norm (`sqrt(sum(x^2))`).
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True when any element is NaN or infinite.
    #[must_use]
    pub fn has_non_finite(&self) -> bool {
        self.data().iter().any(|x| !x.is_finite())
    }
}

/// Collapses a reduction of `dims` to `reduced` (same rank, reduced axes
/// set to 1) into three axis groups `[o, m, i]` that alternate between kept
/// and reduced, padding with size-1 groups at the front. Returns the group
/// sizes and whether the middle group is the reduced one (`[o, m, i] ->
/// [o, i]`) or the kept one (`-> [m]`); `None` for more than three groups.
fn collapse_reduction(dims: &[usize], reduced: &[usize]) -> Option<([usize; 3], bool)> {
    let mut groups: Vec<(bool, usize)> = Vec::new();
    for (&d, &r) in dims.iter().zip(reduced).filter(|(&d, _)| d != 1) {
        let is_reduced = r == 1;
        match groups.last_mut() {
            Some((kind, size)) if *kind == is_reduced => *size *= d,
            _ => groups.push((is_reduced, d)),
        }
    }
    if groups.len() > 3 {
        return None;
    }
    // The innermost real group decides the alternation; an all-ones shape
    // reads as one kept element.
    let innermost_reduced = groups.last().is_some_and(|g| g.0);
    let mut sizes = [1usize; 3];
    for (slot, g) in sizes.iter_mut().rev().zip(groups.iter().rev()) {
        *slot = g.1;
    }
    Some((sizes, !innermost_reduced))
}

/// Generic reduction: walks the input with a per-element odometer and folds
/// each element into its slot. Fallback for shapes [`collapse_reduction`]
/// rejects, and the oracle its fast paths are tested against.
fn sum_axes_odometer(src: &[f32], dims: &[usize], reduced: &[usize], out: &mut [f32]) {
    let out_strides = strides(reduced);
    let mut idx = vec![0usize; dims.len()];
    for &v in src {
        let mut off = 0;
        for (ax, &i) in idx.iter().enumerate() {
            let j = if reduced[ax] == 1 { 0 } else { i };
            off += j * out_strides[ax];
        }
        out[off] += v;
        for ax in (0..dims.len()).rev() {
            idx[ax] += 1;
            if idx[ax] < dims[ax] {
                break;
            }
            idx[ax] = 0;
        }
    }
}

/// Recognizes `perm` as a swap of two adjacent axis groups: the input
/// viewed as `[o, a, b, inner]` becomes `[o, b, a, inner]`. Covers head
/// split/merge (`[0,2,1,3]`), key transposes (`[0,1,3,2]`), NCHW <-> NHWC
/// and the identity; `None` otherwise.
fn swap_groups(dims: &[usize], perm: &[usize]) -> Option<[usize; 4]> {
    let rank = perm.len();
    let lo = (0..rank).take_while(|&i| perm[i] == i).count();
    if lo == rank {
        return Some([1, 1, 1, numel(dims)]);
    }
    let hi = rank - (lo..rank).rev().take_while(|&i| perm[i] == i).count();
    // The middle must be a rotation: input axes `cut..hi` then `lo..cut`.
    let (cut, len) = (perm[lo], hi - lo);
    if (0..len).any(|k| perm[lo + k] != lo + (cut - lo + k) % len) {
        return None;
    }
    let size = |r: std::ops::Range<usize>| dims[r].iter().product::<usize>();
    Some([size(0..lo), size(lo..cut), size(cut..hi), size(hi..rank)])
}

/// Generic permutation with a per-element odometer: fallback for
/// permutations [`swap_groups`] rejects, and the oracle for its fast path.
fn permute_odometer(src: &[f32], dims: &[usize], perm: &[usize], out: &mut [f32]) {
    let in_strides = strides(dims);
    let out_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
    let mut idx = vec![0usize; perm.len()];
    for slot in out.iter_mut() {
        let mut off = 0;
        for (k, &p) in perm.iter().enumerate() {
            off += idx[k] * in_strides[p];
        }
        *slot = src[off];
        for ax in (0..perm.len()).rev() {
            idx[ax] += 1;
            if idx[ax] < out_dims[ax] {
                break;
            }
            idx[ax] = 0;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.dims)?;
        let data = self.data();
        if data.len() <= 16 {
            write!(f, " {data:?}")
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ... ; mean={:.4}]",
                data[0],
                data[1],
                self.mean_all()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn indexing_round_trip() {
        let mut x = Tensor::zeros(&[2, 3]);
        x.set(&[1, 2], 7.0);
        assert_eq!(x.at(&[1, 2]), 7.0);
        assert_eq!(x.data()[5], 7.0);
    }

    #[test]
    fn eye_diagonal() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[0, 0]), 1.0);
        assert_eq!(e.at(&[1, 2]), 0.0);
        assert_eq!(e.sum_all(), 3.0);
    }

    #[test]
    fn add_same_shape() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn add_broadcast_row() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn add_broadcast_col() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[100.0, 200.0], &[2, 1]);
        let c = a.add(&b).unwrap();
        assert_eq!(c.data(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn scalar_lhs_broadcast() {
        let a = Tensor::scalar(2.0);
        let b = t(&[1.0, 2.0], &[2]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c.dims(), &[2]);
        assert_eq!(c.data(), &[2.0, 4.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn sum_axes_keepdim() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s = a.sum_axes(&[1], true).unwrap();
        assert_eq!(s.dims(), &[2, 1]);
        assert_eq!(s.data(), &[6.0, 15.0]);
        let s0 = a.sum_axes(&[0], false).unwrap();
        assert_eq!(s0.dims(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_all_axes_yields_scalar() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let s = a.sum_axes(&[0, 1], false).unwrap();
        assert_eq!(s.dims(), &[] as &[usize]);
        assert_eq!(s.item(), 10.0);
    }

    #[test]
    fn mean_axes_divides() {
        let a = t(&[2.0, 4.0, 6.0, 8.0], &[2, 2]);
        let m = a.mean_axes(&[0], true).unwrap();
        assert_eq!(m.data(), &[4.0, 6.0]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        // grad of shape [2,3] reduced to a [3] bias.
        let g = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = g.reduce_to_shape(&[3]).unwrap();
        assert_eq!(r.data(), &[5.0, 7.0, 9.0]);
        // reduced to [2,1]
        let r2 = g.reduce_to_shape(&[2, 1]).unwrap();
        assert_eq!(r2.dims(), &[2, 1]);
        assert_eq!(r2.data(), &[6.0, 15.0]);
        // no-op
        let r3 = g.reduce_to_shape(&[2, 3]).unwrap();
        assert_eq!(r3.data(), g.data());
    }

    #[test]
    fn reshape_checks_numel() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert!(a.reshape(&[4]).is_ok());
        assert!(a.reshape(&[3]).is_err());
    }

    #[test]
    fn reshape_is_copy_on_write() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let mut b = a.reshape(&[4]).unwrap();
        b.set(&[0], 9.0);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.data(), &[9.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let a = t(&[1.0, 2.0], &[2]);
        let mut b = a.clone();
        b.data_mut()[0] = 5.0;
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[5.0, 2.0]);
    }

    #[test]
    fn permute_3d() {
        let a = Tensor::arange(24).reshape(&[2, 3, 4]).unwrap();
        let p = a.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        // p[i,j,k] = a[j,k,i]
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        assert_eq!(p.at(&[3, 1, 2]), a.at(&[1, 2, 3]));
    }

    #[test]
    fn permute_validates() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.permute(&[0, 0]).is_err());
        assert!(a.permute(&[0]).is_err());
        assert!(a.permute(&[1, 0]).is_ok());
    }

    /// Mixed magnitudes, so any change of accumulation order changes bits.
    fn rough(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 10f32.powi(i as i32 % 7 - 3))
            .collect()
    }

    /// Every permutation of `0..rank`, lexicographic.
    fn permutations(rank: usize) -> Vec<Vec<usize>> {
        if rank == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(rank - 1) {
            for at in 0..rank {
                let mut q = p.clone();
                q.insert(at, rank - 1);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn permute_fast_path_matches_odometer_for_every_permutation() {
        let mut collapsed = 0;
        for dims in [
            vec![5],
            vec![3, 4],
            vec![2, 3, 4],
            vec![2, 3, 1, 5],
            vec![3, 2, 4, 2],
        ] {
            let a = Tensor::from_vec(rough(numel(&dims)), &dims).unwrap();
            for perm in permutations(dims.len()) {
                let mut want = vec![0.0f32; a.numel()];
                permute_odometer(a.data(), &dims, &perm, &mut want);
                let got = a.permute(&perm).unwrap();
                assert_eq!(got.data(), want, "dims {dims:?} perm {perm:?}");
                collapsed += usize::from(swap_groups(&dims, &perm).is_some());
            }
        }
        // 1 + 2 + 6 + 24 + 24 permutations; the adjacent-group swaps among
        // them (identity included) take the fast path, the rest fall back.
        assert_eq!(collapsed, 30, "fast-path share of the 57 permutations");
        assert_eq!(
            swap_groups(&[2, 4, 3, 5], &[0, 2, 1, 3]),
            Some([2, 4, 3, 5])
        );
        assert_eq!(
            swap_groups(&[2, 4, 3, 5], &[0, 2, 3, 1]),
            Some([2, 4, 15, 1])
        );
        assert_eq!(swap_groups(&[2, 4, 3, 5], &[3, 1, 2, 0]), None);
    }

    #[test]
    fn sum_axes_fast_paths_match_odometer_bitwise() {
        let mut collapsed = 0;
        for dims in [
            vec![7],
            vec![4, 5],
            vec![3, 4, 5],
            vec![2, 3, 1, 4],
            vec![2, 3, 2, 3, 2],
        ] {
            let a = Tensor::from_vec(rough(numel(&dims)), &dims).unwrap();
            for mask in 0u32..1 << dims.len() {
                let axes: Vec<usize> = (0..dims.len()).filter(|ax| mask >> ax & 1 == 1).collect();
                let mut reduced = dims.clone();
                for &ax in &axes {
                    reduced[ax] = 1;
                }
                let mut want = vec![0.0f32; numel(&reduced)];
                sum_axes_odometer(a.data(), &dims, &reduced, &mut want);
                let got = a.sum_axes(&axes, true).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.data()), bits(&want), "dims {dims:?} axes {axes:?}");
                collapsed += usize::from(collapse_reduction(&dims, &reduced).is_some());
            }
        }
        // Only rank 5 has masks with four or more alternating groups.
        assert_eq!(collapsed, 52, "fast-path share of the 62 axis subsets");
        // [N,C,H,W] over (0,2,3) is reduce-keep-reduce; over (1) keep-reduce-keep.
        assert_eq!(
            collapse_reduction(&[2, 3, 4, 5], &[1, 3, 1, 1]),
            Some(([2, 3, 20], false))
        );
        assert_eq!(
            collapse_reduction(&[2, 3, 4, 5], &[2, 1, 4, 5]),
            Some(([2, 3, 20], true))
        );
        assert_eq!(collapse_reduction(&[2, 3, 2, 3], &[1, 3, 1, 3]), None);
    }

    #[test]
    fn transpose2_matches_permute() {
        let a = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        assert_eq!(
            a.transpose2().unwrap().data(),
            a.permute(&[1, 0]).unwrap().data()
        );
    }

    #[test]
    fn slice_axis_middle() {
        let a = Tensor::arange(24).reshape(&[2, 3, 4]).unwrap();
        let s = a.slice_axis(1, 1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), a.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 3]), a.at(&[1, 2, 3]));
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0], &[1, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.dims(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_slice_round_trip() {
        let a = Tensor::arange(12).reshape(&[3, 4]).unwrap();
        let left = a.slice_axis(1, 0, 2).unwrap();
        let right = a.slice_axis(1, 2, 4).unwrap();
        let joined = Tensor::concat(&[&left, &right], 1).unwrap();
        assert_eq!(joined.data(), a.data());
    }

    #[test]
    fn gather_scatter_adjoint() {
        let w = Tensor::arange(12).reshape(&[4, 3]).unwrap();
        let rows = w.gather_rows(&[3, 1, 3]).unwrap();
        assert_eq!(rows.dims(), &[3, 3]);
        assert_eq!(rows.at(&[0, 0]), 9.0);
        let back = Tensor::scatter_add_rows(&rows, &[3, 1, 3], 4).unwrap();
        // Row 3 was gathered twice so it accumulates twice.
        assert_eq!(back.at(&[3, 0]), 18.0);
        assert_eq!(back.at(&[1, 1]), 4.0);
        assert_eq!(back.at(&[0, 0]), 0.0);
    }

    #[test]
    fn pad_crop_round_trip() {
        let a = Tensor::arange(8).reshape(&[2, 2, 2]).unwrap();
        let p = a.pad_spatial((1, 2, 3, 0)).unwrap();
        assert_eq!(p.dims(), &[2, 5, 5]);
        assert_eq!(p.at(&[0, 1, 3]), a.at(&[0, 0, 0]));
        let c = p.crop_spatial(1, 3, 2, 2).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = a.softmax_last();
        let row0: f32 = s.data()[..3].iter().sum();
        let row1: f32 = s.data()[3..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!((row1 - 1.0).abs() < 1e-6);
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = t(&[1000.0, 1001.0], &[1, 2]);
        let s = a.softmax_last();
        assert!(!s.has_non_finite());
        let b = t(&[0.0, 1.0], &[1, 2]);
        let sb = b.softmax_last();
        for (x, y) in s.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn norm_and_finite_checks() {
        let a = t(&[3.0, 4.0], &[2]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert!(!a.has_non_finite());
        let b = t(&[f32::NAN, 1.0], &[2]);
        assert!(b.has_non_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Tensor::zeros(&[2, 2]);
        assert!(!format!("{a:?}").is_empty());
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big:?}").contains("mean"));
    }
}
