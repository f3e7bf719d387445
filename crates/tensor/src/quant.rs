//! Post-training int8 quantization: per-output-channel weight scales,
//! dynamic per-tensor activation scales, and int8 GEMM kernels with `i32`
//! accumulation.
//!
//! ## Scheme
//!
//! Symmetric linear quantization to `[-127, 127]` (the `-128` lane is
//! unused so negation stays exact): `q = round(v / scale)` with
//! `scale = max_abs / 127` over the quantization group. Weights use one
//! scale per **output channel** — per column of a `[in, out]` linear
//! weight, per leading row of a `[O, C·KH·KW]` convolution weight — and
//! activations use one dynamic scale per tensor, computed at call time.
//!
//! ## Determinism
//!
//! The kernels accumulate in `i32`, which is associative: any loop order,
//! vectorization or thread partition produces the exact same integer, so
//! the int8 path is bitwise deterministic at every `LMMIR_THREADS` setting
//! without the accumulation-order discipline the f32 kernels need. The
//! final rescale to f32 multiplies the integer by a fixed product of the
//! two scales in a fixed order.

use crate::error::TensorError;
use crate::linalg::par_worth;
use crate::tensor::Tensor;
use crate::Result;

/// Largest quantized magnitude: symmetric `[-127, 127]`.
pub const QMAX: f32 = 127.0;

/// Scale mapping `max_abs` to the full int8 range; degenerate groups
/// (all-zero, or poisoned by NaN/Inf) get scale `1.0` so dequantization is
/// well-defined and zero stays zero.
#[must_use]
pub fn scale_for(max_abs: f32) -> f32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / QMAX
    } else {
        1.0
    }
}

/// Largest absolute value of a slice, ignoring NaN.
fn max_abs(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Quantizes one value already divided by its scale.
#[inline]
fn quantize_unit(v: f32) -> i8 {
    let r = v.round();
    if r > QMAX {
        127
    } else if r < -QMAX {
        -127
    } else {
        // NaN saturates to 0 under Rust's float-to-int cast semantics.
        r as i8
    }
}

/// Per-output-channel scales of a weight tensor, or `None` when the tensor
/// has no quantization contract.
///
/// This is the **single source of truth** shared by checkpoint writers and
/// the layer-side quantizers, so scales stored at checkpoint time and
/// scales recomputed at load time match bitwise:
///
/// * rank 2 `[in, out]` (linear): one scale per column (`out` entries);
/// * rank 4 `[O, C, KH, KW]` (convolution): one scale per leading row
///   (`O` entries);
/// * anything else (biases, norm gains): `None`.
#[must_use]
pub fn weight_scales(t: &Tensor) -> Option<Vec<f32>> {
    match *t.dims() {
        [k, n] => {
            let data = t.data();
            let mut maxes = vec![0.0f32; n];
            for p in 0..k {
                let row = &data[p * n..(p + 1) * n];
                for (m, &v) in maxes.iter_mut().zip(row) {
                    *m = m.max(v.abs());
                }
            }
            Some(maxes.into_iter().map(scale_for).collect())
        }
        [o, c, kh, kw] => {
            let data = t.data();
            let group = c * kh * kw;
            Some(
                (0..o)
                    .map(|i| scale_for(max_abs(&data[i * group..(i + 1) * group])))
                    .collect(),
            )
        }
        _ => None,
    }
}

/// An int8 linear weight: row-major `[in, out]` values with one scale per
/// output column.
#[derive(Debug, Clone)]
pub struct QuantLinearWeight {
    /// Quantized values, row-major `[in, out]`.
    pub q: Vec<i8>,
    /// Per-output-channel scales (`out` entries).
    pub scales: Vec<f32>,
    /// Contraction depth (`in`).
    pub in_features: usize,
    /// Output width (`out`).
    pub out_features: usize,
}

impl QuantLinearWeight {
    /// Quantizes a `[in, out]` weight tensor per output column.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for non-rank-2 weights.
    pub fn from_tensor(w: &Tensor) -> Result<Self> {
        let &[k, n] = w.dims() else {
            return Err(TensorError::InvalidShape {
                dims: w.dims().to_vec(),
                reason: "quantized linear weight must be rank-2 [in, out]".to_string(),
            });
        };
        let scales = weight_scales(w).expect("rank-2 weights always quantize");
        let inv: Vec<f32> = scales.iter().map(|&s| 1.0 / s).collect();
        let data = w.data();
        let mut q = vec![0i8; k * n];
        for p in 0..k {
            let src = &data[p * n..(p + 1) * n];
            let dst = &mut q[p * n..(p + 1) * n];
            for ((d, &v), &iv) in dst.iter_mut().zip(src).zip(&inv) {
                *d = quantize_unit(v * iv);
            }
        }
        Ok(QuantLinearWeight {
            q,
            scales,
            in_features: k,
            out_features: n,
        })
    }
}

/// An int8 convolution weight: row-major `[O, C·KH·KW]` values (the im2col
/// GEMM's left operand) with one scale per output channel.
#[derive(Debug, Clone)]
pub struct QuantConvWeight {
    /// Quantized values, row-major `[O, C·KH·KW]`.
    pub q: Vec<i8>,
    /// Per-output-channel scales (`O` entries).
    pub scales: Vec<f32>,
    /// Output channels.
    pub o: usize,
    /// Input channels.
    pub c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
}

impl QuantConvWeight {
    /// Quantizes a `[O, C, KH, KW]` convolution weight per output channel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for non-rank-4 weights.
    pub fn from_tensor(w: &Tensor) -> Result<Self> {
        let &[o, c, kh, kw] = w.dims() else {
            return Err(TensorError::InvalidShape {
                dims: w.dims().to_vec(),
                reason: "quantized conv weight must be rank-4 [O, C, KH, KW]".to_string(),
            });
        };
        let scales = weight_scales(w).expect("rank-4 weights always quantize");
        let group = c * kh * kw;
        let data = w.data();
        let mut q = vec![0i8; o * group];
        for (i, &s) in scales.iter().enumerate() {
            let inv = 1.0 / s;
            let src = &data[i * group..(i + 1) * group];
            let dst = &mut q[i * group..(i + 1) * group];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = quantize_unit(v * inv);
            }
        }
        Ok(QuantConvWeight {
            q,
            scales,
            o,
            c,
            kh,
            kw,
        })
    }
}

/// Quantizes a whole activation buffer with one dynamic scale.
#[must_use]
pub fn quantize_per_tensor(values: &[f32]) -> (Vec<i8>, f32) {
    let scale = scale_for(max_abs(values));
    let inv = 1.0 / scale;
    (
        values.iter().map(|&v| quantize_unit(v * inv)).collect(),
        scale,
    )
}

/// Integer core shared by the int8 GEMMs: for each output row `i`, the
/// `i32` dot-product row `acc[j] = Σ_p a[i,p]·b[p,j]` is handed to `apply`.
///
/// The `p` loop runs four depths at a time with the products staged
/// through two `i16` scratch rows: `|a·b| ≤ 127² = 16129` and each staged
/// pair sum stays `≤ 32258 < i16::MAX`, so the `i16` arithmetic is
/// provably exact. Keeping the multiply loops entirely in `i16` matters on
/// the baseline (SSE2) x86-64 target, which has an 8-lane `i16` vector
/// multiply (`pmullw`) but no vector `i32` multiply at all — a plain `i32`
/// inner loop runs ~3× slower through 2-lane `pmuludq`. The widening add
/// into the `i32` accumulators is a separate, trivially vectorizable pass,
/// and fusing two staged rows per pass halves the accumulator traffic. An
/// all-zero `a` block skips its `b` rows: in integer arithmetic the skip
/// is exact (there is no `0 · inf` hazard), and post-ReLU activations make
/// the case common enough to pay.
fn qgemm_rows(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    mut apply: impl FnMut(usize, &[i32]),
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let mut acc = vec![0i32; n];
    let mut prod0 = vec![0i16; n];
    let mut prod1 = vec![0i16; n];
    for i in 0..m {
        acc.iter_mut().for_each(|v| *v = 0);
        let a_row = &a[i * k..(i + 1) * k];
        let mut p = 0;
        while p + 3 < k {
            let a0 = i16::from(a_row[p]);
            let a1 = i16::from(a_row[p + 1]);
            let a2 = i16::from(a_row[p + 2]);
            let a3 = i16::from(a_row[p + 3]);
            if (a0, a1, a2, a3) != (0, 0, 0, 0) {
                let b0 = &b[p * n..(p + 1) * n];
                let b1 = &b[(p + 1) * n..(p + 2) * n];
                let b2 = &b[(p + 2) * n..(p + 3) * n];
                let b3 = &b[(p + 3) * n..(p + 4) * n];
                for ((d, &v0), &v1) in prod0.iter_mut().zip(b0).zip(b1) {
                    *d = a0 * i16::from(v0) + a1 * i16::from(v1);
                }
                for ((d, &v2), &v3) in prod1.iter_mut().zip(b2).zip(b3) {
                    *d = a2 * i16::from(v2) + a3 * i16::from(v3);
                }
                for ((s, &d0), &d1) in acc.iter_mut().zip(&prod0).zip(&prod1) {
                    *s += i32::from(d0) + i32::from(d1);
                }
            }
            p += 4;
        }
        while p + 1 < k {
            let a0 = i16::from(a_row[p]);
            let a1 = i16::from(a_row[p + 1]);
            if (a0, a1) != (0, 0) {
                let b0 = &b[p * n..(p + 1) * n];
                let b1 = &b[(p + 1) * n..(p + 2) * n];
                for ((d, &v0), &v1) in prod0.iter_mut().zip(b0).zip(b1) {
                    *d = a0 * i16::from(v0) + a1 * i16::from(v1);
                }
                for (s, &d) in acc.iter_mut().zip(&prod0) {
                    *s += i32::from(d);
                }
            }
            p += 2;
        }
        if p < k {
            let av = i32::from(a_row[p]);
            if av != 0 {
                let b_row = &b[p * n..(p + 1) * n];
                for (s, &bv) in acc.iter_mut().zip(b_row) {
                    *s += av * i32::from(bv);
                }
            }
        }
        apply(i, &acc);
    }
}

/// int8 GEMM with the **weights on the right** (linear layers):
/// `c[i,j] += acc[i,j] · a_scale · b_scales[j]` where `a` is the quantized
/// activation `[m,k]` and `b` the quantized weight `[k,n]`.
#[allow(clippy::too_many_arguments)] // GEMM convention: dims, operands, scales
pub fn qgemm_wb(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    a_scale: f32,
    b: &[i8],
    b_scales: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(b_scales.len(), n);
    debug_assert_eq!(c.len(), m * n);
    qgemm_rows(m, k, n, a, b, |i, acc| {
        let c_row = &mut c[i * n..(i + 1) * n];
        for ((cv, &s), &bs) in c_row.iter_mut().zip(acc).zip(b_scales) {
            *cv += s as f32 * (a_scale * bs);
        }
    });
}

/// int8 GEMM with the **weights on the left** (im2col convolutions):
/// `c[i,j] += acc[i,j] · a_scales[i] · b_scale` where `a` is the quantized
/// weight `[m,k]` and `b` the quantized activation columns `[k,n]`.
#[allow(clippy::too_many_arguments)] // GEMM convention: dims, operands, scales
pub fn qgemm_wa(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    a_scales: &[f32],
    b: &[i8],
    b_scale: f32,
    c: &mut [f32],
) {
    debug_assert_eq!(a_scales.len(), m);
    debug_assert_eq!(c.len(), m * n);
    qgemm_rows(m, k, n, a, b, |i, acc| {
        let scale = a_scales[i] * b_scale;
        let c_row = &mut c[i * n..(i + 1) * n];
        for (cv, &s) in c_row.iter_mut().zip(acc) {
            *cv += s as f32 * scale;
        }
    });
}

/// [`qgemm_wb`] with output rows partitioned across threads. Integer
/// accumulation is associative, so the partition cannot change results.
#[allow(clippy::too_many_arguments)] // GEMM convention: dims, operands, scales
pub fn qgemm_wb_par(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    a_scale: f32,
    b: &[i8],
    b_scales: &[f32],
    c: &mut [f32],
) {
    if !par_worth(m, m * k * n) {
        qgemm_wb(m, k, n, a, a_scale, b, b_scales, c);
        return;
    }
    lmmir_par::par_chunks_mut(c, n, |i0, c_block| {
        let rows = c_block.len() / n;
        qgemm_wb(
            rows,
            k,
            n,
            &a[i0 * k..(i0 + rows) * k],
            a_scale,
            b,
            b_scales,
            c_block,
        );
    });
}

/// [`qgemm_wa`] with output rows partitioned across threads.
#[allow(clippy::too_many_arguments)] // GEMM convention: dims, operands, scales
pub fn qgemm_wa_par(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    a_scales: &[f32],
    b: &[i8],
    b_scale: f32,
    c: &mut [f32],
) {
    if !par_worth(m, m * k * n) {
        qgemm_wa(m, k, n, a, a_scales, b, b_scale, c);
        return;
    }
    lmmir_par::par_chunks_mut(c, n, |i0, c_block| {
        let rows = c_block.len() / n;
        qgemm_wa(
            rows,
            k,
            n,
            &a[i0 * k..(i0 + rows) * k],
            &a_scales[i0..i0 + rows],
            b,
            b_scale,
            c_block,
        );
    });
}

/// Quantized counterpart of [`crate::linalg::matmul_nd`]: flattens the
/// leading axes of `x` into rows, quantizes them with one dynamic scale,
/// and multiplies by an int8 weight.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the contraction dims differ.
pub fn matmul_nd_quantized(x: &Tensor, w: &QuantLinearWeight) -> Result<Tensor> {
    if x.rank() == 0 {
        return Err(TensorError::InvalidShape {
            dims: x.dims().to_vec(),
            reason: "matmul_nd_quantized requires lhs rank >= 1".to_string(),
        });
    }
    let k = *x.dims().last().expect("rank >= 1");
    if k != w.in_features {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: vec![w.in_features, w.out_features],
            op: "matmul_nd_quantized",
        });
    }
    let rows = x.numel() / k.max(1);
    let (xq, x_scale) = quantize_per_tensor(x.data());
    let mut out_dims = x.dims().to_vec();
    *out_dims.last_mut().expect("rank >= 1") = w.out_features;
    let mut out = Tensor::zeros(&out_dims);
    qgemm_wb_par(
        rows,
        k,
        w.out_features,
        &xq,
        x_scale,
        &w.q,
        &w.scales,
        out.data_mut(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn scale_handles_degenerate_groups() {
        assert_eq!(scale_for(0.0), 1.0);
        assert_eq!(scale_for(f32::NAN), 1.0);
        assert_eq!(scale_for(f32::INFINITY), 1.0);
        assert_eq!(scale_for(127.0), 1.0);
    }

    #[test]
    fn per_channel_scales_follow_layout() {
        // Linear [in=2, out=3]: per-column maxima 4, 10, 6.
        let w = t(&[1.0, -10.0, 6.0, -4.0, 2.0, 3.0], &[2, 3]);
        let s = weight_scales(&w).unwrap();
        assert_eq!(s, vec![4.0 / 127.0, 10.0 / 127.0, 6.0 / 127.0]);
        // Conv [O=2, C=1, 1, 2]: per-output-channel maxima 2, 8.
        let w4 = t(&[1.0, -2.0, 8.0, 0.5], &[2, 1, 1, 2]);
        let s4 = weight_scales(&w4).unwrap();
        assert_eq!(s4, vec![2.0 / 127.0, 8.0 / 127.0]);
        // Biases carry no contract.
        assert!(weight_scales(&t(&[1.0], &[1])).is_none());
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let w = t(&[0.5, -0.25, 0.125, 1.0, -1.0, 0.75], &[3, 2]);
        let qw = QuantLinearWeight::from_tensor(&w).unwrap();
        for p in 0..3 {
            for j in 0..2 {
                let back = f32::from(qw.q[p * 2 + j]) * qw.scales[j];
                let err = (back - w.data()[p * 2 + j]).abs();
                assert!(err <= qw.scales[j] * 0.5 + 1e-6, "err {err}");
            }
        }
    }

    #[test]
    fn qgemm_matches_float_reference_within_quant_error() {
        let m = 5;
        let k = 16;
        let n = 7;
        let a: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.37).sin()).collect();
        let w: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.73).cos()).collect();
        let wt = t(&w, &[k, n]);
        let qw = QuantLinearWeight::from_tensor(&wt).unwrap();
        let (aq, a_scale) = quantize_per_tensor(&a);
        let mut c = vec![0.0f32; m * n];
        qgemm_wb(m, k, n, &aq, a_scale, &qw.q, &qw.scales, &mut c);
        for i in 0..m {
            for j in 0..n {
                let exact: f32 = (0..k).map(|p| a[i * k + p] * w[p * n + j]).sum();
                // Worst-case error ~ k * (half-step_a + half-step_w).
                assert!(
                    (c[i * n + j] - exact).abs() < 0.05,
                    "({i},{j}): {} vs {exact}",
                    c[i * n + j]
                );
            }
        }
    }

    #[test]
    fn qgemm_par_is_bitwise_thread_invariant() {
        // 192·128·176 ≈ 4.3e6 MACs: past the 2^22 fork threshold.
        let m = 192;
        let k = 128;
        let n = 176;
        let a: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.11).sin()).collect();
        let w: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.19).cos()).collect();
        let qw = QuantLinearWeight::from_tensor(&t(&w, &[k, n])).unwrap();
        let (aq, a_scale) = quantize_per_tensor(&a);
        let mut base = vec![0.0f32; m * n];
        lmmir_par::with_threads(1, || {
            qgemm_wb_par(m, k, n, &aq, a_scale, &qw.q, &qw.scales, &mut base);
        });
        for threads in [2, 4, 7] {
            let mut c = vec![0.0f32; m * n];
            lmmir_par::with_threads(threads, || {
                qgemm_wb_par(m, k, n, &aq, a_scale, &qw.q, &qw.scales, &mut c);
            });
            assert_eq!(base, c, "int8 gemm diverged at {threads} threads");
        }
    }

    #[test]
    fn matmul_nd_quantized_keeps_batch_shape() {
        let x = Tensor::arange(12).reshape(&[2, 2, 3]).unwrap();
        let w = Tensor::eye(3);
        let qw = QuantLinearWeight::from_tensor(&w).unwrap();
        let y = matmul_nd_quantized(&x, &qw).unwrap();
        assert_eq!(y.dims(), &[2, 2, 3]);
        // Identity weights quantize exactly (scales 1/127, q = ±127 on the
        // diagonal), and arange activations quantize to within a half-step.
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() <= 11.0 / 127.0 * 0.5 + 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn all_zero_activation_quantizes_losslessly() {
        let (q, s) = quantize_per_tensor(&[0.0, 0.0, 0.0]);
        assert_eq!(q, vec![0, 0, 0]);
        assert_eq!(s, 1.0);
    }
}
