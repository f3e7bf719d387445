//! Convolution kernels: `im2col`/`col2im`, 2-D convolution, transposed
//! convolution, max-pooling and nearest-neighbour upsampling, each with its
//! exact adjoint (backward) kernel.
//!
//! Layouts follow PyTorch:
//! * activations `[N, C, H, W]`
//! * `conv2d` weights `[O, C, KH, KW]`
//! * `conv_transpose2d` weights `[C, O, KH, KW]`

use crate::error::TensorError;
use crate::linalg::{gemm_nt_par, gemm_par, gemm_tn_par};
use crate::tensor::Tensor;
use crate::Result;

/// Minimum element count before the im2col/col2im data movers fan out —
/// they are memory-bound, so the bar is lower than for the gemms: at
/// ~1 ns per moved element `2^20` is ~1 ms per fork (see `PAR_MIN_FLOPS`
/// in `linalg` for the measured fork cost behind both).
const PAR_MIN_ELEMS: usize = 1 << 20;

/// Whether a data-movement pass over `elems` elements split across `rows`
/// independent rows should take the parallel path.
fn par_worth_elems(rows: usize, elems: usize) -> bool {
    lmmir_par::worth_parallelizing(rows, elems, PAR_MIN_ELEMS)
}

/// Hyper-parameters of a convolution: stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Spatial stride (same in both axes).
    pub stride: usize,
    /// Symmetric zero padding (same on all four sides).
    pub padding: usize,
}

impl ConvSpec {
    /// Creates a spec; `stride` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics when `stride == 0`.
    #[must_use]
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be non-zero");
        ConvSpec { stride, padding }
    }

    /// Output spatial size of a convolution over an input of size `in_size`
    /// with kernel `k`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when the kernel does not fit.
    pub fn conv_out(&self, in_size: usize, k: usize) -> Result<usize> {
        let padded = in_size + 2 * self.padding;
        if padded < k {
            return Err(TensorError::InvalidShape {
                dims: vec![in_size, k],
                reason: format!(
                    "kernel {k} larger than padded input {padded} (pad {})",
                    self.padding
                ),
            });
        }
        Ok((padded - k) / self.stride + 1)
    }

    /// Output spatial size of a transposed convolution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when padding exceeds the
    /// produced size.
    pub fn deconv_out(&self, in_size: usize, k: usize) -> Result<usize> {
        let raw = (in_size - 1) * self.stride + k;
        if raw < 2 * self.padding {
            return Err(TensorError::InvalidShape {
                dims: vec![in_size, k],
                reason: "padding exceeds transposed-conv output".to_string(),
            });
        }
        Ok(raw - 2 * self.padding)
    }
}

/// Geometry of one im2col/col2im plane: image `[C, H, W]`, kernel
/// `[KH, KW]`, column space `[OH, OW]`, plus stride/padding.
#[derive(Debug, Clone, Copy)]
struct PlaneGeom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    spec: ConvSpec,
}

impl PlaneGeom {
    /// Whether the unfold is the identity — a 1×1 kernel at stride 1 with
    /// no padding — so the image plane *is* its column matrix.
    fn unfold_is_identity(&self) -> bool {
        (self.kh, self.kw, self.spec.stride, self.spec.padding) == (1, 1, 1, 0)
    }
}

/// One stretch of a column row, in output order.
enum Span<'a> {
    /// This many columns read the zero padding.
    Pad(usize),
    /// Columns copied from consecutive image elements (stride 1).
    Run(&'a [f32]),
    /// Columns gathered from every `.1`-th element of the slice.
    Gather(&'a [f32], usize),
}

/// The column matrix `[C*KH*KW, OH*OW]` of one `[C, H, W]` image: the plane
/// itself when the unfold is the identity, else unfolded into `scratch`
/// (which a caller reuses across the samples of a batch).
///
/// A plane below the fork gate is appended to the cleared scratch span by
/// span, so its buffer is never zero-filled first. Column rows are
/// independent, so large planes are split across threads by contiguous row
/// runs over a sized buffer; the spans are the same at any thread count,
/// keeping the unfold bitwise deterministic.
fn im2col_plane<'a>(x: &'a [f32], g: PlaneGeom, scratch: &'a mut Vec<f32>) -> &'a [f32] {
    if g.unfold_is_identity() {
        return x;
    }
    let l = g.oh * g.ow;
    let ckk = g.c * g.kh * g.kw;
    scratch.clear();
    if l == 0 {
        return scratch;
    }
    if par_worth_elems(ckk, ckk * l) {
        scratch.resize(ckk * l, 0.0);
        lmmir_par::par_chunks_mut(scratch, l, |r0, chunk| im2col_rows(x, g, r0, chunk));
    } else {
        scratch.reserve_exact(ckk * l);
        im2col_spans(x, g, 0..ckk, |span| match span {
            Span::Pad(n) => scratch.resize(scratch.len() + n, 0.0),
            Span::Run(run) => scratch.extend_from_slice(run),
            Span::Gather(taps, stride) => scratch.extend(taps.iter().step_by(stride)),
        });
    }
    debug_assert_eq!(scratch.len(), ckk * l);
    scratch
}

/// [`im2col_plane`] restricted to column rows `r0..r0 + rows.len() / (oh*ow)`,
/// written into their sized slice of the column matrix.
fn im2col_rows(x: &[f32], g: PlaneGeom, r0: usize, mut rows: &mut [f32]) {
    let nrows = rows.len() / (g.oh * g.ow);
    im2col_spans(x, g, r0..r0 + nrows, |span| {
        let len = match span {
            Span::Pad(n) => n,
            Span::Run(run) => run.len(),
            Span::Gather(taps, stride) => taps.len().div_ceil(stride),
        };
        let (out, rest) = std::mem::take(&mut rows).split_at_mut(len);
        rows = rest;
        match span {
            Span::Pad(_) => out.fill(0.0),
            Span::Run(run) => out.copy_from_slice(run),
            Span::Gather(taps, stride) => {
                for (v, &tap) in out.iter_mut().zip(taps.iter().step_by(stride)) {
                    *v = tap;
                }
            }
        }
    });
}

/// Emits column rows `rows` of [`im2col_plane`] as [`Span`]s; row `r`
/// covers kernel tap `(ci, ki, kj) = (r / (kh·kw), (r / kw) % kh, r % kw)`.
///
/// Per tap the in-bounds output columns are one range `ox_lo..ox_hi` that
/// depends only on `kj`, so each output row is a pad, one run of the image
/// row and a pad — no per-element bounds branch.
fn im2col_spans<'a>(
    x: &'a [f32],
    g: PlaneGeom,
    rows: std::ops::Range<usize>,
    mut emit: impl FnMut(Span<'a>),
) {
    let (stride, pad) = (g.spec.stride, g.spec.padding);
    for r in rows {
        let ci = r / (g.kh * g.kw);
        let ki = (r / g.kw) % g.kh;
        let kj = r % g.kw;
        // `ix = ox·stride + kj − pad` lies in `0..w` exactly for these `ox`.
        let ox_lo = pad.saturating_sub(kj).div_ceil(stride).min(g.ow);
        let ox_hi = (g.w + pad)
            .checked_sub(kj)
            .map_or(0, |reach| reach.div_ceil(stride))
            .clamp(ox_lo, g.ow);
        for oy in 0..g.oh {
            let iy = oy * stride + ki;
            if iy < pad || iy - pad >= g.h || ox_lo == ox_hi {
                emit(Span::Pad(g.ow)); // the whole output row reads the pad
                continue;
            }
            let src = &x[(ci * g.h + iy - pad) * g.w..][..g.w];
            let first = ox_lo * stride + kj - pad;
            let count = ox_hi - ox_lo;
            if ox_lo > 0 {
                emit(Span::Pad(ox_lo));
            }
            emit(if stride == 1 {
                Span::Run(&src[first..first + count])
            } else {
                Span::Gather(&src[first..=first + (count - 1) * stride], stride)
            });
            if ox_hi < g.ow {
                emit(Span::Pad(g.ow - ox_hi));
            }
        }
    }
}

/// Folds a `[C*KH*KW, OH*OW]` column matrix back into a `[C, H, W]` image by
/// scatter-add (the exact adjoint of [`im2col_plane`]).
///
/// Each image channel only receives scatters from its own `KH*KW` column
/// rows, so channels split across threads without write conflicts; within a
/// channel the accumulation order is identical at every thread count.
fn col2im_plane(cols: &[f32], g: PlaneGeom, x: &mut [f32]) {
    let l = g.oh * g.ow;
    let plane = g.h * g.w;
    debug_assert_eq!(cols.len(), g.c * g.kh * g.kw * l);
    debug_assert_eq!(x.len(), g.c * plane);
    if plane == 0 {
        return;
    }
    if par_worth_elems(g.c, cols.len()) {
        lmmir_par::par_chunks_mut(x, plane, |c0, chunk| col2im_channels(cols, g, c0, chunk));
    } else {
        col2im_channels(cols, g, 0, x);
    }
}

/// [`col2im_plane`] restricted to image channels `c0..c0 + x_chunk.len() /
/// (h*w)`.
fn col2im_channels(cols: &[f32], g: PlaneGeom, c0: usize, x_chunk: &mut [f32]) {
    let l = g.oh * g.ow;
    let plane = g.h * g.w;
    for (dc, x_plane) in x_chunk.chunks_mut(plane).enumerate() {
        let ci = c0 + dc;
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = ((ci * g.kh + ki) * g.kw + kj) * l;
                for oy in 0..g.oh {
                    let iy = (oy * g.spec.stride + ki) as isize - g.spec.padding as isize;
                    if iy < 0 || iy >= g.h as isize {
                        continue;
                    }
                    let dst_row = iy as usize * g.w;
                    let src = row + oy * g.ow;
                    for ox in 0..g.ow {
                        let ix = (ox * g.spec.stride + kj) as isize - g.spec.padding as isize;
                        if ix >= 0 && ix < g.w as isize {
                            x_plane[dst_row + ix as usize] += cols[src + ox];
                        }
                    }
                }
            }
        }
    }
}

/// Validated operand dimensions of a (transposed) convolution.
#[derive(Debug, Clone, Copy)]
struct ConvDims {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kh: usize,
    kw: usize,
}

fn conv_dims(x: &Tensor, weight: &Tensor) -> Result<ConvDims> {
    if x.rank() != 4 || weight.rank() != 4 {
        return Err(TensorError::InvalidShape {
            dims: x.dims().to_vec(),
            reason: "conv2d expects x [N,C,H,W] and weight [O,C,KH,KW]".to_string(),
        });
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, wc, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "conv2d",
        });
    }
    Ok(ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
    })
}

/// 2-D convolution `x [N,C,H,W] * w [O,C,KH,KW] (+ b [O]) -> [N,O,OH,OW]`.
///
/// # Errors
///
/// Returns shape errors when operand layouts disagree or the kernel does not
/// fit in the padded input.
pub fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
) -> Result<Tensor> {
    let ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
    } = conv_dims(x, weight)?;
    let oh = spec.conv_out(h, kh)?;
    let ow = spec.conv_out(w, kw)?;
    let geom = PlaneGeom {
        c,
        h,
        w,
        kh,
        kw,
        oh,
        ow,
        spec,
    };
    let l = oh * ow;
    let ckk = c * kh * kw;
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    let mut scratch = Vec::new();
    for ni in 0..n {
        let plane = &x.data()[ni * c * h * w..(ni + 1) * c * h * w];
        gemm_par(
            o,
            ckk,
            l,
            weight.data(),
            im2col_plane(plane, geom, &mut scratch),
            &mut out.data_mut()[ni * o * l..(ni + 1) * o * l],
        );
    }
    if let Some(b) = bias {
        if b.dims() != [o] {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![o],
                rhs: b.dims().to_vec(),
                op: "conv2d bias",
            });
        }
        for ni in 0..n {
            for oi in 0..o {
                let bv = b.data()[oi];
                let base = (ni * o + oi) * l;
                for v in &mut out.data_mut()[base..base + l] {
                    *v += bv;
                }
            }
        }
    }
    Ok(out)
}

/// Backward pass of [`conv2d`]: returns `(dx, dweight, dbias)`.
///
/// # Errors
///
/// Returns shape errors when `grad_out` does not match the forward output
/// shape.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (dx, dw, db) = conv2d_backward_for(x, weight, grad_out, spec, true)?;
    Ok((dx.expect("dx was asked for"), dw, db))
}

/// [`conv2d_backward`] that computes `dx` only when `want_dx`: an input that
/// needs no gradient (the stem's image) skips its `W^T·g` product and the
/// `col2im` scatter, the larger half of the pass. `dweight` and `dbias` do
/// not depend on it.
pub(crate) fn conv2d_backward_for(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
    want_dx: bool,
) -> Result<(Option<Tensor>, Tensor, Tensor)> {
    let ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
    } = conv_dims(x, weight)?;
    let oh = spec.conv_out(h, kh)?;
    let ow = spec.conv_out(w, kw)?;
    if grad_out.dims() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![n, o, oh, ow],
            rhs: grad_out.dims().to_vec(),
            op: "conv2d_backward",
        });
    }
    let geom = PlaneGeom {
        c,
        h,
        w,
        kh,
        kw,
        oh,
        ow,
        spec,
    };
    let l = oh * ow;
    let ckk = c * kh * kw;
    let mut dx = want_dx.then(|| Tensor::zeros(x.dims()));
    let mut dw = Tensor::zeros(weight.dims());
    let mut db = Tensor::zeros(&[o]);
    let mut scratch = Vec::new();
    let mut dcols = Vec::new();
    for ni in 0..n {
        let g = &grad_out.data()[ni * o * l..(ni + 1) * o * l];
        // dbias
        for oi in 0..o {
            db.data_mut()[oi] += g[oi * l..(oi + 1) * l].iter().sum::<f32>();
        }
        // dweight += g [O,L] x cols^T [L,CKK]
        let plane = &x.data()[ni * c * h * w..(ni + 1) * c * h * w];
        let cols = im2col_plane(plane, geom, &mut scratch);
        gemm_nt_par(o, l, ckk, g, cols, dw.data_mut());
        // dx = col2im( W^T [CKK,O] x g [O,L] )
        if let Some(dx) = dx.as_mut() {
            dcols.clear();
            dcols.resize(ckk * l, 0.0);
            gemm_tn_par(ckk, o, l, weight.data(), g, &mut dcols);
            col2im_plane(
                &dcols,
                geom,
                &mut dx.data_mut()[ni * c * h * w..(ni + 1) * c * h * w],
            );
        }
    }
    Ok((dx, dw, db))
}

fn deconv_dims(x: &Tensor, weight: &Tensor) -> Result<ConvDims> {
    if x.rank() != 4 || weight.rank() != 4 {
        return Err(TensorError::InvalidShape {
            dims: x.dims().to_vec(),
            reason: "conv_transpose2d expects x [N,C,H,W] and weight [C,O,KH,KW]".to_string(),
        });
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (wc, o, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "conv_transpose2d",
        });
    }
    Ok(ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
    })
}

/// Transposed 2-D convolution (a.k.a. deconvolution):
/// `x [N,C,H,W] * w [C,O,KH,KW] -> [N,O,OH,OW]` with
/// `OH = (H-1)*stride + KH - 2*padding`.
///
/// # Errors
///
/// Returns shape errors on malformed operands.
pub fn conv_transpose2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
) -> Result<Tensor> {
    let ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
    } = deconv_dims(x, weight)?;
    let oh = spec.deconv_out(h, kh)?;
    let ow = spec.deconv_out(w, kw)?;
    // The adjoint view: the deconv *output* plays the image role, the
    // deconv *input* plays the column space.
    let geom = PlaneGeom {
        c: o,
        h: oh,
        w: ow,
        kh,
        kw,
        oh: h,
        ow: w,
        spec,
    };
    let l = h * w; // "conv output" space of the adjoint view
    let okk = o * kh * kw;
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    let mut cols = vec![0.0f32; okk * l];
    for ni in 0..n {
        // cols [OKK, L] = W^T [OKK, C] x x[n] [C, L]
        cols.iter_mut().for_each(|v| *v = 0.0);
        gemm_tn_par(
            okk,
            c,
            l,
            weight.data(),
            &x.data()[ni * c * l..(ni + 1) * c * l],
            &mut cols,
        );
        col2im_plane(
            &cols,
            geom,
            &mut out.data_mut()[ni * o * oh * ow..(ni + 1) * o * oh * ow],
        );
    }
    if let Some(b) = bias {
        if b.dims() != [o] {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![o],
                rhs: b.dims().to_vec(),
                op: "conv_transpose2d bias",
            });
        }
        let plane = oh * ow;
        for ni in 0..n {
            for oi in 0..o {
                let bv = b.data()[oi];
                let base = (ni * o + oi) * plane;
                for v in &mut out.data_mut()[base..base + plane] {
                    *v += bv;
                }
            }
        }
    }
    Ok(out)
}

/// Backward pass of [`conv_transpose2d`]: returns `(dx, dweight, dbias)`.
///
/// # Errors
///
/// Returns shape errors when `grad_out` does not match the forward output.
pub fn conv_transpose2d_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
    } = deconv_dims(x, weight)?;
    let oh = spec.deconv_out(h, kh)?;
    let ow = spec.deconv_out(w, kw)?;
    if grad_out.dims() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![n, o, oh, ow],
            rhs: grad_out.dims().to_vec(),
            op: "conv_transpose2d_backward",
        });
    }
    let geom = PlaneGeom {
        c: o,
        h: oh,
        w: ow,
        kh,
        kw,
        oh: h,
        ow: w,
        spec,
    };
    let l = h * w;
    let okk = o * kh * kw;
    let mut dx = Tensor::zeros(x.dims());
    let mut dw = Tensor::zeros(weight.dims());
    let mut db = Tensor::zeros(&[o]);
    let mut scratch = Vec::new();
    for ni in 0..n {
        let g = &grad_out.data()[ni * o * oh * ow..(ni + 1) * o * oh * ow];
        // dbias
        let plane = oh * ow;
        for oi in 0..o {
            db.data_mut()[oi] += g[oi * plane..(oi + 1) * plane].iter().sum::<f32>();
        }
        // gcols [OKK, L] = im2col(grad_out[n])
        let gcols = im2col_plane(g, geom, &mut scratch);
        // dx[n] [C, L] = W [C, OKK] x gcols [OKK, L]
        gemm_par(
            c,
            okk,
            l,
            weight.data(),
            gcols,
            &mut dx.data_mut()[ni * c * l..(ni + 1) * c * l],
        );
        // dW [C, OKK] += x[n] [C, L] x gcols^T [L, OKK]
        gemm_nt_par(
            c,
            l,
            okk,
            &x.data()[ni * c * l..(ni + 1) * c * l],
            gcols,
            dw.data_mut(),
        );
    }
    Ok((dx, dw, db))
}

/// Max-pooling over `k`×`k` windows with stride `stride`.
///
/// Returns the pooled tensor and the flat argmax index (into the input
/// buffer) of every output element — the indices drive the exact backward
/// pass in [`max_pool2d_backward`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] for non-NCHW input or a window that
/// does not fit.
pub fn max_pool2d(x: &Tensor, k: usize, stride: usize) -> Result<(Tensor, Vec<u32>)> {
    if x.rank() != 4 {
        return Err(TensorError::InvalidShape {
            dims: x.dims().to_vec(),
            reason: "max_pool2d expects [N,C,H,W]".to_string(),
        });
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    if h < k || w < k || stride == 0 {
        return Err(TensorError::InvalidShape {
            dims: x.dims().to_vec(),
            reason: format!("pool window {k} (stride {stride}) does not fit {h}x{w}"),
        });
    }
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut indices = vec![0u32; n * c * oh * ow];
    let xd = x.data();
    let od = out.data_mut();
    for nc in 0..n * c {
        let plane = nc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_ix = plane;
                for ky in 0..k {
                    let iy = oy * stride + ky;
                    let row = plane + iy * w;
                    for kx in 0..k {
                        let ix = ox * stride + kx;
                        let v = xd[row + ix];
                        if v > best {
                            best = v;
                            best_ix = row + ix;
                        }
                    }
                }
                let oix = nc * oh * ow + oy * ow + ox;
                od[oix] = best;
                indices[oix] = u32::try_from(best_ix).expect("tensor fits u32 indexing");
            }
        }
    }
    Ok((out, indices))
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the argmax
/// input element.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `grad_out` and `indices`
/// disagree.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    indices: &[u32],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_out.numel() != indices.len() {
        return Err(TensorError::LengthMismatch {
            expected: indices.len(),
            actual: grad_out.numel(),
        });
    }
    let mut dx = Tensor::zeros(input_dims);
    let d = dx.data_mut();
    for (&g, &ix) in grad_out.data().iter().zip(indices) {
        d[ix as usize] += g;
    }
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    /// Reference conv2d: direct 7-loop implementation for cross-checking.
    fn conv2d_reference(x: &Tensor, w: &Tensor, spec: ConvSpec) -> Tensor {
        let (n, c, h, ww) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (o, _, kh, kw) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
        let oh = spec.conv_out(h, kh).unwrap();
        let ow = spec.conv_out(ww, kw).unwrap();
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for ni in 0..n {
            for oi in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < ww as isize {
                                        acc += x.at(&[ni, ci, iy as usize, ix as usize])
                                            * w.at(&[oi, ci, ky, kx]);
                                    }
                                }
                            }
                        }
                        out.set(&[ni, oi, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv_out_sizes() {
        let s = ConvSpec::new(1, 1);
        assert_eq!(s.conv_out(8, 3).unwrap(), 8); // "same" conv
        let s2 = ConvSpec::new(2, 0);
        assert_eq!(s2.conv_out(8, 2).unwrap(), 4);
        assert_eq!(s2.deconv_out(4, 2).unwrap(), 8);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let x = Tensor::arange(16).reshape(&[1, 1, 4, 4]).unwrap();
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, None, ConvSpec::new(1, 0)).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_matches_reference() {
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let x =
            Tensor::from_vec((0..2 * 3 * 6 * 5).map(|_| next()).collect(), &[2, 3, 6, 5]).unwrap();
        let w =
            Tensor::from_vec((0..4 * 3 * 3 * 3).map(|_| next()).collect(), &[4, 3, 3, 3]).unwrap();
        for spec in [
            ConvSpec::new(1, 0),
            ConvSpec::new(1, 1),
            ConvSpec::new(2, 1),
        ] {
            let fast = conv2d(&x, &w, None, spec).unwrap();
            let slow = conv2d_reference(&x, &w, spec);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert!((a - b).abs() < 1e-4, "conv mismatch: {a} vs {b}");
            }
        }
    }

    /// Both unfold writers — the appending one a small plane takes and the
    /// sized-slice one the forked path takes — against the per-element
    /// definition, over kernels wider than the image, padding wider than the
    /// kernel and strides that skip the last column.
    #[test]
    fn im2col_matches_the_per_element_unfold_on_every_geometry() {
        let mut geometries = 0;
        for (kh, kw) in [(1, 1), (2, 2), (3, 3), (1, 3), (3, 2), (7, 7)] {
            for stride in 1..=3 {
                for padding in 0..=4 {
                    for (h, w) in [(1, 1), (2, 5), (5, 2), (6, 7), (9, 8)] {
                        let spec = ConvSpec::new(stride, padding);
                        let (Ok(oh), Ok(ow)) = (spec.conv_out(h, kh), spec.conv_out(w, kw)) else {
                            continue; // kernel does not fit
                        };
                        let c = 2;
                        #[rustfmt::skip]
                        let g = PlaneGeom { c, h, w, kh, kw, oh, ow, spec };
                        // Every image element distinct and non-zero, so a
                        // misplaced copy or pad cannot go unnoticed.
                        let x: Vec<f32> = (1..=c * h * w).map(|v| v as f32).collect();
                        let mut expect = Vec::with_capacity(c * kh * kw * oh * ow);
                        for (ci, ki, kj) in (0..c).flat_map(|ci| {
                            (0..kh).flat_map(move |ki| (0..kw).map(move |kj| (ci, ki, kj)))
                        }) {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let iy = (oy * stride + ki).wrapping_sub(padding);
                                    let ix = (ox * stride + kj).wrapping_sub(padding);
                                    let inside = iy < h && ix < w;
                                    expect.push(if inside {
                                        x[(ci * h + iy) * w + ix]
                                    } else {
                                        0.0
                                    });
                                }
                            }
                        }
                        let mut scratch = vec![77.0; 3]; // stale contents are dropped
                        let what =
                            format!("k {kh}x{kw} stride {stride} pad {padding} image {h}x{w}");
                        assert_eq!(
                            im2col_plane(&x, g, &mut scratch),
                            expect,
                            "appended, {what}"
                        );
                        let mut sized = vec![77.0f32; expect.len()];
                        if !sized.is_empty() {
                            im2col_rows(&x, g, 0, &mut sized);
                        }
                        assert_eq!(sized, expect, "sized, {what}");
                        geometries += 1;
                    }
                }
            }
        }
        assert!(geometries > 300, "only {geometries} geometries fit");
    }

    /// A pointwise convolution's column matrix is the image plane itself:
    /// nothing is unfolded, and the gemm reads the input in place.
    #[test]
    fn pointwise_unfold_is_the_plane_itself() {
        let spec = ConvSpec::new(1, 0);
        #[rustfmt::skip]
        let g = PlaneGeom { c: 3, h: 4, w: 5, kh: 1, kw: 1, oh: 4, ow: 5, spec };
        let x: Vec<f32> = (0..60).map(|i| i as f32).collect();
        let mut scratch = Vec::new();
        assert!(std::ptr::eq(
            im2col_plane(&x, g, &mut scratch),
            x.as_slice()
        ));
        assert_eq!(scratch.capacity(), 0, "no scratch was allocated");
        // Any stride or padding is a real unfold again.
        #[rustfmt::skip]
        let strided = PlaneGeom { oh: 2, ow: 3, spec: ConvSpec::new(2, 0), ..g };
        assert_eq!(im2col_plane(&x, strided, &mut scratch).len(), 3 * 6);
    }

    /// `want_dx = false` skips the input gradient and nothing else:
    /// `dweight` and `dbias` are the full pass's, bit for bit.
    #[test]
    fn backward_without_dx_keeps_weight_and_bias_gradients_bitwise() {
        let mut seed = 11u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        // The stem's shape class: several samples, 7x7 "same" kernel.
        let x =
            Tensor::from_vec((0..2 * 3 * 9 * 9).map(|_| next()).collect(), &[2, 3, 9, 9]).unwrap();
        let w =
            Tensor::from_vec((0..4 * 3 * 7 * 7).map(|_| next()).collect(), &[4, 3, 7, 7]).unwrap();
        let spec = ConvSpec::new(1, 3);
        let g =
            Tensor::from_vec((0..2 * 4 * 9 * 9).map(|_| next()).collect(), &[2, 4, 9, 9]).unwrap();
        let (dx, dw, db) = conv2d_backward(&x, &w, &g, spec).unwrap();
        let (no_dx, dw_only, db_only) = conv2d_backward_for(&x, &w, &g, spec, false).unwrap();
        assert!(no_dx.is_none());
        assert!(dx.data().iter().any(|&v| v != 0.0));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dw_only), bits(&dw));
        assert_eq!(bits(&db_only), bits(&db));
    }

    #[test]
    fn conv2d_bias_is_per_channel() {
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = t(&[1.5, -2.0], &[2]);
        let y = conv2d(&x, &w, Some(&b), ConvSpec::new(1, 0)).unwrap();
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(y.at(&[0, 1, 2, 2]), -2.0);
    }

    #[test]
    fn conv2d_backward_bias_sums_gradients() {
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let w = Tensor::ones(&[3, 1, 3, 3]);
        let spec = ConvSpec::new(1, 1);
        let y = conv2d(&x, &w, None, spec).unwrap();
        let g = Tensor::ones(y.dims());
        let (_, _, db) = conv2d_backward(&x, &w, &g, spec).unwrap();
        // each output plane is 4x4 and there are 2 samples => 32 per channel
        assert_eq!(db.data(), &[32.0, 32.0, 32.0]);
    }

    #[test]
    fn conv_transpose_inverts_stride2_shape() {
        let x = Tensor::arange(8).reshape(&[1, 2, 2, 2]).unwrap();
        let w = Tensor::ones(&[2, 3, 2, 2]); // [C,O,KH,KW]
        let y = conv_transpose2d(&x, &w, None, ConvSpec::new(2, 0)).unwrap();
        assert_eq!(y.dims(), &[1, 3, 4, 4]);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <conv(x), y> == <x, conv_transpose(y)> for matching specs/weights.
        let mut seed = 7u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        // 5x5 input with stride 2 / pad 1 / k 3 is exactly invertible in
        // shape: conv_out(5) = 3 and deconv_out(3) = 5.
        let spec = ConvSpec::new(2, 1);
        let x = Tensor::from_vec((0..2 * 5 * 5).map(|_| next()).collect(), &[1, 2, 5, 5]).unwrap();
        let w =
            Tensor::from_vec((0..3 * 2 * 3 * 3).map(|_| next()).collect(), &[3, 2, 3, 3]).unwrap();
        let cx = conv2d(&x, &w, None, spec).unwrap(); // [1,3,3,3]
        let y = Tensor::from_vec((0..cx.numel()).map(|_| next()).collect(), cx.dims()).unwrap();
        // The adjoint uses the *same* weight buffer: conv weight [O,C,kh,kw]
        // and conv_transpose weight [C_in=O, C_out=C, kh, kw] share layout
        // (PyTorch convention), so a plain reshape is the correct view.
        let wt = w.reshape(&[3, 2, 3, 3]).unwrap();
        let ty = conv_transpose2d(&y, &wt, None, spec).unwrap();
        assert_eq!(ty.dims(), x.dims());
        let lhs: f32 = cx.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(ty.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "adjoint mismatch {lhs} vs {rhs}"
        );
    }

    #[test]
    fn max_pool_picks_maximum_and_routes_gradient() {
        let x = t(
            &[
                1.0, 2.0, 5.0, 4.0, 3.0, 0.0, 1.0, 2.0, 9.0, 8.0, 7.0, 6.0, 0.0, 1.0, 2.0, 3.0,
            ],
            &[1, 1, 4, 4],
        );
        let (y, idx) = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3.0, 5.0, 9.0, 7.0]);
        let g = t(&[1.0, 1.0, 1.0, 1.0], &[1, 1, 2, 2]);
        let dx = max_pool2d_backward(&g, &idx, &[1, 1, 4, 4]).unwrap();
        assert_eq!(dx.sum_all(), 4.0);
        assert_eq!(dx.at(&[0, 0, 1, 0]), 1.0); // where 3.0 was
        assert_eq!(dx.at(&[0, 0, 2, 0]), 1.0); // where 9.0 was
    }

    #[test]
    fn pool_and_conv_validate_shapes() {
        let x = Tensor::zeros(&[2, 2]);
        assert!(max_pool2d(&x, 2, 2).is_err());
        let small = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d(&small, 3, 3).is_err(), "window must fit");
        let w = Tensor::zeros(&[1, 3, 3, 3]);
        let x4 = Tensor::zeros(&[1, 2, 5, 5]);
        assert!(conv2d(&x4, &w, None, ConvSpec::new(1, 0)).is_err());
    }
}
