//! Matrix multiplication: one packed gemm driver for every operand layout.
//!
//! Every product in the crate is `C += op(A) · op(B)` through `gemm`,
//! where `Layout` says which operand is stored transposed: `NN`, `TN`
//! (`a` is `[k,m]`) or `NT` (`b` is `[n,k]`). The layout lives in the
//! packing alone: `pack` copies `MR`-tall panels of `op(A)` and `NR`-wide
//! panels of `op(B)` into contiguous, `p`-major buffers, reading a stored
//! row either as one depth across the lanes or as one lane across the
//! depth. From there on the layouts are one code path: a blocked
//! `NC`/`KC`/`MC` loop nest drives one auto-vectorizable `MR`×`NR`
//! register-tile `microkernel`.
//!
//! ## Bitwise equivalence and determinism
//!
//! Every output element is produced by **one accumulator chain updated in
//! strictly `k`-ascending order, starting from the value `C` holds on
//! entry**: per tile, the loop nest reloads the exact partial sum from `C`
//! between `KC` slabs (an f32 store/load is exact). That is the chain of
//! the naive `i-k-j` kernel, [`gemm_reference`], run on explicitly
//! transposed operands, so every layout is bitwise that oracle.
//!
//! **The `+0.0`-on-entry condition.** A dot-product `NT` kernel that
//! folds each element's sum into a private `+0.0` accumulator and adds it
//! to `C` once agrees with this chain bit for bit, for all operands, **if
//! and only if `C` holds `+0.0` on entry**: a chain started at `+0.0` is
//! the fold, and `+0.0 + fold` is the fold (a fold that starts at `+0.0`
//! never reaches `-0.0`); on any other `C` the two round differently.
//! The models' bits were pinned with such a fold, so every `NT` caller
//! writes into a zeroed buffer: attention's products, `matmul_nt` and
//! `bmm_nt` directly, and the conv weight gradients through a zeroed
//! per-sample scratch that is then added to `dW`, so a batch's `dW` is its
//! samples' added element by element in sample order.
//!
//! Large products are partitioned across threads by contiguous row blocks
//! of the output (see `lmmir-par`): a block is the same call over a row
//! window, and each row keeps its `k`-ascending chain whatever the
//! partition, so results are bitwise identical for every `LMMIR_THREADS`
//! setting, including the forced-sequential `1`.
//!
//! None of the kernels shortcut on zero operands: `0.0 * inf` must produce
//! NaN per IEEE 754, and kernel timing must not depend on the data.

use crate::error::TensorError;
use crate::tensor::{softmax_row, Tensor};
use crate::Result;

/// Minimum multiply-accumulate count before a kernel fans out.
///
/// There is no persistent pool: a fork is a scoped spawn + join, measured
/// at 29–104 µs for two threads on the 2-core bench box
/// (`par.par_map_dispatch_us`). The packed kernels retire 2–8 MACs/ns, so
/// the former `2^18` bought 30–130 µs of work per fork — a net loss (the
/// 32 px LMM-IR forward ran 13.5–15.3 ms at 2 threads against 10.6–11.9 ms
/// at 1). `2^22` MACs is 0.5–2 ms: the fork stays under ~10 % of what it
/// buys. The conv, fused-elementwise and raster gates scale the same way.
const PAR_MIN_FLOPS: usize = 1 << 22;

/// Whether a kernel of `flops` multiply-accumulates across `rows`
/// partitionable rows should take the parallel path.
fn par_worth(rows: usize, flops: usize) -> bool {
    lmmir_par::worth_parallelizing(rows, flops, PAR_MIN_FLOPS)
}

/// Which operand of `C += op(A) · op(B)` is stored transposed; `C` is
/// always `[m,n]`, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `a` is `[m,k]`, `b` is `[k,n]`.
    NN,
    /// `a` is `[k,m]` and read as `Aᵀ`; `b` is `[k,n]`.
    TN,
    /// `a` is `[m,k]`; `b` is `[n,k]` and read as `Bᵀ`.
    NT,
}

impl Layout {
    /// `(m, k)` of `op(A)` and `(k, n)` of `op(B)` from the stored
    /// `(rows, cols)` of `a` and of `b`.
    fn op_dims(self, a: (usize, usize), b: (usize, usize)) -> [(usize, usize); 2] {
        let swap = |(r, c)| (c, r);
        match self {
            Layout::NN => [a, b],
            Layout::TN => [swap(a), b],
            Layout::NT => [a, swap(b)],
        }
    }
}

/// The naive `C += A · B` kernel (`a` is `[m,k]`, `b` is `[k,n]`, `c` is
/// `[m,n]`, all row-major) in `i-k-j` order with a contiguous inner loop:
/// the oracle every layout of `gemm` matches bitwise, and a benchmark
/// probe.
pub fn gemm_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a[i * k + p];
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aip * bv;
            }
        }
    }
}

/// The packed `C += A · B` (`[m,k] x [k,n]`) on the caller, public for
/// benchmarks and property tests. Bitwise identical to [`gemm_reference`].
pub fn gemm_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_rows(Layout::NN, 0, m, k, n, a, b, c);
}

/// `C += op(A) · op(B)` with output rows partitioned across threads when
/// the product is large enough to amortize forking.
pub(crate) fn gemm(
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    if par_worth(m, m * k * n) {
        lmmir_par::par_chunks_mut(c, n, |i0, rows| gemm_rows(layout, i0, m, k, n, a, b, rows));
    } else {
        gemm_rows(layout, 0, m, k, n, a, b, c);
    }
}

// ---------------------------------------------------------------------------
// The packed kernel.
//
// Blocked loop nest: `jc` over `NC`-wide column stripes, `pc` over `KC`-deep
// slabs (B panel packed once per `(jc, pc)`), `ic` over `MC`-tall row bands
// (A panel packed once per `(ic, pc)`), then `NR`-wide × `MR`-tall register
// tiles driven by the microkernel. Panels are zero-padded to full `MR`/`NR`
// width; padded lanes are computed and discarded at the store, which keeps
// the effective lanes' arithmetic untouched.
// ---------------------------------------------------------------------------

/// Register-tile height (rows of `C` per microkernel call).
const MR: usize = 4;
/// Register-tile width (columns of `C` per microkernel call); two 4-lane
/// vectors on the baseline x86-64 target (SSE2). The `MR`×`NR` accumulator
/// tile takes 8 of the 16 xmm registers, leaving room for the B row and
/// the A broadcast — a 4×16 tile would need all 16 and spill every lane.
const NR: usize = 8;
/// Rows of `A` packed per band (sized so a band of `MR`-panels stays hot).
const MC: usize = 64;
/// Contraction depth per slab; a packed `KC`×`NR` B panel is 8 KiB.
const KC: usize = 256;
/// Columns of `B` packed per stripe; a full `KC`×`NC` B pack is 512 KiB.
const NC: usize = 512;

/// The `MR`×`NR` register-tile microkernel: `acc[i][j] +=
/// a_panel[p][i] * b_panel[p][j]` for `p` ascending. Each accumulator is
/// updated once per `p`, so the per-element rounding chain is exactly the
/// reference kernel's `k`-ascending order; the compiler may vectorize the
/// `j` lanes (independent elements) but cannot reassociate across `p`.
#[inline]
fn microkernel(kcb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(a_panel.len() >= kcb * MR);
    debug_assert!(b_panel.len() >= kcb * NR);
    // Work on a by-value copy of the tile: the accumulators must live in
    // registers across the whole `p` loop, not round-trip through memory.
    let mut tile = *acc;
    for p in 0..kcb {
        let a_col: &[f32; MR] = a_panel[p * MR..p * MR + MR].try_into().unwrap();
        let b_row: &[f32; NR] = b_panel[p * NR..p * NR + NR].try_into().unwrap();
        for (row, &av) in tile.iter_mut().zip(a_col) {
            for (cv, &bv) in row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
    *acc = tile;
}

/// Packs lanes `l0..l0 + lanes` over depths `pc..pc + kcb` of one operand
/// into `W`-wide, `p`-major panels, zero-padding the last panel's missing
/// lanes. This is where the layout lives: with `lane_major` lane `l` is
/// the stored row `src[l * ld..]` (the rows of an `NN` `A`, the rows of an
/// `NT` `B`), otherwise depth `p` is (the rows of a `TN` `A`, of an `NN`
/// `B`).
fn pack<const W: usize>(
    src: &[f32],
    ld: usize,
    lane_major: bool,
    (l0, lanes): (usize, usize),
    (pc, kcb): (usize, usize),
    buf: &mut Vec<f32>,
) {
    buf.clear();
    buf.resize(lanes.div_ceil(W) * kcb * W, 0.0);
    for (panel, dst) in buf.chunks_exact_mut(kcb * W).enumerate() {
        let first = l0 + panel * W;
        let width = W.min(l0 + lanes - first);
        if lane_major {
            for l in 0..width {
                let row = &src[(first + l) * ld + pc..][..kcb];
                for (p, &v) in row.iter().enumerate() {
                    dst[p * W + l] = v;
                }
            }
        } else {
            for p in 0..kcb {
                let row = &src[(pc + p) * ld + first..][..width];
                dst[p * W..p * W + width].copy_from_slice(row);
            }
        }
    }
}

/// Loads the effective `iw`×`jw` window of `C` into the register tile
/// (padded lanes stay zero) so the microkernel resumes the exact partial
/// sums of earlier `KC` slabs.
#[inline]
fn load_tile(c: &[f32], n: usize, i0: usize, j0: usize, iw: usize, jw: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(iw) {
        let src = &c[(i0 + i) * n + j0..(i0 + i) * n + j0 + jw];
        match src.try_into() {
            Ok(full) => *row = full,
            Err(_) => row[..jw].copy_from_slice(src),
        }
    }
    acc
}

/// Stores the effective window of the register tile back to `C`, discarding
/// the zero-padded lanes.
#[inline]
fn store_tile(
    c: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    iw: usize,
    jw: usize,
    acc: &[[f32; NR]; MR],
) {
    for (i, row) in acc.iter().enumerate().take(iw) {
        let dst = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + jw];
        match <&mut [f32; NR]>::try_from(&mut *dst) {
            Ok(full) => *full = *row,
            Err(_) => dst.copy_from_slice(&row[..jw]),
        }
    }
}

/// `C += op(A) · op(B)` on the caller over output rows `i0..i0 + c.len() /
/// n`, `c` holding just those rows: the one loop nest. Per tile, the
/// partial sums are reloaded from `C`, advanced through one `KC` slab in
/// `p`-ascending order, and stored back exactly.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    layout: Layout,
    i0: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let rows = c.len().checked_div(n).unwrap_or(0);
    debug_assert!(i0 + rows <= m);
    // The layout as the packing reads it: each operand's stored row stride,
    // and whether a stored row is one lane across the depth.
    let a_lane_major = layout != Layout::TN;
    let b_lane_major = layout == Layout::NT;
    let a_ld = if a_lane_major { k } else { m };
    let b_ld = if b_lane_major { k } else { n };
    let (mut abuf, mut bbuf) = (Vec::new(), Vec::new());
    for jc in (0..n).step_by(NC) {
        let ncb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kcb = KC.min(k - pc);
            pack::<NR>(b, b_ld, b_lane_major, (jc, ncb), (pc, kcb), &mut bbuf);
            for ic in (0..rows).step_by(MC) {
                let mcb = MC.min(rows - ic);
                pack::<MR>(a, a_ld, a_lane_major, (i0 + ic, mcb), (pc, kcb), &mut abuf);
                for (jp, b_panel) in bbuf.chunks_exact(kcb * NR).enumerate() {
                    let j0 = jc + jp * NR;
                    let jw = NR.min(jc + ncb - j0);
                    for (ip, a_panel) in abuf.chunks_exact(kcb * MR).enumerate() {
                        let r0 = ic + ip * MR;
                        let iw = MR.min(ic + mcb - r0);
                        let mut acc = load_tile(c, n, r0, j0, iw, jw);
                        microkernel(kcb, a_panel, b_panel, &mut acc);
                        store_tile(c, n, r0, j0, iw, jw, &acc);
                    }
                }
            }
        }
    }
}

fn require_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::InvalidShape {
            dims: t.dims().to_vec(),
            reason: format!("{op} requires a rank-2 tensor"),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

fn shape_mismatch(a: &Tensor, b: &Tensor, op: &'static str) -> TensorError {
    TensorError::ShapeMismatch {
        lhs: a.dims().to_vec(),
        rhs: b.dims().to_vec(),
        op,
    }
}

/// The rank-2 product of `layout` behind [`matmul`], [`matmul_tn`] and
/// [`matmul_nt`].
fn matmul_with(layout: Layout, op: &'static str, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let [(m, k), (k2, n)] = layout.op_dims(require_rank2(a, op)?, require_rank2(b, op)?);
    if k != k2 {
        return Err(shape_mismatch(a, b, op));
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm(layout, m, k, n, a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// `[m,k] x [k,n] -> [m,n]` matrix product.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] for non-matrices and
/// [`TensorError::ShapeMismatch`] when inner dims differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(Layout::NN, "matmul", a, b)
}

/// `A^T * B`: `[k,m] x [k,n] -> [m,n]`.
///
/// # Errors
///
/// Returns shape errors as for [`matmul`].
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(Layout::TN, "matmul_tn", a, b)
}

/// `A * B^T`: `[m,k] x [n,k] -> [m,n]`.
///
/// # Errors
///
/// Returns shape errors as for [`matmul`].
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_with(Layout::NT, "matmul_nt", a, b)
}

/// Generalized matmul: `[..., k] x [k, n] -> [..., n]`.
///
/// The left operand may have any rank ≥ 1; all leading axes are treated as a
/// flattened batch of rows. This is the kernel behind `Linear` layers applied
/// to `[batch, tokens, features]` activations.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the contraction dims differ.
pub fn matmul_nd(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k2, n) = require_rank2(b, "matmul_nd")?;
    if a.rank() == 0 {
        return Err(TensorError::InvalidShape {
            dims: a.dims().to_vec(),
            reason: "matmul_nd requires lhs rank >= 1".to_string(),
        });
    }
    let k = *a.dims().last().expect("rank >= 1");
    if k != k2 {
        return Err(shape_mismatch(a, b, "matmul_nd"));
    }
    let rows = a.numel() / k;
    let mut out_dims = a.dims().to_vec();
    *out_dims.last_mut().expect("rank >= 1") = n;
    let mut out = Tensor::zeros(&out_dims);
    gemm(Layout::NN, rows, k, n, a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// Whether `ba` independent batch entries worth `flops` multiply-accumulates
/// in total fork whole entries across the pool (each entry then runs the
/// sequential kernels): only when the batch alone can occupy it.
fn fork_entries(ba: usize, flops: usize) -> bool {
    ba >= lmmir_par::num_threads() && par_worth(ba, flops)
}

/// Runs `f(i, &mut slots[i])` for every batch entry: forked across the
/// pool in whole entries under [`fork_entries`], on the caller otherwise.
/// Entries are independent, so the result is the same either way.
fn for_each_entry<T: Send>(slots: &mut [T], flops: usize, f: impl Fn(usize, &mut T) + Sync) {
    if fork_entries(slots.len(), flops) {
        lmmir_par::par_chunks_mut(slots, 1, |i0, span| {
            for (j, slot) in span.iter_mut().enumerate() {
                f(i0 + j, slot);
            }
        });
    } else {
        for (i, slot) in slots.iter_mut().enumerate() {
            f(i, slot);
        }
    }
}

fn require_rank3(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    if t.rank() != 3 {
        return Err(TensorError::InvalidShape {
            dims: t.dims().to_vec(),
            reason: format!("{op} requires a rank-3 tensor"),
        });
    }
    Ok((t.dims()[0], t.dims()[1], t.dims()[2]))
}

/// The batched product of `layout` behind [`bmm`], [`bmm_tn`] and
/// [`bmm_nt`]: one [`gemm`] per entry. Whole entries fork across the pool
/// when the batch alone can occupy it (a forked span runs at width 1, so
/// each entry's product then stays on its worker); otherwise the entries
/// run in turn on the caller and each product splits its own rows.
fn bmm_with(layout: Layout, op: &'static str, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ba, a1, a2) = require_rank3(a, op)?;
    let (bb, b1, b2) = require_rank3(b, op)?;
    let [(m, k), (k2, n)] = layout.op_dims((a1, a2), (b1, b2));
    if ba != bb || k != k2 {
        return Err(shape_mismatch(a, b, op));
    }
    let mut out = Tensor::zeros(&[ba, m, n]);
    if m * n > 0 {
        let (a, b) = (a.data(), b.data());
        let mut planes: Vec<_> = out.data_mut().chunks_mut(m * n).collect();
        for_each_entry(&mut planes, ba * m * k * n, |i, c| {
            let (a, b) = (
                &a[i * m * k..(i + 1) * m * k],
                &b[i * k * n..(i + 1) * k * n],
            );
            gemm(layout, m, k, n, a, b, c);
        });
    }
    Ok(out)
}

/// Batched matmul `[B,m,k] x [B,k,n] -> [B,m,n]`.
///
/// # Errors
///
/// Returns shape errors when batch or contraction dims disagree.
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    bmm_with(Layout::NN, "bmm", a, b)
}

/// Batched `A^T B`: `[B,k,m] x [B,k,n] -> [B,m,n]`.
///
/// # Errors
///
/// Returns shape errors when batch or contraction dims disagree.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    bmm_with(Layout::TN, "bmm_tn", a, b)
}

/// Batched `A B^T`: `[B,m,k] x [B,n,k] -> [B,m,n]`.
///
/// # Errors
///
/// Returns shape errors when batch or contraction dims disagree.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    bmm_with(Layout::NT, "bmm_nt", a, b)
}

/// Per-entry geometry of the fused attention kernels: `e` entries of
/// `q [nq, dh]`, `k [nk, dh]` and `v [nk, dv]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttentionShape {
    e: usize,
    nq: usize,
    nk: usize,
    dh: usize,
    dv: usize,
}

impl AttentionShape {
    /// Reads the geometry of `q [E,Nq,dh]`, `k [E,Nk,dh]`, `v [E,Nk,dv]`.
    pub(crate) fn of(q: &Tensor, k: &Tensor, v: &Tensor) -> Result<Self> {
        let (e, nq, dh) = require_rank3(q, "attention")?;
        let (ek, nk, dhk) = require_rank3(k, "attention")?;
        let (ev, nkv, dv) = require_rank3(v, "attention")?;
        let mismatch = |lhs: &Tensor, rhs: &Tensor| TensorError::ShapeMismatch {
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
            op: "attention",
        };
        if ek != e || dhk != dh {
            return Err(mismatch(q, k));
        }
        if ev != e || nkv != nk {
            return Err(mismatch(k, v));
        }
        if nq == 0 || nk == 0 || dh == 0 || dv == 0 {
            return Err(TensorError::InvalidShape {
                dims: vec![e, nq, nk, dh, dv],
                reason: "attention needs non-empty [E, Nq, Nk, dh, dv]".to_string(),
            });
        }
        Ok(AttentionShape { e, nq, nk, dh, dv })
    }

    /// Dims of the output `[E, Nq, dv]`.
    pub(crate) fn out_dims(&self) -> [usize; 3] {
        [self.e, self.nq, self.dv]
    }

    /// Dims of the attention matrix `[E, Nq, Nk]`.
    pub(crate) fn attn_dims(&self) -> [usize; 3] {
        [self.e, self.nq, self.nk]
    }
}

/// Forward of `softmax(Q Kᵀ · scale) V` per entry: `S = Q Kᵀ`, then each
/// row of `S` scaled and soft-maxed in place, then `O = A V`. Returns the
/// attention matrix `A [E, Nq, Nk]` and the output `O [E, Nq, dv]`.
///
/// Each product runs [`gemm_rows`] on the caller into a zeroed buffer,
/// bitwise what a batched product computes per entry, and the row pass is
/// [`Tensor::softmax_last`]'s after [`Tensor::scale`]'s multiply, so every
/// element has the bits of `bmm(q, kᵀ).scale(s).softmax_last()` and of its
/// `bmm` with `v`.
pub(crate) fn attention_forward(
    s: AttentionShape,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
) -> (Vec<f32>, Vec<f32>) {
    let AttentionShape { e, nq, nk, dh, dv } = s;
    let mut attn = vec![0.0f32; e * nq * nk];
    let mut out = vec![0.0f32; e * nq * dv];
    let mut slots: Vec<_> = attn
        .chunks_mut(nq * nk)
        .zip(out.chunks_mut(nq * dv))
        .collect();
    for_each_entry(&mut slots, e * nq * nk * (dh + dv), |i, (a, o)| {
        let q = &q[i * nq * dh..(i + 1) * nq * dh];
        let k = &k[i * nk * dh..(i + 1) * nk * dh];
        let v = &v[i * nk * dv..(i + 1) * nk * dv];
        gemm_rows(Layout::NT, 0, nq, dh, nk, q, k, a);
        for row in a.chunks_mut(nk) {
            row.iter_mut().for_each(|x| *x *= scale);
            softmax_row(row);
        }
        gemm_rows(Layout::NN, 0, nq, nk, dv, a, v, o);
    });
    drop(slots);
    (attn, out)
}

/// Backward of [`attention_forward`] from its saved attention matrix `attn`
/// and the output gradient `d_out [E, Nq, dv]`; returns `(dQ, dK, dV)`.
///
/// Per entry: `dA = dO Vᵀ`, `dV = Aᵀ dO`, then row by row
/// `dS = ((dA − Σⱼ dA⊙A) ⊙ A) · scale` in place over `dA`, then
/// `dQ = dS K` and `dK = dSᵀ Q`. These are the terms, operand orders and
/// summation orders of the composed chain's backward (`bmm` → `scale` →
/// `softmax_last` → `bmm`); the two products it ran against the
/// materialized `Kᵀ` run here against `K` with the same `k`-ascending
/// accumulation, so every gradient has the chain's bits.
pub(crate) fn attention_backward(
    s: AttentionShape,
    (q, k, v): (&[f32], &[f32], &[f32]),
    attn: &[f32],
    d_out: &[f32],
    scale: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let AttentionShape { e, nq, nk, dh, dv } = s;
    let mut dq = vec![0.0f32; e * nq * dh];
    let mut dk = vec![0.0f32; e * nk * dh];
    let mut dvs = vec![0.0f32; e * nk * dv];
    let mut slots: Vec<_> = dq
        .chunks_mut(nq * dh)
        .zip(dk.chunks_mut(nk * dh))
        .zip(dvs.chunks_mut(nk * dv))
        .map(|((dq, dk), dv)| (dq, dk, dv))
        .collect();
    for_each_entry(
        &mut slots,
        2 * e * nq * nk * (dh + dv),
        |i, (dq, dk, d_v)| {
            let q = &q[i * nq * dh..(i + 1) * nq * dh];
            let k = &k[i * nk * dh..(i + 1) * nk * dh];
            let v = &v[i * nk * dv..(i + 1) * nk * dv];
            let a = &attn[i * nq * nk..(i + 1) * nq * nk];
            let g = &d_out[i * nq * dv..(i + 1) * nq * dv];
            let mut ds = vec![0.0f32; nq * nk];
            gemm_rows(Layout::NT, 0, nq, dv, nk, g, v, &mut ds);
            gemm_rows(Layout::TN, 0, nk, nq, dv, a, g, d_v);
            for (d_row, a_row) in ds.chunks_mut(nk).zip(a.chunks(nk)) {
                let mut dot = 0.0f32;
                for (&d, &p) in d_row.iter().zip(a_row) {
                    dot += d * p;
                }
                for (d, &p) in d_row.iter_mut().zip(a_row) {
                    *d = (*d - dot) * p * scale;
                }
            }
            gemm_rows(Layout::NN, 0, nq, nk, dh, &ds, k, dq);
            gemm_rows(Layout::TN, 0, nk, nq, dh, &ds, q, dk);
        },
    );
    drop(slots);
    (dq, dk, dvs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_2x2() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        let c = matmul(&a, &i).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(matmul(&v, &b).is_err());
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0], &[3, 2]);
        let via_tn = matmul_tn(&a, &b).unwrap();
        let via_t = matmul(&a.transpose2().unwrap(), &b).unwrap();
        assert_eq!(via_tn.data(), via_t.data());
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let via_nt = matmul_nt(&a, &b).unwrap();
        let via_t = matmul(&a, &b.transpose2().unwrap()).unwrap();
        assert_eq!(via_nt.data(), via_t.data());
    }

    #[test]
    fn matmul_nd_flattens_batch() {
        let a = Tensor::arange(12).reshape(&[2, 2, 3]).unwrap();
        let w = Tensor::eye(3);
        let c = matmul_nd(&a, &w).unwrap();
        assert_eq!(c.dims(), &[2, 2, 3]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn bmm_batches_independent() {
        let a = Tensor::concat(
            &[
                &t(&[1.0, 0.0, 0.0, 1.0], &[1, 2, 2]),
                &t(&[2.0, 0.0, 0.0, 2.0], &[1, 2, 2]),
            ],
            0,
        )
        .unwrap();
        let b = Tensor::concat(
            &[
                &t(&[1.0, 2.0, 3.0, 4.0], &[1, 2, 2]),
                &t(&[1.0, 2.0, 3.0, 4.0], &[1, 2, 2]),
            ],
            0,
        )
        .unwrap();
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert_eq!(&c.data()[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&c.data()[4..], &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn bmm_tn_nt_match_permutes() {
        let a = Tensor::arange(12).reshape(&[2, 3, 2]).unwrap();
        let b = Tensor::arange(12).reshape(&[2, 3, 2]).unwrap();
        let tn = bmm_tn(&a, &b).unwrap();
        let at = a.permute(&[0, 2, 1]).unwrap();
        let explicit = bmm(&at, &b).unwrap();
        assert_eq!(tn.data(), explicit.data());

        let c = Tensor::arange(12).reshape(&[2, 2, 3]).unwrap();
        let d = Tensor::arange(12).reshape(&[2, 2, 3]).unwrap();
        let nt = bmm_nt(&c, &d).unwrap();
        let dt = d.permute(&[0, 2, 1]).unwrap();
        let explicit2 = bmm(&c, &dt).unwrap();
        assert_eq!(nt.data(), explicit2.data());
    }

    #[test]
    fn bmm_shape_errors() {
        let a = Tensor::zeros(&[2, 2, 3]);
        let b = Tensor::zeros(&[3, 3, 2]);
        assert!(bmm(&a, &b).is_err()); // batch mismatch
        let c = Tensor::zeros(&[2, 2, 2]);
        assert!(bmm(&a, &c).is_err()); // inner mismatch
    }
}
