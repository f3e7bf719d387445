//! Matrix multiplication kernels (naive, cache-tiled packed, and batched).
//!
//! Two kernel families live here:
//!
//! * the **reference** kernels (`i-k-j` loop order, contiguous inner loop),
//!   used for small products and as the oracle the tiled kernels are tested
//!   against;
//! * the **tiled packed** kernels: a blocked `MC`/`KC`/`NC` loop nest that
//!   copies panels of `A` and `B` into contiguous buffers and drives an
//!   auto-vectorizable `MR`×`NR` register-tile microkernel.
//!
//! ## Bitwise equivalence and determinism
//!
//! Every output element is produced by a **single accumulator updated in
//! strictly `k`-ascending order** in both families. The tiled NN/TN kernels
//! reload the exact partial sum from `C` between `KC` blocks (an f32
//! store/load is exact), so their rounding chain is identical to the naive
//! kernels'; the tiled NT kernel keeps the naive kernel's
//! fold-then-single-add contract by running the full depth per tile. The
//! two families are therefore **bitwise interchangeable**, which makes the
//! size-based dispatch below a pure performance decision.
//!
//! Large products are partitioned across threads by contiguous row blocks
//! of the output (see `lmmir-par`). Each output row is produced with the
//! same `k`-ascending accumulation order regardless of the partition, so
//! results are bitwise identical for every `LMMIR_THREADS` setting,
//! including the forced-sequential `1`.
//!
//! None of the kernels shortcut on zero operands: `0.0 * inf` must produce
//! NaN per IEEE 754, and kernel timing must not depend on the data.

use crate::error::TensorError;
use crate::tensor::Tensor;
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
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 22;

/// Whether a kernel of `flops` multiply-accumulates across `rows`
/// partitionable rows should take the parallel path.
pub(crate) fn par_worth(rows: usize, flops: usize) -> bool {
    lmmir_par::worth_parallelizing(rows, flops, PAR_MIN_FLOPS)
}

/// Raw `C += A * B` kernel on slices: `a` is `[m,k]`, `b` is `[k,n]`,
/// `c` is `[m,n]`, all row-major.
pub(crate) fn gemm_slices(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
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

/// The `C += A^T * B` reference kernel (`a` is `[k,m]`, `b` is `[k,n]`,
/// `c` is `[m,n]`) restricted to output rows `i0..i0 + c_rows.len() / n`
/// (the rows of `C` correspond to *columns* of `a`, so row blocks cannot be
/// expressed as sub-slices of the operands). Accumulation stays
/// `p`-ascending per output element, exactly as in the full kernel.
pub(crate) fn gemm_tn_rows(
    i0: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
) {
    let rows = c_rows.len().checked_div(n).unwrap_or(0);
    debug_assert!(i0 + rows <= m);
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for i in 0..rows {
            let aip = a_row[i0 + i];
            let c_row = &mut c_rows[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aip * bv;
            }
        }
    }
}

/// `C += A * B^T` kernel: `a` is `[m,k]`, `b` is `[n,k]`, `c` is `[m,n]`.
pub(crate) fn gemm_nt_slices(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *cv += acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Cache-tiled packed kernels.
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

/// Minimum multiply-accumulate count before the packed path pays for its
/// panel copies; below it the reference kernels win.
const TILE_MIN_FLOPS: usize = 1 << 15;

/// Depth cap for the tiled NT path: NT tiles must span the full contraction
/// (see [`gemm_nt_tiled`]), so its B pack grows with `k` and stops being a
/// cache win for deep products.
const NT_TILE_MAX_K: usize = 2048;

/// Whether the packed NN/TN path is worth taking. Purely a performance
/// choice: the tiled and reference kernels are bitwise interchangeable.
fn tile_worth(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= TILE_MIN_FLOPS && k >= 8 && n >= 8
}

/// The `MR`×`NR` register-tile microkernel: `acc[i][j] +=
/// a_panel[p][i] * b_panel[p][j]` for `p` ascending. Each accumulator is
/// updated once per `p`, so the per-element rounding chain is exactly the
/// reference kernels' `k`-ascending order; the compiler may vectorize the
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

/// Packs `b[pc..pc+kcb][jc..jc+ncb]` (row-major `[k,n]`) into `NR`-wide,
/// `p`-major panels, zero-padding the last panel's missing lanes.
fn pack_b_nn(
    b: &[f32],
    n: usize,
    pc: usize,
    kcb: usize,
    jc: usize,
    ncb: usize,
    buf: &mut Vec<f32>,
) {
    let panels = ncb.div_ceil(NR);
    buf.clear();
    buf.resize(panels * kcb * NR, 0.0);
    for jp in 0..panels {
        let j0 = jc + jp * NR;
        let jw = NR.min(jc + ncb - j0);
        let dst = &mut buf[jp * kcb * NR..(jp + 1) * kcb * NR];
        for p in 0..kcb {
            let src = &b[(pc + p) * n + j0..(pc + p) * n + j0 + jw];
            dst[p * NR..p * NR + jw].copy_from_slice(src);
        }
    }
}

/// Packs `b[jc..jc+ncb][0..k]` of a row-major `[n,k]` operand (the NT
/// right-hand side) into `NR`-wide, `p`-major panels over the full depth.
fn pack_b_nt(b: &[f32], k: usize, jc: usize, ncb: usize, buf: &mut Vec<f32>) {
    let panels = ncb.div_ceil(NR);
    buf.clear();
    buf.resize(panels * k * NR, 0.0);
    for jp in 0..panels {
        let j0 = jc + jp * NR;
        let jw = NR.min(jc + ncb - j0);
        let dst = &mut buf[jp * k * NR..(jp + 1) * k * NR];
        for j in 0..jw {
            let src = &b[(j0 + j) * k..(j0 + j + 1) * k];
            for (p, &v) in src.iter().enumerate() {
                dst[p * NR + j] = v;
            }
        }
    }
}

/// Packs `a[ic..ic+mcb][pc..pc+kcb]` (row-major, row stride `k`) into
/// `MR`-tall, `p`-major panels, zero-padding the last panel's missing rows.
fn pack_a_nn(
    a: &[f32],
    k: usize,
    ic: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    buf: &mut Vec<f32>,
) {
    let panels = mcb.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kcb * MR, 0.0);
    for ip in 0..panels {
        let i0 = ic + ip * MR;
        let iw = MR.min(ic + mcb - i0);
        let dst = &mut buf[ip * kcb * MR..(ip + 1) * kcb * MR];
        for i in 0..iw {
            let src = &a[(i0 + i) * k + pc..(i0 + i) * k + pc + kcb];
            for (p, &v) in src.iter().enumerate() {
                dst[p * MR + i] = v;
            }
        }
    }
}

/// Packs columns `i0+ic .. i0+ic+mcb` of a `[k,m]` operand (the TN
/// left-hand side) into `MR`-tall, `p`-major panels.
fn pack_a_tn(
    a: &[f32],
    m: usize,
    col0: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    buf: &mut Vec<f32>,
) {
    let panels = mcb.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kcb * MR, 0.0);
    for ip in 0..panels {
        let i0 = col0 + ip * MR;
        let iw = MR.min(col0 + mcb - i0);
        let dst = &mut buf[ip * kcb * MR..(ip + 1) * kcb * MR];
        for p in 0..kcb {
            let src = &a[(pc + p) * m + i0..(pc + p) * m + i0 + iw];
            dst[p * MR..p * MR + iw].copy_from_slice(src);
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
        row[..jw].copy_from_slice(src);
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
        dst.copy_from_slice(&row[..jw]);
    }
}

/// Tiled packed `C += A * B` (`a` is `[m,k]`, row-major). Bitwise identical
/// to [`gemm_slices`] for every input, including NaN/Inf.
pub(crate) fn gemm_nn_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_packed_kc(
        m,
        k,
        n,
        c,
        |pc, kcb, jc, ncb, buf| {
            pack_b_nn(b, n, pc, kcb, jc, ncb, buf);
        },
        |ic, mcb, pc, kcb, buf| {
            pack_a_nn(a, k, ic, mcb, pc, kcb, buf);
        },
    );
}

/// Tiled packed `C += A^T * B` over output rows `i0..i0 + c_rows.len() / n`
/// (`a` is `[k,m]`). Bitwise identical to [`gemm_tn_rows`].
pub(crate) fn gemm_tn_tiled(
    i0: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
) {
    let rows = c_rows.len().checked_div(n).unwrap_or(0);
    debug_assert!(i0 + rows <= m);
    gemm_packed_kc(
        rows,
        k,
        n,
        c_rows,
        |pc, kcb, jc, ncb, buf| {
            pack_b_nn(b, n, pc, kcb, jc, ncb, buf);
        },
        |ic, mcb, pc, kcb, buf| {
            pack_a_tn(a, m, i0 + ic, mcb, pc, kcb, buf);
        },
    );
}

/// Shared `jc`/`pc`/`ic` loop nest for the direct-accumulate (NN/TN) tiled
/// kernels: per tile, the partial sums are reloaded from `C`, advanced
/// through one `KC` slab in `p`-ascending order, and stored back exactly.
fn gemm_packed_kc(
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    mut pack_b: impl FnMut(usize, usize, usize, usize, &mut Vec<f32>),
    mut pack_a: impl FnMut(usize, usize, usize, usize, &mut Vec<f32>),
) {
    let mut bbuf = Vec::new();
    let mut abuf = Vec::new();
    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            pack_b(pc, kcb, jc, ncb, &mut bbuf);
            let mut ic = 0;
            while ic < m {
                let mcb = MC.min(m - ic);
                pack_a(ic, mcb, pc, kcb, &mut abuf);
                for jp in 0..ncb.div_ceil(NR) {
                    let j0 = jc + jp * NR;
                    let jw = NR.min(jc + ncb - j0);
                    let b_panel = &bbuf[jp * kcb * NR..(jp + 1) * kcb * NR];
                    for ip in 0..mcb.div_ceil(MR) {
                        let i0 = ic + ip * MR;
                        let iw = MR.min(ic + mcb - i0);
                        let a_panel = &abuf[ip * kcb * MR..(ip + 1) * kcb * MR];
                        let mut acc = load_tile(c, n, i0, j0, iw, jw);
                        microkernel(kcb, a_panel, b_panel, &mut acc);
                        store_tile(c, n, i0, j0, iw, jw, &acc);
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Tiled packed `C += A * B^T` (`a` is `[m,k]`, `b` is `[n,k]`).
///
/// [`gemm_nt_slices`] folds each dot product into a private accumulator and
/// adds it to `C` **once**, so an NT tile must span the full contraction
/// depth to reproduce that rounding chain — there is no `KC` loop here, and
/// the dispatcher caps the depth ([`NT_TILE_MAX_K`]) instead. Bitwise
/// identical to the reference kernel for every input.
pub(crate) fn gemm_nt_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut bbuf = Vec::new();
    let mut abuf = Vec::new();
    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        pack_b_nt(b, k, jc, ncb, &mut bbuf);
        let mut ic = 0;
        while ic < m {
            let mcb = MC.min(m - ic);
            pack_a_nn(a, k, ic, mcb, 0, k, &mut abuf);
            for jp in 0..ncb.div_ceil(NR) {
                let j0 = jc + jp * NR;
                let jw = NR.min(jc + ncb - j0);
                let b_panel = &bbuf[jp * k * NR..(jp + 1) * k * NR];
                for ip in 0..mcb.div_ceil(MR) {
                    let i0 = ic + ip * MR;
                    let iw = MR.min(ic + mcb - i0);
                    let a_panel = &abuf[ip * k * MR..(ip + 1) * k * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    microkernel(k, a_panel, b_panel, &mut acc);
                    for (i, row) in acc.iter().enumerate().take(iw) {
                        let dst = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + jw];
                        for (cv, &v) in dst.iter_mut().zip(row) {
                            *cv += v;
                        }
                    }
                }
            }
            ic += mcb;
        }
        jc += ncb;
    }
}

// ---------------------------------------------------------------------------
// Dispatch: size-based choice between the families (bitwise identical, so
// the choice — and therefore the per-thread block shape it sees — can never
// change results), layered under the row-block thread partitioning.
// ---------------------------------------------------------------------------

/// Sequential `C += A * B`, picking the packed path when it pays.
pub(crate) fn gemm_seq(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if tile_worth(m, k, n) {
        gemm_nn_tiled(m, k, n, a, b, c);
    } else {
        gemm_slices(m, k, n, a, b, c);
    }
}

/// Sequential `C += A^T * B` over a row window, picking the packed path
/// when it pays.
pub(crate) fn gemm_tn_seq(
    i0: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
) {
    let rows = c_rows.len().checked_div(n).unwrap_or(0);
    if tile_worth(rows, k, n) {
        gemm_tn_tiled(i0, m, k, n, a, b, c_rows);
    } else {
        gemm_tn_rows(i0, m, k, n, a, b, c_rows);
    }
}

/// Sequential `C += A * B^T`, picking the packed path when it pays; deep
/// contractions stay on the reference kernel (see [`gemm_nt_tiled`]).
pub(crate) fn gemm_nt_seq(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if tile_worth(m, k, n) && k <= NT_TILE_MAX_K {
        gemm_nt_tiled(m, k, n, a, b, c);
    } else {
        gemm_nt_slices(m, k, n, a, b, c);
    }
}

/// Reference `C += A * B` (`[m,k] x [k,n]`), public for benchmarks and
/// property tests: the naive `i-k-j` oracle the tiled kernel must match
/// bitwise.
pub fn gemm_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_slices(m, k, n, a, b, c);
}

/// Tiled packed `C += A * B` (`[m,k] x [k,n]`), public for benchmarks and
/// property tests. Bitwise identical to [`gemm_reference`].
pub fn gemm_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nn_tiled(m, k, n, a, b, c);
}

/// `C += A * B` with output rows partitioned across threads; falls back to
/// the sequential kernel when the product is too small to amortize forking.
pub(crate) fn gemm_par(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if !par_worth(m, m * k * n) {
        gemm_seq(m, k, n, a, b, c);
        return;
    }
    lmmir_par::par_chunks_mut(c, n, |i0, c_block| {
        let rows = c_block.len() / n;
        gemm_seq(rows, k, n, &a[i0 * k..(i0 + rows) * k], b, c_block);
    });
}

/// `C += A^T * B` with output rows partitioned across threads.
pub(crate) fn gemm_tn_par(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if !par_worth(m, m * k * n) {
        gemm_tn_seq(0, m, k, n, a, b, c);
        return;
    }
    lmmir_par::par_chunks_mut(c, n, |i0, c_block| {
        gemm_tn_seq(i0, m, k, n, a, b, c_block);
    });
}

/// `C += A * B^T` with output rows partitioned across threads.
pub(crate) fn gemm_nt_par(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if !par_worth(m, m * k * n) {
        gemm_nt_seq(m, k, n, a, b, c);
        return;
    }
    lmmir_par::par_chunks_mut(c, n, |i0, c_block| {
        let rows = c_block.len() / n;
        gemm_nt_seq(rows, k, n, &a[i0 * k..(i0 + rows) * k], b, c_block);
    });
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

/// `[m,k] x [k,n] -> [m,n]` matrix product.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] for non-matrices and
/// [`TensorError::ShapeMismatch`] when inner dims differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = require_rank2(a, "matmul")?;
    let (k2, n) = require_rank2(b, "matmul")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm_par(m, k, n, a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// `A^T * B`: `[k,m] x [k,n] -> [m,n]`.
///
/// # Errors
///
/// Returns shape errors as for [`matmul`].
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = require_rank2(a, "matmul_tn")?;
    let (k2, n) = require_rank2(b, "matmul_tn")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_tn",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm_tn_par(m, k, n, a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// `A * B^T`: `[m,k] x [n,k] -> [m,n]`.
///
/// # Errors
///
/// Returns shape errors as for [`matmul`].
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = require_rank2(a, "matmul_nt")?;
    let (n, k2) = require_rank2(b, "matmul_nt")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_nt",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm_nt_par(m, k, n, a.data(), b.data(), out.data_mut());
    Ok(out)
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
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_nd",
        });
    }
    let rows = a.numel() / k;
    let mut out_dims = a.dims().to_vec();
    *out_dims.last_mut().expect("rank >= 1") = n;
    let mut out = Tensor::zeros(&out_dims);
    gemm_par(rows, k, n, a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// A rank-2 `C += op(A) op(B)` slice kernel: `(m, k, n, a, b, c)`.
type GemmFn = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// [`gemm_tn_seq`] over the whole output (no row window), matching
/// [`GemmFn`] for the batched driver.
fn gemm_tn_seq_full(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_seq(0, m, k, n, a, b, c);
}

/// Operand geometry of one batched product: `[ba]` entries with the given
/// per-entry strides for `a` and `b` (the output stride is always `m * n`).
struct BmmShape {
    ba: usize,
    m: usize,
    k: usize,
    n: usize,
    a_stride: usize,
    b_stride: usize,
}

/// Shared driver for the batched products: distributes whole batch entries
/// across threads when the batch alone can occupy the pool (each entry then
/// runs the sequential kernel, keeping one level of forking), and otherwise
/// loops batches on the caller, letting the row-parallel kernel split each
/// one across every worker.
fn bmm_driver(s: &BmmShape, a: &[f32], b: &[f32], c: &mut [f32], seq: GemmFn, par: GemmFn) {
    let BmmShape {
        ba,
        m,
        k,
        n,
        a_stride,
        b_stride,
    } = *s;
    let plane = m * n;
    let entry = |kernel: GemmFn, i: usize, cb: &mut [f32]| {
        let (a, b) = (
            &a[i * a_stride..(i + 1) * a_stride],
            &b[i * b_stride..(i + 1) * b_stride],
        );
        kernel(m, k, n, a, b, cb);
    };
    if plane > 0 && ba >= lmmir_par::num_threads() && par_worth(ba, ba * m * k * n) {
        lmmir_par::par_chunks_mut(c, plane, |b0, span| {
            for (j, cb) in span.chunks_mut(plane).enumerate() {
                entry(seq, b0 + j, cb);
            }
        });
    } else {
        // One gate for the whole batch, not one per entry: attention runs
        // hundreds of small same-shape products through here.
        let kernel = if par_worth(m, m * k * n) { par } else { seq };
        for i in 0..ba {
            entry(kernel, i, &mut c[i * plane..(i + 1) * plane]);
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

/// Batched matmul `[B,m,k] x [B,k,n] -> [B,m,n]`.
///
/// # Errors
///
/// Returns shape errors when batch or contraction dims disagree.
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ba, m, k) = require_rank3(a, "bmm")?;
    let (bb, k2, n) = require_rank3(b, "bmm")?;
    if ba != bb || k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "bmm",
        });
    }
    let mut out = Tensor::zeros(&[ba, m, n]);
    bmm_driver(
        &BmmShape {
            ba,
            m,
            k,
            n,
            a_stride: m * k,
            b_stride: k * n,
        },
        a.data(),
        b.data(),
        out.data_mut(),
        gemm_seq,
        gemm_par,
    );
    Ok(out)
}

/// Batched `A^T B`: `[B,k,m] x [B,k,n] -> [B,m,n]`.
///
/// # Errors
///
/// Returns shape errors when batch or contraction dims disagree.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ba, k, m) = require_rank3(a, "bmm_tn")?;
    let (bb, k2, n) = require_rank3(b, "bmm_tn")?;
    if ba != bb || k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "bmm_tn",
        });
    }
    let mut out = Tensor::zeros(&[ba, m, n]);
    bmm_driver(
        &BmmShape {
            ba,
            m,
            k,
            n,
            a_stride: k * m,
            b_stride: k * n,
        },
        a.data(),
        b.data(),
        out.data_mut(),
        gemm_tn_seq_full,
        gemm_tn_par,
    );
    Ok(out)
}

/// Batched `A B^T`: `[B,m,k] x [B,n,k] -> [B,m,n]`.
///
/// # Errors
///
/// Returns shape errors when batch or contraction dims disagree.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ba, m, k) = require_rank3(a, "bmm_nt")?;
    let (bb, n, k2) = require_rank3(b, "bmm_nt")?;
    if ba != bb || k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "bmm_nt",
        });
    }
    let mut out = Tensor::zeros(&[ba, m, n]);
    bmm_driver(
        &BmmShape {
            ba,
            m,
            k,
            n,
            a_stride: m * k,
            b_stride: n * k,
        },
        a.data(),
        b.data(),
        out.data_mut(),
        gemm_nt_seq,
        gemm_nt_par,
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
