//! Parallel drivers: ordered map, chunked mutation, fused multi-buffer
//! partitioning and deterministic blocked reduction.

use crate::parts::{units_mut, Parts};
use crate::pool::{num_threads, scope, with_threads};
use std::ops::Range;

/// Shared gate for "is forking worth it": at least two partitionable
/// units, at least `min_work` work items (flops, elements, …), and a pool
/// larger than one thread. Keeping the policy here (rather than per
/// kernel) means tuning it tunes every compute layer at once.
#[must_use]
pub fn worth_parallelizing(units: usize, work: usize, min_work: usize) -> bool {
    units >= 2 && work >= min_work && num_threads() > 1
}

/// Runs one span pinned to the sequential path: parallelism is one level
/// deep, so a kernel invoked from inside a span (e.g. a rasterizer called
/// from the per-channel fan-out) runs inline instead of multiplying threads
/// past the caller's bound. The caller runs the first span itself, so its
/// previous override is restored afterwards (also when the span panics).
fn run_pinned<R>(f: impl FnOnce() -> R) -> R {
    with_threads(1, f)
}

/// Near-even split of `units` across `threads`: the first `units % threads`
/// workers take one extra unit, so spans are contiguous and cover every
/// unit exactly once.
fn spans(units: usize, threads: usize) -> impl Iterator<Item = Range<usize>> {
    let base = units / threads;
    let extra = units % threads;
    let mut start = 0;
    (0..threads).map(move |t| {
        let take = base + usize::from(t < extra);
        let span = start..start + take;
        start += take;
        span
    })
}

/// Partitions `parts` into per-thread contiguous unit spans and runs
/// `f(first_unit, span)` on each, in parallel.
///
/// Work inside a span runs exactly as it would sequentially (same unit
/// order, same code), so any kernel whose units are independent is bitwise
/// deterministic at every thread count; with one thread (or one unit) `f`
/// runs inline on the caller.
///
/// # Panics
///
/// Panics when the members of a tuple bundle disagree on their unit count,
/// or when a worker panics (the panic is propagated).
pub fn par_parts<P: Parts, F: Fn(usize, P) + Sync>(parts: P, f: F) {
    let (lo, hi) = parts.unit_bounds();
    assert_eq!(lo, hi, "par_parts: unit counts disagree across the bundle");
    let units = parts.units();
    let threads = num_threads().min(units);
    if threads <= 1 {
        f(0, parts);
        return;
    }
    scope(|s| {
        let f = &f;
        let mut spans = spans(units, threads);
        let first = spans.next().expect("threads >= 2");
        let (mine, mut rest) = parts.split(first.len());
        for span in spans {
            let (head, tail) = rest.split(span.len());
            rest = tail;
            s.spawn(move || run_pinned(|| f(span.start, head)));
        }
        // The caller is the first worker: one spawn fewer per fork.
        run_pinned(|| f(0, mine));
    });
}

/// Partitions `data` into per-thread contiguous runs of `unit`-element
/// chunks and runs `f(first_unit_index, run)` on each.
///
/// The element offset of a run is `first_unit_index * unit`; the last unit
/// of the slice may be short. This is the workhorse behind row-partitioned
/// matmul, CSR SpMV and raster scanline fills.
///
/// # Panics
///
/// Panics when `unit == 0` or when a worker panics.
pub fn par_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], unit: usize, f: F) {
    par_parts(units_mut(data, unit), |u0, part| f(u0, part.into_slice()));
}

/// Maps `0..n` through `f` in parallel, returning results in index order.
///
/// Each worker handles a contiguous index span and collects locally; spans
/// are concatenated in span order, so the output is identical to
/// `(0..n).map(f).collect()` for any thread count.
///
/// # Panics
///
/// Panics when a worker panics (the panic is propagated).
pub fn par_map<R: Send, F: Fn(usize) -> R + Sync>(n: usize, f: F) -> Vec<R> {
    let threads = num_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    scope(|s| {
        let f = &f;
        let mut spans = spans(n, threads);
        let first = spans.next().expect("threads >= 2");
        let handles: Vec<_> = spans
            .map(|span| s.spawn(move || run_pinned(|| span.map(f).collect::<Vec<R>>())))
            .collect();
        let mut out = Vec::with_capacity(n);
        run_pinned(|| out.extend(first.map(f)));
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// [`par_map`] over the items of a slice, preserving order.
pub fn par_map_slice<I: Sync, R: Send, F: Fn(&I) -> R + Sync>(items: &[I], f: F) -> Vec<R> {
    par_map(items.len(), |i| f(&items[i]))
}

/// Deterministic blocked sum: `len` elements are cut into fixed blocks of
/// `block` elements (layout depends only on `len` and `block`, never on
/// the thread count), `partial` produces one `f64` per block, and the
/// partials are folded left-to-right in block order.
///
/// Because both the block boundaries and the fold order are fixed, the
/// result is bitwise identical at every thread count — this is the
/// reduction primitive behind the solver's dot products and norms.
///
/// # Panics
///
/// Panics when `block == 0` or when a worker panics.
pub fn par_sum_blocks<F: Fn(Range<usize>) -> f64 + Sync>(
    len: usize,
    block: usize,
    partial: F,
) -> f64 {
    assert!(block > 0, "block size must be positive");
    let blocks = len.div_ceil(block);
    par_map(blocks, |b| partial(b * block..((b + 1) * block).min(len)))
        .into_iter()
        .sum()
}
