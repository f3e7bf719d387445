//! Parallel drivers: ordered map and chunked mutation.

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

/// Partitions `data` into per-thread contiguous runs of `unit`-element
/// chunks and runs `f(first_unit_index, run)` on each, in parallel.
///
/// The element offset of a run is `first_unit_index * unit`; the last unit
/// of the slice may be short. Work inside a run happens exactly as it would
/// sequentially (same unit order, same code), so any kernel whose units are
/// independent is bitwise deterministic at every thread count; with one
/// thread (or one unit) `f` runs inline on the caller. This is the
/// workhorse behind row-partitioned matmul and raster scanline fills.
///
/// # Panics
///
/// Panics when `unit == 0` or when a worker panics (the panic is
/// propagated).
pub fn par_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], unit: usize, f: F) {
    assert!(unit > 0, "unit size must be positive");
    let units = data.len().div_ceil(unit);
    let threads = num_threads().min(units);
    if threads <= 1 {
        f(0, data);
        return;
    }
    scope(|s| {
        let f = &f;
        let mut spans = spans(units, threads);
        let first = spans.next().expect("threads >= 2");
        let (mine, mut rest) = data.split_at_mut(first.len() * unit);
        for span in spans {
            let (head, tail) = rest.split_at_mut((span.len() * unit).min(rest.len()));
            rest = tail;
            s.spawn(move || run_pinned(|| f(span.start, head)));
        }
        // The caller is the first worker: one spawn fewer per fork.
        run_pinned(|| f(0, mine));
    });
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

/// Runs two independent closures side by side and returns both results:
/// `a` on a spawned worker, `b` on the calling thread. Both spans are
/// pinned to the sequential path, like every span of this crate. With one
/// thread the call runs `a`, then `b`, inline on the caller — the order a
/// sequential caller would have written.
///
/// Neither span sees the other's thread-local state: a caller that keeps
/// some (a tape switch, a buffer pool) must carry it into `a` itself.
///
/// # Panics
///
/// Propagates a panic of either span; the caller's override is restored
/// first.
pub fn join<RA: Send, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB) -> (RA, RB) {
    if num_threads() <= 1 {
        let ra = a();
        return (ra, b());
    }
    scope(|s| {
        let handle = s.spawn(|| run_pinned(a));
        let rb = run_pinned(b);
        match handle.join() {
            Ok(ra) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// [`par_map`] over the items of a slice, preserving order.
pub fn par_map_slice<I: Sync, R: Send, F: Fn(&I) -> R + Sync>(items: &[I], f: F) -> Vec<R> {
    par_map(items.len(), |i| f(&items[i]))
}
