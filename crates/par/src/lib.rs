//! # lmmir-par
//!
//! A dependency-free scoped fork-join layer for the compute-heavy crates of
//! the workspace (tensor kernels, feature rasterization, batched
//! evaluation). The build environment has no registry access, so
//! this crate plays the role rayon would otherwise play, following the
//! vendored-stand-in pattern of `vendor/*`.
//!
//! ## Design
//!
//! * **Safe scoped threads.** Everything is built on [`std::thread::scope`]
//!   (the workspace denies `unsafe`); each parallel call forks worker
//!   threads for its duration and joins them before returning. There is no
//!   persistent pool, and a two-thread fork + join costs 30–100 µs, so
//!   callers fork only where that is a small fraction of the work it buys
//!   ([`worth_parallelizing`] with thresholds worth ~1 ms of arithmetic)
//!   or at a coarse granularity (whole channels, whole requests, whole
//!   cases). The **calling thread runs the first span itself** — a fork
//!   spawns `threads − 1` workers, not `threads`.
//!   Parallelism is **one level deep**: every span, the caller's included,
//!   runs with its thread count pinned to `1` (the caller's own setting is
//!   restored afterwards, also on panic), so a kernel invoked from inside
//!   a span runs inline instead of multiplying threads past the bound.
//! * **Determinism first.** Every primitive partitions work into
//!   *contiguous, caller-visible* pieces and writes disjoint outputs, so a
//!   kernel that is bitwise deterministic sequentially stays bitwise
//!   deterministic at any thread count.
//! * **Thread count.** [`num_threads`] resolves, in order: the programmatic
//!   override ([`set_thread_override`] / [`with_threads`]), the
//!   `LMMIR_THREADS` environment variable, and finally
//!   [`std::thread::available_parallelism`]. A count of `1` runs every
//!   primitive inline on the calling thread — the sequential path — and is
//!   guaranteed bit-for-bit identical to any parallel run.
//!
//! ## Primitives
//!
//! * [`scope`] — re-exported scoped-spawn entry point for bespoke drivers.
//! * [`par_chunks_mut`] — partitions a mutable slice into per-thread
//!   contiguous runs of fixed-size units (rows, planes, blocks).
//! * [`par_map`] / [`par_map_slice`] — ordered map: results come back in
//!   input order regardless of which thread produced them.
//! * [`join`] — a two-way fork of two unrelated closures (say, the two
//!   encoders of a multimodal model): the first on a spawned worker, the
//!   second on the caller, both pinned; at one thread, the first then the
//!   second, inline. Thread-local state stays on its thread, so a caller
//!   that keeps some carries it across itself (`lmmir_tensor::autograd::join` does
//!   this for the tape switch, the eager switch, the buffer pool and the
//!   lazy counters).

mod ops;
mod pool;

pub use ops::{join, par_chunks_mut, par_map, par_map_slice, worth_parallelizing};
pub use pool::{num_threads, scope, set_thread_override, thread_override, with_threads};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global environment.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Restores the pre-test `LMMIR_THREADS` on drop, so env-mutating tests
    /// cannot erase a CI-matrix pin for the rest of the process.
    struct EnvRestore(Option<String>);

    impl EnvRestore {
        fn capture() -> Self {
            EnvRestore(std::env::var("LMMIR_THREADS").ok())
        }
    }

    impl Drop for EnvRestore {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var("LMMIR_THREADS", v),
                None => std::env::remove_var("LMMIR_THREADS"),
            }
        }
    }

    #[test]
    fn override_takes_precedence_over_env() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _env = EnvRestore::capture();
        std::env::set_var("LMMIR_THREADS", "3");
        assert_eq!(num_threads(), 3);
        with_threads(5, || assert_eq!(num_threads(), 5));
        assert_eq!(num_threads(), 3, "override restored after with_threads");
    }

    #[test]
    fn garbage_env_falls_back_to_available_parallelism() {
        let _guard = ENV_LOCK.lock().unwrap();
        let _env = EnvRestore::capture();
        std::env::set_var("LMMIR_THREADS", "zero");
        assert!(num_threads() >= 1);
        std::env::set_var("LMMIR_THREADS", "0");
        assert!(num_threads() >= 1);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let _guard = ENV_LOCK.lock().unwrap();
        set_thread_override(Some(2));
        let res = std::panic::catch_unwind(|| with_threads(6, || panic!("boom")));
        assert!(res.is_err());
        assert_eq!(thread_override(), Some(2));
        set_thread_override(None);
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let _guard = ENV_LOCK.lock().unwrap();
        let expect: Vec<usize> = (0..103).map(|i| i * i).collect();
        for t in [1, 2, 7, 16] {
            let got = with_threads(t, || par_map(103, |i| i * i));
            assert_eq!(got, expect, "order broken at {t} threads");
        }
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn par_map_slice_borrows_items() {
        let _guard = ENV_LOCK.lock().unwrap();
        let words = ["a", "bb", "ccc"];
        let lens = with_threads(2, || par_map_slice(&words, |w| w.len()));
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn par_chunks_mut_covers_every_unit_exactly_once() {
        let _guard = ENV_LOCK.lock().unwrap();
        // 13 units of 3 elements plus a ragged 2-element tail unit.
        for t in [1, 2, 5, 7] {
            let mut data = vec![0u32; 13 * 3 + 2];
            with_threads(t, || {
                par_chunks_mut(&mut data, 3, |u0, chunk| {
                    for (i, unit) in chunk.chunks(3).enumerate() {
                        assert!(unit.len() == 3 || u0 + i == 13, "only the tail is short");
                    }
                    for v in chunk.iter_mut() {
                        *v += 1 + u0 as u32;
                    }
                });
            });
            // Every element written exactly once, chunk starts increasing.
            assert!(
                data.iter().all(|&v| v >= 1),
                "untouched element at {t} threads"
            );
        }
    }

    #[test]
    fn par_chunks_mut_handles_empty_and_single_unit() {
        let _guard = ENV_LOCK.lock().unwrap();
        let mut empty: [f32; 0] = [];
        par_chunks_mut(&mut empty, 4, |_, c| assert!(c.is_empty()));
        let mut one = [1.0f32; 3];
        with_threads(8, || {
            par_chunks_mut(&mut one, 8, |u0, c| {
                assert_eq!(u0, 0);
                c.iter_mut().for_each(|v| *v *= 2.0);
            });
        });
        assert_eq!(one, [2.0; 3]);
    }

    #[test]
    fn workers_run_with_nested_parallelism_pinned_off() {
        let _guard = ENV_LOCK.lock().unwrap();
        let counts = with_threads(4, || par_map(4, |_| num_threads()));
        assert_eq!(counts, vec![1; 4], "workers must see a 1-thread pool");
        // Inline path (single unit): the caller's own count stays visible,
        // so a nested kernel may still fan out when no fork happened.
        let counts = with_threads(4, || par_map(1, |_| num_threads()));
        assert_eq!(counts, vec![4]);
    }

    #[test]
    fn caller_runs_the_first_span_pinned_and_gets_its_override_back() {
        let _guard = ENV_LOCK.lock().unwrap();
        let me = std::thread::current().id();
        with_threads(3, || {
            let seen = par_map(7, |i| (i, std::thread::current().id(), num_threads()));
            // Order and coverage hold with the caller participating.
            assert_eq!(
                seen.iter().map(|s| s.0).collect::<Vec<_>>(),
                [0, 1, 2, 3, 4, 5, 6]
            );
            // 7 units over 3 threads: the caller owns span 0..3, workers the rest.
            assert!(
                seen[..3].iter().all(|s| s.1 == me),
                "span 0 runs on the caller"
            );
            assert!(
                seen[3..].iter().all(|s| s.1 != me),
                "other spans are spawned"
            );
            assert!(
                seen.iter().all(|s| s.2 == 1),
                "every span sees a 1-thread pool"
            );
            assert_eq!(
                thread_override(),
                Some(3),
                "override restored after par_map"
            );

            let mut data = vec![0usize; 10];
            par_chunks_mut(&mut data, 1, |u0, chunk| {
                let on_caller = std::thread::current().id() == me;
                assert_eq!(
                    on_caller,
                    u0 == 0,
                    "exactly the first span runs on the caller"
                );
                assert_eq!(num_threads(), 1);
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = u0 + i + 1;
                }
            });
            assert_eq!(
                data,
                (1..=10).collect::<Vec<_>>(),
                "every unit written once"
            );
            assert_eq!(
                thread_override(),
                Some(3),
                "override restored after par_chunks_mut"
            );
        });
    }

    #[test]
    fn override_survives_a_panic_in_any_span() {
        let _guard = ENV_LOCK.lock().unwrap();
        // 8 units over 4 threads: spans start at units 0 (the caller's own),
        // 2, 4 and 6 (the last spawned worker's).
        for bad_span in [0usize, 6] {
            set_thread_override(Some(4));
            let res = std::panic::catch_unwind(|| {
                par_map(8, |i| assert_ne!(i, bad_span, "span died"));
            });
            assert!(res.is_err());
            assert_eq!(thread_override(), Some(4), "par_map, span at {bad_span}");
            let res = std::panic::catch_unwind(|| {
                let mut data = [0u8; 8];
                par_chunks_mut(&mut data, 1, |u0, _| assert_ne!(u0, bad_span, "span died"));
            });
            assert!(res.is_err());
            assert_eq!(
                thread_override(),
                Some(4),
                "par_chunks_mut, span at {bad_span}"
            );
        }
        set_thread_override(None);
    }

    #[test]
    fn worth_parallelizing_gates_on_units_work_and_pool() {
        let _guard = ENV_LOCK.lock().unwrap();
        with_threads(4, || {
            assert!(worth_parallelizing(2, 100, 100));
            assert!(!worth_parallelizing(1, 100, 100), "one unit");
            assert!(!worth_parallelizing(2, 99, 100), "too little work");
        });
        with_threads(1, || assert!(!worth_parallelizing(2, 100, 100)));
    }

    #[test]
    fn join_forks_a_onto_a_worker_and_pins_both_spans() {
        let _guard = ENV_LOCK.lock().unwrap();
        let me = std::thread::current().id();
        let span = || (std::thread::current().id(), num_threads());
        let (a, b) = with_threads(3, || {
            let got = join(span, span);
            assert_eq!(thread_override(), Some(3), "override restored");
            got
        });
        assert!(a.0 != me && b.0 == me, "a spawned, b on the caller");
        assert_eq!((a.1, b.1), (1, 1), "both spans see a 1-thread pool");

        // One thread: `a`, then `b`, inline.
        let order = Mutex::new(Vec::new());
        let (a, b) = with_threads(1, || {
            join(
                || {
                    order.lock().unwrap().push('a');
                    span()
                },
                || {
                    order.lock().unwrap().push('b');
                    span()
                },
            )
        });
        assert_eq!(*order.lock().unwrap(), ['a', 'b']);
        assert_eq!((a.0, b.0), (me, me));
    }

    #[test]
    fn join_propagates_a_panic_of_either_span() {
        let _guard = ENV_LOCK.lock().unwrap();
        set_thread_override(Some(2));
        let res = std::panic::catch_unwind(|| join(|| panic!("worker died"), || 1));
        assert!(res.is_err());
        let res = std::panic::catch_unwind(|| join(|| 1, || panic!("caller died")));
        assert!(res.is_err());
        assert_eq!(thread_override(), Some(2));
        set_thread_override(None);
    }

    #[test]
    fn worker_panics_propagate() {
        let _guard = ENV_LOCK.lock().unwrap();
        let res = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(8, |i| if i == 5 { panic!("worker died") } else { i })
            })
        });
        assert!(res.is_err());
    }
}
