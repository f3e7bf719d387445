//! Thread-count resolution and the scoped-spawn entry point.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread programmatic override; `0` means "not set".
    ///
    /// Thread-local on purpose: every parallel driver reads the count on
    /// the thread that invokes it, so a scoped override only affects the
    /// caller — concurrently running tests (cargo's default) cannot race
    /// each other's thread counts or leak a stale override across tests.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Sets (or with `None` clears) the programmatic thread-count override for
/// the **calling thread**.
///
/// The override takes precedence over the `LMMIR_THREADS` environment
/// variable — prefer the scoped [`with_threads`] in tests and benchmarks
/// so the previous value is always restored.
pub fn set_thread_override(threads: Option<usize>) {
    OVERRIDE.with(|o| o.set(threads.map_or(0, |t| t.max(1))));
}

/// The calling thread's programmatic override, if any.
#[must_use]
pub fn thread_override() -> Option<usize> {
    match OVERRIDE.with(Cell::get) {
        0 => None,
        t => Some(t),
    }
}

/// Runs `f` with the calling thread's thread count forced to `threads`,
/// restoring the previous override afterwards (also on panic and early
/// return).
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(threads.max(1)));
    let _restore = Restore(prev);
    f()
}

/// The worker count every primitive in this crate fans out to.
///
/// Resolution order: programmatic override ([`set_thread_override`]) →
/// `LMMIR_THREADS` (positive integers only; anything else is ignored) →
/// [`std::thread::available_parallelism`]. `1` forces the sequential path,
/// which is bit-for-bit identical to any parallel run by construction.
///
/// Every kernel gate calls this, so the machine's parallelism (on Linux a
/// handful of cgroup/affinity file reads and syscalls) is resolved once per
/// process; the override and the environment variable stay live.
#[must_use]
pub fn num_threads() -> usize {
    if let Some(t) = thread_override() {
        return t;
    }
    if let Ok(raw) = std::env::var("LMMIR_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Creates a scope for spawning borrowed worker threads — a thin re-export
/// of [`std::thread::scope`] so compute crates need no direct `std::thread`
/// plumbing. All threads spawned in the scope are joined before `scope`
/// returns; worker panics propagate to the caller.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
{
    std::thread::scope(f)
}
