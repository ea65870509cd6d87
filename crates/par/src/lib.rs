//! Deterministic scoped worker pool for the trimgrad workspace.
//!
//! crates.io is unreachable in the build environment, so this is a
//! dependency-free, hand-rolled pool built on `std::thread::scope`.
//! Determinism is the design center, not an afterthought:
//!
//! * Work is split by **fixed index**: item `i` of the input is always
//!   handed to the closure as index `i`, no matter how many workers exist or
//!   how the OS schedules them. An item may be a `&mut` — row `i`'s disjoint
//!   slice of an output buffer — so a region can write in place.
//! * Results land **in index order**: each worker writes result `i` into
//!   slot `i` of the output, so the output `Vec` is identical to what a
//!   serial loop would produce.
//!
//! As long as the per-chunk closure is a pure function of the chunk index
//! and its input (all trimgrad kernels are — per-row seeds are derived from
//! the row index, never from execution order), parallel output is
//! bit-identical to serial output and to itself across runs. This is what
//! keeps the seeded-ring transcript and the fig3/fig4/fig5 snapshots stable
//! between `TRIMGRAD_THREADS=1` and `TRIMGRAD_THREADS=4`.
//!
//! The pool is a cheap `Copy` config struct; parallel regions spawn scoped
//! threads on entry and join them on exit, so there is no long-lived state,
//! no work stealing, and no unsafe code. Regions do not nest: the one
//! parallel axis in the workspace is the rows of a message
//! (`trimgrad_collective::chunk`), and what runs inside a row is
//! single-threaded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

/// Environment variable that pins the worker count (see [`WorkerPool::global`]).
pub const THREADS_ENV: &str = "TRIMGRAD_THREADS";

fn resolved_global_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        match from_env {
            Some(t) => t.max(1),
            None => hardware_threads(),
        }
    })
}

/// Number of hardware execution contexts the OS reports
/// ([`std::thread::available_parallelism`], cached; 1 when unknown).
///
/// Parallel regions never spawn more workers than this: on a single-core
/// machine a 4-wide pool would pay thread spawn and merge overhead with zero
/// concurrency in return.
/// The clamp is a pure scheduling decision — chunk↔index assignment and merge
/// order are unchanged, so results stay bit-identical at every width.
#[must_use]
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// A deterministic worker-pool configuration.
///
/// `WorkerPool` carries only the worker count; each parallel region spawns
/// scoped threads on entry and joins them before returning. `threads <= 1`
/// (or a region with at most one chunk) runs inline on the calling thread
/// with zero overhead, which is what the `TRIMGRAD_THREADS=1` CI leg
/// exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The serial pool: every region runs inline on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The process-wide pool configuration.
    ///
    /// The worker count is resolved once per process: `TRIMGRAD_THREADS`
    /// if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn global() -> Self {
        Self {
            threads: resolved_global_threads(),
        }
    }

    /// Number of workers this pool will use for a region with enough chunks.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many workers a region with `n` work items actually spawns:
    /// the configured width, clamped to the item count and to
    /// [`hardware_threads`]. `<= 1` means the region runs inline.
    fn spawn_width(&self, n: usize) -> usize {
        self.threads.min(n).min(hardware_threads())
    }

    /// Maps each item through `f(index, item)`, returning results in index
    /// order — bit-identical to `items.enumerate().map(f).collect()`. With
    /// `threads <= 1` or at most one item the map runs inline.
    ///
    /// Each worker takes one **contiguous** stripe of items and writes
    /// results straight into its stripe of the output: the only
    /// synchronization is thread join, and contiguous stripes keep each
    /// worker's reads inside one span of the input. Items move to the worker
    /// that evaluates them, so they may be exclusive borrows (`&mut` slices
    /// of one output buffer); a region over plain indices passes `0..n`.
    pub fn map_striped<T, R, F>(&self, items: impl ExactSizeIterator<Item = T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_striped_with(items, || (), |(), i, item| f(i, item))
    }

    /// [`map_striped`](Self::map_striped) with per-stripe state: each
    /// stripe calls `init` once and hands the state to `f` for every item it
    /// evaluates, in index order. A row encoder keeps its row-sized scratch
    /// there, so a message costs one scratch per stripe, not one per row.
    /// The result is bit-identical to the serial map as long as `f`'s result
    /// does not depend on what an earlier item left in the state.
    pub fn map_striped_with<T, S, R, I, F>(
        &self,
        mut items: impl ExactSizeIterator<Item = T>,
        init: I,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.spawn_width(n);
        if workers <= 1 {
            let mut state = init();
            return items
                .enumerate()
                .map(|(i, item)| f(&mut state, i, item))
                .collect();
        }
        // trimlint: allow(hot-path-alloc) -- one output slot per row, amortized over the whole message
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        // Stripe i covers [i·q + min(i, r), …) where q = n / workers and
        // r = n % workers: the first r stripes get one extra item, so sizes
        // differ by at most one and the boundaries are a pure function of
        // (n, workers).
        let q = n / workers;
        let r = n % workers;
        std::thread::scope(|s| {
            let (init, f) = (&init, &f);
            let mut rest = slots.as_mut_slice();
            let mut start = 0;
            for w in 0..workers {
                let len = q + usize::from(w < r);
                let (stripe, tail) = rest.split_at_mut(len);
                rest = tail;
                // trimlint: allow(hot-path-alloc) -- one item list per worker, amortized over its stripe
                let stripe_items: Vec<T> = items.by_ref().take(len).collect();
                s.spawn(move || {
                    let mut state = init();
                    for ((off, slot), item) in stripe.iter_mut().enumerate().zip(stripe_items) {
                        *slot = Some(f(&mut state, start + off, item));
                    }
                });
                start += len;
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index in 0..n lies in exactly one stripe"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_striped_preserves_index_order_not_completion_order() {
        // Later stripes finish first if workers raced; order must still hold.
        let pool = WorkerPool::new(4);
        let out = pool.map_striped(0..100, |i, _| {
            if i < 25 {
                // Make the first stripe slower without wall clocks: burn work.
                let mut acc = 0u64;
                for k in 0..20_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                std::hint::black_box(acc);
            }
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map_striped(0..4, |i, _| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn map_striped_matches_serial_for_every_width() {
        let f = |i: usize| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) ^ !(i as u64);
        for n in [0usize, 1, 2, 3, 7, 8, 64, 257] {
            let serial: Vec<u64> = (0..n).map(f).collect();
            for threads in 1..=8 {
                let pool = WorkerPool::new(threads);
                let striped = pool.map_striped(0..n, |i, item| {
                    assert_eq!(i, item, "index and item travel together");
                    f(i)
                });
                assert_eq!(striped, serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn map_striped_hands_each_index_its_own_mut_item() {
        // Disjoint `&mut` slices of one buffer: every worker writes in place.
        for threads in 1..=4 {
            let mut out = vec![0usize; 10 * 7];
            let lens = WorkerPool::new(threads).map_striped(
                out.chunks_mut(7).enumerate(),
                |i, (j, row)| {
                    assert_eq!(i, j);
                    row.fill(i + 1);
                    row.len()
                },
            );
            assert_eq!(lens, vec![7; 10], "threads={threads}");
            assert!(out.iter().enumerate().all(|(k, &v)| v == k / 7 + 1));
        }
    }

    #[test]
    fn map_striped_with_inits_once_per_stripe() {
        // Each stripe counts its own items in its state: the counts restart
        // once per stripe, and the results still match the serial map.
        for threads in 1..=4 {
            let pool = WorkerPool::new(threads);
            let seen = pool.map_striped_with(
                0..10,
                || 0usize,
                |count, i, item| {
                    assert_eq!(i, item);
                    *count += 1;
                    (i, *count)
                },
            );
            assert_eq!(
                seen.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..10).collect::<Vec<_>>()
            );
            let restarts = seen.iter().filter(|&&(_, c)| c == 1).count();
            assert_eq!(restarts, pool.spawn_width(10).max(1), "threads={threads}");
        }
    }

    #[test]
    fn spawn_width_clamps_to_hardware() {
        let pool = WorkerPool::new(64);
        assert!(pool.spawn_width(1000) <= hardware_threads());
        assert_eq!(pool.spawn_width(0), 0);
        assert_eq!(pool.spawn_width(1), 1);
        assert_eq!(WorkerPool::serial().spawn_width(1000), 1);
    }
}
