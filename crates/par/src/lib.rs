//! Deterministic scoped worker pool for the trimgrad workspace.
//!
//! crates.io is unreachable in the build environment, so this is a
//! dependency-free, hand-rolled pool built on `std::thread::scope`.
//! Determinism is the design center, not an afterthought:
//!
//! * Work is split by **fixed index**: item `i` always receives the same
//!   slice of the input, no matter how many workers exist or how the OS
//!   schedules them.
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
//! no work stealing, and no unsafe code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable that pins the worker count (see [`WorkerPool::global`]).
pub const THREADS_ENV: &str = "TRIMGRAD_THREADS";

/// Kernels below this element count are not worth spawning threads for.
///
/// Callers with per-element costs far from a FWHT butterfly should gate on
/// their own thresholds; this is a sane default for transform-sized work.
pub const PAR_MIN_LEN: usize = 1 << 12;

thread_local! {
    /// True inside a pool worker thread. Used to keep nested parallel
    /// regions (e.g. a per-row transform inside a per-row fan-out) from
    /// oversubscribing the machine: [`WorkerPool::global`] degrades to the
    /// serial pool when called from a worker. Since parallel and serial
    /// output are bit-identical, this is purely a scheduling decision and
    /// cannot change results.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

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
/// concurrency in return (the `row_encode_pipeline` threads4 regression).
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
    /// [`std::thread::available_parallelism`]. Calls made from inside a
    /// pool worker return the serial pool so nested regions do not
    /// oversubscribe (results are unaffected — see module docs).
    #[must_use]
    pub fn global() -> Self {
        if IN_WORKER.with(Cell::get) {
            return Self::serial();
        }
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

    /// Maps each index in `0..n` through `f`, returning results in index
    /// order — bit-identical to `(0..n).map(f).collect()`. With
    /// `threads <= 1` or `n <= 1` the map runs inline.
    ///
    /// Each worker evaluates one **contiguous** stripe of indices and writes
    /// results straight into its stripe of the output: the only
    /// synchronization is thread join, and contiguous stripes keep each
    /// worker's reads inside one span of the input.
    pub fn map_striped<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.spawn_width(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
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
            let f = &f;
            let mut rest = slots.as_mut_slice();
            let mut start = 0;
            for w in 0..workers {
                let len = q + usize::from(w < r);
                let (stripe, tail) = rest.split_at_mut(len);
                rest = tail;
                s.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    for (off, slot) in stripe.iter_mut().enumerate() {
                        *slot = Some(f(start + off));
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

    /// Applies `f(chunk_index, chunk)` to each `chunk_len`-sized chunk of
    /// `data` in place — same effect as
    /// `data.chunks_mut(chunk_len).enumerate().for_each(...)`.
    ///
    /// Chunks are distributed round-robin (chunk `i` goes to worker
    /// `i % workers`), so the chunk↔worker assignment is a pure function of
    /// the index. Chunks are disjoint `&mut` slices, so workers never alias.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let n_chunks = data.len().div_ceil(chunk_len);
        let workers = self.spawn_width(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        // trimlint: allow(hot-path-alloc) -- bounded by thread count and amortized over the whole slice, not per packet
        let mut stripes: Vec<Vec<(usize, &mut [T])>> = Vec::with_capacity(workers);
        stripes.resize_with(workers, Vec::new);
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            stripes[i % workers].push((i, chunk));
        }
        std::thread::scope(|s| {
            let f = &f;
            for stripe in stripes {
                s.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    for (i, chunk) in stripe {
                        f(i, chunk);
                    }
                });
            }
        });
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_striped_preserves_index_order_not_completion_order() {
        // Later stripes finish first if workers raced; order must still hold.
        let pool = WorkerPool::new(4);
        let out = pool.map_striped(100, |i| {
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
    fn for_each_chunk_mut_matches_serial() {
        for len in [0usize, 1, 5, 16, 100, 1023] {
            for chunk_len in [1usize, 3, 8, 64] {
                let mut serial: Vec<u32> = (0..len as u32).collect();
                for (i, c) in serial.chunks_mut(chunk_len).enumerate() {
                    for v in c.iter_mut() {
                        *v = v.wrapping_mul(31).wrapping_add(i as u32);
                    }
                }
                for threads in 1..=6 {
                    let mut par: Vec<u32> = (0..len as u32).collect();
                    WorkerPool::new(threads).for_each_chunk_mut(&mut par, chunk_len, |i, c| {
                        for v in c.iter_mut() {
                            *v = v.wrapping_mul(31).wrapping_add(i as u32);
                        }
                    });
                    assert_eq!(par, serial, "len={len} chunk={chunk_len} t={threads}");
                }
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map_striped(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn map_striped_matches_serial_for_every_width() {
        let f = |i: usize| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) ^ !(i as u64);
        for n in [0usize, 1, 2, 3, 7, 8, 64, 257] {
            let serial: Vec<u64> = (0..n).map(f).collect();
            for threads in 1..=8 {
                let pool = WorkerPool::new(threads);
                assert_eq!(pool.map_striped(n, f), serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn nested_regions_degrade_to_serial_inside_workers() {
        let widths = WorkerPool::new(4).map_striped(8, |_| WorkerPool::global().threads());
        if hardware_threads() > 1 {
            assert!(
                widths.iter().all(|&w| w == 1),
                "global() inside a worker must be serial, got {widths:?}"
            );
        } else {
            // Single-core host: the hardware clamp keeps the region inline,
            // so no worker flag is ever set and global() keeps its width.
            let outer = WorkerPool::global().threads();
            assert!(
                widths.iter().all(|&w| w == outer),
                "inline region must see the outer global width {outer}, got {widths:?}"
            );
        }
        // Outside a worker the global pool keeps its configured width.
        assert!(WorkerPool::global().threads() >= 1);
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
