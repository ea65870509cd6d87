//! The per-round allocation budget of the Fig 3/4 path, counted by the
//! global allocator rather than inferred from timings or page faults, so it
//! holds whatever allocator the process runs on.
//!
//! A steady-state round — the third call, after two warm-up calls — may
//! allocate blob-sized memory only for the `W` views the `AggregateHook` API
//! returns: no per-worker decode, no per-row depth vector, no fresh gradient.
//! Allocations are counted on every thread, so the budget holds at every
//! `TRIMGRAD_THREADS` width. Inside the round, the compute stage allocates
//! nothing as large as a weight matrix: no product copies `W`.
//!
//! The loopback pipeline holds a budget too: on a 2²⁰-coordinate RHT blob,
//! `TrimmablePipeline::encode` allocates nothing of 64 KiB or more but the
//! packet vector it returns and one rotation scratch per pool stripe, and
//! `TrimmablePipeline::decode` nothing but the output it returns — no
//! whole-row plane or reassembly buffer on either side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline};
use trimgrad_collective::hooks::{AggregateHook, TrimmableHook};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_mltrain::data::{gaussian_mixture, sample_indices};
use trimgrad_mltrain::parallel::{DataParallelTrainer, ParallelConfig};
use trimgrad_mltrain::Mlp;
use trimgrad_par::{hardware_threads, WorkerPool};
use trimgrad_quant::SchemeId;

/// Counts the allocations (and growing reallocations) of at least
/// `AT_LEAST` bytes while `AT_LEAST` is below `usize::MAX`.
struct Counting;

static AT_LEAST: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= AT_LEAST.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One test at a time: the tests of this binary run side by side and the
/// count covers every thread, so one test's setup must not run while the
/// other counts. Each test holds it from its first line.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `call` twice to warm up, then counts the allocations of at least
/// `at_least` bytes the third call makes.
fn third_call_allocations(at_least: usize, mut call: impl FnMut()) -> usize {
    call();
    call();
    COUNT.store(0, Ordering::SeqCst);
    AT_LEAST.store(at_least, Ordering::SeqCst);
    call();
    AT_LEAST.store(usize::MAX, Ordering::SeqCst);
    COUNT.load(Ordering::SeqCst)
}

const WORKERS: usize = 4;
const ROW_LEN: usize = 1 << 15;
/// `train_inject`'s model and hook.
const DIMS: [usize; 4] = [256, 512, 512, 100];
const TRIM_PROB: f64 = 0.10;

#[test]
fn the_exchange_allocates_nothing_blob_sized_but_the_views() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const LEN: usize = 445_540; // `train_inject`'s parameter count
    let mut rng = Xoshiro256StarStar::new(5);
    let grads: Vec<Vec<f32>> = (0..WORKERS)
        .map(|_| (0..LEN).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
        .collect();
    let mut hook = TrimmableHook::new(SchemeId::Stochastic, WORKERS, TRIM_PROB, 0.0, ROW_LEN, 11);
    let mut round = 0;
    // An encoded SQ row's tail plane is exactly `4·row_len` bytes; anything
    // larger is a blob, or a per-coordinate vector of a row.
    let count = third_call_allocations(4 * ROW_LEN + 65, || {
        let views = hook.aggregate(&grads, 0, round);
        assert_eq!(views.len(), WORKERS);
        round += 1;
    });
    assert_eq!(count, WORKERS, "allocations above 4·row_len + 64 bytes");
}

#[test]
fn a_training_round_allocates_nothing_parameter_sized_but_the_views() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 11;
    let classes = DIMS[DIMS.len() - 1];
    let (train, test) =
        gaussian_mixture(classes, DIMS[0], 4000 / classes, 0.25, 1.0, seed).split(0.9, seed);
    let hook = TrimmableHook::new(SchemeId::Stochastic, WORKERS, TRIM_PROB, 0.0, ROW_LEN, seed);
    let cfg = ParallelConfig {
        workers: WORKERS,
        batch_size: 32,
        seed,
        ..ParallelConfig::default()
    };
    let mut trainer = DataParallelTrainer::new(&DIMS, train, test, Box::new(hook), cfg);
    let params = trainer.param_count();
    let count = third_call_allocations(4 * params, || {
        assert!(trainer.run_round().loss.is_finite());
    });
    assert_eq!(count, WORKERS, "allocations ≥ 4·param_count bytes");
}

#[test]
fn the_compute_stage_copies_no_weight_matrix() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 11;
    let classes = DIMS[DIMS.len() - 1];
    let data = gaussian_mixture(classes, DIMS[0], 4000 / classes, 0.25, 1.0, seed);
    let mut rng = Xoshiro256StarStar::new(seed);
    let (bx, by) = data.batch(&sample_indices(data.len(), 32, &mut rng));
    let model = Mlp::new(&DIMS, seed);
    let mut grad = vec![0.0f32; model.param_count()];
    // The smallest weight matrix, 100 × 512, is 4·100·512 bytes; every
    // per-call buffer of a batch of 32 is smaller.
    let count = third_call_allocations(4 * 100 * 512, || {
        assert!(model.loss_and_grad_into(&bx, &by, &mut grad).is_finite());
    });
    assert_eq!(count, 0, "allocations ≥ the smallest weight matrix");
}

/// `codec_loopback`'s pipeline and one of its 2²⁰-coordinate blobs.
fn loopback() -> (TrimmablePipeline, Vec<f32>) {
    let cfg = PipelineConfig::builder()
        .scheme(SchemeId::RhtOneBit)
        .row_len(ROW_LEN)
        .mtu(1500)
        .base_seed(11)
        .try_build()
        .expect("the benchmark's configuration");
    let mut rng = Xoshiro256StarStar::new(11);
    let blob = (0..1 << 20)
        .map(|_| rng.next_f32_range(-1.0, 1.0))
        .collect();
    (TrimmablePipeline::new(cfg), blob)
}

/// Anything of 64 KiB or more is a row plane (a 2¹⁵-coordinate row's 31-bit
/// tails are 124 KiB), a rotation, a blob or the packet vector.
const ROW_SIZED: usize = 64 << 10;

#[test]
fn the_pipeline_encode_allocates_the_packets_and_one_scratch_per_stripe() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (pipe, blob) = loopback();
    let rows = blob.len() / ROW_LEN;
    let stripes = WorkerPool::global()
        .threads()
        .min(rows)
        .min(hardware_threads());
    let count = third_call_allocations(ROW_SIZED, || {
        let tx = pipe.encode(&blob, 0, 7, 1, 2);
        assert_eq!(tx.metas.len(), rows);
    });
    assert!(
        count <= 1 + stripes.max(1),
        "{count} allocations of 64 KiB or more for {stripes} stripe(s)"
    );
}

#[test]
fn the_pipeline_decode_allocates_nothing_row_sized_but_its_output() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (pipe, blob) = loopback();
    let mut tx = pipe.encode(&blob, 0, 7, 1, 2);
    // `codec_loopback`'s mix: some frames cut to their heads.
    for frame in tx.packets.iter_mut().step_by(3) {
        frame.trim_to_depth(1).expect("data frames trim");
    }
    let count = third_call_allocations(ROW_SIZED, || {
        let out = pipe
            .decode(&tx.packets, &tx.metas, 0, 7)
            .expect("own frames");
        assert_eq!(out.len(), blob.len());
    });
    assert_eq!(count, 1, "allocations of 64 KiB or more besides the output");
}
