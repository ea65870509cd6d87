//! Ring reduce-scatter.
//!
//! After the operation, worker `w` holds the fully-reduced (summed) segment
//! `w` of the blob; other segments hold partial sums and are considered
//! garbage. This is the first phase of ring all-reduce.

use crate::channel::GradChannel;
use crate::ring::run_phase;

/// The half-open coordinate range of segment `s` when a blob of `len`
/// coordinates is split into `parts` segments (remainder spread over the
/// leading segments).
#[must_use]
pub fn segment_range(len: usize, parts: usize, s: usize) -> core::ops::Range<usize> {
    assert!(s < parts, "segment {s} out of {parts}");
    let base = len / parts;
    let extra = len % parts;
    let start = s * base + s.min(extra);
    let seg_len = base + usize::from(s < extra);
    start..start + seg_len
}

/// Runs ring reduce-scatter in place over `workers[w]` using
/// `channels[w]` as the link from worker `w` to worker `(w+1) % W`.
///
/// `epoch`/`base_msg_id` seed the per-transfer shared randomness; each
/// transfer uses a distinct message id.
///
/// # Panics
///
/// Panics if worker blobs differ in length or `channels.len() != workers.len()`.
pub fn ring_reduce_scatter<C: GradChannel>(
    workers: &mut [Vec<f32>],
    channels: &mut [C],
    epoch: u32,
    base_msg_id: u32,
) {
    run_phase(workers, channels, epoch, base_msg_id, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LosslessChannel;

    fn lossless(n: usize) -> Vec<Box<dyn GradChannel>> {
        (0..n)
            .map(|_| Box::new(LosslessChannel::new()) as Box<dyn GradChannel>)
            .collect()
    }

    #[test]
    fn segment_ranges_tile_exactly() {
        for (len, parts) in [(10, 3), (12, 4), (7, 7), (5, 8), (0, 3)] {
            let mut covered = 0;
            for s in 0..parts {
                let r = segment_range(len, parts, s);
                assert_eq!(r.start, covered, "len={len} parts={parts} s={s}");
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn reduces_own_segment_to_global_sum() {
        let w = 4;
        let len = 10;
        let mut workers: Vec<Vec<f32>> = (0..w)
            .map(|i| (0..len).map(|j| (i * 100 + j) as f32).collect())
            .collect();
        let expected: Vec<f32> = (0..len)
            .map(|j| (0..w).map(|i| (i * 100 + j) as f32).sum())
            .collect();
        let mut chans = lossless(w);
        ring_reduce_scatter(&mut workers, &mut chans, 0, 0);
        for (i, worker) in workers.iter().enumerate() {
            let r = segment_range(len, w, i);
            for j in r {
                assert_eq!(worker[j], expected[j], "worker {i} coord {j}");
            }
        }
    }

    #[test]
    fn single_worker_is_noop() {
        let mut workers = vec![vec![1.0, 2.0]];
        let before = workers.clone();
        let mut chans = lossless(1);
        ring_reduce_scatter(&mut workers, &mut chans, 0, 0);
        assert_eq!(workers, before);
    }

    #[test]
    fn uneven_lengths_still_reduce() {
        let w = 3;
        let len = 11; // 4 + 4 + 3
        let mut workers: Vec<Vec<f32>> = (0..w).map(|i| vec![i as f32 + 1.0; len]).collect();
        let mut chans = lossless(w);
        ring_reduce_scatter(&mut workers, &mut chans, 1, 7);
        for (i, worker) in workers.iter().enumerate() {
            for j in segment_range(len, w, i) {
                assert_eq!(worker[j], 6.0); // 1+2+3
            }
        }
    }

    #[test]
    #[should_panic(expected = "must agree in length")]
    fn rejects_ragged_workers() {
        let mut workers = vec![vec![0.0; 4], vec![0.0; 5]];
        let mut chans = lossless(2);
        ring_reduce_scatter(&mut workers, &mut chans, 0, 0);
    }

    #[test]
    fn channels_carry_bandwidth_optimal_volume() {
        let w = 4;
        let len = 4000;
        let mut workers: Vec<Vec<f32>> = (0..w).map(|_| vec![1.0; len]).collect();
        let mut chans = lossless(w);
        ring_reduce_scatter(&mut workers, &mut chans, 0, 0);
        // Each edge carries (w−1) segments ≈ (w−1)/w × len coordinates.
        for c in &chans {
            let coords = c.bytes_sent() / 4; // ≥ payload coordinate count
            let expect = ((w - 1) * len / w) as u64;
            assert!(
                coords >= expect && coords < expect + expect / 5,
                "coords {coords} vs {expect}"
            );
        }
    }
}
