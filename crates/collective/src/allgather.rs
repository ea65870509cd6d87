//! Ring all-gather.
//!
//! The second phase of ring all-reduce: each worker starts owning the
//! fully-reduced segment `w` (from reduce-scatter) and, after `W − 1` steps
//! of passing segments around the ring, every worker holds every reduced
//! segment.

use crate::channel::GradChannel;
use crate::ring::run_phase;

/// Runs ring all-gather in place: worker `w`'s segment `w` is propagated to
/// all workers. `channels[w]` is the link from worker `w` to `(w+1) % W`.
///
/// # Panics
///
/// Panics if worker blobs differ in length or `channels.len() != workers.len()`.
pub fn ring_all_gather<C: GradChannel>(
    workers: &mut [Vec<f32>],
    channels: &mut [C],
    epoch: u32,
    base_msg_id: u32,
) {
    let first_step = workers.len().saturating_sub(1);
    run_phase(workers, channels, epoch, base_msg_id, first_step);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LosslessChannel;
    use crate::reducescatter::segment_range;

    fn lossless(n: usize) -> Vec<Box<dyn GradChannel>> {
        (0..n)
            .map(|_| Box::new(LosslessChannel::new()) as Box<dyn GradChannel>)
            .collect()
    }

    #[test]
    fn propagates_owned_segments_everywhere() {
        let w = 4;
        let len = 13;
        // Worker i owns segment i: initialize it with a recognizable value,
        // garbage elsewhere.
        let mut workers: Vec<Vec<f32>> = (0..w)
            .map(|i| {
                let mut v = vec![-1.0f32; len];
                for j in segment_range(len, w, i) {
                    v[j] = (i * 10 + j) as f32;
                }
                v
            })
            .collect();
        let expected: Vec<f32> = {
            let mut v = vec![0.0f32; len];
            for s in 0..w {
                for j in segment_range(len, w, s) {
                    v[j] = (s * 10 + j) as f32;
                }
            }
            v
        };
        let mut chans = lossless(w);
        ring_all_gather(&mut workers, &mut chans, 0, 0);
        for (i, worker) in workers.iter().enumerate() {
            assert_eq!(worker, &expected, "worker {i}");
        }
    }

    #[test]
    fn single_worker_is_noop() {
        let mut workers = vec![vec![5.0; 3]];
        let mut chans = lossless(1);
        ring_all_gather(&mut workers, &mut chans, 0, 0);
        assert_eq!(workers[0], vec![5.0; 3]);
    }

    #[test]
    fn two_workers_swap_segments() {
        let mut workers = vec![vec![1.0, 1.0, -9.0, -9.0], vec![-9.0, -9.0, 2.0, 2.0]];
        let mut chans = lossless(2);
        ring_all_gather(&mut workers, &mut chans, 0, 0);
        assert_eq!(workers[0], vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(workers[1], vec![1.0, 1.0, 2.0, 2.0]);
    }
}
