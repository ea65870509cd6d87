//! Ring all-reduce: reduce-scatter followed by all-gather.
//!
//! The bandwidth-optimal collective NCCL uses for large messages: each
//! worker transmits `2·(W−1)/W` times the blob size regardless of `W`.
//! Every segment transfer goes through a [`GradChannel`], so the same code
//! runs the uncompressed baseline and the trimmable-gradient configuration.

use crate::allgather::ring_all_gather;
use crate::channel::GradChannel;
use crate::reducescatter::{ring_reduce_scatter, segment_range};

/// Protocol steps of a `workers`-wide ring all-reduce: `W − 1`
/// reduce-scatter steps, then `W − 1` all-gather steps.
pub(crate) fn total_steps(workers: usize) -> usize {
    2 * (workers - 1)
}

/// Whether protocol step `t` accumulates (reduce-scatter) rather than
/// overwrites (all-gather).
pub(crate) fn is_reduce_step(workers: usize, t: usize) -> bool {
    t < workers - 1
}

/// The segment `rank` sends to `(rank + 1) % W` at protocol step `t`
/// (`0 ≤ t < total_steps`). In reduce-scatter, segment `s` starts at worker
/// `s + 1`, visits every worker once, and finishes fully summed at worker
/// `s`; in all-gather it starts at its owner `s` and reaches every other
/// worker after `W − 1` steps.
pub(crate) fn send_segment(workers: usize, rank: usize, t: usize) -> usize {
    let w = workers;
    if is_reduce_step(w, t) {
        (rank + 2 * w - 1 - t) % w
    } else {
        (rank + w - (t - (w - 1)) % w) % w
    }
}

/// Runs the `W − 1` protocol steps starting at `first_step` in place: the
/// reduce-scatter phase from step 0, the all-gather phase from step `W − 1`.
/// `channels[i]` is the link from worker `i` to `(i+1) % W`; worker `i`'s
/// transfer at the phase's `k`-th step uses message id `base_msg_id + k·W + i`.
pub(crate) fn run_phase<C: GradChannel>(
    workers: &mut [Vec<f32>],
    channels: &mut [C],
    epoch: u32,
    base_msg_id: u32,
    first_step: usize,
) {
    let w = workers.len();
    assert_eq!(channels.len(), w, "one channel per ring edge");
    if w <= 1 {
        return;
    }
    let len = workers[0].len();
    assert!(
        workers.iter().all(|g| g.len() == len),
        "worker blobs must agree in length"
    );
    for k in 0..w - 1 {
        let t = first_step + k;
        // All sends of a step happen "simultaneously": gather payloads
        // first, then apply.
        let mut incoming = Vec::with_capacity(w);
        for (i, chan) in channels.iter_mut().enumerate() {
            let range = segment_range(len, w, send_segment(w, i, t));
            let msg_id = base_msg_id + (k * w + i) as u32;
            let payload = chan.transfer(&workers[i][range.clone()], epoch, msg_id);
            incoming.push(((i + 1) % w, range, payload));
        }
        for (dst, range, payload) in incoming {
            if is_reduce_step(w, t) {
                for (acc, v) in workers[dst][range].iter_mut().zip(&payload) {
                    *acc += v;
                }
            } else {
                workers[dst][range].copy_from_slice(&payload);
            }
        }
    }
}

/// Runs ring all-reduce (sum) in place. `channels[w]` is the directed link
/// from worker `w` to `(w+1) % W`; each of the `2(W−1)` transfer steps uses
/// distinct message ids derived from `base_msg_id`.
///
/// With lossless channels every worker ends with the exact element-wise sum;
/// with lossy channels workers end with (slightly different) estimates of it
/// — precisely what happens across trimming fabric.
///
/// # Panics
///
/// Panics if worker blobs differ in length or `channels.len() != workers.len()`.
pub fn ring_all_reduce<C: GradChannel>(
    workers: &mut [Vec<f32>],
    channels: &mut [C],
    epoch: u32,
    base_msg_id: u32,
) {
    let w = trimgrad_wire::narrow::to_u32(workers.len(), "worker count");
    ring_reduce_scatter(workers, channels, epoch, base_msg_id);
    ring_all_gather(workers, channels, epoch, base_msg_id + w * w);
}

/// Ring all-reduce that averages instead of summing.
///
/// # Panics
///
/// Same conditions as [`ring_all_reduce`].
pub fn ring_all_reduce_mean<C: GradChannel>(
    workers: &mut [Vec<f32>],
    channels: &mut [C],
    epoch: u32,
    base_msg_id: u32,
) {
    let w = workers.len() as f32;
    ring_all_reduce(workers, channels, epoch, base_msg_id);
    for g in workers.iter_mut() {
        for v in g.iter_mut() {
            *v /= w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{LosslessChannel, TrimmingChannel};
    use crate::chunk::MessageCodec;
    use crate::trim_inject::TrimInjector;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;
    use trimgrad_quant::SchemeId;

    fn lossless(n: usize) -> Vec<Box<dyn GradChannel>> {
        (0..n)
            .map(|_| Box::new(LosslessChannel::new()) as Box<dyn GradChannel>)
            .collect()
    }

    fn trimming(n: usize, p: f64, seed: u64) -> Vec<Box<dyn GradChannel>> {
        (0..n)
            .map(|i| {
                let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 77, 1024);
                Box::new(TrimmingChannel::new(
                    codec,
                    TrimInjector::new(p, seed + i as u64),
                )) as Box<dyn GradChannel>
            })
            .collect()
    }

    fn random_grads(w: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..w)
            .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
            .collect()
    }

    #[test]
    fn segment_schedule_is_consistent() {
        let w = 3;
        for t in 0..total_steps(w) {
            for r in 0..w {
                assert!(send_segment(w, r, t) < w);
            }
        }
        // Reduce-scatter ends with rank r owning segment r: the segment it
        // receives from its predecessor at the last reduce step t = w−2 is r.
        for r in 0..w {
            let sender = (r + w - 1) % w;
            assert_eq!(send_segment(w, sender, w - 2), r);
        }
        // All-gather starts with rank r sending its own segment.
        for r in 0..w {
            assert_eq!(send_segment(w, r, w - 1), r);
        }
    }

    #[test]
    fn lossless_ring_computes_exact_sum() {
        for w in [2, 3, 4, 7] {
            let len = 50;
            let mut workers = random_grads(w, len, w as u64);
            let expected: Vec<f32> = (0..len)
                .map(|j| workers.iter().map(|g| g[j]).sum())
                .collect();
            let mut chans = lossless(w);
            ring_all_reduce(&mut workers, &mut chans, 0, 0);
            for (i, worker) in workers.iter().enumerate() {
                for (a, e) in worker.iter().zip(&expected) {
                    assert!((a - e).abs() < 1e-4, "w={w} worker {i}: {a} vs {e}");
                }
            }
        }
    }

    #[test]
    fn mean_variant_divides_by_w() {
        let w = 4;
        let mut workers: Vec<Vec<f32>> = (0..w).map(|_| vec![8.0; 6]).collect();
        let mut chans = lossless(w);
        ring_all_reduce_mean(&mut workers, &mut chans, 0, 0);
        for worker in &workers {
            for &v in worker {
                assert!((v - 8.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn trimming_ring_approximates_the_sum() {
        let w = 4;
        let len = 2048;
        let mut workers = random_grads(w, len, 5);
        let expected: Vec<f32> = (0..len)
            .map(|j| workers.iter().map(|g| g[j]).sum())
            .collect();
        let mut chans = trimming(w, 0.3, 100);
        ring_all_reduce(&mut workers, &mut chans, 1, 0);
        for worker in &workers {
            let nmse = trimgrad_quant::error::nmse(worker, &expected);
            // Per-hop re-encoding compounds error across the 2(W−1)
            // transfers (that is why the aggregation hook encodes once);
            // the result must still be clearly better than knowing nothing.
            assert!(nmse < 1.0, "nmse {nmse} too large for 30% trimming");
            assert!(nmse > 0.0, "lossy channel cannot be exact");
        }
    }

    #[test]
    fn trimming_ring_with_zero_prob_matches_lossless_closely() {
        let w = 3;
        let len = 512;
        let mut a = random_grads(w, len, 9);
        let mut b = a.clone();
        let mut lossless_chans = lossless(w);
        let mut clean_trim_chans = trimming(w, 0.0, 1);
        ring_all_reduce(&mut a, &mut lossless_chans, 0, 0);
        ring_all_reduce(&mut b, &mut clean_trim_chans, 0, 0);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            // RHT encode/decode rounding only.
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn bytes_scale_with_bandwidth_optimal_factor() {
        let w = 4;
        let len = 8192;
        let mut workers = random_grads(w, len, 2);
        let mut chans = lossless(w);
        ring_all_reduce(&mut workers, &mut chans, 0, 0);
        // Each edge carries ≈ 2(w−1)/w × len coordinates (both phases).
        let expect = (2 * (w - 1) * len / w) as u64 * 4;
        for c in &chans {
            let sent = c.bytes_sent();
            assert!(
                sent >= expect && sent < expect + expect / 4,
                "bytes {sent} vs {expect}"
            );
        }
    }
}
