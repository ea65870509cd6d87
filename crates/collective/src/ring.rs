//! Ring all-reduce: reduce-scatter followed by all-gather.
//!
//! The bandwidth-optimal collective NCCL uses for large messages: each
//! worker transmits `2·(W−1)/W` times the blob size regardless of `W`.
//! Every segment transfer goes through a [`GradChannel`], so the same code
//! runs the uncompressed baseline and the trimmable-gradient configuration.
//!
//! This module is the only code that knows the ring schedule: `step` says,
//! for any rank and protocol step, which range it sends, which it receives
//! and whether the receive accumulates. [`ring_all_reduce`] walks it over
//! in-memory channels, [`crate::ring_netsim`] over real frames.

use crate::channel::GradChannel;
use core::ops::Range;

/// The half-open coordinate range of segment `s` when a blob of `len`
/// coordinates is split into `parts` segments (remainder spread over the
/// leading segments).
#[must_use]
pub fn segment_range(len: usize, parts: usize, s: usize) -> Range<usize> {
    assert!(s < parts, "segment {s} out of {parts}");
    let base = len / parts;
    let extra = len % parts;
    let start = s * base + s.min(extra);
    let seg_len = base + usize::from(s < extra);
    start..start + seg_len
}

/// Protocol steps of a `workers`-wide ring all-reduce: `W − 1`
/// reduce-scatter steps, then `W − 1` all-gather steps.
pub(crate) fn total_steps(workers: usize) -> usize {
    2 * (workers - 1)
}

/// Whether protocol step `t` accumulates (reduce-scatter) rather than
/// overwrites (all-gather).
fn is_reduce_step(workers: usize, t: usize) -> bool {
    t < workers - 1
}

/// The segment `rank` sends to `(rank + 1) % W` at protocol step `t`
/// (`0 ≤ t < total_steps`). In reduce-scatter, segment `s` starts at worker
/// `s + 1`, visits every worker once, and finishes fully summed at worker
/// `s`; in all-gather it starts at its owner `s` and reaches every other
/// worker after `W − 1` steps.
fn send_segment(workers: usize, rank: usize, t: usize) -> usize {
    let w = workers;
    if is_reduce_step(w, t) {
        (rank + 2 * w - 1 - t) % w
    } else {
        (rank + w - (t - (w - 1)) % w) % w
    }
}

/// Protocol step `t` as rank `rank` of a `len`-coordinate ring sees it.
pub(crate) struct Step {
    /// The range `rank` sends to `(rank + 1) % W`.
    pub(crate) send: Range<usize>,
    /// The range `rank` receives from `(rank + W − 1) % W`.
    pub(crate) recv: Range<usize>,
    /// Whether the received range is added to the blob (reduce-scatter)
    /// rather than overwriting it (all-gather).
    pub(crate) reduce: bool,
}

/// The schedule of `workers`-wide ring all-reduce over `len` coordinates at
/// rank `rank`, protocol step `t` (`0 ≤ t < 2(W−1)`).
pub(crate) fn step(len: usize, workers: usize, rank: usize, t: usize) -> Step {
    let sender = (rank + workers - 1) % workers;
    Step {
        send: segment_range(len, workers, send_segment(workers, rank, t)),
        recv: segment_range(len, workers, send_segment(workers, sender, t)),
        reduce: is_reduce_step(workers, t),
    }
}

/// Runs ring all-reduce (sum) in place. `channels[w]` is the directed link
/// from worker `w` to `(w+1) % W`. Worker `i`'s transfer at reduce-scatter
/// step `k` uses message id `base_msg_id + k·W + i`, at all-gather step `k`
/// `base_msg_id + W² + k·W + i`.
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
    for t in 0..total_steps(w) {
        // All sends of a step happen "simultaneously": a rank never receives
        // the range it sends, so each transfer lands in place and no send
        // reads what its step wrote. Ids run `base + slot·W + i`, with slot
        // `k` for reduce-scatter step `k` and `W + k = t + 1` for all-gather
        // step `k`.
        let slot = if is_reduce_step(w, t) { t } else { t + 1 };
        for (i, chan) in channels.iter_mut().enumerate() {
            let msg_id = base_msg_id + (slot * w + i) as u32;
            let send = step(len, w, i, t).send;
            let s = step(len, w, (i + 1) % w, t);
            let pair = workers.get_disjoint_mut([i, (i + 1) % w]);
            // trimlint: allow(no-panic) -- W ≥ 2, so a rank and its successor are two ranks
            let [src, dst] = pair.expect("a rank and its successor are distinct");
            let acc = &mut dst[s.recv];
            chan.transfer(&src[send], epoch, msg_id, |offset, piece| {
                let acc = &mut acc[offset..offset + piece.len()];
                if s.reduce {
                    for (a, v) in acc.iter_mut().zip(piece) {
                        *a += v;
                    }
                } else {
                    acc.copy_from_slice(piece);
                }
            });
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

    fn lossless(n: usize) -> Vec<LosslessChannel> {
        (0..n).map(|_| LosslessChannel::new()).collect()
    }

    fn trimming(n: usize, p: f64, seed: u64) -> Vec<TrimmingChannel> {
        (0..n)
            .map(|i| {
                let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 77, 1024);
                TrimmingChannel::new(codec, TrimInjector::new(p, seed + i as u64))
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
    fn segment_schedule_is_consistent() {
        let w = 3;
        for t in 0..total_steps(w) {
            for r in 0..w {
                assert!(send_segment(w, r, t) < w);
                // What a rank receives is what its predecessor sends.
                assert_eq!(step(10, w, (r + 1) % w, t).recv, step(10, w, r, t).send);
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

    /// Lossless rings at every width, over blobs that split evenly, unevenly
    /// (`11 = 4 + 4 + 3`, `13 = 4 + 3 + 3 + 3`) and into empty segments
    /// (`len < W`). Small-integer
    /// coordinates sum exactly in any order, so every worker must hold the
    /// exact sum — which also means reduce-scatter left segment `r` fully
    /// reduced at rank `r` and all-gather carried every owned segment
    /// everywhere.
    #[test]
    fn lossless_ring_computes_exact_sum() {
        for w in [2, 3, 4, 7] {
            for len in [1, 4, 5, 10, 11, 13, 50] {
                let mut workers: Vec<Vec<f32>> = (0..w)
                    .map(|i| (0..len).map(|j| (i * 100 + j) as f32).collect())
                    .collect();
                let expected: Vec<f32> = (0..len)
                    .map(|j| (0..w).map(|i| (i * 100 + j) as f32).sum())
                    .collect();
                let mut chans = lossless(w);
                ring_all_reduce(&mut workers, &mut chans, 1, 7);
                for (i, worker) in workers.iter().enumerate() {
                    assert_eq!(worker, &expected, "w={w} len={len} worker {i}");
                }
            }
        }
    }

    #[test]
    fn single_worker_is_noop() {
        let mut workers = vec![vec![1.0, 2.0]];
        let before = workers.clone();
        let mut chans = lossless(1);
        ring_all_reduce(&mut workers, &mut chans, 0, 0);
        assert_eq!(workers, before);
        assert_eq!(chans[0].bytes_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "must agree in length")]
    fn rejects_ragged_workers() {
        let mut workers = vec![vec![0.0; 4], vec![0.0; 5]];
        let mut chans = lossless(2);
        ring_all_reduce(&mut workers, &mut chans, 0, 0);
    }

    /// Digest of every worker's output and every edge's byte count after
    /// rings over 1, 5, 50 and 4099 coordinates (`len < W`, ragged, and
    /// more than one 1024-coordinate row per segment), epoch 2, base id 3.
    fn ring_digest<C: GradChannel>(w: usize, mut chans: Vec<C>) -> u64 {
        let mut bytes = Vec::new();
        for len in [1usize, 5, 50, 4099] {
            let mut rng = Xoshiro256StarStar::new((w * 1000 + len) as u64);
            let mut workers: Vec<Vec<f32>> = (0..w)
                .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
                .collect();
            ring_all_reduce(&mut workers, &mut chans, 2, 3);
            for v in workers.iter().flatten() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for c in &chans {
            bytes.extend_from_slice(&c.bytes_sent().to_le_bytes());
        }
        trimgrad_telemetry::fnv1a(&bytes)
    }

    /// Pins the fold bit for bit: the summation order of every coordinate,
    /// the message id (hence row seed) of every transfer, and the bytes each
    /// edge carries. Recorded at commit `de055c2`, where reduce-scatter and
    /// all-gather were still separate entry points; `[lossless, RHT trimming
    /// at p = 0.3]` per `W`.
    #[test]
    fn ring_outputs_match_the_recorded_digests() {
        const GOLDEN: [(usize, [u64; 2]); 5] = [
            (1, [0xe230_03eb_e808_9419, 0xe230_03eb_e808_9419]),
            (2, [0x1eb0_504e_3ef4_8eb9, 0xc2de_fdcf_62b5_6873]),
            (3, [0x8a66_8385_e659_5802, 0x5dfc_937b_abe6_96bd]),
            (4, [0xdf81_b551_c11d_2705, 0xdf0f_07ec_8a3e_f657]),
            (7, [0xd982_c893_ee58_7ba0, 0x5287_49a8_8f08_58c6]),
        ];
        for (w, [lossless_golden, trimming_golden]) in GOLDEN {
            let lossless = ring_digest(w, lossless(w));
            let trimming = ring_digest(w, trimming(w, 0.3, 100));
            assert_eq!(
                lossless, lossless_golden,
                "W = {w}, lossless: {lossless:#018x}"
            );
            assert_eq!(
                trimming, trimming_golden,
                "W = {w}, trimming: {trimming:#018x}"
            );
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
        // Each edge carries ≈ 2(w−1)/w × len coordinates: (w−1)/w in each
        // phase, whatever the blob length.
        let w = 4;
        for len in [4000, 8192] {
            let mut workers = random_grads(w, len, 2);
            let mut chans = lossless(w);
            ring_all_reduce(&mut workers, &mut chans, 0, 0);
            let expect = (2 * (w - 1) * len / w) as u64 * 4;
            for c in &chans {
                let sent = c.bytes_sent();
                assert!(
                    sent >= expect && sent < expect + expect / 4,
                    "len {len}: bytes {sent} vs {expect}"
                );
            }
        }
    }
}
