//! Small std-only helpers: order statistics, the box-speed probe, process
//! memory, digests and gradient-shaped input generation.

use crate::layers::Rng;
use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method, i.e. what Python's
/// `statistics.quantiles(v, n=4)` returns — the rule the driver applies.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median, in percent.
pub fn iqr_pct(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        100.0 * (q3 - q1) / m.abs()
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// and its value. With fewer than 20 samples there is no such tail: the
/// median is returned with percentile 50.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 20 {
        return (50.0, median(v));
    }
    let idx = n - 11;
    (100.0 * idx as f64 / n as f64, s[idx])
}

/// `VmHWM` of this process in MB (0 when /proc is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, folded over f32 bit patterns and counters.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f32s(&mut self, v: &[f32]) {
        // Word-at-a-time variant: one multiply per coordinate keeps the
        // digest of a 2²⁰-coordinate output well under a millisecond.
        for x in v {
            self.0 = (self.0 ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn raw(&self) -> u64 {
        self.0
    }

    /// The low 48 bits: exactly representable as an f64 metric value.
    pub fn value(&self) -> f64 {
        (self.0 & 0xFFFF_FFFF_FFFF) as f64
    }
}

/// A gradient-shaped blob: heavy-tailed coordinates (most mass near zero, a
/// few large) with a per-row scale that varies over two decades, so rows
/// differ the way layers of a real network do.
pub fn gradient_blob(len: usize, row_len: usize, rng: &mut Rng) -> Vec<f32> {
    let mut out = Vec::with_capacity(len);
    let mut scale = 1.0f32;
    for i in 0..len {
        if i % row_len == 0 {
            scale = 10f32.powf(rng.next_f32_range(-2.0, 0.0));
        }
        let u = rng.next_f32_range(-1.0, 1.0);
        out.push(scale * u * u * u);
    }
    out
}

/// Exact f64 mean over ranks, rounded once to f32.
pub fn exact_mean(blobs: &[Vec<f32>]) -> Vec<f32> {
    let w = blobs.len() as f64;
    (0..blobs[0].len())
        .map(|j| (blobs.iter().map(|b| f64::from(b[j])).sum::<f64>() / w) as f32)
        .collect()
}

/// Normalised times are `raw × NOMINAL_PROBE_NS / probe`. Only a unit
/// conversion: chosen near the median [`BoxProbe::run`] of the box the first
/// baseline was recorded on, so that the numbers read like that box's
/// milliseconds. Comparisons between commits are ratios and do not depend on
/// it.
pub const NOMINAL_PROBE_NS: f64 = 7.0e6;

/// The box-speed probe: a fixed piece of work of the benchmark's own, run
/// between rounds, whose duration says how fast this box is *right now*.
///
/// The sandbox runs in one of two gears about 22 % apart and shifts every few
/// seconds (neighbours on the same core and memory system), so the raw
/// median round of two runs of the same code differs by more than the widest
/// bound the driver accepts. Work measured in units of the probe cancels
/// most of that (README.md has the per-workload measurements): the probe
/// mixes the three things the library does — FMA-bound dense arithmetic
/// (mltrain), streaming bit manipulation over a buffer larger than L2
/// (quant, wire), and dependent random loads over a table larger than L2
/// (netsim's event queue and port tables) — in equal shares of time. It
/// never calls the library, so no optimisation can move it.
pub struct BoxProbe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    stream: Vec<u32>,
    chase: Vec<u32>,
    at: u32,
}

const PROBE_M: usize = 64;
const PROBE_K: usize = 256;
const PROBE_REPS: usize = 4;

impl BoxProbe {
    pub fn new() -> Self {
        // One cycle through 2²¹ slots (8 MB), by Sattolo's shuffle.
        let n = 1usize << 21;
        let mut chase: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        Self {
            a: vec![0.5; PROBE_M * PROBE_K],
            b: vec![0.25; PROBE_K * PROBE_K],
            c: vec![0.0; PROBE_M * PROBE_K],
            stream: vec![0x1234_5678; 1 << 20],
            chase,
            at: 0,
        }
    }

    /// Runs the probe and returns its duration in nanoseconds. One untimed
    /// repetition first brings the probe's own buffers back after a round
    /// has had the caches, so the probe times the box and not the round's
    /// footprint.
    pub fn run(&mut self) -> f64 {
        self.reps(1);
        let start = Instant::now();
        self.reps(PROBE_REPS);
        start.elapsed().as_nanos() as f64
    }

    fn reps(&mut self, n: usize) {
        for _ in 0..n {
            for i in 0..PROBE_M {
                let row = &mut self.c[i * PROBE_K..(i + 1) * PROBE_K];
                row.fill(0.0);
                for k in 0..PROBE_K {
                    let aik = self.a[i * PROBE_K + k];
                    let brow = &self.b[k * PROBE_K..(k + 1) * PROBE_K];
                    for (c, b) in row.iter_mut().zip(brow) {
                        *c += aik * b;
                    }
                }
            }
            std::hint::black_box(&mut self.c);
            for v in &mut self.stream {
                *v = (*v ^ (*v << 13)).rotate_left(7).wrapping_add(0x9E37);
            }
            std::hint::black_box(&mut self.stream);
            for _ in 0..6_000 {
                self.at = self.chase[self.at as usize];
            }
            std::hint::black_box(self.at);
        }
    }
}
