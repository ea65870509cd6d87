//! The v2 Rademacher sign rule, pinned independently of the kernel: sign `j`
//! of a row is bit `j mod 64` of `xoshiro256**` draw `j div 64`, a ragged
//! tail taking its bits from one more draw. The reference below reads those
//! bits straight off `Xoshiro256StarStar::next_u64`, one coordinate at a
//! time, and `RademacherDiagonal::apply_scaled` must agree with it bit for
//! bit — whole words, ragged tails, `±scale`, IEEE special values. Then the
//! stream itself is checked for what the RHT needs of it: balanced signs at
//! every bit position of a draw, and no correlation between neighbours,
//! inside a draw or across a draw boundary.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_hadamard::rademacher::RademacherDiagonal;

/// Sign bits (1 = negative) of the first `n` entries of the seed's diagonal,
/// by the rule, one draw per 64 coordinates.
fn reference_signs(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut word = 0;
    (0..n)
        .map(|j| {
            if j % 64 == 0 {
                word = rng.next_u64();
            }
            (word >> (j % 64) & 1) as u32
        })
        .collect()
}

/// What `apply_scaled(data, scale)` must produce: each value's sign bit
/// flipped by the reference sign, then multiplied by `scale`.
fn reference_apply(seed: u64, data: &[f32], scale: f32) -> Vec<f32> {
    let signs = reference_signs(seed, data.len());
    data.iter()
        .zip(signs)
        .map(|(v, s)| f32::from_bits(v.to_bits() ^ s << 31) * scale)
        .collect()
}

const SPECIALS: [f32; 20] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -f32::NAN,
    f32::from_bits(0x7FA0_1234), // signalling NaN with a payload
    f32::from_bits(0xFFC0_0001),
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::from_bits(1), // smallest subnormal
    f32::from_bits(0x8000_0001),
    f32::from_bits(0x007F_FFFF), // largest subnormal
    f32::EPSILON,
    1.0e-30,
    -3.0e38,
];

/// Lengths around every boundary the kernel has: one coordinate, a partial
/// group, one short of a word, a word, one past it, a packet's worth at the
/// default MTU, an odd multi-word row, and the paper's row.
const LENGTHS: [usize; 8] = [1, 7, 63, 64, 65, 360, 4095, 1 << 15];

#[test]
fn apply_scaled_follows_the_v2_rule_bit_for_bit() {
    let scales = [1.0, -1.0, 1.0 / 181.019_33, 0.5, 3.0e20, 1.0e-20];
    for n in LENGTHS {
        for seed in [0, 42, 0xC0FFEE, u64::MAX] {
            // The sign pattern on its own: ±1 in, the diagonal out.
            let mut ones = vec![1.0f32; n];
            RademacherDiagonal::new(seed).apply_scaled(&mut ones, 1.0);
            let got: Vec<u32> = ones.iter().map(|v| v.to_bits() >> 31).collect();
            assert_eq!(got, reference_signs(seed, n), "n={n} seed={seed}: signs");
            // And on every IEEE class, under every scale.
            let data: Vec<f32> = SPECIALS.iter().cycle().take(n).copied().collect();
            for scale in scales {
                let mut fast = data.clone();
                RademacherDiagonal::new(seed).apply_scaled(&mut fast, scale);
                let want = reference_apply(seed, &data, scale);
                for (i, (f, w)) in fast.iter().zip(&want).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        w.to_bits(),
                        "n={n} seed={seed} scale={scale} entry {i}: {f} vs {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_row_takes_one_draw_per_started_word() {
    // A 65-coordinate row uses two draws: its 65th sign is bit 0 of draw 1,
    // and nothing of draw 1 leaks into the first 64.
    let mut rng = Xoshiro256StarStar::new(7);
    let (d0, d1) = (rng.next_u64(), rng.next_u64());
    let mut row = vec![1.0f32; 65];
    RademacherDiagonal::new(7).apply_scaled(&mut row, 1.0);
    let word = |v: &[f32]| {
        v.iter()
            .enumerate()
            .fold(0u64, |w, (j, s)| w | u64::from(s.is_sign_negative()) << j)
    };
    assert_eq!(word(&row[..64]), d0);
    assert_eq!(word(&row[64..]), d1 & 1);
}

/// `2²⁰` signs of each of eight seeds, as `±1`.
fn streams() -> Vec<Vec<i8>> {
    (0..8u64)
        .map(|s| {
            reference_signs(0x5151_0000 + s, 1 << 20)
                .into_iter()
                .map(|b| 1 - 2 * b as i8)
                .collect()
        })
        .collect()
}

/// χ² with 64 degrees of freedom over the sign balance of each bit position
/// `j mod 64` of a draw: a generator that favoured one sign at some position
/// of its output word would show here and nowhere in a whole-stream count.
#[test]
fn signs_are_balanced_at_every_bit_position() {
    // Upper 10⁻⁶ tail of χ²₆₄ (Wilson–Hilferty): 133.
    const CRITICAL: f64 = 133.0;
    let streams = streams();
    let chi2 = |negatives: &[u64; 64], per_position: f64| {
        negatives
            .iter()
            .map(|&k| {
                let d = k as f64 - per_position / 2.0;
                d * d / (per_position / 4.0)
            })
            .sum::<f64>()
    };
    let mut pooled = [0u64; 64];
    for (s, stream) in streams.iter().enumerate() {
        let mut negatives = [0u64; 64];
        for (j, &v) in stream.iter().enumerate() {
            negatives[j % 64] += u64::from(v < 0);
        }
        for (p, k) in pooled.iter_mut().zip(negatives) {
            *p += k;
        }
        let per_position = (stream.len() / 64) as f64;
        let x = chi2(&negatives, per_position);
        assert!(x < CRITICAL, "seed {s}: χ²₆₄ = {x:.1}");
    }
    let per_position = (streams.len() * streams[0].len() / 64) as f64;
    let x = chi2(&pooled, per_position);
    assert!(x < CRITICAL, "pooled: χ²₆₄ = {x:.1}");
}

/// Lag-1 autocorrelation of the signs, over the whole stream and over the
/// pairs that straddle a draw boundary (bit 63 of one draw, bit 0 of the
/// next), each within five standard errors of zero.
#[test]
fn neighbouring_signs_are_uncorrelated() {
    let streams = streams();
    let correlation = |pairs: &mut dyn Iterator<Item = (i8, i8)>| {
        let (mut sum, mut n) = (0i64, 0usize);
        for (a, b) in pairs {
            sum += i64::from(a) * i64::from(b);
            n += 1;
        }
        (sum as f64 / n as f64, 5.0 / (n as f64).sqrt())
    };
    let (r, bound) = correlation(
        &mut streams
            .iter()
            .flat_map(|s| s.windows(2).map(|w| (w[0], w[1]))),
    );
    assert!(r.abs() < bound, "lag-1: r = {r:.5}, bound {bound:.5}");
    let (r, bound) = correlation(&mut streams.iter().flat_map(|s| {
        s.chunks_exact(64)
            .zip(s.chunks_exact(64).skip(1))
            .map(|(a, b)| (a[63], b[0]))
    }));
    assert!(
        r.abs() < bound,
        "draw boundary: r = {r:.5}, bound {bound:.5}"
    );
    // And per seed, so a bad seed cannot hide in the pool.
    for (seed, s) in streams.iter().enumerate() {
        let (r, bound) = correlation(&mut s.windows(2).map(|w| (w[0], w[1])));
        assert!(r.abs() < bound, "seed {seed} lag-1: r = {r:.5}");
    }
}
