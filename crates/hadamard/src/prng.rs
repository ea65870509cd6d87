//! Portable, deterministic pseudo-random number generators.
//!
//! The trimmable-gradient protocol relies on *shared randomness*: the sender
//! and receiver derive identical random sequences from a seed carried (or
//! implied) by the packet stream — the Rademacher diagonal of the RHT and the
//! per-coordinate dither of subtractive dithering both work this way. That
//! randomness is therefore part of the wire format: it must not differ
//! across platforms, and it changes only together with the wire version
//! (`trimhdr::VERSION` in `trimgrad-wire`). Under version 2 a Rademacher
//! diagonal takes 64 signs from each draw ([`crate::rademacher`]); the SQ
//! uniforms and the SD dither take one draw per coordinate.
//!
//! [`SplitMix64`] and [`Xoshiro256StarStar`] are tiny, well-studied
//! generators with a fixed, documented output sequence, and carry no
//! external dependencies so the workspace builds fully offline.
//!
//! The seeding discipline mirrors the paper's prototype, which seeds the
//! shared generator with "a combination of training epoch number and
//! collective communication message ID": see [`derive_seed`].

use std::sync::OnceLock;

/// SplitMix64: a fixed-increment 64-bit generator (Steele, Lea, Flood 2014).
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`], and directly wherever one word of randomness per
/// step suffices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns the next 32 random bits (the high word of [`Self::next_u64`]).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// xoshiro256**: a fast all-purpose 64-bit generator (Blackman & Vigna 2018).
///
/// The output sequence for a given seed is part of the wire format — it
/// determines the RHT rotation and the subtractive dither on both sides of
/// the network — and is pinned by `xoshiro_sequence_is_pinned`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose 256-bit state is expanded from `seed` via
    /// [`SplitMix64`], as the xoshiro authors recommend.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 output is equidistributed, so an all-zero state (the one
        // invalid xoshiro state) has probability 2^-256; guard regardless.
        if s == [0, 0, 0, 0] {
            return Self { s: [1, 2, 3, 4] };
        }
        Self { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        self.step();
        result
    }

    /// The state transition alone: what [`next_u64`](Self::next_u64) does
    /// to the state. It is linear over GF(2), which is what
    /// [`advance`](Self::advance) relies on.
    #[inline]
    fn step(&mut self) {
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
    }

    /// Skips the next `n` outputs: afterwards the generator is where `n`
    /// calls to [`next_u64`](Self::next_u64) would have left it, and so
    /// produces the same sequence from there.
    ///
    /// The state transition is a linear map `T` on GF(2)²⁵⁶, so skipping is
    /// one matrix–vector product with `T^(2^i)` per set bit `i ≥ 6` of `n`,
    /// and the last `n mod 64` outputs are stepped, which is cheaper than a
    /// product. A skip of a few thousand outputs costs a few products. The
    /// powers are built on first use, once per process, and kept: a skip
    /// below 2¹⁵ builds at most nine of 8 KiB each.
    // trimlint: hot-path -- the SQ/SD draw stream jumps over coordinates whose draws nothing reads
    pub fn advance(&mut self, n: u64) {
        let mut high = n >> STEPPED_BITS;
        let mut below: Option<&Gf2Matrix> = None;
        for power in &TRANSITION_POWERS {
            if high == 0 {
                break;
            }
            let power = power.get_or_init(|| match below {
                None => core::array::from_fn(|j| {
                    let mut unit = Xoshiro256StarStar { s: [0; 4] };
                    unit.s[j / 64] = 1 << (j % 64);
                    for _ in 0..1 << STEPPED_BITS {
                        unit.step();
                    }
                    unit.s
                }),
                Some(half) => core::array::from_fn(|j| apply(half, &half[j])),
            });
            if high & 1 == 1 {
                self.s = apply(power, &self.s);
            }
            below = Some(power);
            high >>= 1;
        }
        for _ in 0..n & ((1 << STEPPED_BITS) - 1) {
            self.step();
        }
    }

    /// Returns a uniformly random `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // Take the top 24 bits: the widest mantissa an f32 can hold exactly.
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniformly random `f32` in `[lo, hi)`.
    ///
    /// `lo` must be `<= hi`; the empty range `lo == hi` returns `lo`.
    #[inline]
    pub fn next_f32_range(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi, "next_f32_range: lo={lo} > hi={hi}");
        lo + self.next_f32() * (hi - lo)
    }

    /// Returns the next 32 random bits (the high word of [`Self::next_u64`]).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// The low bits of a skip that [`Xoshiro256StarStar::advance`] steps
/// rather than jumps: stepping 2⁶ outputs costs about what one
/// matrix–vector product does.
const STEPPED_BITS: u32 = 6;

/// A 256 × 256 matrix over GF(2), column by column: column `j` is the image
/// of the state whose only set bit is bit `j % 64` of word `j / 64`.
type Gf2Matrix = [[u64; 4]; 256];

/// `T^(2^i)` for each `i ≥ STEPPED_BITS`, lowest first, where `T` is the
/// xoshiro256 state transition: the first is built column by column by
/// stepping each unit state, every later one as the square of the one
/// before it.
static TRANSITION_POWERS: [OnceLock<Gf2Matrix>; 64 - STEPPED_BITS as usize] =
    [const { OnceLock::new() }; 64 - STEPPED_BITS as usize];

/// The matrix–vector product `m · v` over GF(2): the XOR of the columns of
/// `m` at the set bits of `v`.
fn apply(m: &Gf2Matrix, v: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (k, &word) in v.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let column = &m[k * 64 + bits.trailing_zeros() as usize];
            for (o, c) in out.iter_mut().zip(column) {
                *o ^= c;
            }
            bits &= bits - 1;
        }
    }
    out
}

/// Derives the shared per-message seed from the protocol context.
///
/// The paper's prototype "sets `torch.cuda.manual_seed` with a combination
/// of training epoch number and collective communication message ID to create
/// a shared pseudo-random number generator across different GPU servers". We
/// make the combination explicit and collision-resistant by mixing the three
/// coordinates through SplitMix64's finalizer.
#[must_use]
pub fn derive_seed(base_seed: u64, epoch: u64, message_id: u64) -> u64 {
    let mut sm = SplitMix64::new(
        base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(epoch.rotate_left(32))
            .wrapping_add(message_id),
    );
    sm.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference values from the SplitMix64 C reference implementation,
    /// seed = 1234567.
    #[test]
    fn splitmix64_reference_sequence() {
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
        assert_eq!(sm.next_u64(), 4593380528125082431);
    }

    /// The xoshiro256** sequence is pinned so any accidental change to the
    /// generator or its seeding (which would silently corrupt decoding of
    /// trimmed packets produced by an older sender) fails the build. Literals
    /// recorded by running the generator as of PR 19, never recomputed.
    #[test]
    fn xoshiro_sequence_is_pinned() {
        let mut x = Xoshiro256StarStar::new(42);
        // The SplitMix64 expansion of the seed.
        assert_eq!(
            x.s,
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52,
                0x581C_E1FF_0E4A_E394,
            ]
        );
        assert_eq!(
            [x.next_u64(), x.next_u64(), x.next_u64(), x.next_u64()],
            [
                0x1578_0B2E_0C2E_C716,
                0x6104_D986_6D11_3A7E,
                0xAE17_5332_39E4_99A1,
                0xECB8_AD47_03B3_60A1,
            ]
        );
    }

    /// The seed derivation every sender and receiver shares, pinned the same
    /// way (`MessageCodec::row_seed` pins its two-level use of it).
    #[test]
    fn derive_seed_is_pinned() {
        assert_eq!(derive_seed(1, 2, 3), 0x45BA_BC74_EDAC_D22C);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut x = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let v = x.next_f32();
            assert!((0.0..1.0).contains(&v), "{v} out of [0,1)");
        }
    }

    #[test]
    fn f32_range_respects_bounds() {
        let mut x = Xoshiro256StarStar::new(8);
        for _ in 0..10_000 {
            let v = x.next_f32_range(-2.5, 2.5);
            assert!((-2.5..2.5).contains(&v), "{v} out of [-2.5, 2.5)");
        }
        // Degenerate range.
        assert_eq!(x.next_f32_range(3.0, 3.0), 3.0);
    }

    #[test]
    fn f32_mean_is_near_half() {
        let mut x = Xoshiro256StarStar::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| x.next_f32() as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    /// `n` outputs skipped the slow way.
    fn stepped(mut x: Xoshiro256StarStar, n: u64) -> Xoshiro256StarStar {
        for _ in 0..n {
            let _ = x.next_u64();
        }
        x
    }

    fn advanced(mut x: Xoshiro256StarStar, n: u64) -> Xoshiro256StarStar {
        x.advance(n);
        x
    }

    /// Skips around the stepped/jumped boundary (64), a packet's worth of
    /// coordinates (350), a row (2¹⁵) and past any row.
    const SKIPS: [u64; 12] = [
        0,
        1,
        2,
        63,
        64,
        65,
        350,
        351,
        (1 << 15) - 1,
        1 << 15,
        (1 << 15) + 1,
        (1 << 20) + 7,
    ];

    #[test]
    fn advance_equals_stepping() {
        let states = [
            Xoshiro256StarStar::new(42),
            Xoshiro256StarStar::new(0x5EED_CAFE),
            Xoshiro256StarStar::new(u64::MAX),
            // The seed guard's state.
            Xoshiro256StarStar { s: [1, 2, 3, 4] },
        ];
        for x in states {
            for n in SKIPS {
                let (mut a, mut b) = (advanced(x.clone(), n), stepped(x.clone(), n));
                assert_eq!(a, b, "state {:?}, skip {n}", x.s);
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn advances_compose() {
        let big = [
            (1u64 << 40) + 12_345,
            (1 << 62) + 3,
            0x1EAD_BEEF_0000_0001,
            99,
        ];
        let x = Xoshiro256StarStar::new(7);
        for a in big {
            for b in big {
                let mut twice = advanced(x.clone(), a);
                twice.advance(b);
                assert_eq!(twice, advanced(x.clone(), a + b), "{a} + {b}");
            }
        }
        // Every level, the top one included.
        let mut b = advanced(x.clone(), u64::MAX - 1);
        b.step();
        assert_eq!(advanced(x, u64::MAX), b);
    }

    proptest! {
        #[test]
        fn advance_equals_stepping_from_any_state(
            seed in any::<u64>(),
            n in 0u64..70_000
        ) {
            let x = Xoshiro256StarStar::new(seed);
            prop_assert_eq!(advanced(x.clone(), n), stepped(x, n));
        }
    }

    #[test]
    fn derive_seed_distinguishes_all_coordinates() {
        let base = derive_seed(1, 2, 3);
        assert_ne!(base, derive_seed(2, 2, 3));
        assert_ne!(base, derive_seed(1, 3, 3));
        assert_ne!(base, derive_seed(1, 2, 4));
        // Swapping epoch and message id must not collide.
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
        // Deterministic.
        assert_eq!(base, derive_seed(1, 2, 3));
    }
}
