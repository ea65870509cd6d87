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

    /// Fills `dest` with random bytes from the little-endian word stream.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
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
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
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

    /// Fills `dest` with random bytes from the little-endian word stream.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
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

    #[test]
    fn fill_bytes_partial_chunks() {
        let mut x = Xoshiro256StarStar::new(11);
        let mut buf = [0u8; 13]; // not a multiple of 8
        x.fill_bytes(&mut buf);
        // Matches the word stream byte-for-byte.
        let mut y = Xoshiro256StarStar::new(11);
        let w0 = y.next_u64().to_le_bytes();
        let w1 = y.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..13], &w1[..5]);
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
