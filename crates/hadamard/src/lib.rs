//! Fast Walsh–Hadamard transforms for trimmable gradient compression.
//!
//! This crate provides the linear-algebra substrate used by the RHT-based
//! trimmable gradient encoding of *"When ML Training Cuts Through Congestion:
//! Just-in-Time Gradient Compression via Packet Trimming"* (HotNets '24):
//!
//! * [`fwht`] — the in-place, O(n log n) fast Walsh–Hadamard transform over
//!   `f32` slices whose length is a power of two, plus an orthonormal variant
//!   that preserves the ℓ₂ norm exactly,
//! * [`rademacher`] — seeded ±1 diagonal generation, the "randomized" part of
//!   the Randomized Hadamard Transform: sign `j` of a row is bit `j mod 64`
//!   of `xoshiro256**` draw `j div 64`,
//! * [`rht`] — the seeded Randomized Hadamard Transform `R_s(V) = 1/√n · H·D_s·V`
//!   and its exact inverse (one row at a time; splitting a gradient blob
//!   into rows with per-row seeds is `trimgrad_collective::chunk`'s job),
//! * [`prng`] — small, *portable* deterministic pseudo-random generators
//!   (SplitMix64, xoshiro256**). Sender and receiver must generate identical
//!   randomness from a shared seed; `rand`'s `StdRng` makes no cross-version
//!   stability promise, so all wire-visible randomness uses these generators,
//!   whose output sequences are pinned by tests. How a scheme consumes them
//!   is wire format too, versioned by `trimhdr::VERSION` in `trimgrad-wire`.
//!
//! # Example
//!
//! ```
//! use trimgrad_hadamard::rht::RandomizedHadamard;
//!
//! let rht = RandomizedHadamard::new(0xC0FFEE);
//! let v: Vec<f32> = (0..8).map(|i| i as f32).collect();
//! let mut rotated = v.clone();
//! rht.forward(&mut rotated).unwrap();
//! // The transform is orthonormal: the l2 norm is preserved...
//! let n2 = |x: &[f32]| x.iter().map(|v| v * v).sum::<f32>();
//! assert!((n2(&v) - n2(&rotated)).abs() < 1e-3);
//! // ...and exactly invertible.
//! rht.inverse(&mut rotated).unwrap();
//! for (a, b) in v.iter().zip(&rotated) {
//!     assert!((a - b).abs() < 1e-5);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fwht;
pub mod prng;
pub mod rademacher;
pub mod rht;

pub use rht::RandomizedHadamard;

/// Errors produced by transform routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input length is not a power of two (and the routine does not pad).
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// The input was empty where a non-empty slice is required.
    Empty,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::NotPowerOfTwo { len } => {
                write!(f, "slice length {len} is not a power of two")
            }
            Error::Empty => write!(f, "input slice is empty"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = core::result::Result<T, Error>;

/// Returns the smallest power of two `>= n` (with `next_pow2(0) == 1`).
///
/// Used when padding gradient rows whose length is not a power of two before
/// applying the Hadamard transform.
#[must_use]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_basics() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1023), 1024);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            Error::NotPowerOfTwo { len: 3 }.to_string(),
            "slice length 3 is not a power of two"
        );
        assert_eq!(Error::Empty.to_string(), "input slice is empty");
    }
}
