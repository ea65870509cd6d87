//! Trimmable gradient quantization schemes.
//!
//! This crate implements the algorithmic core of *"When ML Training Cuts
//! Through Congestion: Just-in-Time Gradient Compression via Packet
//! Trimming"* (HotNets '24): encodings that split every gradient coordinate
//! into a `P`-bit **head** and a `Q`-bit **tail** such that
//!
//! * when nothing is trimmed, head + tail reconstruct the original value
//!   (bit-exactly for the sign-based schemes),
//! * when a congested switch trims a packet down to its heads, the receiver
//!   still decodes a useful low-precision estimate of every coordinate.
//!
//! # Schemes
//!
//! | [`SchemeId`] | Head | Head-only decode | Character |
//! |---|---|---|---|
//! | `SignMagnitude` ([`signmag`]) | sign bit of the float | `±σ` | biased; diverges ≥ ~2% trimming (paper Fig 3) |
//! | `Stochastic` ([`stochastic`]) | Bernoulli bit, `p₊ = (L+v)/2L`, `L = 2.5σ` | `±L` | unbiased (TernGrad-style) |
//! | `SubtractiveDither` ([`dither`]) | `sign(v + ε)`, shared-randomness dither | `L·sign(v+ε) − ε` | unbiased, input-independent worst-case error |
//! | `RhtOneBit` ([`rht1bit`]) | sign of the RHT-rotated coordinate | `f·sign`, `f = ‖r‖₂²/‖r‖₁`, then inverse RHT | unbiased, error spread across the row (DRIVE-style) |
//! | `MultiLevelRht` ([`multilevel`]) | sign, then exponent (parts 1/8/23 bits) | per-level | §5.1 multi-level trimming |
//!
//! # Architecture
//!
//! The one-byte wire identifier [`SchemeId`] is the scheme. It owns the part
//! widths ([`SchemeId::part_bits`]) and the padding rule
//! ([`SchemeId::encoded_len`]). An encoded row is a sequence of fixed-width
//! bit-packed **parts** (part 0 is the head): [`SchemeId::stage`] runs the
//! row stage, and its [`StagedRow`] packs any coordinate range of a part
//! into bytes the caller gives it — a packet's section, where the wire layer
//! lays parts out front-to-back so that switch trimming truncates whole
//! trailing parts, or a whole-row plane of the [`EncodedRow`] that
//! [`SchemeId::encode`] returns. [`SchemeId::decode_runs`] decodes a row
//! from runs of constant depth, which a [`PartialRow`] (see
//! [`SchemeId::decode`]) or a packet-by-packet source yields. Each scheme's
//! module holds its row stage, range packer and run decoder; the dispatch,
//! the empty row, the row's geometry and the checks before decoding are
//! written once, in [`scheme`].
//!
//! ```
//! use trimgrad_quant::{PartView, PartialRow, SchemeId};
//!
//! let scheme = SchemeId::RhtOneBit;
//! let grad: Vec<f32> = (0..256).map(|i| ((i * 7 % 23) as f32 - 11.0) / 11.0).collect();
//! let enc = scheme.encode(&grad, /*seed=*/ 42);
//!
//! // Untrimmed: decoding is exact up to the rotation's rounding error.
//! let exact = scheme.decode(&enc.full_view(), &enc.meta, 42).unwrap();
//! for (d, v) in exact.iter().zip(&grad) {
//!     assert!((d - v).abs() < 1e-4);
//! }
//!
//! // Fully trimmed (heads only): decoding is approximate but unbiased.
//! let view = PartialRow { n: enc.n, parts: vec![PartView::Full(&enc.parts[0]), PartView::Absent] };
//! let est = scheme.decode(&view, &enc.meta, 42).unwrap();
//! assert_eq!(est.len(), grad.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitpack;
pub mod dither;
pub mod error;
pub mod fcmp;
pub mod kernels;
pub mod multilevel;
pub mod rht1bit;
pub mod scheme;
pub mod signmag;
pub mod stats;
pub mod stochastic;

pub use scheme::{EncodedRow, PartView, PartialRow, RowMeta, SchemeId, StagedRow};
