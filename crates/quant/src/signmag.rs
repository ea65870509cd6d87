//! Sign-magnitude quantization (paper §3.1, "Sign-magnitude Quantization").
//!
//! The most straightforward trimmable encoding: the 1-bit head is the IEEE
//! sign bit of the coordinate, the 31-bit tail is the exponent and mantissa.
//! Untrimmed packets therefore reconstruct the original float **bit-exactly
//! with zero space overhead**. When trimmed, the receiver decodes the sign
//! bits into `{−σ, +σ}` using the row's standard deviation `σ`, which the
//! sender ships separately in a small reliable packet.
//!
//! This decode is *biased* (`E[±σ] ≠ v` unless `|v| = σ`), which is why
//! training with it diverges once ≳2% of packets are trimmed (paper Fig 3) —
//! the scheme is included as the paper's cautionary baseline.

use crate::bitpack::BitBuf;
use crate::kernels;
use crate::scheme::{DecodeError, PartialRow, SchemeId};
use crate::stats::std_dev;

/// The parts and scale of a non-empty row: its sign bits, its low 31 bits
/// and `σ`.
pub(crate) fn encode(row: &[f32]) -> (Vec<BitBuf>, f32) {
    let (heads, tails) = kernels::encode_sign31_parts(row);
    (vec![heads, tails], std_dev(row))
}

/// Decodes a view whose geometry [`SchemeId::decode_into`] has checked.
pub(crate) fn decode_into(
    row: &PartialRow<'_>,
    scale: f32,
    out: &mut [f32],
) -> Result<(), DecodeError> {
    row.for_each_run(SchemeId::SignMagnitude.part_bits(), |run, depth| {
        let (signs, tails) = (row.parts[0].bytes(), row.parts[1].bytes());
        let (start, dst) = (run.start, &mut out[run]);
        match depth {
            0 => dst.fill(0.0),
            1 => kernels::decode_signs_scaled(signs, start, scale, dst),
            _ => kernels::decode_sign31(signs, tails, start, dst),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RowMeta;
    use proptest::prelude::*;

    fn row() -> Vec<f32> {
        vec![0.5, -1.25, 3.0e-3, -0.0, 7.75, -2.5e4, 0.0, 1.0]
    }

    #[test]
    fn untrimmed_is_bit_exact() {
        let s = SchemeId::SignMagnitude;
        let r = row();
        let enc = s.encode(&r, 0);
        let dec = s.decode(&enc.full_view(), &enc.meta, 0).unwrap();
        for (d, v) in dec.iter().zip(&r) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn zero_space_overhead() {
        let s = SchemeId::SignMagnitude;
        let enc = s.encode(&row(), 0);
        assert_eq!(enc.total_bits(), row().len() * 32);
        assert_eq!(s.part_bits().iter().sum::<u32>(), 32);
    }

    #[test]
    fn heads_only_decodes_signed_sigma() {
        let s = SchemeId::SignMagnitude;
        let r = row();
        let enc = s.encode(&r, 0);
        let sigma = enc.meta.scale;
        assert!(sigma > 0.0);
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 0).unwrap();
        for (d, v) in dec.iter().zip(&r) {
            let expect = if v.is_sign_negative() { -sigma } else { sigma };
            assert_eq!(*d, expect, "value {v}");
        }
    }

    #[test]
    fn lost_head_decodes_zero() {
        let s = SchemeId::SignMagnitude;
        let r = row();
        let enc = s.encode(&r, 0);
        let dec = s
            .decode(
                &enc.view_with_depths(&[0, 2, 1, 0, 2, 2, 2, 2]),
                &enc.meta,
                0,
            )
            .unwrap();
        assert_eq!(dec[0], 0.0);
        assert_eq!(dec[1].to_bits(), r[1].to_bits());
        assert_eq!(dec[2], enc.meta.scale); // positive head-only
        assert_eq!(dec[3], 0.0);
    }

    #[test]
    fn empty_row() {
        let s = SchemeId::SignMagnitude;
        let enc = s.encode(&[], 0);
        assert_eq!(enc.n, 0);
        let dec = s.decode(&enc.full_view(), &enc.meta, 0).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn bad_original_len_rejected() {
        let s = SchemeId::SignMagnitude;
        let enc = s.encode(&row(), 0);
        let bad = RowMeta {
            original_len: 3,
            scale: 1.0,
        };
        assert!(matches!(
            s.decode(&enc.full_view(), &bad, 0),
            Err(DecodeError::BadOriginalLen { .. })
        ));
    }

    #[test]
    fn head_only_bias_is_real() {
        // Document the known flaw: ±σ decode is biased for |v| far from σ.
        let s = SchemeId::SignMagnitude;
        let r = vec![10.0f32, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
        let enc = s.encode(&r, 0);
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 0).unwrap();
        // The large coordinate collapses to +σ, a gross underestimate.
        assert!(dec[0] < 0.5 * r[0]);
    }

    proptest! {
        #[test]
        fn roundtrip_exact_for_any_row(
            r in proptest::collection::vec(-1.0e6f32..1.0e6, 0..128),
            seed in any::<u64>()
        ) {
            let s = SchemeId::SignMagnitude;
            let enc = s.encode(&r, seed);
            let dec = s.decode(&enc.full_view(), &enc.meta, seed).unwrap();
            prop_assert_eq!(dec.len(), r.len());
            for (d, v) in dec.iter().zip(&r) {
                prop_assert_eq!(d.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn heads_only_magnitude_is_sigma(
            r in proptest::collection::vec(-100.0f32..100.0, 1..64)
        ) {
            let s = SchemeId::SignMagnitude;
            let enc = s.encode(&r, 0);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 0).unwrap();
            for d in dec {
                prop_assert!((d.abs() - enc.meta.scale).abs() < 1e-6);
            }
        }
    }
}
