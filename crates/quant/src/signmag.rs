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

use crate::bitpack::{pack_low_bits_into, pack_signs_into};
use crate::kernels;
use crate::scheme::Run;

/// The range packer of the sign / 31-bit layout, which the RHT 1-bit scheme
/// shares: part `part` of `values` into `dst`.
pub(crate) fn pack(part: usize, values: &[f32], dst: &mut [u8]) {
    match part {
        0 => pack_signs_into(values, dst),
        _ => pack_low_bits_into::<31>(values, dst),
    }
}

/// The run decoder of the sign / 31-bit layout: `±scale` from a head, the
/// float itself from both parts.
pub(crate) fn decode_run(run: &Run<'_>, scale: f32, dst: &mut [f32]) {
    let ([signs, tails, ..], start) = (run.parts, run.start());
    match run.depth {
        0 => dst.fill(0.0),
        1 => kernels::decode_signs_scaled(signs, start, scale, dst),
        _ => kernels::decode_sign31(signs, tails, start, dst),
    }
}

#[cfg(test)]
mod tests {
    use crate::scheme::{DecodeError, RowMeta, SchemeId};
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
