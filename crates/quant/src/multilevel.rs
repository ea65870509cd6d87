//! Multi-level trimmable RHT encoding (paper §5.1, "Multi-Level Trimming").
//!
//! The paper proposes letting switches pick between several trimming depths —
//! e.g. trim a packet to 25% (≈8 bits per 32-bit coordinate) under mild
//! congestion or to ~3% (1 bit) under severe congestion — which requires an
//! encoding decodable from *any prefix of its parts*.
//!
//! This scheme splits each RHT-rotated float into the three natural IEEE-754
//! fields, in decreasing order of importance:
//!
//! | Part | Bits | Contents | Decode when it is the deepest available |
//! |---|---|---|---|
//! | 0 (head) | 1 | sign | `f·sign` (the DRIVE estimate) |
//! | 1 | 8 | biased exponent | `±2^(e−127)·1.5` (mantissa midpoint) |
//! | 2 | 23 | mantissa | exact rotated float |
//!
//! The midpoint fill is the conditional mean: for a mantissa uniform on
//! `[1, 2)` the expected significand is 1.5, so the sign+exponent decode is
//! (conditionally) unbiased within each binade. A switch can thus trim
//! gradient packets to 1-bit heads (3% of payload) or 9-bit heads (28%)
//! depending on queue pressure — close to the paper's 3% / 25% example.

use crate::bitpack::{pack_low_bits_into, pack_signs_into};
use crate::kernels;
use crate::scheme::Run;

/// Mantissa midpoint: the expected significand fraction, `0b100…0` (2²²).
const MANTISSA_MIDPOINT: u32 = 1 << 22;

/// The range packer: part `part` — sign, exponent or mantissa — of the
/// rotated `values` into `dst`. The row stage is
/// [`crate::rht1bit::stage`]'s rotation.
pub(crate) fn pack(part: usize, values: &[f32], dst: &mut [u8]) {
    match part {
        0 => pack_signs_into(values, dst),
        1 => kernels::pack_exps_into(values, dst),
        _ => pack_low_bits_into::<23>(values, dst),
    }
}

/// The run decoder, one level per depth (see the table above).
pub(crate) fn decode_run(run: &Run<'_>, scale: f32, dst: &mut [f32]) {
    let ([signs, exps, mants, ..], start) = (run.parts, run.start());
    match run.depth {
        0 => dst.fill(0.0),
        1 => kernels::decode_signs_scaled(signs, start, scale, dst),
        2 => kernels::decode_sign_exp(signs, exps, start, MANTISSA_MIDPOINT, dst),
        _ => kernels::decode_sign_exp_mant(signs, exps, mants, start, dst),
    }
}

#[cfg(test)]
mod tests {
    use crate::scheme::SchemeId;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;

    fn gaussian_row(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n)
            .map(|_| (0..12).map(|_| rng.next_f32()).sum::<f32>() - 6.0)
            .collect()
    }

    fn l2_err(dec: &[f32], truth: &[f32]) -> f64 {
        dec.iter()
            .zip(truth)
            .map(|(d, v)| (f64::from(*d) - f64::from(*v)).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn geometry_is_1_8_23() {
        let s = SchemeId::MultiLevelRht;
        assert_eq!(s.part_bits(), &[1, 8, 23]);
        assert_eq!(s.part_bits().iter().sum::<u32>(), 32);
        assert_eq!(s.part_bits()[0], 1);
    }

    #[test]
    fn untrimmed_roundtrip_within_rounding() {
        let s = SchemeId::MultiLevelRht;
        let r = gaussian_row(200, 1);
        let enc = s.encode(&r, 77);
        let dec = s.decode(&enc.full_view(), &enc.meta, 77).unwrap();
        for (d, v) in dec.iter().zip(&r) {
            assert!((d - v).abs() < 1e-4 + 1e-5 * v.abs());
        }
    }

    #[test]
    fn error_strictly_improves_with_depth() {
        let s = SchemeId::MultiLevelRht;
        let r = gaussian_row(512, 2);
        let enc = s.encode(&r, 3);
        let e1 = l2_err(&s.decode(&enc.trimmed_view(1), &enc.meta, 3).unwrap(), &r);
        let e2 = l2_err(&s.decode(&enc.trimmed_view(2), &enc.meta, 3).unwrap(), &r);
        let e3 = l2_err(&s.decode(&enc.trimmed_view(3), &enc.meta, 3).unwrap(), &r);
        assert!(e3 < e2, "full ({e3}) must beat sign+exp ({e2})");
        assert!(e2 < e1, "sign+exp ({e2}) must beat sign-only ({e1})");
        // Sign+exponent keeps the value within its binade: relative l2 error
        // is bounded by the worst-case significand gap (|1.m − 1.5| < 0.5 →
        // ≤ 33% relative), plus rotation rounding.
        let norm = r.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>().sqrt();
        assert!(e2 / norm < 0.35, "sign+exp relative error {}", e2 / norm);
    }

    #[test]
    fn depth_one_matches_drive_decode() {
        // With only signs available this scheme must agree with RhtOneBit.
        let r = gaussian_row(128, 4);
        let ml = SchemeId::MultiLevelRht;
        let enc_ml = ml.encode(&r, 9);
        let dec_ml = ml.decode(&enc_ml.trimmed_view(1), &enc_ml.meta, 9).unwrap();
        let ob = SchemeId::RhtOneBit;
        let enc_ob = ob.encode(&r, 9);
        let dec_ob = ob.decode(&enc_ob.trimmed_view(1), &enc_ob.meta, 9).unwrap();
        for (a, b) in dec_ml.iter().zip(&dec_ob) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn per_coordinate_mixed_depths() {
        let s = SchemeId::MultiLevelRht;
        let r = gaussian_row(64, 5);
        let enc = s.encode(&r, 6);
        let depths: Vec<usize> = (0..enc.n).map(|i| i % 4).collect(); // includes 0 = lost
        let dec = s
            .decode(&enc.view_with_depths(&depths), &enc.meta, 6)
            .unwrap();
        assert_eq!(dec.len(), r.len());
        assert!(dec.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn zero_exponent_decodes_to_zero_at_depth_two() {
        // A zero coordinate has exp = 0; the sign+exp decode must not invent
        // a subnormal midpoint.
        let s = SchemeId::MultiLevelRht;
        let r = vec![0.0f32; 8]; // rotated row is all zeros
        let enc = s.encode(&r, 1);
        let dec = s.decode(&enc.trimmed_view(2), &enc.meta, 1).unwrap();
        for d in dec {
            assert_eq!(d, 0.0);
        }
    }

    #[test]
    fn empty_row() {
        let s = SchemeId::MultiLevelRht;
        let enc = s.encode(&[], 0);
        assert!(s.decode(&enc.full_view(), &enc.meta, 0).unwrap().is_empty());
    }

    #[test]
    fn trim_budget_matches_paper_levels() {
        // Heads-only keeps 1/32 ≈ 3% of payload; sign+exp keeps 9/32 ≈ 28%,
        // near the paper's "25% or 3%" example.
        let s = SchemeId::MultiLevelRht;
        let total: u32 = s.part_bits().iter().sum();
        assert_eq!(total, 32);
        let head_frac = f64::from(s.part_bits()[0]) / f64::from(total);
        let two_frac = f64::from(s.part_bits()[0] + s.part_bits()[1]) / f64::from(total);
        assert!(head_frac < 0.04);
        assert!((0.2..0.3).contains(&two_frac));
    }
}
