//! The contract of `SchemeId::{encode, decode}`, enforced across every
//! scheme with one generic property suite: exactness untrimmed, graceful
//! degradation under any per-coordinate depths, determinism, and
//! monotone error in depth.

use proptest::prelude::*;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::error::nmse;
use trimgrad_quant::scheme::{DecodeError, RowMeta};
use trimgrad_quant::SchemeId;

fn row(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..len).map(|_| rng.next_f32_range(-5.0, 5.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full-view decode reproduces the row (bit-exactly for scalar schemes,
    /// within rotation rounding for RHT schemes).
    #[test]
    fn untrimmed_decode_is_faithful(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..600,
        seed in any::<u64>()
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let data = row(len, seed);
        let enc = id.encode(&data, seed);
        let dec = id.decode(&enc.full_view(), &enc.meta, seed).expect("valid");
        prop_assert_eq!(dec.len(), len);
        match id {
            SchemeId::RhtOneBit | SchemeId::MultiLevelRht => {
                for (d, v) in dec.iter().zip(&data) {
                    prop_assert!((d - v).abs() <= 1e-3 + 1e-4 * v.abs());
                }
            }
            _ => {
                for (d, v) in dec.iter().zip(&data) {
                    prop_assert_eq!(d.to_bits(), v.to_bits());
                }
            }
        }
    }

    /// Any per-coordinate depths decode without panic,
    /// with finite values and the right length.
    #[test]
    fn arbitrary_availability_never_panics(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..400,
        seed in any::<u64>(),
        fates in proptest::collection::vec(0usize..=3, 1..50)
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let n_parts = id.part_bits().len();
        let data = row(len, seed);
        let enc = id.encode(&data, seed);
        let depths: Vec<usize> = (0..enc.n)
            .map(|i| fates[i % fates.len()].min(n_parts))
            .collect();
        let dec = id
            .decode(&enc.view_with_depths(&depths), &enc.meta, seed)
            .expect("any depths must decode");
        prop_assert_eq!(dec.len(), len);
        for d in dec {
            prop_assert!(d.is_finite());
        }
    }

    /// Determinism: encoding and decoding are pure functions of their
    /// arguments.
    #[test]
    fn encode_decode_deterministic(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..300,
        seed in any::<u64>()
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let data = row(len, seed);
        let a = id.encode(&data, seed);
        let b = id.encode(&data, seed);
        prop_assert_eq!(&a.parts, &b.parts);
        prop_assert_eq!(a.meta.scale.to_bits(), b.meta.scale.to_bits());
        let da = id.decode(&a.trimmed_view(1), &a.meta, seed).expect("valid");
        let db = id.decode(&b.trimmed_view(1), &b.meta, seed).expect("valid");
        prop_assert_eq!(da, db);
    }

    /// More surviving parts never increase the reconstruction error (checked
    /// on uniform trims, where the claim is exact rather than statistical).
    #[test]
    fn error_is_monotone_in_depth(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 8usize..400,
        seed in any::<u64>()
    ) {
        let id = SchemeId::ALL[scheme_idx];
        let n_parts = id.part_bits().len();
        let data = row(len, seed);
        let enc = id.encode(&data, seed);
        let mut last = f64::INFINITY;
        for depth in 1..=n_parts {
            let dec = id
                .decode(&enc.trimmed_view(depth), &enc.meta, seed)
                .expect("valid");
            let e = nmse(&dec, &data);
            prop_assert!(
                e <= last + 1e-6,
                "{id}: depth {depth} error {e} worse than {last}"
            );
            last = e;
        }
    }
}

/// The views `decode_runs` is checked on, as per-coordinate depths over a
/// `k`-part row of `n` encoded coordinates. Packets are 11 coordinates, so
/// runs begin and end inside a group of eight.
fn depth_views(n: usize, k: usize) -> Vec<(&'static str, Vec<usize>)> {
    let packets = |fate: &dyn Fn(usize) -> usize| (0..n).map(|i| fate(i / 11)).collect();
    vec![
        ("full", vec![k; n]),
        ("heads only", vec![1; n]),
        ("mixed depths", packets(&|p| 1 + p % k)),
        ("depth-0 gaps", packets(&|p| [k, 0, 1, 0][p % 4])),
    ]
}

/// `decode_runs` writes every coordinate of its slice — garbage left in it
/// by an earlier row never survives, not even where a packet was lost — and
/// `decode` is that same decode over a fresh vector. Lengths cover the empty
/// row, a ragged group, a padded RHT row (100 → 128, 1000 → 1024) and a
/// power-of-two row decoded in place.
#[test]
fn decode_runs_overwrites_every_coordinate() {
    for id in SchemeId::ALL {
        for len in [0usize, 1, 7, 64, 100, 1000, 1024] {
            let data = row(len, len as u64);
            let enc = id.encode(&data, 5);
            for (name, depths) in depth_views(enc.n, id.part_bits().len()) {
                let view = enc.view_with_depths(&depths);
                let fresh = id.decode(&view, &enc.meta, 5).expect("valid");
                assert_eq!(fresh.len(), len);
                let mut reused = vec![f32::from_bits(0xFFC0_DEAD); len];
                id.decode_runs(&view, enc.n, &enc.meta, 5, &mut reused)
                    .expect("valid");
                for (i, (a, b)) in reused.iter().zip(&fresh).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{id} len={len} {name}: coord {i}");
                }
            }
        }
    }
}

/// A slice of the wrong length is refused, not indexed. The run decoder
/// checks in one order: the metadata against the encoded length, then the
/// slice, then the geometry of the source — here a view of a scheme with
/// other parts over the same encoded length.
#[test]
fn decode_runs_checks_metadata_then_output_then_geometry() {
    for id in SchemeId::ALL {
        let data = row(100, 3);
        let enc = id.encode(&data, 5);
        for wrong in [0usize, 99, 101, enc.n + 1] {
            let mut out = vec![0.0; wrong];
            assert_eq!(
                id.decode_runs(&enc.full_view(), enc.n, &enc.meta, 5, &mut out),
                Err(DecodeError::OutputLenMismatch {
                    expected: 100,
                    got: wrong
                }),
                "{id}"
            );
        }
        let mut out = vec![0.0; 100];
        let bad_meta = RowMeta {
            original_len: 300,
            ..enc.meta
        };
        let bad_len = Err(DecodeError::BadOriginalLen {
            n: enc.n,
            original_len: 300,
        });
        assert_eq!(
            id.decode_runs(&enc.full_view(), enc.n, &bad_meta, 5, &mut out),
            bad_len,
            "{id}"
        );
        let other = match id {
            SchemeId::SignMagnitude => SchemeId::Stochastic,
            SchemeId::Stochastic | SchemeId::SubtractiveDither => SchemeId::SignMagnitude,
            SchemeId::RhtOneBit => SchemeId::MultiLevelRht,
            SchemeId::MultiLevelRht => SchemeId::RhtOneBit,
        };
        let foreign = other.encode(&data, 5);
        let view = foreign.full_view();
        assert_eq!(foreign.n, enc.n, "{id}: same encoded length");
        let geometry = other.check_part_bits(id.part_bits(), enc.n);
        assert!(geometry.is_err(), "{id}: {other} has other parts");
        assert_eq!(
            id.decode_runs(&view, enc.n, &enc.meta, 5, &mut out),
            geometry,
            "{id}"
        );
        assert_eq!(
            id.decode_runs(&view, enc.n, &enc.meta, 5, &mut out[..7]),
            Err(DecodeError::OutputLenMismatch {
                expected: 100,
                got: 7
            }),
            "{id}"
        );
        assert_eq!(
            id.decode_runs(&view, enc.n, &bad_meta, 5, &mut out[..7]),
            bad_len,
            "{id}"
        );
    }
}
