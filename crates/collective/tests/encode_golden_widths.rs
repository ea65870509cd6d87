//! Thread-width golden tests: `encode_message_pooled` at pool widths 1 and 4
//! must match the scalar reference (`encode_scalar`, the retained
//! per-coordinate loops) byte-for-byte, for every scheme and the row lengths
//! the quant-level golden tests pin ({1, 64, 4095, 32768}).
//!
//! The global pool's width is fixed per process, so widths are exercised
//! through explicit `WorkerPool::new(k)` pools here.

use trimgrad_collective::MessageCodec;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_par::WorkerPool;
use trimgrad_quant::scheme::EncodedRow;
use trimgrad_quant::SchemeId;

fn blob(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| {
            if i % 11 == 0 {
                0.0
            } else {
                rng.next_f32_range(-1.0, 1.0)
            }
        })
        .collect()
}

fn assert_rows_identical(pooled: &[EncodedRow], reference: &[EncodedRow], ctx: &str) {
    assert_eq!(pooled.len(), reference.len(), "{ctx}: row count");
    for (row_id, (p, r)) in pooled.iter().zip(reference).enumerate() {
        assert_eq!(p.n, r.n, "{ctx} row {row_id}: n");
        assert_eq!(
            p.meta.scale.to_bits(),
            r.meta.scale.to_bits(),
            "{ctx} row {row_id}: scale bits"
        );
        assert_eq!(
            p.meta.original_len, r.meta.original_len,
            "{ctx} row {row_id}: original_len"
        );
        assert_eq!(p.parts.len(), r.parts.len(), "{ctx} row {row_id}: parts");
        for (k, (pp, rp)) in p.parts.iter().zip(&r.parts).enumerate() {
            assert_eq!(pp.len(), rp.len(), "{ctx} row {row_id} part {k}: bits");
            assert_eq!(
                pp.as_bytes(),
                rp.as_bytes(),
                "{ctx} row {row_id} part {k}: bytes"
            );
        }
    }
}

/// Encodes each row with the scalar reference, serially — the ground truth
/// the pooled vectorized path must reproduce exactly.
fn scalar_reference(
    codec: &MessageCodec,
    blob: &[f32],
    epoch: u32,
    msg_id: u32,
) -> Vec<EncodedRow> {
    blob.chunks(codec.row_len())
        .enumerate()
        .map(|(row_id, row)| {
            codec
                .scheme()
                .encode_scalar(row, codec.row_seed(epoch, msg_id, row_id as u32))
        })
        .collect()
}

#[test]
fn pooled_encode_matches_scalar_reference_at_widths_1_and_4() {
    // (row_len, blob_len) pairs chosen so the pinned row lengths all appear:
    // 64+1 → rows of 64 and 1; 4096 over 2*4096-1 → rows of 4096 and 4095.
    let geometries = [(64usize, 65usize), (4096, 2 * 4096 - 1)];
    for scheme_id in SchemeId::ALL {
        for &(row_len, blob_len) in &geometries {
            let codec = MessageCodec::with_row_len(scheme_id, 0xC0DEC, row_len);
            let b = blob(blob_len, 77);
            let reference = scalar_reference(&codec, &b, 3, 9);
            for width in [1usize, 4] {
                let pooled = codec.encode_message_pooled(&b, 3, 9, &WorkerPool::new(width));
                assert_rows_identical(
                    &pooled,
                    &reference,
                    &format!("{scheme_id} row_len={row_len} width={width}"),
                );
            }
        }
    }
}

#[test]
fn pooled_encode_matches_scalar_reference_at_paper_row_len() {
    // One full-size 32768 row plus a ragged tail, rht only (the slowest
    // scheme; the small-geometry test above covers all schemes).
    let codec = MessageCodec::new(SchemeId::RhtOneBit, 5);
    let b = blob((1 << 15) + 1000, 21);
    let reference = scalar_reference(&codec, &b, 0, 0);
    for width in [1usize, 4] {
        let pooled = codec.encode_message_pooled(&b, 0, 0, &WorkerPool::new(width));
        assert_rows_identical(&pooled, &reference, &format!("rht 32768 width={width}"));
    }
}
