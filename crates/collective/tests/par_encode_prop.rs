//! Bit-identity of the row fan-out against the serial row-by-row encoding.
//!
//! [`MessageCodec::encode_message`] splits a blob into rows by fixed index
//! and derives each row's seed from `(epoch, msg_id, row_id)`, never from
//! execution order — so at every pool width the encoded rows must be
//! *byte-identical* to encoding the rows one after another. Two things are
//! checked against that serial reference, which is built from the public
//! `row_range` / `row_seed` / `scheme().encode` only:
//!
//! * `encode_message` itself, at the process's width — CI runs the suite at
//!   `TRIMGRAD_THREADS` 1 and 4, which covers the global-pool path;
//! * the same public row closure through `WorkerPool::new(w).map_striped`
//!   for `w ∈ 1..=8`, so every explicit width is covered in one test run.
//!
//! That the per-row `encode` matches the per-coordinate reference encoder is
//! `crates/quant/tests/encode_golden.rs`'s half of the contract.

use proptest::prelude::*;
use trimgrad_collective::chunk::MessageCodec;
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

/// Flattens an encoding to raw part bytes + meta bits for exact comparison.
fn fingerprint(rows: &[EncodedRow]) -> Vec<Vec<u8>> {
    rows.iter()
        .map(|r| {
            let mut bytes = Vec::new();
            for part in &r.parts {
                bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
                bytes.extend_from_slice(part.as_bytes());
            }
            bytes.extend_from_slice(&r.meta.scale.to_bits().to_le_bytes());
            bytes.extend_from_slice(&(r.meta.original_len as u64).to_le_bytes());
            bytes.extend_from_slice(&(r.n as u64).to_le_bytes());
            bytes
        })
        .collect()
}

/// `Err(what diverged)` unless `encode_message` and the row closure at every
/// explicit width reproduce the serial row-by-row encoding.
fn check_fan_out(codec: &MessageCodec, b: &[f32], epoch: u32, msg_id: u32) -> Result<(), String> {
    let encode_row = |row_id: usize| {
        codec.scheme().encode(
            &b[codec.row_range(b.len(), row_id)],
            codec.row_seed(epoch, msg_id, row_id as u32),
        )
    };
    let rows = codec.rows_for(b.len());
    let reference = fingerprint(&(0..rows).map(encode_row).collect::<Vec<_>>());
    if fingerprint(&codec.encode_message(b, epoch, msg_id)) != reference {
        return Err(format!(
            "encode_message diverged at the process's width {}",
            WorkerPool::global().threads()
        ));
    }
    for width in 1..=8 {
        if fingerprint(&WorkerPool::new(width).map_striped(rows, encode_row)) != reference {
            return Err(format!("map_striped diverged at width {width}"));
        }
    }
    Ok(())
}

#[test]
fn fan_out_matches_serial_rows_on_the_pinned_geometries() {
    // (row_len, blob_len): 64+1 → rows of 64 and 1; 2·4096−1 → rows of 4096
    // and 4095; 9.5 rows of 256 → a ragged final row under every width.
    let geometries = [
        (64usize, 65usize),
        (4096, 2 * 4096 - 1),
        (256, 256 * 9 + 128),
    ];
    for scheme in SchemeId::ALL {
        for (row_len, blob_len) in geometries {
            let codec = MessageCodec::with_row_len(scheme, 0xC0DEC, row_len);
            check_fan_out(&codec, &blob(blob_len, 77), 3, 9)
                .unwrap_or_else(|e| panic!("{scheme} row_len={row_len}: {e}"));
        }
    }
    // One paper-sized 32768 row plus a ragged tail, rht only (the slowest
    // scheme; the small geometries above cover all of them).
    let codec = MessageCodec::new(SchemeId::RhtOneBit, 5);
    check_fan_out(&codec, &blob((1 << 15) + 1000, 21), 0, 0)
        .unwrap_or_else(|e| panic!("rht 32768: {e}"));
}

proptest! {
    #[test]
    fn fan_out_matches_serial_rows_for_random_shapes(
        scheme in proptest::sample::select(SchemeId::ALL.to_vec()),
        len in 0usize..3000,
        row_len in 1usize..600,
        seed in any::<u64>()
    ) {
        let codec = MessageCodec::with_row_len(scheme, seed, row_len);
        prop_assert_eq!(check_fan_out(&codec, &blob(len, seed ^ 0x5EED), 1, 2), Ok(()));
    }
}
