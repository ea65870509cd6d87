//! Bit-identity of the row fan-out against the serial row-by-row encoding
//! (and, at the end of the file, decoding).
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
//!
//! The send path is checked against the plane path: the frames
//! `packetize_message` packs straight from each row's stage must be those
//! `packetize_row` cuts from `encode_message`'s rows, byte for byte, at the
//! process's width and through the public staged-row closure at every
//! width `1..=8` — at IP MTUs 101, 1499 and 9000, where chunks start off
//! the groups of eight coordinates the packers work in.
//!
//! The receive half is checked the same way: `decode_assembled_into` over
//! the frames each row kept, at the process's width, and the public
//! in-place row closure (`SchemeId::decode_runs` of a plane view under the
//! codec's row seed, on a row's own slice of one output) at widths 1, 2 and
//! 3, against the same frames reassembled into planes and decoded one row
//! after another into fresh vectors.

use proptest::prelude::*;
use std::borrow::Cow;
use trimgrad_collective::chunk::{MessageCodec, DEFAULT_ROW_LEN};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_par::WorkerPool;
use trimgrad_quant::scheme::{EncodedRow, RowScratch};
use trimgrad_quant::SchemeId;
use trimgrad_trace::Tracer;
use trimgrad_wire::packet::NetAddrs;
use trimgrad_wire::packetize::{
    coords_per_packet, packetize_row, packetize_with, PacketizeConfig, PacketizedRow,
};
use trimgrad_wire::reassemble::{RowAssembler, RowFrames};

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
        codec.scheme_id().encode(
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
        let striped = WorkerPool::new(width).map_striped(0..rows, |row_id, _| encode_row(row_id));
        if fingerprint(&striped) != reference {
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
    let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 5, DEFAULT_ROW_LEN);
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

/// IP MTUs whose chunks start at multiples of 11, 359–360 and 2235
/// coordinates: most of them inside a group of eight.
const MTUS: [usize; 3] = [101, 1499, 9000];

/// Every frame's bytes and every row's metadata, in send order.
fn frames(rows: &[PacketizedRow]) -> Vec<(Vec<Vec<u8>>, Vec<u8>)> {
    let net = NetAddrs::between_hosts(1, 2);
    rows.iter()
        .map(|pr| {
            let data = pr.packets.iter().map(|p| p.as_bytes().to_vec()).collect();
            (data, pr.meta.build_frame(&net))
        })
        .collect()
}

/// `Err(what diverged)` unless `packetize_message` and the staged-row
/// closure at every explicit width send the frames `packetize_row` cuts
/// from the encoded rows.
fn check_packetize(codec: &MessageCodec, b: &[f32], mtu: usize) -> Result<(), String> {
    let (epoch, msg_id) = (3, 9);
    let cfg = PacketizeConfig {
        mtu,
        net: NetAddrs::between_hosts(1, 2),
        msg_id,
        row_id: 0,
        epoch,
    };
    let row_cfg = |row_id: usize| PacketizeConfig {
        row_id: row_id as u32,
        ..cfg
    };
    let planes = codec.encode_message(b, epoch, msg_id);
    let reference: Vec<PacketizedRow> = planes
        .iter()
        .enumerate()
        .map(|(row_id, enc)| packetize_row(enc, &row_cfg(row_id)))
        .collect();
    let reference = frames(&reference);
    let mut sent = Vec::new();
    codec.packetize_message(b, &cfg, &Tracer::disabled(), 0, |pr| sent.push(pr));
    if frames(&sent) != reference {
        return Err(format!(
            "packetize_message diverged at the process's width {}",
            WorkerPool::global().threads()
        ));
    }
    let scheme = codec.scheme_id();
    for width in 1..=8 {
        let rows = WorkerPool::new(width).map_striped_with(
            0..codec.rows_for(b.len()),
            RowScratch::default,
            |scratch, row_id, _| {
                let row = &b[codec.row_range(b.len(), row_id)];
                let seed = codec.row_seed(epoch, msg_id, row_id as u32);
                let staged = scheme.stage(row, seed, scratch);
                packetize_with(
                    scheme,
                    staged.n(),
                    staged.meta(),
                    &row_cfg(row_id),
                    |k, c, dst| {
                        staged.pack_range(k, c, dst);
                    },
                )
            },
        );
        if frames(&rows) != reference {
            return Err(format!("staged rows diverged at width {width}"));
        }
    }
    Ok(())
}

#[test]
fn message_frames_match_plane_frames_at_every_mtu() {
    let geometries = [
        (64usize, 65usize),
        (4096, 2 * 4096 - 1),
        (256, 256 * 9 + 128),
    ];
    for scheme in SchemeId::ALL {
        for (row_len, blob_len) in geometries {
            for mtu in MTUS {
                let codec = MessageCodec::with_row_len(scheme, 0xC0DEC, row_len);
                check_packetize(&codec, &blob(blob_len, 79), mtu)
                    .unwrap_or_else(|e| panic!("{scheme} row_len={row_len} mtu={mtu}: {e}"));
            }
        }
    }
}

proptest! {
    #[test]
    fn message_frames_match_plane_frames_for_random_shapes(
        scheme in proptest::sample::select(SchemeId::ALL.to_vec()),
        len in 0usize..3000,
        row_len in 1usize..1200,
        mtu in proptest::sample::select(MTUS.to_vec()),
        seed in any::<u64>()
    ) {
        let codec = MessageCodec::with_row_len(scheme, seed, row_len);
        prop_assert_eq!(check_packetize(&codec, &blob(len, seed ^ 0xF4A3), mtu), Ok(()));
    }
}

/// Sends `b` through `packetize_message`, cuts every third frame to its
/// heads and loses every seventh, and hands what is left to each row's
/// frames and, as the oracle, reassembles it into planes.
fn assemble(
    codec: &MessageCodec,
    b: &[f32],
    epoch: u32,
    msg_id: u32,
) -> (Vec<RowFrames<'static>>, Vec<RowAssembler>) {
    let cfg = PacketizeConfig {
        mtu: 1500,
        net: NetAddrs::between_hosts(1, 2),
        msg_id,
        row_id: 0,
        epoch,
    };
    let per_packet = coords_per_packet(codec.scheme_id().part_bits(), cfg.mtu).expect("fits");
    let (mut rows, mut planes) = (Vec::new(), Vec::new());
    codec.packetize_message(b, &cfg, &Tracer::disabled(), 0, |pr| {
        let mut row = RowFrames::from_meta(&pr.meta, per_packet);
        let mut asm = RowAssembler::from_meta(&pr.meta);
        for (i, mut frame) in pr.packets.into_iter().enumerate() {
            if i % 3 == 1 {
                frame.trim_to_depth(1).expect("data frames trim");
            }
            if i % 7 != 6 {
                asm.ingest(&frame).expect("own frame");
                row.ingest(Cow::Owned(frame)).expect("own frame");
            }
        }
        rows.push(row);
        planes.push(asm);
    });
    (rows, planes)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `Err(what diverged)` unless `decode_assembled_into` and the in-place row
/// closure at widths 1..=3 reproduce rows decoded one after another.
fn check_decode_fan_out(codec: &MessageCodec, b: &[f32]) -> Result<(), String> {
    let (epoch, msg_id) = (4, 6);
    let (frames, rows) = assemble(codec, b, epoch, msg_id);
    let meta = |asm: &RowAssembler| *asm.meta().expect("assembled from its meta");
    let mut reference = Vec::new();
    for (row_id, asm) in rows.iter().enumerate() {
        let row = codec.decode_row(&asm.partial_row(), &meta(asm), epoch, msg_id, row_id as u32);
        reference.extend(row.map_err(|e| format!("row {row_id}: {e}"))?);
    }
    let mut assembled = vec![f32::from_bits(0xFFC0_DEAD); reference.len()];
    codec
        .decode_assembled_into(
            &frames,
            epoch,
            msg_id,
            &Tracer::disabled(),
            0,
            &mut assembled,
        )
        .map_err(|e| format!("decode_assembled_into: {e}"))?;
    if bits(&assembled) != bits(&reference) {
        return Err(format!(
            "decode_assembled_into diverged at the process's width {}",
            WorkerPool::global().threads()
        ));
    }
    for width in 1..=3 {
        // Garbage first: a coordinate no worker wrote would show.
        let mut out = vec![f32::from_bits(0xFFC0_DEAD); reference.len()];
        let mut rest = out.as_mut_slice();
        let slices: Vec<&mut [f32]> = rows
            .iter()
            .map(|asm| {
                let (row, tail) = std::mem::take(&mut rest).split_at_mut(meta(asm).original_len);
                rest = tail;
                row
            })
            .collect();
        let items = rows.iter().zip(slices);
        let results = WorkerPool::new(width).map_striped(items, |row_id, (asm, dst)| {
            let view = asm.partial_row();
            let seed = codec.row_seed(epoch, msg_id, row_id as u32);
            codec
                .scheme_id()
                .decode_runs(&view, asm.n(), &meta(asm), seed, dst)
        });
        if results.iter().any(Result::is_err) || bits(&out) != bits(&reference) {
            return Err(format!("in-place decode diverged at width {width}"));
        }
    }
    Ok(())
}

#[test]
fn decode_fan_out_matches_serial_rows() {
    // 9.5 rows of 256 and 2.3 rows of 1024: ragged (for the RHT schemes,
    // padded) last rows, several frames per row at MTU 1500.
    for scheme in SchemeId::ALL {
        for (row_len, blob_len) in [(256usize, 256 * 9 + 128), (1024, 2400)] {
            let codec = MessageCodec::with_row_len(scheme, 0xC0DEC, row_len);
            check_decode_fan_out(&codec, &blob(blob_len, 78))
                .unwrap_or_else(|e| panic!("{scheme} row_len={row_len}: {e}"));
        }
    }
}
