//! Decode-entry mutation outcome table: what `TrimmablePipeline::decode`
//! returns for a message one payload byte away from valid.
//!
//! An RHT pipeline (rows of 1024 coordinates, MTU 1500) encodes a
//! 2 500-coordinate blob: three rows, the last one short and padded. Every
//! payload byte of each metadata frame, and every section byte of each row's
//! first data frame, is XORed with `0x01`, `0x80` and `0xFF`. The frame is
//! resealed so that its checksums hold, a metadata frame is parsed with
//! `RowMetaPacket::parse_frame`, and the message is decoded with the mutated
//! frame in place of the original. Each outcome — the error, or an FNV-1a of
//! the decoded coordinates' bits — is one line of a log whose FNV-1a is the
//! recorded digest.
//!
//! The digest was recorded before the scheme trait objects were folded into
//! `SchemeId`, so it pins every decoded bit and every error of the entry
//! point across that change. Nothing may panic: a panic is reported with the
//! frame, the byte and the mask that caused it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline, TxMessage};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::fnv1a;
use trimgrad_wire::ipv4::{DSCP_BULK, DSCP_TRIMMED};
use trimgrad_wire::meta::RowMetaPacket;
use trimgrad_wire::packet::{GradPacket, NetAddrs, STACK_OVERHEAD};
use trimgrad_wire::stack::{reseal, PAYLOAD_START};

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];
const EPOCH: u32 = 3;
const MSG_ID: u32 = 7;

/// FNV-1a of the outcome log, recorded before `SchemeId` became the scheme.
const OUTCOME_DIGEST: u64 = 0x3610_d1e1_f229_cba9;

fn pipeline_and_message() -> (TrimmablePipeline, TxMessage) {
    let cfg = PipelineConfig::builder()
        .scheme(SchemeId::RhtOneBit)
        .row_len(1024)
        .mtu(1500)
        .build();
    let pipe = TrimmablePipeline::new(cfg);
    let mut rng = Xoshiro256StarStar::new(0xDEC0);
    let blob: Vec<f32> = (0..2500).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
    let tx = pipe.encode(&blob, EPOCH, MSG_ID, 1, 2);
    assert_eq!(tx.metas.len(), 3, "three rows, the last one padded");
    (pipe, tx)
}

/// The decode outcome: the error, or an FNV-1a of the decoded bits.
fn decode_outcome(
    pipe: &TrimmablePipeline,
    packets: &[GradPacket],
    metas: &[RowMetaPacket],
) -> String {
    match pipe.decode(packets, metas, EPOCH, MSG_ID) {
        Ok(coords) => {
            let bytes: Vec<u8> = coords
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            format!("Ok({}, {:016x})", coords.len(), fnv1a(&bytes))
        }
        Err(e) => format!("Err({e:?})"),
    }
}

/// `frame` with byte `at` XORed with `mask` and its checksums resealed.
fn mutated(frame: &[u8], at: usize, mask: u8, dscp: u8) -> Vec<u8> {
    let mut bad = frame.to_vec();
    bad[at] ^= mask;
    reseal(&mut bad, dscp);
    bad
}

/// The outcome log and the mutations that panicked.
fn outcome_log() -> (String, Vec<String>) {
    let (pipe, tx) = pipeline_and_message();
    let net = NetAddrs::between_hosts(1, 2);
    let mut log = String::new();
    let mut panics = Vec::new();
    let mut record = |log: &mut String, name: String, outcome: &dyn Fn() -> String| {
        let line = catch_unwind(AssertUnwindSafe(outcome)).unwrap_or_else(|_| {
            panics.push(name.clone());
            "PANIC".to_string()
        });
        let _ = writeln!(log, "{name}: {line}");
    };
    record(&mut log, "valid".into(), &|| {
        decode_outcome(&pipe, &tx.packets, &tx.metas)
    });
    for row in 0..tx.metas.len() {
        let frame = tx.metas[row].build_frame(&net);
        for at in PAYLOAD_START..frame.len() {
            for mask in MASKS {
                let bad = mutated(&frame, at, mask, DSCP_TRIMMED);
                record(&mut log, format!("meta {row} {at} {mask:#04x}"), &|| {
                    match RowMetaPacket::parse_frame(&bad) {
                        Ok(meta) => {
                            let mut metas = tx.metas.clone();
                            metas[row] = meta;
                            decode_outcome(&pipe, &tx.packets, &metas)
                        }
                        Err(e) => format!("parse Err({e:?})"),
                    }
                });
            }
        }
    }
    for row in 0..tx.metas.len() as u32 {
        let first = tx
            .packets
            .iter()
            .position(|p| p.quick_fields().expect("a fresh frame parses").row_id == row)
            .expect("every row has a data frame");
        let frame = tx.packets[first].as_bytes();
        for at in STACK_OVERHEAD..frame.len() {
            for mask in MASKS {
                let bad = GradPacket::from_frame(mutated(frame, at, mask, DSCP_BULK));
                record(&mut log, format!("data {row} {at} {mask:#04x}"), &|| {
                    let mut packets = tx.packets.clone();
                    packets[first] = bad.clone();
                    decode_outcome(&pipe, &packets, &tx.metas)
                });
            }
        }
    }
    (log, panics)
}

#[test]
fn decode_entry_mutations_keep_their_recorded_outcomes() {
    let (log, panics) = outcome_log();
    assert!(panics.is_empty(), "mutations panicked: {panics:?}");
    let digest = fnv1a(log.as_bytes());
    assert_eq!(
        digest,
        OUTCOME_DIGEST,
        "outcome digest {digest:#018x} differs from the recorded one over {} outcomes",
        log.lines().count()
    );
}
