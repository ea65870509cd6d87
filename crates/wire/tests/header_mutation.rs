//! Header-mutation outcome table: what every receive path does with a frame
//! one header byte away from valid.
//!
//! Three valid frames — a data frame, the same frame trimmed to depth 1, and
//! a metadata frame — have every header byte (Ethernet, IPv4, UDP, and the
//! TrimGrad header or metadata payload) XORed with `0x01`, `0x80` and
//! `0xFF`. Each result is fed through `GradPacket::parse`, `quick_fields`,
//! `trim_to_depth`, `RowAssembler::ingest` and `RowMetaPacket::parse_frame`.
//! The outcomes — `Ok` or the `WireError`, whether a refused trim left the
//! bytes untouched, the bytes of an accepted trim, and whether a refused
//! ingest left the row untouched — fold into one FNV-1a digest.
//!
//! The digest was recorded before the frame stack was rewritten as one
//! writer, one reader and one reseal step, so it pins every error of the old
//! views. Nothing may panic: a panic is reported with the byte and mask that
//! caused it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::{scheme_for, SchemeId};
use trimgrad_telemetry::fnv1a;
use trimgrad_wire::meta::{RowMetaPacket, FRAME_LEN};
use trimgrad_wire::packet::{GradPacket, NetAddrs, STACK_OVERHEAD};
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad_wire::reassemble::RowAssembler;

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// FNV-1a of the outcome log, recorded before the stack rewrite.
const OUTCOME_DIGEST: u64 = 0x5353_8d5d_01df_ba11;

/// One line per receive path for `frame`.
fn outcomes(frame: &[u8], meta: &RowMetaPacket) -> String {
    let mut line = String::new();
    let pkt = GradPacket::from_frame(frame.to_vec());
    let _ = write!(line, "parse={:?}", pkt.parse().map(|_| ()));
    let _ = write!(line, " quick={:?}", pkt.quick_fields().map(|_| ()));
    let mut trimmed = pkt.clone();
    match trimmed.trim_to_depth(1) {
        Ok(()) => {
            let _ = write!(line, " trim=Ok({:016x})", fnv1a(trimmed.as_bytes()));
        }
        Err(e) => {
            let _ = write!(line, " trim=Err({e:?},untouched={})", trimmed == pkt);
        }
    }
    let mut asm = RowAssembler::from_meta(meta);
    match asm.ingest(&pkt) {
        Ok(()) => {
            let _ = write!(line, " ingest=Ok({})", asm.coords_received());
        }
        Err(e) => {
            let _ = write!(
                line,
                " ingest=Err({e:?},untouched={})",
                asm.coords_received() == 0
            );
        }
    }
    let _ = write!(line, " meta={:?}", RowMetaPacket::parse_frame(frame));
    line
}

/// The outcome log: one line per (frame, byte, mask), and the number of
/// mutations that panicked.
fn outcome_log() -> (String, usize) {
    let mut rng = Xoshiro256StarStar::new(0x7A11);
    let row: Vec<f32> = (0..1024).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
    let enc = scheme_for(SchemeId::RhtOneBit).encode(&row, 9);
    let net = NetAddrs::between_hosts(1, 2);
    let cfg = PacketizeConfig {
        mtu: 1500,
        net,
        msg_id: 0,
        row_id: 0,
        epoch: 1,
    };
    let pr = packetize_row(&enc, &cfg);
    let data = pr.packets[0].clone();
    let mut trimmed = data.clone();
    trimmed.trim_to_depth(1).expect("a fresh frame trims");
    let frames = [
        ("data", data.into_frame(), STACK_OVERHEAD),
        ("trimmed", trimmed.into_frame(), STACK_OVERHEAD),
        ("meta", pr.meta.build_frame(&net), FRAME_LEN),
    ];
    let mut log = String::new();
    let mut panics = 0;
    for (name, frame, header_bytes) in &frames {
        let _ = writeln!(log, "{name} valid: {}", outcomes(frame, &pr.meta));
        for at in 0..*header_bytes {
            for mask in MASKS {
                let mut bad = frame.clone();
                bad[at] ^= mask;
                let line = catch_unwind(AssertUnwindSafe(|| outcomes(&bad, &pr.meta)))
                    .unwrap_or_else(|_| {
                        panics += 1;
                        "PANIC".to_string()
                    });
                let _ = writeln!(log, "{name} {at} {mask:#04x}: {line}");
            }
        }
    }
    (log, panics)
}

#[test]
fn header_mutations_keep_their_recorded_outcomes() {
    let (log, panics) = outcome_log();
    assert_eq!(panics, 0, "a header mutation panicked:\n{log}");
    let digest = fnv1a(log.as_bytes());
    assert_eq!(
        digest, OUTCOME_DIGEST,
        "outcome digest {digest:#018x} differs from the recorded one; log:\n{log}"
    );
}
