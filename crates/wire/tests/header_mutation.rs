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
//!
//! One crafted frame sits beside the table: a valid data frame whose UDP
//! length is cut short by one section byte while the IPv4 total length still
//! covers it, with both checksums valid. The trailing byte is covered by no
//! checksum, so no receive path may read it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::fnv1a;
use trimgrad_wire::ipv4::PROTO_UDP;
use trimgrad_wire::meta::{RowMetaPacket, FRAME_LEN};
use trimgrad_wire::packet::{GradPacket, NetAddrs, STACK_OVERHEAD};
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad_wire::reassemble::RowAssembler;
use trimgrad_wire::stack::PAYLOAD_START;
use trimgrad_wire::{ones_complement_sum, udp, WireError};

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

/// The RHT row the table's frames carry: its first data packet and its
/// metadata.
fn first_packet() -> (GradPacket, RowMetaPacket) {
    let mut rng = Xoshiro256StarStar::new(0x7A11);
    let row: Vec<f32> = (0..1024).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
    let enc = SchemeId::RhtOneBit.encode(&row, 9);
    let net = NetAddrs::between_hosts(1, 2);
    let cfg = PacketizeConfig {
        mtu: 1500,
        net,
        msg_id: 0,
        row_id: 0,
        epoch: 1,
    };
    let pr = packetize_row(&enc, &cfg);
    (pr.packets[0].clone(), pr.meta)
}

/// The outcome log: one line per (frame, byte, mask), and the number of
/// mutations that panicked.
fn outcome_log() -> (String, usize) {
    let net = NetAddrs::between_hosts(1, 2);
    let (data, meta) = first_packet();
    let mut trimmed = data.clone();
    trimmed.trim_to_depth(1).expect("a fresh frame trims");
    let frames = [
        ("data", data.into_frame(), STACK_OVERHEAD),
        ("trimmed", trimmed.into_frame(), STACK_OVERHEAD),
        ("meta", meta.build_frame(&net), FRAME_LEN),
    ];
    let mut log = String::new();
    let mut panics = 0;
    for (name, frame, header_bytes) in &frames {
        let _ = writeln!(log, "{name} valid: {}", outcomes(frame, &meta));
        for at in 0..*header_bytes {
            for mask in MASKS {
                let mut bad = frame.clone();
                bad[at] ^= mask;
                let line =
                    catch_unwind(AssertUnwindSafe(|| outcomes(&bad, &meta))).unwrap_or_else(|_| {
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

/// Offset of the UDP header in a frame.
const UDP_START: usize = PAYLOAD_START - udp::HEADER_LEN;

/// Rewrites the UDP length of `frame` to `len` and its checksum to `csum`,
/// or to a valid checksum over the shortened datagram when `csum` is `None`.
/// The IPv4 header, its total length and its checksum are left as they are.
fn set_udp_length(frame: &mut [u8], len: u16, csum: Option<u16>) {
    let udp = &mut frame[UDP_START..];
    udp[4..6].copy_from_slice(&len.to_be_bytes());
    udp[6..8].fill(0);
    let csum = csum.unwrap_or_else(|| {
        let mut pseudo = [0u8; 12];
        // The IPv4 source and destination end the IPv4 header.
        pseudo[0..8].copy_from_slice(&frame[UDP_START - 8..UDP_START]);
        pseudo[9] = PROTO_UDP;
        pseudo[10..12].copy_from_slice(&len.to_be_bytes());
        let sum = ones_complement_sum(
            &frame[UDP_START..UDP_START + usize::from(len)],
            ones_complement_sum(&pseudo, 0),
        );
        match !sum {
            0 => 0xFFFF,
            c => c,
        }
    });
    frame[UDP_START + 6..UDP_START + 8].copy_from_slice(&csum.to_be_bytes());
}

#[test]
fn bytes_past_the_udp_length_are_not_read() {
    let (data, meta) = first_packet();
    let frame = data.into_frame();
    let udp_len = u16::try_from(frame.len() - UDP_START).expect("one MTU");
    // Resealed with a valid checksum, and with "no checksum" (zero).
    for csum in [None, Some(0)] {
        let mut cut = frame.clone();
        set_udp_length(&mut cut, udp_len - 1, csum);
        let pkt = GradPacket::from_frame(cut);
        assert_eq!(pkt.parse().err(), Some(WireError::Truncated), "{csum:?}");
        let mut trimmed = pkt.clone();
        assert_eq!(trimmed.trim_to_depth(1), Err(WireError::Truncated));
        assert_eq!(trimmed, pkt, "a refused trim leaves the frame untouched");
        let mut asm = RowAssembler::from_meta(&meta);
        assert_eq!(asm.ingest(&pkt), Err(WireError::Truncated));
        assert_eq!(asm.coords_received(), 0);
    }
    // The same frame with its UDP length intact still parses.
    let mut whole = frame;
    set_udp_length(&mut whole, udp_len, None);
    assert!(GradPacket::from_frame(whole).parse().is_ok());
}
