//! Splitting an encoded row into MTU-sized trimmable packets.
//!
//! Each packet carries a contiguous coordinate range `[coord_start,
//! coord_start + coord_count)` of the row, with every part's fields for that
//! range laid out heads-first ([`crate::payload`]). The row's scale factor
//! travels in one reliable [`crate::meta::RowMetaPacket`].

use crate::meta::RowMetaPacket;
use crate::packet::{GradPacket, NetAddrs, STACK_OVERHEAD};
use crate::payload::{max_coords_for_budget, PayloadLayout};
use crate::trimhdr::{TrimGradFields, FLAG_LAST_CHUNK};
use crate::{narrow, stack, trimhdr};
use core::ops::Range;
use trimgrad_quant::EncodedRow;

/// The classic Ethernet IP MTU. The in-memory harnesses (trim injector,
/// transcript replay) cut rows at this MTU, like the paper's prototype.
pub const DEFAULT_MTU: usize = 1500;

/// How many coordinates of a scheme with the given part widths ride in one
/// packet under IP MTU `mtu` (IPv4, UDP and TrimGrad headers count against
/// the MTU; Ethernet framing is extra), or `None` if not even one fits.
///
/// With [`chunk_ranges`] this is the packet geometry: everything that needs
/// to know which coordinates share a packet — the packetizer, the trim
/// injector, transcript replay, byte accounting — asks these two.
#[must_use]
pub fn coords_per_packet(part_bits: &[u32], mtu: usize) -> Option<usize> {
    let budget = mtu.saturating_sub(stack::IP_OVERHEAD + trimhdr::HEADER_LEN);
    max_coords_for_budget(part_bits, budget)
}

/// The coordinate ranges of the packets an `n`-coordinate row is cut into at
/// `per_packet` coordinates each, in chunk-id order (only the last may be
/// short; none for an empty row).
///
/// # Panics
///
/// Panics if `per_packet` is zero.
pub fn chunk_ranges(n: usize, per_packet: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    assert!(per_packet > 0, "empty packets");
    (0..n.div_ceil(per_packet)).map(move |c| c * per_packet..n.min((c + 1) * per_packet))
}

/// Wire length (Ethernet included) of a data frame carrying `coords`
/// coordinates with its first `depth` parts surviving.
///
/// # Panics
///
/// Panics if `coords` is zero or `depth` is outside `1..=part_bits.len()`.
#[must_use]
pub fn frame_len(part_bits: &[u32], coords: usize, depth: usize) -> usize {
    STACK_OVERHEAD + PayloadLayout::new(part_bits, coords).trim_point(depth)
}

/// Configuration for packetizing one row.
#[derive(Debug, Clone, Copy)]
pub struct PacketizeConfig {
    /// IP MTU in bytes (IPv4 header and everything below it must fit;
    /// Ethernet framing is extra). The classic value is 1500.
    pub mtu: usize,
    /// Flow addresses.
    pub net: NetAddrs,
    /// Collective message id.
    pub msg_id: u32,
    /// Row index within the message.
    pub row_id: u32,
    /// Training epoch (seed context).
    pub epoch: u32,
}

/// The packetized form of one row.
#[derive(Debug)]
pub struct PacketizedRow {
    /// Data packets, in coordinate order. Empty for an empty row.
    pub packets: Vec<GradPacket>,
    /// The reliable metadata packet.
    pub meta: RowMetaPacket,
}

/// Splits `enc` into MTU-sized packets plus one metadata packet.
///
/// Section bits are copied straight from the row's bit buffers into each
/// frame (`BitBuf::copy_bits_to`) — no intermediate per-section or
/// per-layer allocation, one buffer per packet.
///
/// # Panics
///
/// Panics if the MTU is too small to fit even one coordinate — a static
/// misconfiguration.
// trimlint: hot-path -- per-row frame build on the send path
#[must_use]
pub fn packetize_row(enc: &EncodedRow, cfg: &PacketizeConfig) -> PacketizedRow {
    let meta = RowMetaPacket {
        scheme: enc.scheme,
        msg_id: cfg.msg_id,
        row_id: cfg.row_id,
        original_len: narrow::to_u32(enc.meta.original_len, "row length"),
        scale: enc.meta.scale,
        epoch: cfg.epoch,
    };
    if enc.n == 0 {
        return PacketizedRow {
            packets: Vec::new(),
            meta,
        };
    }
    let part_bits = enc.scheme.part_bits();
    let per_packet = coords_per_packet(part_bits, cfg.mtu)
        // trimlint: allow(no-panic) -- documented # Panics contract: an MTU too small for one coordinate is a static misconfiguration
        .unwrap_or_else(|| panic!("MTU {} cannot fit one coordinate", cfg.mtu));
    let n_parts = narrow::to_u8(part_bits.len(), "part count");
    let chunks = chunk_ranges(enc.n, per_packet);
    let n_chunks = chunks.len();
    // trimlint: allow(hot-path-alloc) -- one row-level Vec of packet handles per call
    let mut packets = Vec::with_capacity(n_chunks);
    for (chunk_id, chunk) in chunks.enumerate() {
        let (start, count) = (chunk.start, chunk.len());
        let fields = TrimGradFields {
            scheme: enc.scheme,
            n_parts,
            trim_depth: n_parts,
            chunk_id: narrow::to_u16(chunk_id, "chunk id"),
            msg_id: cfg.msg_id,
            row_id: cfg.row_id,
            coord_start: start as u32,
            coord_count: narrow::to_u16(count, "coordinate count"),
            flags: if chunk_id == n_chunks - 1 {
                FLAG_LAST_CHUNK
            } else {
                0
            },
            epoch: cfg.epoch,
        };
        let layout = PayloadLayout::new(part_bits, count);
        packets.push(GradPacket::build_with(&cfg.net, fields, |body| {
            for (j, (buf, &w)) in enc.parts.iter().zip(part_bits).enumerate() {
                buf.copy_bits_to(
                    start * w as usize,
                    count * w as usize,
                    &mut body[layout.section_range(j)],
                );
            }
        }));
    }
    PacketizedRow { packets, meta }
}

/// Protocol efficiency report for §2's in-text numbers: how an MTU-sized
/// packet divides into headers, trimmed payload, and trimmable payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutReport {
    /// Coordinates per MTU packet.
    pub coords_per_packet: usize,
    /// Full frame length on the wire (with Ethernet).
    pub full_frame_len: usize,
    /// Frame length after a head-only trim.
    pub trimmed_frame_len: usize,
    /// Fraction of the frame removed by trimming.
    pub compression_ratio: f64,
}

/// Computes the §2 layout numbers for `scheme` geometry at a given MTU.
#[must_use]
pub fn layout_report(part_bits: &[u32], mtu: usize) -> Option<LayoutReport> {
    let coords = coords_per_packet(part_bits, mtu)?;
    let full = frame_len(part_bits, coords, part_bits.len());
    let trimmed = frame_len(part_bits, coords, 1);
    Some(LayoutReport {
        coords_per_packet: coords,
        full_frame_len: full,
        trimmed_frame_len: trimmed,
        compression_ratio: 1.0 - trimmed as f64 / full as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_quant::SchemeId;

    fn cfg() -> PacketizeConfig {
        PacketizeConfig {
            mtu: 1500,
            net: NetAddrs::between_hosts(1, 2),
            msg_id: 5,
            row_id: 2,
            epoch: 1,
        }
    }

    #[test]
    fn geometry_accounts_for_all_headers() {
        let budget = 1500 - 20 - 8 - 28;
        assert_eq!(
            coords_per_packet(&[1, 31], DEFAULT_MTU),
            max_coords_for_budget(&[1, 31], budget)
        );
        assert_eq!(coords_per_packet(&[1, 31], 60), None);
        assert_eq!(frame_len(&[1, 31], 360, 1), 14 + 20 + 8 + 28 + 45);
        let chunks: Vec<_> = chunk_ranges(1000, 360).collect();
        assert_eq!(chunks, [0..360, 360..720, 720..1000]);
        assert_eq!(chunk_ranges(0, 360).count(), 0);
    }

    #[test]
    fn single_packet_row() {
        let row: Vec<f32> = (0..100).map(|i| i as f32 / 10.0).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let pr = packetize_row(&enc, &cfg());
        assert_eq!(pr.packets.len(), 1);
        let p = pr.packets[0].parse().unwrap();
        assert_eq!(p.fields.coord_start, 0);
        assert_eq!(p.fields.coord_count, 100);
        assert_ne!(p.fields.flags & FLAG_LAST_CHUNK, 0);
        assert_eq!(pr.meta.original_len, 100);
        assert_eq!(pr.meta.scheme, enc.scheme);
    }

    #[test]
    fn multi_packet_row_covers_all_coordinates() {
        let row: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        let enc = SchemeId::RhtOneBit.encode(&row, 3); // pads to 1024
        let pr = packetize_row(&enc, &cfg());
        // 1024 coords at 360/packet → 3 packets (360+360+304).
        assert_eq!(pr.packets.len(), 3);
        let mut covered = 0usize;
        for (i, pkt) in pr.packets.iter().enumerate() {
            let p = pkt.parse().unwrap();
            assert_eq!(p.fields.chunk_id as usize, i);
            assert_eq!(p.fields.coord_start as usize, covered);
            covered += p.fields.coord_count as usize;
            let is_last = i == pr.packets.len() - 1;
            assert_eq!(p.fields.flags & FLAG_LAST_CHUNK != 0, is_last);
        }
        assert_eq!(covered, enc.n);
    }

    #[test]
    fn packet_sections_carry_correct_bits() {
        let row: Vec<f32> = (0..500).map(|i| i as f32 - 250.0).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let pr = packetize_row(&enc, &cfg());
        // Check the second packet's head section against the row's sign bits.
        let p = pr.packets[1].parse().unwrap();
        let start = p.fields.coord_start as usize;
        for i in 0..p.fields.coord_count as usize {
            let head_bit = (p.sections[0][i / 8] >> (i % 8)) & 1;
            let expect = u8::from(row[start + i] < 0.0);
            assert_eq!(head_bit, expect, "coordinate {}", start + i);
        }
    }

    #[test]
    fn empty_row_yields_meta_only() {
        let enc = SchemeId::SignMagnitude.encode(&[], 0);
        let pr = packetize_row(&enc, &cfg());
        assert!(pr.packets.is_empty());
        assert_eq!(pr.meta.original_len, 0);
    }

    #[test]
    fn layout_report_matches_paper_scale() {
        // §2: P=1 trimming compresses an MTU packet by ~94%.
        let r = layout_report(&[1, 31], 1500).unwrap();
        assert_eq!(r.coords_per_packet, 360);
        assert_eq!(r.full_frame_len, 14 + 20 + 8 + 28 + 45 + 1395);
        assert_eq!(r.trimmed_frame_len, 14 + 20 + 8 + 28 + 45);
        assert!((0.90..0.95).contains(&r.compression_ratio));
        // Tiny MTU: nothing fits.
        assert!(layout_report(&[1, 31], 60).is_none());
    }

    #[test]
    fn small_mtu_produces_more_packets() {
        let row: Vec<f32> = (0..512).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let small = PacketizeConfig { mtu: 256, ..cfg() };
        let pr_small = packetize_row(&enc, &small);
        let pr_big = packetize_row(&enc, &cfg());
        assert!(pr_small.packets.len() > pr_big.packets.len());
        // Every packet respects its MTU (plus Ethernet framing).
        for p in &pr_small.packets {
            assert!(p.wire_len() <= 256 + crate::ethernet::HEADER_LEN);
        }
    }
}
