//! Reliable row-metadata packets.
//!
//! Each encoded row has a small amount of side data — the scheme-specific
//! scale (σ, `L`, or the DRIVE factor `f`) and the original row length —
//! that the receiver needs even when every data packet of the row was
//! trimmed. The paper sends these "separately in a small packet that will
//! not be trimmed"; here they ride UDP port [`crate::udp::PORT_METADATA`]
//! with the [`crate::trimhdr::FLAG_RELIABLE`] semantics (switches never trim
//! them, transports retransmit them on loss).
//!
//! Inside the simulator and the loopback pipeline, metadata crosses as a
//! parsed [`RowMetaPacket`] (`trimgrad_netsim::packet::PacketBody::GradMeta`,
//! `trimgrad::pipeline::TxMessage::metas`), while [`FRAME_LEN`] bytes are
//! charged for it on the wire and in every byte count. So the frame format
//! of [`RowMetaPacket::build_frame`] and [`RowMetaPacket::parse_frame`] is
//! built and parsed only by the tests that feed it raw bytes: a stated
//! divergence from sending the frame itself, kept because the frame's size,
//! not its bytes, is what the fabric and the accounting see.

use crate::ipv4::DSCP_TRIMMED;
use crate::packet::NetAddrs;
use crate::stack::{self, Expect, PAYLOAD_START};
use crate::trimhdr;
use crate::udp::PORT_METADATA;
use crate::{Result, WireError};
use trimgrad_quant::{RowMeta, SchemeId};

/// Metadata payload magic: ASCII "TM".
pub const MAGIC: u16 = 0x544D;

/// Metadata payload length in bytes.
pub const PAYLOAD_LEN: usize = 24;

/// Length of a whole metadata frame ([`RowMetaPacket::build_frame`]): the
/// Ethernet/IPv4/UDP stack and the payload.
pub const FRAME_LEN: usize = PAYLOAD_START + PAYLOAD_LEN;

/// The contents of one metadata packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMetaPacket {
    /// Encoding scheme of the row.
    pub scheme: SchemeId,
    /// Collective message id.
    pub msg_id: u32,
    /// Row index within the message.
    pub row_id: u32,
    /// Original (pre-padding) coordinate count.
    pub original_len: u32,
    /// Scheme-specific scale.
    pub scale: f32,
    /// Training epoch (seed context).
    pub epoch: u32,
}

impl RowMetaPacket {
    /// Serializes the metadata payload.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; PAYLOAD_LEN] {
        let mut b = [0u8; PAYLOAD_LEN];
        b[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        b[2] = trimhdr::VERSION;
        b[3] = self.scheme.as_u8();
        b[4..8].copy_from_slice(&self.msg_id.to_be_bytes());
        b[8..12].copy_from_slice(&self.row_id.to_be_bytes());
        b[12..16].copy_from_slice(&self.original_len.to_be_bytes());
        b[16..20].copy_from_slice(&self.scale.to_bits().to_be_bytes());
        b[20..24].copy_from_slice(&self.epoch.to_be_bytes());
        b
    }

    /// Parses a metadata payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`], [`WireError::BadMagic`],
    /// [`WireError::BadVersion`], or [`WireError::BadField`] for an unknown
    /// scheme.
    pub fn from_bytes(b: &[u8]) -> Result<Self> {
        if b.len() < PAYLOAD_LEN {
            return Err(WireError::Truncated);
        }
        if u16::from_be_bytes([b[0], b[1]]) != MAGIC {
            return Err(WireError::BadMagic);
        }
        if b[2] != trimhdr::VERSION {
            return Err(WireError::BadVersion);
        }
        let scheme = SchemeId::from_u8(b[3]).ok_or(WireError::BadField("scheme"))?;
        Ok(Self {
            scheme,
            msg_id: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            row_id: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            original_len: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
            scale: f32::from_bits(u32::from_be_bytes([b[16], b[17], b[18], b[19]])),
            epoch: u32::from_be_bytes([b[20], b[21], b[22], b[23]]),
        })
    }

    /// The quant-layer [`RowMeta`] this packet conveys.
    #[must_use]
    pub fn row_meta(&self) -> RowMeta {
        RowMeta {
            original_len: self.original_len as usize,
            scale: self.scale,
        }
    }

    /// Builds the full Ethernet frame, addressed to [`PORT_METADATA`] and
    /// marked with the high-priority DSCP: tiny and latency-critical, it
    /// rides the priority queue (the reliable flag lives in the transport
    /// contract).
    #[must_use]
    pub fn build_frame(&self, net: &NetAddrs) -> Vec<u8> {
        let mut frame = vec![0u8; FRAME_LEN];
        frame[PAYLOAD_START..].copy_from_slice(&self.to_bytes());
        let net = NetAddrs {
            dst_port: PORT_METADATA,
            ..*net
        };
        stack::write(&mut frame, &net, DSCP_TRIMMED);
        frame
    }

    /// Parses a full frame previously built with [`build_frame`](Self::build_frame).
    ///
    /// # Errors
    ///
    /// Layer errors, [`WireError::BadChecksum`], or [`WireError::BadField`]
    /// if the frame is not addressed to the metadata port.
    pub fn parse_frame(frame: &[u8]) -> Result<Self> {
        Self::from_bytes(stack::read(frame, Expect::Metadata)?.udp_body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowMetaPacket {
        RowMetaPacket {
            scheme: SchemeId::SubtractiveDither,
            msg_id: 77,
            row_id: 3,
            original_len: 32_768,
            scale: 0.0321,
            epoch: 9,
        }
    }

    #[test]
    fn payload_roundtrip() {
        let m = sample();
        assert_eq!(RowMetaPacket::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn frame_roundtrip() {
        let m = sample();
        let net = NetAddrs::between_hosts(5, 6);
        let frame = m.build_frame(&net);
        assert_eq!(RowMetaPacket::parse_frame(&frame).unwrap(), m);
        // Metadata frames are tiny (well under any trim threshold).
        assert_eq!(frame.len(), FRAME_LEN);
        assert!(frame.len() < 100, "metadata frame {} bytes", frame.len());
    }

    #[test]
    fn row_meta_conversion() {
        let rm = sample().row_meta();
        assert_eq!(rm.original_len, 32_768);
        assert_eq!(rm.scale, 0.0321);
    }

    #[test]
    fn scale_preserves_exact_bits() {
        let mut m = sample();
        m.scale = f32::MIN_POSITIVE;
        let back = RowMetaPacket::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.scale.to_bits(), m.scale.to_bits());
    }

    #[test]
    fn rejects_malformed() {
        let m = sample();
        let good = m.to_bytes();
        assert_eq!(
            RowMetaPacket::from_bytes(&good[..10]).unwrap_err(),
            WireError::Truncated
        );
        let mut bad = good;
        bad[0] = 0;
        assert_eq!(
            RowMetaPacket::from_bytes(&bad).unwrap_err(),
            WireError::BadMagic
        );
        let mut bad = good;
        bad[2] = 9;
        assert_eq!(
            RowMetaPacket::from_bytes(&bad).unwrap_err(),
            WireError::BadVersion
        );
        let mut bad = good;
        bad[3] = 111;
        assert_eq!(
            RowMetaPacket::from_bytes(&bad).unwrap_err(),
            WireError::BadField("scheme")
        );
    }

    #[test]
    fn corrupted_frame_rejected() {
        let net = NetAddrs::between_hosts(1, 2);
        let mut frame = sample().build_frame(&net);
        let n = frame.len();
        frame[n - 2] ^= 0xFF;
        assert_eq!(
            RowMetaPacket::parse_frame(&frame).unwrap_err(),
            WireError::BadChecksum
        );
    }
}
