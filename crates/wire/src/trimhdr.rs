//! The TrimGrad application header.
//!
//! Sits directly after UDP in every gradient data packet. It tells switches
//! *how* the payload may be trimmed (`n_parts`, `trim_depth`) and tells the
//! receiver *which coordinates* of *which row* the packet carries.
//!
//! ```text
//!  0      2    3    4    5    6      8      12     16     20     22     24    28
//! ┌──────┬────┬────┬────┬────┬──────┬──────┬──────┬──────┬──────┬──────┬──────┐
//! │magic │ver │sch │#pt │dep │chunk │msg_id│row_id│ start│count │flags │epoch │
//! │ u16  │ u8 │ u8 │ u8 │ u8 │ u16  │ u32  │ u32  │ u32  │ u16  │ u16  │ u32  │
//! └──────┴────┴────┴────┴────┴──────┴──────┴──────┴──────┴──────┴──────┴──────┘
//! ```
//!
//! `trim_depth` starts equal to `n_parts` and is decremented by a switch when
//! it truncates the payload at a section boundary; the receiver uses it to
//! know how many parts of each carried coordinate are present.

use crate::{Result, WireError};
use trimgrad_quant::SchemeId;

/// Header magic: ASCII "TG".
pub const MAGIC: u16 = 0x5447;

/// Current wire version, carried by data ([`TrimGradFields`]) and metadata
/// (`crate::meta`) frames alike; a frame of any other version is refused
/// with [`WireError::BadVersion`].
///
/// The version covers what the bytes mean, not only their layout: the
/// shared randomness a receiver regenerates from the seed is part of it.
/// Version 2 takes 64 Rademacher signs from each `xoshiro256**` draw
/// (`trimgrad_hadamard::rademacher`); version 1 took one draw per sign, so
/// a v1 RHT row decoded under v2 would be rotated back by the wrong
/// diagonal.
pub const VERSION: u8 = 2;

/// Header length in bytes.
pub const HEADER_LEN: usize = 28;

/// Flag bit: this packet must never be trimmed or dropped by policy
/// (metadata and control packets set it).
pub const FLAG_RELIABLE: u16 = 0x0001;

/// Flag bit: this is the last chunk of its row.
pub const FLAG_LAST_CHUNK: u16 = 0x0002;

/// The header's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrimGradFields {
    /// Encoding scheme.
    pub scheme: SchemeId,
    /// Total part count of the encoding.
    pub n_parts: u8,
    /// Currently present leading parts.
    pub trim_depth: u8,
    /// Chunk index within the row.
    pub chunk_id: u16,
    /// Collective message id.
    pub msg_id: u32,
    /// Row index within the message.
    pub row_id: u32,
    /// First coordinate carried.
    pub coord_start: u32,
    /// Coordinates carried.
    pub coord_count: u16,
    /// Flag bits.
    pub flags: u16,
    /// Training epoch.
    pub epoch: u32,
}

impl TrimGradFields {
    /// Serializes into a fresh [`HEADER_LEN`]-byte header.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        b[2] = VERSION;
        b[3] = self.scheme.as_u8();
        b[4] = self.n_parts;
        b[5] = self.trim_depth;
        b[6..8].copy_from_slice(&self.chunk_id.to_be_bytes());
        b[8..12].copy_from_slice(&self.msg_id.to_be_bytes());
        b[12..16].copy_from_slice(&self.row_id.to_be_bytes());
        b[16..20].copy_from_slice(&self.coord_start.to_be_bytes());
        b[20..22].copy_from_slice(&self.coord_count.to_be_bytes());
        b[22..24].copy_from_slice(&self.flags.to_be_bytes());
        b[24..28].copy_from_slice(&self.epoch.to_be_bytes());
        b
    }

    /// Parses and validates the header at the front of `b` (any payload
    /// sections may follow it).
    ///
    /// # Errors
    ///
    /// In this order: [`WireError::Truncated`] for a short buffer,
    /// [`WireError::BadMagic`], [`WireError::BadVersion`], then
    /// [`WireError::BadField`] for an unknown scheme, a part count other
    /// than the scheme's, a trim depth outside `1..=n_parts`, or zero
    /// coordinates.
    pub fn from_bytes(b: &[u8]) -> Result<Self> {
        if b.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if u16::from_be_bytes([b[0], b[1]]) != MAGIC {
            return Err(WireError::BadMagic);
        }
        if b[2] != VERSION {
            return Err(WireError::BadVersion);
        }
        let scheme = SchemeId::from_u8(b[3]).ok_or(WireError::BadField("scheme"))?;
        let (n_parts, trim_depth) = (b[4], b[5]);
        // n_parts must agree with the scheme's real part count: a crafted
        // header claiming more parts than the scheme has would otherwise
        // drive payload-layout arithmetic (and its `1..=n_parts` depth
        // assertion) out of bounds downstream.
        if n_parts as usize != scheme.part_bits().len() {
            return Err(WireError::BadField("n_parts"));
        }
        if trim_depth == 0 || trim_depth > n_parts {
            return Err(WireError::BadField("trim_depth"));
        }
        let coord_count = u16::from_be_bytes([b[20], b[21]]);
        if coord_count == 0 {
            return Err(WireError::BadField("coord_count"));
        }
        Ok(Self {
            scheme,
            n_parts,
            trim_depth,
            chunk_id: u16::from_be_bytes([b[6], b[7]]),
            msg_id: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            row_id: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
            coord_start: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
            coord_count,
            flags: u16::from_be_bytes([b[22], b[23]]),
            epoch: u32::from_be_bytes([b[24], b[25], b[26], b[27]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> TrimGradFields {
        TrimGradFields {
            scheme: SchemeId::RhtOneBit,
            n_parts: 2,
            trim_depth: 2,
            chunk_id: 3,
            msg_id: 0xAABB_CCDD,
            row_id: 7,
            coord_start: 1024,
            coord_count: 360,
            flags: FLAG_LAST_CHUNK,
            epoch: 15,
        }
    }

    #[test]
    fn roundtrip_all_fields() {
        let f = fields();
        assert_eq!(TrimGradFields::from_bytes(&f.to_bytes()), Ok(f));
        let trimmed = TrimGradFields {
            trim_depth: 1,
            flags: FLAG_RELIABLE,
            ..f
        };
        assert_eq!(TrimGradFields::from_bytes(&trimmed.to_bytes()), Ok(trimmed));
    }

    #[test]
    fn rejects_bad_magic_version_scheme() {
        let good = fields().to_bytes();

        let mut bad = good;
        bad[0] = 0;
        assert_eq!(
            TrimGradFields::from_bytes(&bad).unwrap_err(),
            WireError::BadMagic
        );

        let mut bad = good;
        bad[2] = 99;
        assert_eq!(
            TrimGradFields::from_bytes(&bad).unwrap_err(),
            WireError::BadVersion
        );

        let mut bad = good;
        bad[3] = 200;
        assert_eq!(
            TrimGradFields::from_bytes(&bad).unwrap_err(),
            WireError::BadField("scheme")
        );
    }

    #[test]
    fn rejects_inconsistent_depths() {
        let mut f = fields();
        f.trim_depth = 3; // > n_parts = 2
        assert_eq!(
            TrimGradFields::from_bytes(&f.to_bytes()).unwrap_err(),
            WireError::BadField("trim_depth")
        );
        let mut f = fields();
        f.trim_depth = 0;
        assert_eq!(
            TrimGradFields::from_bytes(&f.to_bytes()).unwrap_err(),
            WireError::BadField("trim_depth")
        );
        let mut f = fields();
        f.n_parts = 0;
        f.trim_depth = 0;
        assert_eq!(
            TrimGradFields::from_bytes(&f.to_bytes()).unwrap_err(),
            WireError::BadField("n_parts")
        );
    }

    #[test]
    fn rejects_n_parts_scheme_mismatch() {
        // Regression: a crafted header claiming more parts than its scheme
        // really has used to pass validation and drive the payload-layout
        // arithmetic (which indexes `part_bits()` by depth) out of bounds.
        let mut f = fields(); // RhtOneBit has exactly 2 parts
        f.n_parts = 3;
        f.trim_depth = 3;
        assert_eq!(
            TrimGradFields::from_bytes(&f.to_bytes()).unwrap_err(),
            WireError::BadField("n_parts")
        );
        let mut f = fields();
        f.n_parts = 1;
        f.trim_depth = 1;
        assert_eq!(
            TrimGradFields::from_bytes(&f.to_bytes()).unwrap_err(),
            WireError::BadField("n_parts")
        );
    }

    #[test]
    fn rejects_zero_coords_and_short_buffer() {
        let mut f = fields();
        f.coord_count = 0;
        assert_eq!(
            TrimGradFields::from_bytes(&f.to_bytes()).unwrap_err(),
            WireError::BadField("coord_count")
        );
        assert_eq!(
            TrimGradFields::from_bytes(&[0u8; 27]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn sections_may_follow_the_header() {
        let mut buf = fields().to_bytes().to_vec();
        buf.extend_from_slice(&[9, 8, 7]);
        assert_eq!(TrimGradFields::from_bytes(&buf), Ok(fields()));
    }
}
