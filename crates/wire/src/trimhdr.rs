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

/// Current wire version, carried by data ([`TrimGradHeader`]) and metadata
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

/// A typed view over a TrimGrad header (+ trailing payload sections).
#[derive(Debug, Clone)]
pub struct TrimGradHeader<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TrimGradHeader<T> {
    /// Wraps a buffer, validating magic, version, scheme, and depth fields.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`], [`WireError::BadMagic`],
    /// [`WireError::BadVersion`], or [`WireError::BadField`].
    pub fn new_checked(buffer: T) -> Result<Self> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let h = Self { buffer };
        if h.magic() != MAGIC {
            return Err(WireError::BadMagic);
        }
        if h.version() != VERSION {
            return Err(WireError::BadVersion);
        }
        let Some(scheme) = SchemeId::from_u8(h.buffer.as_ref()[3]) else {
            return Err(WireError::BadField("scheme"));
        };
        let n_parts = h.n_parts();
        let depth = h.trim_depth();
        // n_parts must agree with the scheme's real part count: a crafted
        // header claiming more parts than the scheme has would otherwise
        // drive payload-layout arithmetic (and its `1..=n_parts` depth
        // assertion) out of bounds downstream.
        if n_parts as usize != scheme.part_bits().len() {
            return Err(WireError::BadField("n_parts"));
        }
        if depth == 0 || depth > n_parts {
            return Err(WireError::BadField("trim_depth"));
        }
        if h.coord_count() == 0 {
            return Err(WireError::BadField("coord_count"));
        }
        Ok(h)
    }

    fn b(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// Magic constant.
    #[must_use]
    pub fn magic(&self) -> u16 {
        u16::from_be_bytes([self.b()[0], self.b()[1]])
    }

    /// Header version.
    #[must_use]
    pub fn version(&self) -> u8 {
        self.b()[2]
    }

    /// Encoding scheme.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        // trimlint: allow(no-panic) -- the scheme byte is validated by new_checked (readers) or written via set_scheme (builders) before this getter runs
        SchemeId::from_u8(self.b()[3]).expect("validated in new_checked")
    }

    /// Number of parts the full encoding has.
    #[must_use]
    pub fn n_parts(&self) -> u8 {
        self.b()[4]
    }

    /// Number of leading parts still present (`1..=n_parts`).
    #[must_use]
    pub fn trim_depth(&self) -> u8 {
        self.b()[5]
    }

    /// Whether any trimming has occurred.
    #[must_use]
    pub fn is_trimmed(&self) -> bool {
        self.trim_depth() < self.n_parts()
    }

    /// Chunk index within the row.
    #[must_use]
    pub fn chunk_id(&self) -> u16 {
        u16::from_be_bytes([self.b()[6], self.b()[7]])
    }

    /// Collective-communication message id.
    #[must_use]
    pub fn msg_id(&self) -> u32 {
        u32::from_be_bytes([self.b()[8], self.b()[9], self.b()[10], self.b()[11]])
    }

    /// Row index within the message.
    #[must_use]
    pub fn row_id(&self) -> u32 {
        u32::from_be_bytes([self.b()[12], self.b()[13], self.b()[14], self.b()[15]])
    }

    /// First coordinate (within the row) carried by this packet.
    #[must_use]
    pub fn coord_start(&self) -> u32 {
        u32::from_be_bytes([self.b()[16], self.b()[17], self.b()[18], self.b()[19]])
    }

    /// Number of coordinates carried.
    #[must_use]
    pub fn coord_count(&self) -> u16 {
        u16::from_be_bytes([self.b()[20], self.b()[21]])
    }

    /// Flag bits.
    #[must_use]
    pub fn flags(&self) -> u16 {
        u16::from_be_bytes([self.b()[22], self.b()[23]])
    }

    /// Whether the reliable (never trim) flag is set.
    #[must_use]
    pub fn is_reliable(&self) -> bool {
        self.flags() & FLAG_RELIABLE != 0
    }

    /// Training epoch (seed context for shared randomness).
    #[must_use]
    pub fn epoch(&self) -> u32 {
        u32::from_be_bytes([self.b()[24], self.b()[25], self.b()[26], self.b()[27]])
    }

    /// The payload sections after the header.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.b()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TrimGradHeader<T> {
    /// Wraps a buffer for writing without validation (fields are garbage
    /// until set). The buffer must be at least [`HEADER_LEN`] bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] for undersized buffers.
    pub fn new_unchecked_mut(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(Self { buffer })
    }

    fn bm(&mut self) -> &mut [u8] {
        self.buffer.as_mut()
    }

    /// Writes magic and version.
    pub fn init(&mut self) {
        let m = MAGIC.to_be_bytes();
        self.bm()[0] = m[0];
        self.bm()[1] = m[1];
        self.bm()[2] = VERSION;
    }

    /// Sets the scheme id.
    pub fn set_scheme(&mut self, s: SchemeId) {
        self.bm()[3] = s.as_u8();
    }

    /// Sets the part count.
    pub fn set_n_parts(&mut self, n: u8) {
        self.bm()[4] = n;
    }

    /// Sets the current trim depth.
    pub fn set_trim_depth(&mut self, d: u8) {
        self.bm()[5] = d;
    }

    /// Sets the chunk id.
    pub fn set_chunk_id(&mut self, c: u16) {
        let v = c.to_be_bytes();
        self.bm()[6..8].copy_from_slice(&v);
    }

    /// Sets the message id.
    pub fn set_msg_id(&mut self, v: u32) {
        let v = v.to_be_bytes();
        self.bm()[8..12].copy_from_slice(&v);
    }

    /// Sets the row id.
    pub fn set_row_id(&mut self, v: u32) {
        let v = v.to_be_bytes();
        self.bm()[12..16].copy_from_slice(&v);
    }

    /// Sets the first-coordinate index.
    pub fn set_coord_start(&mut self, v: u32) {
        let v = v.to_be_bytes();
        self.bm()[16..20].copy_from_slice(&v);
    }

    /// Sets the coordinate count.
    pub fn set_coord_count(&mut self, v: u16) {
        let v = v.to_be_bytes();
        self.bm()[20..22].copy_from_slice(&v);
    }

    /// Sets the flag bits.
    pub fn set_flags(&mut self, v: u16) {
        let v = v.to_be_bytes();
        self.bm()[22..24].copy_from_slice(&v);
    }

    /// Sets the epoch.
    pub fn set_epoch(&mut self, v: u32) {
        let v = v.to_be_bytes();
        self.bm()[24..28].copy_from_slice(&v);
    }
}

/// Plain-struct form of the header, for construction convenience.
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
        let mut buf = [0u8; HEADER_LEN];
        // Same-module construction: the array is exactly HEADER_LEN, so the
        // `new_unchecked_mut` length test cannot fail — skip the fallible path.
        let mut h = TrimGradHeader {
            buffer: &mut buf[..],
        };
        h.init();
        h.set_scheme(self.scheme);
        h.set_n_parts(self.n_parts);
        h.set_trim_depth(self.trim_depth);
        h.set_chunk_id(self.chunk_id);
        h.set_msg_id(self.msg_id);
        h.set_row_id(self.row_id);
        h.set_coord_start(self.coord_start);
        h.set_coord_count(self.coord_count);
        h.set_flags(self.flags);
        h.set_epoch(self.epoch);
        buf
    }

    /// Parses from a validated header view.
    #[must_use]
    pub fn from_header<T: AsRef<[u8]>>(h: &TrimGradHeader<T>) -> Self {
        Self {
            scheme: h.scheme(),
            n_parts: h.n_parts(),
            trim_depth: h.trim_depth(),
            chunk_id: h.chunk_id(),
            msg_id: h.msg_id(),
            row_id: h.row_id(),
            coord_start: h.coord_start(),
            coord_count: h.coord_count(),
            flags: h.flags(),
            epoch: h.epoch(),
        }
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
        let bytes = f.to_bytes();
        let h = TrimGradHeader::new_checked(&bytes[..]).unwrap();
        assert_eq!(TrimGradFields::from_header(&h), f);
        assert!(!h.is_trimmed());
        assert!(!h.is_reliable());
        assert!(h.payload().is_empty());
    }

    #[test]
    fn trimmed_and_reliable_flags() {
        let mut f = fields();
        f.trim_depth = 1;
        f.flags = FLAG_RELIABLE;
        let bytes = f.to_bytes();
        let h = TrimGradHeader::new_checked(&bytes[..]).unwrap();
        assert!(h.is_trimmed());
        assert!(h.is_reliable());
    }

    #[test]
    fn rejects_bad_magic_version_scheme() {
        let good = fields().to_bytes();

        let mut bad = good;
        bad[0] = 0;
        assert_eq!(
            TrimGradHeader::new_checked(&bad[..]).unwrap_err(),
            WireError::BadMagic
        );

        let mut bad = good;
        bad[2] = 99;
        assert_eq!(
            TrimGradHeader::new_checked(&bad[..]).unwrap_err(),
            WireError::BadVersion
        );

        let mut bad = good;
        bad[3] = 200;
        assert_eq!(
            TrimGradHeader::new_checked(&bad[..]).unwrap_err(),
            WireError::BadField("scheme")
        );
    }

    #[test]
    fn rejects_inconsistent_depths() {
        let mut f = fields();
        f.trim_depth = 3; // > n_parts = 2
        assert_eq!(
            TrimGradHeader::new_checked(&f.to_bytes()[..]).unwrap_err(),
            WireError::BadField("trim_depth")
        );
        let mut f = fields();
        f.trim_depth = 0;
        assert_eq!(
            TrimGradHeader::new_checked(&f.to_bytes()[..]).unwrap_err(),
            WireError::BadField("trim_depth")
        );
        let mut f = fields();
        f.n_parts = 0;
        f.trim_depth = 0;
        assert_eq!(
            TrimGradHeader::new_checked(&f.to_bytes()[..]).unwrap_err(),
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
            TrimGradHeader::new_checked(&f.to_bytes()[..]).unwrap_err(),
            WireError::BadField("n_parts")
        );
        let mut f = fields();
        f.n_parts = 1;
        f.trim_depth = 1;
        assert_eq!(
            TrimGradHeader::new_checked(&f.to_bytes()[..]).unwrap_err(),
            WireError::BadField("n_parts")
        );
    }

    #[test]
    fn rejects_zero_coords_and_short_buffer() {
        let mut f = fields();
        f.coord_count = 0;
        assert_eq!(
            TrimGradHeader::new_checked(&f.to_bytes()[..]).unwrap_err(),
            WireError::BadField("coord_count")
        );
        assert_eq!(
            TrimGradHeader::new_checked(&[0u8; 27][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn payload_follows_header() {
        let mut buf = fields().to_bytes().to_vec();
        buf.extend_from_slice(&[9, 8, 7]);
        let h = TrimGradHeader::new_checked(&buf[..]).unwrap();
        assert_eq!(h.payload(), &[9, 8, 7]);
    }
}
