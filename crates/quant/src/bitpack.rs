//! Bit-level packing for trimmable payload parts.
//!
//! Each part of a trimmable encoding stores one fixed-width field per
//! gradient coordinate, bit-packed with no padding: coordinate `i` of a
//! `w`-bit part occupies bits `[i·w, (i+1)·w)`. Bits are addressed LSB-first
//! within each byte, so the layouts produced here are identical on every
//! platform and can be mem-mapped straight into packet payloads.
//!
//! Both directions move **eight coordinates at a time**. Eight `W`-bit
//! fields are exactly `W` bytes, so whatever the width — 1, 23, 31 — a part
//! has a byte-aligned unit, the group of coordinates `8g..8g + 8`, at byte
//! `g·W`. `pack_group` builds a group's bytes from `u64` words whose shifts
//! are compile-time constants and [`pack_signs_into`] writes a byte per group;
//! `unpack_group` peels the eight fields back out with one constant-offset
//! load each. A decode run that does not start or end on a group boundary
//! reads its ragged edges through `window`: an unaligned little-endian
//! 8-byte load at the field's byte, shifted down to its first bit
//! ([`BitBuf::get_bits`] is that load plus a mask). [`BitMask`] — one
//! presence bit per coordinate — is backed by `u64` words directly: filling
//! a range is a masked word fill, counting is a popcount, and the receive
//! path's run scan ([`crate::scheme::PartialRow::for_each_run`]) reads it a
//! word at a time.

/// A growable, bit-addressed buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitBuf {
    bytes: Vec<u8>,
    /// Number of valid bits.
    len: usize,
}

impl BitBuf {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with capacity for `bits` bits.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Creates a zero-filled buffer of exactly `bits` bits.
    #[must_use]
    pub fn zeroed(bits: usize) -> Self {
        Self {
            bytes: vec![0; bits.div_ceil(8)],
            len: bits,
        }
    }

    /// Reconstructs a buffer from raw bytes and a bit length (wire → memory).
    ///
    /// The byte vector is normalized to exactly `len.div_ceil(8)` bytes with
    /// the slack bits of the final byte cleared. Without this, a buffer built
    /// from an oversized vector (or one whose final byte carried stray slack
    /// bits) would violate the append invariant: `push_bits`/`extend` write
    /// at byte `len / 8`, so trailing surplus bytes would shadow the appended
    /// bits and dirty slack would OR into the next field.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short to hold `len` bits.
    #[must_use]
    pub fn from_bytes(mut bytes: Vec<u8>, len: usize) -> Self {
        assert!(
            bytes.len() * 8 >= len,
            "{} bytes cannot hold {len} bits",
            bytes.len()
        );
        bytes.truncate(len.div_ceil(8));
        if !len.is_multiple_of(8) {
            if let Some(last) = bytes.last_mut() {
                *last &= (1u8 << (len % 8)) - 1;
            }
        }
        Self { bytes, len }
    }

    /// Number of valid bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying bytes (the final byte may be partially valid).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends the low `width` bits of `value` (LSB first). `width <= 64`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits set above `width`.
    pub fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} > 64");
        assert!(
            width == 64 || value >> width == 0,
            "value {value:#x} wider than {width} bits"
        );
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            let bit_in_byte = self.len % 8;
            if bit_in_byte == 0 {
                self.bytes.push(0);
            }
            let take = (8 - bit_in_byte as u32).min(remaining);
            let byte = self.bytes.last_mut().expect("just ensured non-empty");
            *byte |= ((v & ((1u64 << take) - 1)) as u8) << bit_in_byte;
            v >>= take;
            self.len += take as usize;
            remaining -= take;
        }
    }

    /// Reads `width` bits starting at bit offset `offset`. `width <= 64`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range reads.
    #[must_use]
    pub fn get_bits(&self, offset: usize, width: u32) -> u64 {
        assert!(width <= 64, "width {width} > 64");
        assert!(
            offset + width as usize <= self.len,
            "read [{offset}, {}) out of range (len {})",
            offset + width as usize,
            self.len
        );
        let low = window(&self.bytes, offset);
        // The window holds the 64 - offset % 8 bits from `offset` on; a
        // wider field ends in a ninth byte (in range: the field is).
        let have = 64 - (offset % 8) as u32;
        let value = if width > have {
            low | u64::from(self.bytes[offset / 8 + 8]) << have
        } else {
            low
        };
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    /// Copies bits `[offset, offset + len)` into `dst` without allocating.
    ///
    /// `dst` must be exactly `len.div_ceil(8)` bytes; it receives the range
    /// re-based to bit 0 (bit `i` of the range lands in bit `i % 8` of
    /// `dst[i / 8]`, slack bits of the final byte zeroed), which is what
    /// packet sections carry on the wire.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer or `dst` has the wrong size.
    pub fn copy_bits_to(&self, offset: usize, len: usize, dst: &mut [u8]) {
        assert!(
            offset + len <= self.len,
            "copy [{offset}, {}) out of range (len {})",
            offset + len,
            self.len
        );
        assert_eq!(
            dst.len(),
            len.div_ceil(8),
            "destination must be exactly {} bytes for {len} bits",
            len.div_ceil(8)
        );
        if len == 0 {
            return;
        }
        let start_byte = offset / 8;
        let shift = offset % 8;
        if shift == 0 {
            dst.copy_from_slice(&self.bytes[start_byte..start_byte + dst.len()]);
        } else {
            for (i, d) in dst.iter_mut().enumerate() {
                let lo = self.bytes[start_byte + i] >> shift;
                let hi = self
                    .bytes
                    .get(start_byte + i + 1)
                    .map_or(0, |&b| b << (8 - shift));
                *d = lo | hi;
            }
        }
        let slack = len % 8;
        if slack != 0 {
            if let Some(last) = dst.last_mut() {
                *last &= (1u8 << slack) - 1;
            }
        }
    }

    /// Overwrites `len` bits at bit `offset` from packed source bytes
    /// (bit `i` of the range comes from bit `i % 8` of `src[i / 8]`),
    /// without allocating — the inverse of [`copy_bits_to`](Self::copy_bits_to).
    ///
    /// # Panics
    ///
    /// Panics if the destination range exceeds the buffer or `src` is too
    /// short to hold `len` bits.
    pub fn write_bits_from_bytes(&mut self, offset: usize, src: &[u8], len: usize) {
        assert!(
            offset + len <= self.len,
            "write [{offset}, {}) out of range (len {})",
            offset + len,
            self.len
        );
        assert!(
            src.len() * 8 >= len,
            "{} source bytes cannot hold {len} bits",
            src.len()
        );
        let mut pos = 0;
        if offset.is_multiple_of(8) {
            let full = len / 8;
            self.bytes[offset / 8..offset / 8 + full].copy_from_slice(&src[..full]);
            pos = full * 8;
        }
        // The rest byte by byte of the destination: each takes the source
        // bits that land in it and keeps its bits outside the range.
        while pos < len {
            let at = offset + pos;
            let take = (8 - at % 8).min(len - pos);
            let mask = ((1u16 << take) - 1) as u8;
            let v = window(src, pos) as u8 & mask;
            let byte = &mut self.bytes[at / 8];
            *byte = (*byte & !(mask << (at % 8))) | (v << (at % 8));
            pos += take;
        }
    }
}

/// The 64 bits of LSB-first packed `bytes` that start at the byte holding bit
/// `bit`, shifted down so bit `bit` is bit 0: one unaligned little-endian
/// load. The low `64 - bit % 8` bits of the result — at least 57 — are the
/// stream's; the rest are zero, as is anything past the end of `bytes`, so
/// the load never reads out of range.
#[inline]
#[must_use]
pub(crate) fn window(bytes: &[u8], bit: usize) -> u64 {
    let tail = bytes.get(bit / 8..).unwrap_or(&[]);
    let word = match tail.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    };
    word >> (bit % 8)
}

/// Packs eight `W`-bit fields, LSB-first, into the `W` bytes they exactly
/// fill: field `j` lands at bits `[j·W, (j+1)·W)`, the layout of eight
/// consecutive [`BitBuf::push_bits`] calls at a byte boundary. `8 <= W <= 32`
/// and every field must fit `W` bits.
///
/// The bytes are written as `u64` words at byte offsets `0, 8, …`, the last
/// pulled back to `W − 8` so it ends with the group (it overlaps its
/// predecessor, carrying the same bits there). With `W` a constant the loops
/// unroll and every shift is an immediate.
#[inline(always)]
pub(crate) fn pack_group<const W: usize>(fields: [u32; 8], dst: &mut [u8; W]) {
    const { assert!(W >= 8 && W <= 32) };
    for word_index in 0..W.div_ceil(8) {
        let at = (word_index * 8).min(W - 8);
        let base = at * 8;
        let mut word = 0u64;
        for (j, &field) in fields.iter().enumerate() {
            debug_assert!(u64::from(field) >> W == 0, "field wider than {W} bits");
            let bit = j * W;
            if bit < base + 64 && bit + W > base {
                word |= if bit >= base {
                    u64::from(field) << (bit - base)
                } else {
                    u64::from(field) >> (base - bit)
                };
            }
        }
        dst[at..at + 8].copy_from_slice(&word.to_le_bytes());
    }
}

/// The inverse of [`pack_group`]: the eight `W`-bit fields of one group.
/// Field `j` comes from the 8-byte load at its first byte — pulled back to
/// `W − 8` for the last fields, so no load leaves the group — shifted and
/// masked by constants.
#[inline(always)]
pub(crate) fn unpack_group<const W: usize>(src: &[u8; W]) -> [u32; 8] {
    const { assert!(W >= 8 && W <= 32) };
    core::array::from_fn(|j| {
        let bit = j * W;
        let at = (bit / 8).min(W - 8);
        let mut word = [0u8; 8];
        word.copy_from_slice(&src[at..at + 8]);
        (u64::from_le_bytes(word) >> (bit - at * 8)) as u32 & (u32::MAX >> (32 - W))
    })
}

/// Writes the low `W` bits of every value's IEEE-754 pattern — the 31-bit
/// exponent+mantissa tail, the 23-bit mantissa — to `dst`, which
/// must be exactly `(values.len()·W).div_ceil(8)` bytes: one `pack_group`
/// per eight values. A ragged last group is packed with zero fields behind
/// it and cut to the bytes it needs, which also leaves the slack bits zero,
/// so every byte of `dst` is written whatever it held.
///
/// The fields land re-based to bit 0, so packing a sub-slice
/// `values[s..e]` gives exactly the bits `[s·W, e·W)` of packing the whole
/// slice — which is what a packet section carries — at any `s`.
// trimlint: hot-path -- tail-plane packing for the sign-based encode schemes
pub fn pack_low_bits_into<const W: usize>(values: &[f32], dst: &mut [u8]) {
    debug_assert_eq!(
        dst.len(),
        (values.len() * W).div_ceil(8),
        "destination size"
    );
    let field = |v: &f32| v.to_bits() & (u32::MAX >> (32 - W));
    let (groups, ragged) = values.as_chunks::<8>();
    let (dst_groups, dst_ragged) = dst.as_chunks_mut::<W>();
    for (src, dst) in groups.iter().zip(dst_groups) {
        pack_group(src.each_ref().map(field), dst);
    }
    let mut fields = [0u32; 8];
    for (f, v) in fields.iter_mut().zip(ragged) {
        *f = field(v);
    }
    let mut last = [0u8; W];
    pack_group(fields, &mut last);
    for (d, &b) in dst_ragged.iter_mut().zip(&last) {
        *d = b;
    }
}

/// The sign bits of up to eight values (1 = negative), value `j` at bit `j`.
#[inline(always)]
fn sign_byte(group: &[f32]) -> u8 {
    let mut bits = 0u32;
    for (j, v) in group.iter().enumerate() {
        bits |= (v.to_bits() >> 31) << j;
    }
    bits as u8
}

/// Writes the sign bit of every value (1 = negative) to `dst`, which must
/// be exactly `values.len().div_ceil(8)` bytes: one byte per group of
/// eight, `f32::to_bits() >> 31` shifted into lane position, the slack bits
/// of a ragged last byte zero. Like [`pack_low_bits_into`], a sub-slice
/// packs to the bits a whole-row pack has at its offset.
// trimlint: hot-path -- sign-plane extraction for every encode scheme
pub fn pack_signs_into(values: &[f32], dst: &mut [u8]) {
    debug_assert_eq!(dst.len(), values.len().div_ceil(8), "destination size");
    let (groups, ragged) = values.as_chunks::<8>();
    for (byte, group) in dst.iter_mut().zip(groups) {
        *byte = sign_byte(group);
    }
    if let Some(last) = dst.last_mut().filter(|_| !ragged.is_empty()) {
        *last = sign_byte(ragged);
    }
}

/// A fixed-size presence mask (one bit per coordinate), backed by `u64`
/// words: entry `i` is bit `i % 64` of word `i / 64`.
///
/// Invariant: the slack bits of the last word (entries at or above `len`)
/// are zero, so counting, comparing and the run scan never mask them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// Creates a mask of `n` entries, all absent (`false`).
    #[must_use]
    pub fn absent(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            len: n,
        }
    }

    /// Creates a mask of `n` entries, all present (`true`).
    #[must_use]
    pub fn present(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let (Some(last), false) = (words.last_mut(), n.is_multiple_of(64)) {
            *last = (1u64 << (n % 64)) - 1;
        }
        Self { words, len: n }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask has zero entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "entry {i} out of range (len {})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, present: bool) {
        self.set_range(i, i + 1, present);
    }

    /// Marks the half-open range `[start, end)` as `present` — a masked fill
    /// of the words it touches — and returns how many entries that changed,
    /// so a caller keeping a running count adds exactly the new ones.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty range ends past the mask.
    pub fn set_range(&mut self, start: usize, end: usize, present: bool) -> usize {
        if start >= end {
            return 0;
        }
        assert!(
            end <= self.len,
            "range [{start}, {end}) out of range (len {})",
            self.len
        );
        let (first, last) = (start / 64, (end - 1) / 64);
        let mut changed = 0;
        for (w, word) in self.words[first..=last].iter_mut().enumerate() {
            let lo = if w == 0 { start % 64 } else { 0 };
            let hi = if first + w == last {
                (end - 1) % 64 + 1
            } else {
                64
            };
            let fill = (u64::MAX >> (64 - (hi - lo))) << lo;
            let old = *word;
            *word = if present { old | fill } else { old & !fill };
            changed += (old ^ *word).count_ones() as usize;
        }
        changed
    }

    /// Number of present entries (a popcount over the words).
    #[must_use]
    pub fn count_present(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Entries `[64·w, 64·w + 64)` as one word (slack bits zero).
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One `width`-bit field per value, pushed one at a time.
    fn pack_fixed(values: &[u64], width: u32) -> BitBuf {
        let mut buf = BitBuf::new();
        for &v in values {
            buf.push_bits(v, width);
        }
        buf
    }

    /// Bits `[offset, offset + len)` re-based to bit 0, read one at a time.
    fn slice_bytes(buf: &BitBuf, offset: usize, len: usize) -> Vec<u8> {
        let mut out = BitBuf::new();
        for i in offset..offset + len {
            out.push_bits(buf.get_bits(i, 1), 1);
        }
        out.as_bytes().to_vec()
    }

    #[test]
    fn empty_buffer() {
        let b = BitBuf::new();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert!(b.as_bytes().is_empty());
    }

    #[test]
    fn push_and_get_single_bits() {
        let mut b = BitBuf::new();
        let pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1];
        for &bit in &pattern {
            b.push_bits(bit, 1);
        }
        assert_eq!(b.len(), 9);
        assert_eq!(b.as_bytes().len(), 2);
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(b.get_bits(i, 1), bit, "bit {i}");
        }
    }

    #[test]
    fn push_multi_bit_fields_crossing_bytes() {
        let mut b = BitBuf::new();
        b.push_bits(0b101, 3);
        b.push_bits(0b11_0011_0011, 10); // crosses byte boundary
        b.push_bits(0x1FFF_FFFF, 29);
        assert_eq!(b.get_bits(0, 3), 0b101);
        assert_eq!(b.get_bits(3, 10), 0b11_0011_0011);
        assert_eq!(b.get_bits(13, 29), 0x1FFF_FFFF);
    }

    #[test]
    fn sixty_four_bit_fields() {
        let mut b = BitBuf::new();
        b.push_bits(1, 1); // misalign
        b.push_bits(u64::MAX, 64);
        b.push_bits(0x0123_4567_89AB_CDEF, 64);
        assert_eq!(b.get_bits(1, 64), u64::MAX);
        assert_eq!(b.get_bits(65, 64), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn push_rejects_oversized_value() {
        BitBuf::new().push_bits(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range() {
        let mut b = BitBuf::new();
        b.push_bits(0xFF, 8);
        let _ = b.get_bits(1, 8);
    }

    #[test]
    fn write_bits_from_bytes_overwrites_in_place() {
        let mut b = BitBuf::zeroed(32);
        b.write_bits_from_bytes(5, &[0b1011], 4);
        assert_eq!(b.get_bits(5, 4), 0b1011);
        assert_eq!(b.get_bits(0, 5), 0);
        assert_eq!(b.get_bits(9, 23), 0);
        b.write_bits_from_bytes(5, &[0b0100], 4);
        assert_eq!(b.get_bits(5, 4), 0b0100);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut b = BitBuf::new();
        b.push_bits(0xDEAD_BEEF, 32);
        b.push_bits(0x5, 3);
        let rebuilt = BitBuf::from_bytes(b.as_bytes().to_vec(), b.len());
        assert_eq!(rebuilt.get_bits(0, 32), 0xDEAD_BEEF);
        assert_eq!(rebuilt.get_bits(32, 3), 0x5);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn from_bytes_rejects_short_buffer() {
        let _ = BitBuf::from_bytes(vec![0u8; 1], 9);
    }

    #[test]
    fn from_bytes_normalizes_oversized_vector() {
        // Regression: surplus trailing bytes used to survive, so a later
        // append wrote *after* them and reads at the old length hit stale
        // data instead of the appended bits.
        let mut b = BitBuf::from_bytes(vec![0xAB, 0xFF, 0xFF], 8);
        assert_eq!(b.as_bytes(), &[0xAB]);
        b.push_bits(0x5, 3);
        assert_eq!(b.get_bits(8, 3), 0x5);
        assert_eq!(b.len(), 11);
    }

    #[test]
    fn from_bytes_clears_dirty_slack() {
        // Regression: slack bits in the final byte used to survive, so a
        // later push ORed into dirty storage and read back wrong values.
        let mut b = BitBuf::from_bytes(vec![0xFF], 3);
        assert_eq!(b.as_bytes(), &[0b0000_0111]);
        b.push_bits(0, 1);
        assert_eq!(b.get_bits(3, 1), 0);
        let clean = {
            let mut c = BitBuf::new();
            c.push_bits(0b111, 3);
            c.push_bits(0, 1);
            c
        };
        assert_eq!(b, clean);
    }

    /// One width of [`pack_group`] / [`unpack_group`] against the bitstream
    /// eight `push_bits` calls produce, over patterns that set every bit.
    fn group_roundtrip<const W: usize>() {
        let mask = u32::MAX >> (32 - W);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..64 {
            let fields: [u32; 8] = core::array::from_fn(|j| match (case + j) % 5 {
                0 => mask,
                1 => 0,
                _ => {
                    state = state.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(1);
                    (state >> 32) as u32 & mask
                }
            });
            let mut packed = [0xAAu8; W];
            pack_group(fields, &mut packed);
            let reference = pack_fixed(&fields.map(u64::from), W as u32);
            assert_eq!(&packed[..], reference.as_bytes(), "W={W} case {case}");
            assert_eq!(unpack_group(&packed), fields, "W={W} case {case}");
        }
    }

    #[test]
    fn groups_of_eight_are_the_bitstream_at_every_width() {
        // The two widths in use, the ends of the supported range, and widths
        // whose words do and do not need the pulled-back last load.
        group_roundtrip::<8>();
        group_roundtrip::<9>();
        group_roundtrip::<16>();
        group_roundtrip::<23>();
        group_roundtrip::<31>();
        group_roundtrip::<32>();
    }

    /// The sign plane of `values` packed over a buffer that held other
    /// bytes: every byte must be written.
    fn signs(values: &[f32]) -> Vec<u8> {
        let mut bytes = vec![0xAAu8; values.len().div_ceil(8)];
        pack_signs_into(values, &mut bytes);
        bytes
    }

    #[test]
    fn pack_signs_matches_per_bit_pushes() {
        for n in (0usize..=17).chain([63, 64, 65, 127, 128, 200, 1000]) {
            let values: Vec<f32> = (0..n)
                .map(|i| {
                    let v = ((i * 37) % 19) as f32 - 9.0;
                    if i % 5 == 0 {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            let mut reference = BitBuf::new();
            for &v in &values {
                reference.push_bits(u64::from(v.is_sign_negative()), 1);
            }
            assert_eq!(signs(&values), reference.as_bytes(), "n={n}");
        }
    }

    #[test]
    fn pack_signs_treats_negative_zero_as_negative() {
        assert_eq!(signs(&[-0.0, 0.0, f32::NEG_INFINITY]), [0b101]);
    }

    #[test]
    fn copy_bits_to_matches_bitwise_copy() {
        let values: Vec<u64> = (0..200).map(|i| i * 7 % 128).collect();
        let buf = pack_fixed(&values, 7);
        for &(off, len) in &[
            (0usize, 56usize),
            (8, 64),
            (3, 41),
            (13, 0),
            (70, 7),
            (0, 1400),
        ] {
            let mut dst = vec![0xAAu8; len.div_ceil(8)];
            buf.copy_bits_to(off, len, &mut dst);
            assert_eq!(dst, slice_bytes(&buf, off, len), "off={off} len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn copy_bits_to_rejects_overrun() {
        let mut dst = [0u8; 2];
        BitBuf::zeroed(10).copy_bits_to(5, 6, &mut dst);
    }

    #[test]
    #[should_panic(expected = "destination must be exactly")]
    fn copy_bits_to_rejects_wrong_dst_size() {
        let mut dst = [0u8; 3];
        BitBuf::zeroed(32).copy_bits_to(0, 16, &mut dst);
    }

    #[test]
    fn write_bits_from_bytes_matches_fieldwise_pushes() {
        let values: Vec<u64> = (0..30).map(|i| i * 11 % 64).collect();
        let src = pack_fixed(&values, 6);
        for &off in &[0usize, 8, 16, 3, 37] {
            // Ones around the range: the write must keep every bit outside it.
            let mut via_fields = pack_fixed(&vec![1; off], 1);
            for &v in &values {
                via_fields.push_bits(v, 6);
            }
            while via_fields.len() < 400 {
                via_fields.push_bits(1, 1);
            }
            let mut via_bytes = pack_fixed(&[1; 400], 1);
            via_bytes.write_bits_from_bytes(off, src.as_bytes(), src.len());
            assert_eq!(via_bytes, via_fields, "off={off}");
        }
    }

    #[test]
    fn write_bits_from_bytes_ignores_source_slack_bits() {
        // A wire section's final byte may have had its slack bits set by a
        // corrupting fault; only the valid bits must land.
        let mut dst = BitBuf::zeroed(16);
        dst.write_bits_from_bytes(8, &[0xFF], 3);
        assert_eq!(dst.get_bits(8, 3), 0b111);
        assert_eq!(dst.get_bits(11, 5), 0);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn write_bits_from_bytes_rejects_short_source() {
        BitBuf::zeroed(32).write_bits_from_bytes(0, &[0u8; 1], 9);
    }

    #[test]
    fn bitmask_basics() {
        let mut m = BitMask::absent(10);
        assert_eq!(m.len(), 10);
        assert_eq!(m.count_present(), 0);
        m.set(3, true);
        m.set_range(7, 10, true);
        assert!(m.get(3) && m.get(7) && m.get(9));
        assert!(!m.get(0) && !m.get(6));
        assert_eq!(m.count_present(), 4);
        m.set(3, false);
        assert_eq!(m.count_present(), 3);
        assert_eq!(BitMask::present(5).count_present(), 5);
        assert!(BitMask::absent(0).is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_random_fields(
            fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 1..100)
        ) {
            let mut buf = BitBuf::new();
            let mut expected = Vec::new();
            for &(v, w) in &fields {
                let masked = if w == 64 { v } else { v & ((1u64 << w) - 1) };
                buf.push_bits(masked, w);
                expected.push((masked, w));
            }
            let mut off = 0;
            for (v, w) in expected {
                prop_assert_eq!(buf.get_bits(off, w), v);
                off += w as usize;
            }
            prop_assert_eq!(buf.len(), off);
        }

        #[test]
        fn copy_bits_to_equals_bitwise_copy_for_random_ranges(
            bits in proptest::collection::vec(any::<bool>(), 1..400),
            off_frac in 0.0f64..=1.0,
            len_frac in 0.0f64..=1.0
        ) {
            let mut buf = BitBuf::new();
            for &b in &bits {
                buf.push_bits(u64::from(b), 1);
            }
            let off = ((bits.len() as f64) * off_frac) as usize;
            let len = (((bits.len() - off) as f64) * len_frac) as usize;
            let mut dst = vec![0x55u8; len.div_ceil(8)];
            buf.copy_bits_to(off, len, &mut dst);
            let expected = slice_bytes(&buf, off, len);
            prop_assert_eq!(&dst, &expected);
            // And writing those bytes back reproduces the original range.
            let mut back = BitBuf::zeroed(bits.len());
            back.write_bits_from_bytes(off, &dst, len);
            prop_assert_eq!(slice_bytes(&back, off, len), expected);
        }

        #[test]
        fn write_bits_from_bytes_writes_only_its_range(
            writes in proptest::collection::vec((0usize..192, any::<u64>(), 1u32..=64), 1..20)
        ) {
            let mut buf = BitBuf::zeroed(256);
            let mut model = [false; 256];
            for &(off, v, w) in &writes {
                // The source's bits past `w` are slack the write must ignore.
                buf.write_bits_from_bytes(off, &v.to_le_bytes(), w as usize);
                for (i, bit) in model[off..off + w as usize].iter_mut().enumerate() {
                    *bit = (v >> i) & 1 == 1;
                }
                for (i, &bit) in model.iter().enumerate() {
                    prop_assert_eq!(buf.get_bits(i, 1) == 1, bit, "bit {}", i);
                }
            }
        }
    }
}
