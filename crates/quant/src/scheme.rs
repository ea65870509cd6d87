//! [`SchemeId`], the trimmable encoding of a row: multi-part encodings whose
//! prefixes decode.
//!
//! The paper (§3) frames trimmable quantization as "efficiently encoding the
//! gradient into two or more parts of predetermined length, such that a
//! decoder can decode using any number of parts forming a prefix of the
//! encoding". This module fixes that contract in types:
//!
//! * [`SchemeId`] — the one-byte wire identifier *is* the scheme: it owns the
//!   part widths ([`SchemeId::part_bits`]) and the padding rule
//!   ([`SchemeId::encoded_len`]) that sender, switch, reassembler and decoder
//!   share, and dispatches to the per-scheme code of [`crate::signmag`],
//!   [`crate::stochastic`], [`crate::dither`], [`crate::rht1bit`] and
//!   [`crate::multilevel`].
//! * [`StagedRow`] — a row after its **row stage** ([`SchemeId::stage`]: the
//!   RHT rotation, the SQ draws or SD dithers, the scale). Its **range
//!   packer** ([`StagedRow::pack_range`]) writes the fields of one part for
//!   any coordinate range into bytes the caller gives it: a whole row's plane
//!   or one packet's section, with nothing in between. SQ/SD draws are
//!   pulled from the row's stream as head packs need them, so a head that
//!   is never packed is never drawn.
//! * [`EncodedRow`] — the whole-row pack ([`SchemeId::encode`]): `k`
//!   bit-packed **parts**, each holding one fixed-width field per coordinate,
//!   plus small [`RowMeta`] shipped reliably (never trimmed).
//! * [`PartialRow`] — one receiver-side input: for each part, either the full
//!   buffer, a masked buffer (some packets of the row trimmed, others not),
//!   or nothing. Availability must be *prefix-closed* per coordinate: a
//!   coordinate cannot have part `k` without parts `0..k`.
//!
//! Decoders do not ask "what is coordinate `i`'s depth?" `n` times. Trimming
//! happens per packet, so availability is constant over long stretches of a
//! row, and [`SchemeId::decode_runs`] — the one decoder — reads a row as
//! **runs of constant depth** ([`Run`]), one call into a bit-parallel kernel
//! of [`crate::kernels`] per run. A [`RunSource`] yields them, and there are
//! three: a [`PartialRow`] (planes), whose
//! [`for_each_run`](PartialRow::for_each_run) scans the presence masks a
//! `u64` word at a time and checks prefix closure on the way; a receiver
//! that reads each packet's sections where they lie
//! (`trimgrad_wire::reassemble::RowFrames`, frames); and a staged row read
//! chunk by chunk under known packet fates ([`StagedChunks`], staged
//! chunks), which packs each chunk's surviving parts that the decoder reads
//! ([`SchemeId::parts_read`]) as the decoder reaches it.

use crate::bitpack::{BitBuf, BitMask};
use crate::draws::DrawStream;
use crate::stats::{std_dev, CLIP_SIGMAS};
use crate::{dither, multilevel, rht1bit, signmag, stochastic};
use core::cell::RefCell;
use core::ops::Range;
use std::borrow::Cow;

/// Upper bound on the parts of a scheme (the richest is `[1, 8, 23]`).
/// Keeping the bound small lets a [`Run`] — and the wire layer's layouts
/// and parsed-section tables — hold its parts inline, so the per-run and
/// per-packet paths allocate nothing.
pub const MAX_PARTS: usize = 4;

/// Identifies a trimmable encoding on the wire (1 byte in the TrimGrad header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum SchemeId {
    /// Head = IEEE sign bit, head-only decode `±σ` (paper §3.1).
    SignMagnitude = 0,
    /// TernGrad-style stochastic quantization, `L = 2.5σ` (paper §3.1).
    Stochastic = 1,
    /// Subtractive dithering with shared-randomness dither (paper §3.1).
    SubtractiveDither = 2,
    /// DRIVE-style 1-bit encoding of the RHT-rotated row (paper §3.2).
    RhtOneBit = 3,
    /// Three-part (1/8/23-bit) prefix-decodable RHT encoding (paper §5.1).
    MultiLevelRht = 4,
}

impl SchemeId {
    /// All scheme identifiers, in wire-id order.
    pub const ALL: [SchemeId; 5] = [
        SchemeId::SignMagnitude,
        SchemeId::Stochastic,
        SchemeId::SubtractiveDither,
        SchemeId::RhtOneBit,
        SchemeId::MultiLevelRht,
    ];

    /// Parses a wire identifier.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<SchemeId> {
        SchemeId::ALL.get(v as usize).copied()
    }

    /// The wire identifier.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Field width of each part, head first. The sum for the sign-based
    /// schemes is 32 (a repartition of the IEEE-754 float costing no extra
    /// space); SQ/SD pay one extra bit (head 1 + tail 32) because their
    /// stochastic head is not a bit of the original representation.
    #[must_use]
    pub fn part_bits(self) -> &'static [u32] {
        match self {
            SchemeId::SignMagnitude | SchemeId::RhtOneBit => &[1, 31],
            SchemeId::Stochastic | SchemeId::SubtractiveDither => &[1, 32],
            SchemeId::MultiLevelRht => &[1, 8, 23],
        }
    }

    /// The parts the run decoder reads from a run of depth `depth` (≤ the
    /// part count). SQ and SD decode a coordinate whose tail arrived from
    /// the tail alone — it is the float itself — so at full depth they read
    /// only the tail; every other depth, and every other scheme, reads the
    /// whole prefix `0..depth`. A source that packs parts on demand
    /// ([`StagedRow::chunks`]) packs these and no others.
    #[must_use]
    pub fn parts_read(self, depth: usize) -> Range<usize> {
        match self {
            SchemeId::Stochastic | SchemeId::SubtractiveDither if depth == 2 => 1..2,
            _ => 0..depth,
        }
    }

    /// The encoded (padded) length of a row of `original_len` coordinates:
    /// the RHT schemes pad to the next power of two, the scalar schemes do
    /// not, and an empty row encodes an empty one.
    #[must_use]
    pub fn encoded_len(self, original_len: usize) -> usize {
        match self {
            SchemeId::RhtOneBit | SchemeId::MultiLevelRht if original_len > 0 => {
                original_len.next_power_of_two()
            }
            _ => original_len,
        }
    }

    /// Encodes one gradient row with the shared `seed`: the row stage, then
    /// the whole-row pack of every part into its plane
    /// ([`StagedRow::to_encoded`]).
    ///
    /// Every scheme upholds:
    ///
    /// * **Exactness** — decoding [`EncodedRow::full_view`] reproduces the
    ///   row bit-exactly (schemes whose parts partition the IEEE-754
    ///   representation) or within floating-point rounding (RHT schemes,
    ///   which round-trip through the rotation).
    /// * **Graceful degradation** — decoding succeeds for *any* prefix-closed
    ///   availability, including heads-only and fully-lost coordinates.
    /// * **Determinism** — `encode(row, seed)` and the matching decode depend
    ///   only on their arguments (shared randomness comes from `seed`).
    #[must_use]
    pub fn encode(self, row: &[f32], seed: u64) -> EncodedRow {
        self.stage(row, seed, &mut RowScratch::default())
            .to_encoded()
    }

    /// The row stage of [`encode`](Self::encode): everything a part's
    /// fields are a function of, coordinate by coordinate — the padded RHT
    /// rotation (into `scratch`), the SQ draws or SD dithers (a stream in
    /// `scratch` that the packer pulls them from, where it needs them), and
    /// the row's scale. An empty row stages as empty, with scale 0.
    pub fn stage<'a>(
        self,
        row: &'a [f32],
        seed: u64,
        scratch: &'a mut RowScratch,
    ) -> StagedRow<'a> {
        let RowScratch { rotated, draws } = scratch;
        *draws.get_mut() = DrawStream::new(seed);
        let scale = match self {
            _ if row.is_empty() => 0.0,
            SchemeId::SignMagnitude => std_dev(row),
            SchemeId::Stochastic | SchemeId::SubtractiveDither => CLIP_SIGMAS * std_dev(row),
            SchemeId::RhtOneBit | SchemeId::MultiLevelRht => rht1bit::stage(row, seed, rotated),
        };
        let values = match self {
            SchemeId::RhtOneBit | SchemeId::MultiLevelRht if !row.is_empty() => rotated,
            _ => row,
        };
        StagedRow {
            scheme: self,
            values,
            draws,
            meta: RowMeta {
                original_len: row.len(),
                scale,
            },
        }
    }

    /// Decodes a (possibly trimmed) row into `out`, which must hold exactly
    /// `meta.original_len` coordinates; every one of them is written.
    /// Coordinates whose head was lost entirely decode to `0.0` (the neutral
    /// element of gradient averaging). The row is decoded where it will
    /// live: no row-sized temporary, except for an RHT row that was padded.
    ///
    /// # Errors
    ///
    /// Structural errors only ([`DecodeError`]); trimming is not an error.
    /// After an error `out` holds unspecified values.
    pub fn decode_into(
        self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        seed: u64,
        out: &mut [f32],
    ) -> Result<(), DecodeError> {
        let consistent = self.encoded_len(meta.original_len) == row.n;
        row.check_output(self.part_bits(), meta, consistent, out)?;
        self.decode_runs(row, row.n, meta, seed, out)
    }

    /// The run decoder: decodes the row of encoded length `n` whose runs
    /// `source` yields into `out`, which must hold exactly
    /// `meta.original_len` coordinates, as
    /// [`decode_into`](Self::decode_into) does for a [`PartialRow`]. Each
    /// run goes to its scheme's kernel as it arrives; the RHT schemes fill
    /// the rotated row and un-rotate it where it lies.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadOriginalLen`] unless `n` is `meta.original_len`'s
    /// encoded length, [`DecodeError::OutputLenMismatch`] unless `out`
    /// holds `meta.original_len` coordinates, and whatever `source`
    /// reports. After an error `out` holds unspecified values.
    pub fn decode_runs(
        self,
        source: impl RunSource,
        n: usize,
        meta: &RowMeta,
        seed: u64,
        out: &mut [f32],
    ) -> Result<(), DecodeError> {
        let (original_len, scale) = (meta.original_len, meta.scale);
        if self.encoded_len(original_len) != n {
            return Err(DecodeError::BadOriginalLen { n, original_len });
        }
        if out.len() != original_len {
            return Err(DecodeError::OutputLenMismatch {
                expected: original_len,
                got: out.len(),
            });
        }
        let part_bits = self.part_bits();
        match self {
            SchemeId::SignMagnitude => source.runs(part_bits, |run| {
                signmag::decode_run(&run, scale, &mut out[run.coords.clone()]);
            }),
            SchemeId::Stochastic => source.runs(part_bits, |run| {
                stochastic::decode_run(&run, scale, &mut out[run.coords.clone()]);
            }),
            SchemeId::SubtractiveDither => {
                let mut dithers = dither::Decoder::new(seed, scale);
                source.runs(part_bits, |run| {
                    dithers.decode_run(&run, &mut out[run.coords.clone()]);
                })
            }
            SchemeId::RhtOneBit => rht1bit::decode_rotated(n, seed, out, |rotated| {
                source.runs(part_bits, |run| {
                    signmag::decode_run(&run, scale, &mut rotated[run.coords.clone()]);
                })
            }),
            SchemeId::MultiLevelRht => rht1bit::decode_rotated(n, seed, out, |rotated| {
                source.runs(part_bits, |run| {
                    multilevel::decode_run(&run, scale, &mut rotated[run.coords.clone()]);
                })
            }),
        }
    }

    /// [`decode_into`](Self::decode_into) a freshly allocated vector of
    /// `meta.original_len` coordinates.
    ///
    /// # Errors
    ///
    /// As [`decode_into`](Self::decode_into).
    pub fn decode(
        self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        seed: u64,
    ) -> Result<Vec<f32>, DecodeError> {
        // `original_len` may come off the wire: never allocate more than the
        // view could fill (`decode_into` then refuses the mismatch).
        let mut out = vec![0.0; meta.original_len.min(row.n)];
        self.decode_into(row, meta, seed, &mut out)?;
        Ok(out)
    }

    /// Checks that a row of this scheme, `n` encoded coordinates long, can
    /// be read with the geometry `part_bits`: what a [`RunSource`] that
    /// knows its own scheme settles before it yields a run.
    ///
    /// # Errors
    ///
    /// [`DecodeError::PartCountMismatch`] if the part counts differ, else
    /// [`DecodeError::LengthMismatch`] for the first part whose width does.
    pub fn check_part_bits(self, part_bits: &[u32], n: usize) -> Result<(), DecodeError> {
        let own = self.part_bits();
        if part_bits.len() != own.len() {
            return Err(DecodeError::PartCountMismatch {
                expected: part_bits.len(),
                got: own.len(),
            });
        }
        match (0..own.len()).find(|&k| part_bits[k] != own[k]) {
            Some(part) => Err(DecodeError::LengthMismatch {
                part,
                expected: n * part_bits[part] as usize,
                got: n * own[part] as usize,
            }),
            None => Ok(()),
        }
    }

    /// Short lower-case name used in benchmark output and examples.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::SignMagnitude => "signmag",
            SchemeId::Stochastic => "sq",
            SchemeId::SubtractiveDither => "sd",
            SchemeId::RhtOneBit => "rht",
            SchemeId::MultiLevelRht => "rht-ml",
        }
    }
}

impl core::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Small per-row side data shipped in reliable (never-trimmed) packets.
///
/// The interpretation of `scale` is scheme-specific: `σ` for sign-magnitude,
/// `L = 2.5σ` for SQ/SD, and the DRIVE factor `f = ‖r‖₂²/‖r‖₁` for the RHT
/// schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMeta {
    /// Number of *original* (pre-padding) coordinates in the row.
    pub original_len: usize,
    /// Scheme-specific scaling factor.
    pub scale: f32,
}

/// What the row stage keeps: the padded rotation of an RHT row, the draw
/// stream of an SQ or SD row. A caller that stages row after row keeps one
/// and allocates only when an RHT row outgrows it.
#[derive(Debug, Default)]
pub struct RowScratch {
    rotated: Vec<f32>,
    draws: RefCell<DrawStream>,
}

/// A row after its row stage ([`SchemeId::stage`]): the values whose fields
/// the parts carry (the row itself, or its padded rotation), an SQ/SD row's
/// draw stream, and the row's metadata.
///
/// Draw `j` of an SQ/SD row is output `j` of the row's generator, whatever
/// order its heads are packed in: the stream produces each draw when a
/// head pack first needs it, steps through consecutive ranges, jumps over
/// coordinates no pack asked for, and reseeds to go back. Copies of a
/// staged row share the stream.
#[derive(Debug, Clone, Copy)]
pub struct StagedRow<'a> {
    scheme: SchemeId,
    values: &'a [f32],
    draws: &'a RefCell<DrawStream>,
    meta: RowMeta,
}

impl<'a> StagedRow<'a> {
    /// Encoded (padded) row length, [`SchemeId::encoded_len`] of the row.
    #[must_use]
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// The row's reliable side data.
    #[must_use]
    pub fn meta(&self) -> RowMeta {
        self.meta
    }

    /// The range packer: writes part `part`'s fields of coordinates
    /// `coords` to `dst`, re-based to bit 0 with the slack bits of the last
    /// byte zero — the bytes `BitBuf::copy_bits_to(coords.start·w,
    /// coords.len()·w, dst)` writes from the whole-row plane of a `w`-bit
    /// part, at any `coords.start`, with no plane in between. Every byte of
    /// `dst` is written, whatever it held.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is not inside `0..n`, or `dst` is not exactly
    /// `(coords.len()·w).div_ceil(8)` bytes (a debug assertion).
    pub fn pack_range(&self, part: usize, coords: Range<usize>, dst: &mut [u8]) {
        let (values, l) = (&self.values[coords.clone()], self.meta.scale);
        match self.scheme {
            SchemeId::SignMagnitude | SchemeId::RhtOneBit => signmag::pack(part, values, dst),
            SchemeId::MultiLevelRht => multilevel::pack(part, values, dst),
            SchemeId::Stochastic => stochastic::pack(part, values, coords, self.draws, l, dst),
            SchemeId::SubtractiveDither => dither::pack(part, values, coords, self.draws, l, dst),
        }
    }

    /// The whole-row pack: every part as a plane of `n` fields.
    #[must_use]
    pub fn to_encoded(&self) -> EncodedRow {
        let n = self.n();
        let parts = self
            .scheme
            .part_bits()
            .iter()
            .enumerate()
            .map(|(part, &w)| {
                let bits = n * w as usize;
                let mut bytes = vec![0; bits.div_ceil(8)];
                self.pack_range(part, 0..n, &mut bytes);
                BitBuf::from_bytes(bytes, bits)
            })
            .collect();
        EncodedRow {
            scheme: self.scheme,
            n,
            parts,
            meta: self.meta,
        }
    }

    /// The row as the receiver of its packets sees it when each chunk
    /// `coords` kept its first `depth` parts (0 = the packet was lost): a
    /// [`RunSource`] for [`SchemeId::decode_runs`] that packs each chunk's
    /// parts the decoder reads at that depth ([`SchemeId::parts_read`]) into
    /// `buf` as the decoder reaches it. No plane or mask is built, a part a
    /// fate cut is never packed, nor is a part the decoder does not read —
    /// an intact SQ/SD chunk packs its tails alone and pulls no draw. It
    /// decodes bit for bit as [`to_encoded`](Self::to_encoded)'s planes
    /// viewed through [`EncodedRow::view_with_runs`] with the same `fates`
    /// do.
    pub fn chunks<'s, I>(&self, fates: I, buf: &'s mut Vec<u8>) -> StagedChunks<'s, I>
    where
        'a: 's,
        I: IntoIterator<Item = (Range<usize>, usize)>,
    {
        StagedChunks {
            row: *self,
            fates,
            buf,
        }
    }
}

/// The staged source ([`StagedRow::chunks`]): one run per packet-chunk of
/// a staged row, the surviving parts its decoder reads packed
/// ([`StagedRow::pack_range`]) into a small buffer reused from chunk to
/// chunk, with the chunk's first coordinate as the run's `origin`; the
/// run's other parts are empty.
#[derive(Debug)]
pub struct StagedChunks<'s, I> {
    row: StagedRow<'s>,
    fates: I,
    buf: &'s mut Vec<u8>,
}

/// # Panics
///
/// Panics unless the fates tile `0..n` in order, or if a depth exceeds the
/// part count.
impl<I: IntoIterator<Item = (Range<usize>, usize)>> RunSource for StagedChunks<'_, I> {
    fn runs(self, part_bits: &[u32], mut on_run: impl FnMut(Run<'_>)) -> Result<(), DecodeError> {
        let StagedChunks { row, fates, buf } = self;
        let n = row.n();
        row.scheme.check_part_bits(part_bits, n)?;
        let mut covered = 0;
        for (coords, depth) in fates {
            assert_eq!(coords.start, covered, "fates must tile the row in order");
            assert!(depth <= part_bits.len(), "depth exceeds part count");
            covered = coords.end;
            let read = row.scheme.parts_read(depth);
            let bytes = |k: usize| (coords.len() * part_bits[k] as usize).div_ceil(8);
            let need = read.clone().map(bytes).sum();
            if buf.len() < need {
                buf.resize(need, 0);
            }
            let mut parts = [&[][..]; MAX_PARTS];
            let mut rest = &mut buf[..need];
            for k in read {
                let (dst, tail) = core::mem::take(&mut rest).split_at_mut(bytes(k));
                row.pack_range(k, coords.clone(), dst);
                parts[k] = dst;
                rest = tail;
            }
            on_run(Run {
                origin: coords.start,
                coords,
                depth,
                parts,
            });
        }
        assert_eq!(covered, n, "fates must cover the row");
        Ok(())
    }
}

/// A fully-encoded row, before packetization.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedRow {
    /// The scheme that produced this row.
    pub scheme: SchemeId,
    /// Encoded row length (≥ `meta.original_len`; RHT schemes pad to a power
    /// of two).
    pub n: usize,
    /// `parts[k]` holds `n` fields of `part_bits()[k]` bits each; part 0 is
    /// the head, later parts are progressively trimmed first.
    pub parts: Vec<BitBuf>,
    /// Reliable side data.
    pub meta: RowMeta,
}

impl EncodedRow {
    /// A view with every part fully available (the untrimmed case).
    #[must_use]
    pub fn full_view(&self) -> PartialRow<'_> {
        PartialRow {
            n: self.n,
            parts: self.parts.iter().map(PartView::Full).collect(),
        }
    }

    /// A view with only the first `depth` parts available for every
    /// coordinate (uniform trimming). `depth = 1` is the classic
    /// "heads only" trim; `depth = parts.len()` equals [`full_view`](Self::full_view).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the part count — a fully-lost row
    /// has no view; model it at the packet layer instead.
    #[must_use]
    pub fn trimmed_view(&self, depth: usize) -> PartialRow<'_> {
        assert!(
            depth >= 1 && depth <= self.parts.len(),
            "trim depth {depth} out of range 1..={}",
            self.parts.len()
        );
        PartialRow {
            n: self.n,
            parts: self
                .parts
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    if k < depth {
                        PartView::Full(p)
                    } else {
                        PartView::Absent
                    }
                })
                .collect(),
        }
    }

    /// A view where coordinate `i` has `depths[i]` parts available
    /// (0 = nothing survived for that coordinate):
    /// [`view_with_runs`](Self::view_with_runs) over the maximal runs of
    /// equal depth.
    ///
    /// # Panics
    ///
    /// Panics if `depths.len() != n` or any depth exceeds the part count.
    #[must_use]
    pub fn view_with_depths(&self, depths: &[usize]) -> PartialRow<'_> {
        assert_eq!(depths.len(), self.n, "one depth per coordinate");
        let mut start = 0;
        self.view_with_runs(depths.chunk_by(|a, b| a == b).map(|run| {
            let range = start..start + run.len();
            start = range.end;
            (range, run[0])
        }))
    }

    /// A view where every coordinate of each `(range, depth)` run has
    /// `depth` parts available (0 = nothing survived). Trimming happens per
    /// packet, so a run is typically one packet's coordinates: one masked
    /// word fill per run and part, not one bit write per coordinate and part.
    ///
    /// # Panics
    ///
    /// Panics unless the runs tile `0..n` in order, or if a depth exceeds the
    /// part count.
    #[must_use]
    pub fn view_with_runs(
        &self,
        runs: impl IntoIterator<Item = (Range<usize>, usize)>,
    ) -> PartialRow<'_> {
        let k = self.parts.len();
        let mut masks = vec![BitMask::absent(self.n); k];
        let mut covered = 0;
        for (range, depth) in runs {
            assert_eq!(range.start, covered, "runs must tile the row in order");
            assert!(depth <= k, "depth exceeds part count {k}");
            for mask in &mut masks[..depth] {
                mask.set_range(range.start, range.end, true);
            }
            covered = range.end;
        }
        assert_eq!(covered, self.n, "runs must cover the row");
        let parts = self
            .parts
            .iter()
            .zip(masks)
            .map(|(buf, present)| match present.count_present() {
                c if c == self.n => PartView::Full(buf),
                0 => PartView::Absent,
                _ => PartView::Masked {
                    buf,
                    present: Cow::Owned(present),
                },
            })
            .collect();
        PartialRow { n: self.n, parts }
    }

    /// Total encoded size in bits (all parts, excluding metadata).
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.parts.iter().map(BitBuf::len).sum()
    }
}

/// Availability of one encoding part on the receiver.
#[derive(Debug, Clone)]
pub enum PartView<'a> {
    /// Every coordinate's field arrived.
    Full(&'a BitBuf),
    /// Some coordinates' fields arrived; `present` says which. `buf` keeps
    /// full stride (absent entries hold unspecified bits that must not be
    /// read).
    Masked {
        /// Full-stride field buffer.
        buf: &'a BitBuf,
        /// Per-coordinate presence: lent by a receiver that keeps its masks
        /// (`RowAssembler`), owned by a view that built them.
        present: Cow<'a, BitMask>,
    },
    /// The entire part was trimmed for every coordinate.
    Absent,
}

impl PartView<'_> {
    /// Whether coordinate `i`'s field is available in this part.
    #[must_use]
    pub fn has(&self, i: usize) -> bool {
        match self {
            PartView::Full(_) => true,
            PartView::Masked { present, .. } => present.get(i),
            PartView::Absent => false,
        }
    }

    /// Reads coordinate `i`'s `width`-bit field.
    ///
    /// # Panics
    ///
    /// Panics if the field is not available (callers must check [`has`](Self::has)).
    #[must_use]
    pub fn get(&self, i: usize, width: u32) -> u64 {
        match self {
            PartView::Full(buf) => buf.get_bits(i * width as usize, width),
            PartView::Masked { buf, present } => {
                assert!(present.get(i), "coordinate {i} absent in masked part");
                buf.get_bits(i * width as usize, width)
            }
            // trimlint: allow(hot-path-panic) -- diagnosed misuse guard per the # Panics contract; callers check has() first
            PartView::Absent => panic!("coordinate {i} read from absent part"),
        }
    }

    /// The part's packed field bytes (empty when the part is absent): what
    /// the kernels of [`crate::kernels`] unpack a run from.
    #[must_use]
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            PartView::Full(buf) | PartView::Masked { buf, .. } => buf.as_bytes(),
            PartView::Absent => &[],
        }
    }

    /// Presence of coordinates `[64·w, 64·w + 64)` as one word; `valid` has
    /// a bit for each of them that is below the row length.
    #[inline]
    fn presence_word(&self, w: usize, valid: u64) -> u64 {
        match self {
            PartView::Full(_) => valid,
            PartView::Masked { present, .. } => present.word(w),
            PartView::Absent => 0,
        }
    }
}

/// What the receiver reassembled for one row: per-part availability.
#[derive(Debug, Clone)]
pub struct PartialRow<'a> {
    /// Encoded row length (matches [`EncodedRow::n`]).
    pub n: usize,
    /// One view per encoding part.
    pub parts: Vec<PartView<'a>>,
}

impl PartialRow<'_> {
    /// Number of consecutive parts available for coordinate `i`, starting
    /// from part 0. Returns 0 when even the head is missing (whole packet
    /// lost rather than trimmed).
    #[must_use]
    pub fn avail_depth(&self, i: usize) -> usize {
        self.parts.iter().take_while(|p| p.has(i)).count()
    }

    /// Validates structural invariants against a scheme's geometry:
    /// part count matches, buffers hold `n` fields, and availability is
    /// prefix-closed for every coordinate.
    ///
    /// # Errors
    ///
    /// Returns the specific [`DecodeError`] violated.
    pub fn validate(&self, part_bits: &[u32]) -> Result<(), DecodeError> {
        self.for_each_run(part_bits, |_, _| {})
    }

    /// What [`SchemeId::decode_into`] settles before it decodes: `meta` is
    /// `consistent` with the encoded length and `out` holds exactly
    /// `meta.original_len` coordinates. When either fails, a structural error
    /// of the view itself is still reported first, as the run scan would.
    pub(crate) fn check_output(
        &self,
        part_bits: &[u32],
        meta: &RowMeta,
        consistent: bool,
        out: &[f32],
    ) -> Result<(), DecodeError> {
        if consistent && out.len() == meta.original_len {
            return Ok(());
        }
        self.validate(part_bits)?;
        Err(if consistent {
            DecodeError::OutputLenMismatch {
                expected: meta.original_len,
                got: out.len(),
            }
        } else {
            DecodeError::BadOriginalLen {
                n: self.n,
                original_len: meta.original_len,
            }
        })
    }

    /// Part count matches the scheme and every buffer and mask is long
    /// enough for `n` coordinates.
    fn check_geometry(&self, part_bits: &[u32]) -> Result<(), DecodeError> {
        if self.parts.len() != part_bits.len() {
            return Err(DecodeError::PartCountMismatch {
                expected: part_bits.len(),
                got: self.parts.len(),
            });
        }
        for (k, (view, &w)) in self.parts.iter().zip(part_bits).enumerate() {
            let need = self.n * w as usize;
            let have = match view {
                PartView::Full(b) => b.len(),
                PartView::Masked { buf, present } => {
                    if present.len() != self.n {
                        return Err(DecodeError::LengthMismatch {
                            part: k,
                            expected: need,
                            got: present.len(),
                        });
                    }
                    buf.len()
                }
                PartView::Absent => continue,
            };
            if have < need {
                return Err(DecodeError::LengthMismatch {
                    part: k,
                    expected: need,
                    got: have,
                });
            }
        }
        Ok(())
    }

    /// Validates the view like [`validate`](Self::validate) and calls
    /// `on_run(range, depth)` for each maximal range of consecutive coordinates
    /// that share one [`avail_depth`](Self::avail_depth), in coordinate
    /// order; the ranges tile `0..n`. A packet is trimmed as a whole, so on
    /// real traffic a run is at least a packet's worth of coordinates, and a
    /// decoder does its per-coordinate work inside one kernel call per run.
    /// `on_run` is first called after the part count and buffer lengths have
    /// been checked against `part_bits`, so it — and not its caller, before
    /// the scan — may index `parts` by the scheme's part count.
    ///
    /// The scan reads the presence masks 64 coordinates at a time. With
    /// `m[k]` the presence word of part `k`: a coordinate breaks prefix
    /// closure iff its bit is set in some `m[k] & !m[k-1]`; a run ends where
    /// a bit of some `m[k]` differs from its predecessor; and inside a valid
    /// word a coordinate's depth is the number of parts that have it. A word
    /// without a boundary — nearly all of them — costs a few operations per
    /// part, whatever the row holds.
    ///
    /// # Errors
    ///
    /// Returns the specific [`DecodeError`] violated; runs before the first
    /// offending mask word have already been reported by then.
    // trimlint: hot-path -- the receive path's one pass over the presence masks
    pub fn for_each_run(
        &self,
        part_bits: &[u32],
        mut on_run: impl FnMut(Range<usize>, usize),
    ) -> Result<(), DecodeError> {
        self.check_geometry(part_bits)?;
        let n = self.n;
        // The open run: coordinates before the row count as depth 0.
        let (mut start, mut depth) = (0usize, 0usize);
        for w in 0..n.div_ceil(64) {
            let valid = if n - w * 64 >= 64 {
                u64::MAX
            } else {
                (1u64 << (n % 64)) - 1
            };
            let (mut offenders, mut boundaries, mut below) = (0u64, 0u64, u64::MAX);
            for view in &self.parts {
                let m = view.presence_word(w, valid);
                offenders |= m & !below;
                below = m;
                // Presence of the coordinate just before this word.
                let before = match w {
                    0 => 0,
                    _ => view.presence_word(w - 1, u64::MAX) >> 63,
                };
                boundaries |= m ^ (m << 1 | before);
            }
            if offenders != 0 {
                let bit = offenders.trailing_zeros();
                let has = |view: &PartView<'_>| view.presence_word(w, valid) >> bit & 1 == 1;
                // The first part present above a gap; it has a predecessor.
                let part = (1..self.parts.len())
                    .find(|&k| has(&self.parts[k]) && !has(&self.parts[k - 1]))
                    .unwrap_or(0);
                return Err(DecodeError::PrefixViolation {
                    coord: w * 64 + bit as usize,
                    part,
                });
            }
            boundaries &= valid;
            while boundaries != 0 {
                let bit = boundaries.trailing_zeros();
                boundaries &= boundaries - 1;
                let at = w * 64 + bit as usize;
                if at > start {
                    on_run(start..at, depth);
                }
                start = at;
                depth = self
                    .parts
                    .iter()
                    .filter(|view| view.presence_word(w, valid) >> bit & 1 == 1)
                    .count();
            }
        }
        if n > start {
            on_run(start..n, depth);
        }
        Ok(())
    }
}

/// One run of constant depth, as the run decoder reads it: coordinates
/// `coords` of the row have their first `depth` parts (0 = nothing
/// survived), and `parts[k]` holds part `k`'s fields from coordinate
/// `origin` on, re-based to bit 0. A whole row's plane has `origin` 0; one
/// packet's section has the packet's first coordinate.
#[derive(Debug, Clone)]
pub struct Run<'a> {
    /// The run's coordinates, within the row.
    pub coords: Range<usize>,
    /// Parts available for every coordinate of the run.
    pub depth: usize,
    /// The coordinate whose fields open `parts`.
    pub origin: usize,
    /// Packed field bytes per part; only the parts
    /// [`SchemeId::parts_read`] names for `depth` are read.
    pub parts: [&'a [u8]; MAX_PARTS],
}

impl Run<'_> {
    /// The run's first coordinate counted from `origin`: where the kernels
    /// start reading `parts`.
    #[must_use]
    pub fn start(&self) -> usize {
        self.coords.start - self.origin
    }
}

/// Where the run decoder ([`SchemeId::decode_runs`]) reads a row from.
pub trait RunSource {
    /// Calls `on_run` for each run, in coordinate order; the runs tile
    /// `0..n` of the row being decoded. `part_bits` is the decoding
    /// scheme's geometry, for a source that has to check its own against
    /// it first.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] for a source that is not a valid row of that
    /// geometry; the runs before the fault may have been reported.
    fn runs(self, part_bits: &[u32], on_run: impl FnMut(Run<'_>)) -> Result<(), DecodeError>;
}

/// The plane source: [`PartialRow::for_each_run`]'s runs over whole-row
/// planes (`origin` 0).
impl RunSource for &PartialRow<'_> {
    fn runs(self, part_bits: &[u32], mut on_run: impl FnMut(Run<'_>)) -> Result<(), DecodeError> {
        let parts = core::array::from_fn(|k| self.parts.get(k).map_or(&[][..], PartView::bytes));
        self.for_each_run(part_bits, |coords, depth| {
            on_run(Run {
                coords,
                depth,
                origin: 0,
                parts,
            });
        })
    }
}

/// Errors surfaced while decoding a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The view has a different number of parts than the scheme.
    PartCountMismatch {
        /// Scheme's part count.
        expected: usize,
        /// View's part count.
        got: usize,
    },
    /// A part buffer or mask is too short for `n` coordinates.
    LengthMismatch {
        /// Which part.
        part: usize,
        /// Bits (or entries) required.
        expected: usize,
        /// Bits (or entries) found.
        got: usize,
    },
    /// Coordinate has a later part without an earlier one — impossible under
    /// trimming, indicates reassembly corruption.
    PrefixViolation {
        /// The offending coordinate.
        coord: usize,
        /// The part present despite an earlier gap.
        part: usize,
    },
    /// `meta.original_len` is inconsistent with the encoded length `n`.
    BadOriginalLen {
        /// Encoded (padded) length.
        n: usize,
        /// Claimed original length.
        original_len: usize,
    },
    /// The slice handed to `decode_into` does not hold `meta.original_len`
    /// coordinates.
    OutputLenMismatch {
        /// `meta.original_len`.
        expected: usize,
        /// Length of the output slice.
        got: usize,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::PartCountMismatch { expected, got } => {
                write!(f, "expected {expected} parts, got {got}")
            }
            DecodeError::LengthMismatch {
                part,
                expected,
                got,
            } => {
                write!(f, "part {part}: expected {expected} bits, got {got}")
            }
            DecodeError::PrefixViolation { coord, part } => {
                write!(
                    f,
                    "coordinate {coord} has part {part} but misses an earlier part"
                )
            }
            DecodeError::BadOriginalLen { n, original_len } => {
                write!(
                    f,
                    "original_len {original_len} inconsistent with encoded n {n}"
                )
            }
            DecodeError::OutputLenMismatch { expected, got } => {
                write!(f, "output holds {got} coordinates, the row {expected}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_id_wire_roundtrip() {
        for id in SchemeId::ALL {
            assert_eq!(SchemeId::from_u8(id.as_u8()), Some(id));
        }
        assert_eq!(SchemeId::from_u8(5), None);
        assert_eq!(SchemeId::from_u8(255), None);
    }

    #[test]
    fn every_scheme_has_a_head_and_positive_widths() {
        for id in SchemeId::ALL {
            assert!(!id.part_bits().is_empty(), "{id}: no head part");
            assert!(id.part_bits().iter().all(|&b| b > 0), "{id}: empty part");
        }
    }

    #[test]
    fn encoded_len_is_the_padding_rule_encode_follows() {
        const LENS: [usize; 7] = [0, 1, 63, 64, 65, 4095, 32768];
        const PADDED: [usize; 7] = [0, 1, 64, 64, 128, 4096, 32768];
        for id in SchemeId::ALL {
            let pads = matches!(id, SchemeId::RhtOneBit | SchemeId::MultiLevelRht);
            for (len, padded) in LENS.into_iter().zip(PADDED) {
                let want = if pads { padded } else { len };
                assert_eq!(id.encoded_len(len), want, "{id} len {len}");
                let row: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
                let enc = id.encode(&row, 5);
                assert_eq!(enc.n, want, "{id} len {len}");
                assert_eq!(enc.meta.original_len, len);
            }
        }
    }

    #[test]
    fn scheme_id_names_unique() {
        let mut names: Vec<_> = SchemeId::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SchemeId::ALL.len());
        assert_eq!(SchemeId::RhtOneBit.to_string(), "rht");
    }

    fn sample_row() -> EncodedRow {
        // Two parts of widths 1 and 3, n = 4.
        let mut head = BitBuf::new();
        let mut tail = BitBuf::new();
        for i in 0..4u64 {
            head.push_bits(i % 2, 1);
            tail.push_bits(i * 2 % 8, 3);
        }
        EncodedRow {
            scheme: SchemeId::SignMagnitude,
            n: 4,
            parts: vec![head, tail],
            meta: RowMeta {
                original_len: 4,
                scale: 1.0,
            },
        }
    }

    #[test]
    fn full_view_has_max_depth_everywhere() {
        let row = sample_row();
        let v = row.full_view();
        for i in 0..4 {
            assert_eq!(v.avail_depth(i), 2);
        }
        assert!(v.validate(&[1, 3]).is_ok());
    }

    #[test]
    fn trimmed_view_depths() {
        let row = sample_row();
        let v = row.trimmed_view(1);
        for i in 0..4 {
            assert_eq!(v.avail_depth(i), 1);
        }
        assert!(v.validate(&[1, 3]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn trimmed_view_rejects_zero_depth() {
        let _ = sample_row().trimmed_view(0);
    }

    #[test]
    fn view_with_depths_mixed() {
        let row = sample_row();
        let v = row.view_with_depths(&[2, 1, 0, 2]);
        assert_eq!(v.avail_depth(0), 2);
        assert_eq!(v.avail_depth(1), 1);
        assert_eq!(v.avail_depth(2), 0);
        assert_eq!(v.avail_depth(3), 2);
        assert!(v.validate(&[1, 3]).is_ok());
        // Fields still readable where available.
        assert_eq!(v.parts[0].get(0, 1), 0);
        assert_eq!(v.parts[1].get(3, 3), 6);
    }

    #[test]
    fn validate_catches_part_count_mismatch() {
        let row = sample_row();
        let v = row.full_view();
        assert_eq!(
            v.validate(&[1, 3, 7]),
            Err(DecodeError::PartCountMismatch {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn validate_catches_short_buffer() {
        let row = sample_row();
        let v = row.full_view();
        // Claim widths larger than what the buffers hold.
        assert!(matches!(
            v.validate(&[2, 3]),
            Err(DecodeError::LengthMismatch { part: 0, .. })
        ));
    }

    #[test]
    fn validate_catches_prefix_violation() {
        let row = sample_row();
        // Coordinate 1: head absent but tail present — impossible under trimming.
        let mut head_mask = BitMask::present(4);
        head_mask.set(1, false);
        let v = PartialRow {
            n: 4,
            parts: vec![
                PartView::Masked {
                    buf: &row.parts[0],
                    present: Cow::Owned(head_mask),
                },
                PartView::Full(&row.parts[1]),
            ],
        };
        assert_eq!(
            v.validate(&[1, 3]),
            Err(DecodeError::PrefixViolation { coord: 1, part: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "absent in masked part")]
    fn masked_get_panics_on_absent_coord() {
        let row = sample_row();
        let mut present = BitMask::absent(4);
        present.set(0, true);
        let view = PartView::Masked {
            buf: &row.parts[0],
            present: Cow::Owned(present),
        };
        let _ = view.get(2, 1);
    }

    #[test]
    fn decode_error_messages() {
        let e = DecodeError::PrefixViolation { coord: 3, part: 1 };
        assert!(e.to_string().contains("coordinate 3"));
        let e = DecodeError::BadOriginalLen {
            n: 8,
            original_len: 9,
        };
        assert!(e.to_string().contains("inconsistent"));
    }
}
