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
//! * [`PartialRow`] — one receiver-side input: a row's whole-row planes and
//!   each coordinate's **depth**, the number of parts that arrived. A
//!   decoder "can decode using any number of parts forming a prefix of the
//!   encoding", so a depth is all there is to know of a coordinate.
//!
//! Decoders do not ask "what is coordinate `i`'s depth?" `n` times. Trimming
//! happens per packet, so availability is constant over long stretches of a
//! row, and [`SchemeId::decode_runs`] — the one decoder — reads a row as
//! **runs of constant depth** ([`Run`]), one call into a bit-parallel kernel
//! of [`crate::kernels`] per run. A [`RunSource`] yields them, and there are
//! three: a [`PartialRow`] (planes), which keeps its depths as runs; a
//! receiver that reads each packet's sections where they lie
//! (`trimgrad_wire::reassemble::RowFrames`, frames); and a staged row read
//! chunk by chunk under known packet fates ([`StagedChunks`], staged
//! chunks), which packs each chunk's surviving parts that the decoder reads
//! ([`SchemeId::parts_read`]) as the decoder reaches it.

use crate::bitpack::BitBuf;
use crate::draws::DrawStream;
use crate::stats::{std_dev, CLIP_SIGMAS};
use crate::{dither, multilevel, rht1bit, signmag, stochastic};
use core::cell::RefCell;
use core::ops::Range;

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
    /// * **Graceful degradation** — decoding succeeds for *any* depths,
    ///   including heads-only and fully-lost coordinates.
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

    /// The run decoder: decodes the row of encoded length `n` whose runs
    /// `source` yields into `out`, which must hold exactly
    /// `meta.original_len` coordinates; every one of them is written.
    /// Coordinates whose head was lost entirely decode to `0.0` (the neutral
    /// element of gradient averaging). Each run goes to its scheme's kernel
    /// as it arrives; the RHT schemes fill the rotated row and un-rotate it
    /// where it lies, so no row-sized temporary is made, except for an RHT
    /// row that was padded.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadOriginalLen`] unless `n` is `meta.original_len`'s
    /// encoded length, [`DecodeError::OutputLenMismatch`] unless `out`
    /// holds `meta.original_len` coordinates, and whatever `source`
    /// reports. Trimming is not an error. After an error `out` holds
    /// unspecified values.
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

    /// Decodes a plane view ([`decode_runs`](Self::decode_runs)) into a
    /// freshly allocated vector of `meta.original_len` coordinates.
    ///
    /// # Errors
    ///
    /// As [`decode_runs`](Self::decode_runs).
    pub fn decode(
        self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        seed: u64,
    ) -> Result<Vec<f32>, DecodeError> {
        // `original_len` may come off the wire: never allocate more than the
        // view could fill (`decode_runs` then refuses the mismatch).
        let mut out = vec![0.0; meta.original_len.min(row.n)];
        self.decode_runs(row, row.n, meta, seed, &mut out)?;
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
    /// `buf` as the decoder reaches it. No plane is built, a part a
    /// fate cut is never packed, nor is a part the decoder does not read —
    /// an intact SQ/SD chunk packs its tails alone and pulls no draw. It
    /// decodes bit for bit as [`to_encoded`](Self::to_encoded)'s planes
    /// viewed through [`EncodedRow::view_with_depths`] with the same `fates`
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
    ///
    /// # Panics
    ///
    /// As [`PartialRow::new`], for a row whose planes do not match its
    /// scheme.
    #[must_use]
    pub fn full_view(&self) -> PartialRow<'_> {
        self.uniform_view(self.parts.len())
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
        self.uniform_view(depth)
    }

    /// One run of `depth` over the whole row (none over an empty one).
    fn uniform_view(&self, depth: usize) -> PartialRow<'_> {
        let runs = (self.n > 0).then_some((0..self.n, depth)).into_iter();
        PartialRow::of_runs(self.scheme, self.n, &self.parts, runs.collect())
    }

    /// A view where coordinate `i` has `depths[i]` parts available
    /// (0 = nothing survived for that coordinate): [`PartialRow::new`] over
    /// this row's planes.
    ///
    /// # Panics
    ///
    /// Panics if `depths.len() != n` or any depth exceeds the part count.
    #[must_use]
    pub fn view_with_depths(&self, depths: &[usize]) -> PartialRow<'_> {
        assert_eq!(depths.len(), self.n, "one depth per coordinate");
        PartialRow::new(self.scheme, &self.parts, depths)
    }

    /// Total encoded size in bits (all parts, excluding metadata).
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.parts.iter().map(BitBuf::len).sum()
    }
}

/// What a receiver holds of one row, as the plane decoder reads it: the
/// row's whole-row planes, and for each coordinate its **depth**, the
/// number of parts that arrived (0 = nothing), kept as the maximal runs of
/// constant depth that tile `0..n`. Every frame carries a prefix of the
/// parts, so a depth is everything a receiver knows of a coordinate: a view
/// states no availability that trimming cannot produce.
///
/// Its fields are private, so a view comes from [`EncodedRow`]'s views or
/// [`PartialRow::new`], which check it against the scheme's geometry; a
/// struct literal does not compile:
///
/// ```compile_fail,E0451
/// use trimgrad_quant::scheme::PartialRow;
/// use trimgrad_quant::SchemeId;
/// let view = PartialRow { scheme: SchemeId::SignMagnitude, n: 0, planes: &[], runs: Vec::new() };
/// ```
#[derive(Debug, Clone)]
pub struct PartialRow<'a> {
    scheme: SchemeId,
    n: usize,
    planes: &'a [BitBuf],
    runs: Vec<(Range<usize>, usize)>,
}

impl<'a> PartialRow<'a> {
    /// The view of a `scheme` row's whole-row `planes` whose coordinate `i`
    /// has its first `depths[i]` parts; the row is `depths.len()`
    /// coordinates long. Trimming happens per packet, so the depths come in
    /// runs of one packet's coordinates, and the view keeps one entry per
    /// maximal run.
    ///
    /// # Panics
    ///
    /// Panics unless `planes` holds one plane of `depths.len()` fields per
    /// part of `scheme`, or if a depth exceeds the part count.
    #[must_use]
    pub fn new<D: Copy + PartialEq + Into<usize>>(
        scheme: SchemeId,
        planes: &'a [BitBuf],
        depths: &[D],
    ) -> Self {
        let mut start = 0;
        let runs = depths
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let coords = start..start + run.len();
                start = coords.end;
                (coords, run[0].into())
            })
            .collect();
        Self::of_runs(scheme, depths.len(), planes, runs)
    }

    /// The view of `runs` over `planes`, checked against `scheme`'s geometry.
    fn of_runs(
        scheme: SchemeId,
        n: usize,
        planes: &'a [BitBuf],
        runs: Vec<(Range<usize>, usize)>,
    ) -> Self {
        let part_bits = scheme.part_bits();
        assert!(
            planes.len() == part_bits.len()
                && planes
                    .iter()
                    .zip(part_bits)
                    .all(|(p, &w)| p.len() >= n * w as usize),
            "{scheme} planes must hold {n} fields of each part"
        );
        let k = part_bits.len();
        assert!(
            runs.iter().all(|&(_, depth)| depth <= k),
            "depth exceeds part count {k}"
        );
        Self {
            scheme,
            n,
            planes,
            runs,
        }
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

/// The plane source: one run per depth run of the view, read from the
/// whole-row planes (`origin` 0).
impl RunSource for &PartialRow<'_> {
    fn runs(self, part_bits: &[u32], mut on_run: impl FnMut(Run<'_>)) -> Result<(), DecodeError> {
        self.scheme.check_part_bits(part_bits, self.n)?;
        let parts = core::array::from_fn(|k| self.planes.get(k).map_or(&[][..], BitBuf::as_bytes));
        for (coords, depth) in &self.runs {
            on_run(Run {
                coords: coords.clone(),
                depth: *depth,
                origin: 0,
                parts,
            });
        }
        Ok(())
    }
}

/// Errors surfaced while decoding a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The source has a different number of parts than the scheme.
    PartCountMismatch {
        /// Scheme's part count.
        expected: usize,
        /// Source's part count.
        got: usize,
    },
    /// A part of the source has another width than the scheme's: `n`
    /// fields of it hold another number of bits.
    LengthMismatch {
        /// Which part.
        part: usize,
        /// Bits the scheme's part holds.
        expected: usize,
        /// Bits the source's part holds.
        got: usize,
    },
    /// `meta.original_len` is inconsistent with the encoded length `n`.
    BadOriginalLen {
        /// Encoded (padded) length.
        n: usize,
        /// Claimed original length.
        original_len: usize,
    },
    /// The slice handed to `decode_runs` does not hold `meta.original_len`
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

    /// The view's runs as `id`'s decoder reads them.
    fn runs(v: &PartialRow<'_>, id: SchemeId) -> Result<Vec<(Range<usize>, usize)>, DecodeError> {
        let mut runs = Vec::new();
        v.runs(id.part_bits(), |run| runs.push((run.coords, run.depth)))?;
        Ok(runs)
    }

    fn sample_row() -> EncodedRow {
        SchemeId::SignMagnitude.encode(&[1.0, -2.0, 0.5, -0.25], 0)
    }

    #[test]
    fn full_view_has_max_depth_everywhere() {
        let row = sample_row();
        assert_eq!(
            runs(&row.full_view(), SchemeId::SignMagnitude),
            Ok(vec![(0..4, 2)])
        );
    }

    #[test]
    fn trimmed_view_depths() {
        let row = sample_row();
        assert_eq!(
            runs(&row.trimmed_view(1), SchemeId::SignMagnitude),
            Ok(vec![(0..4, 1)])
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn trimmed_view_rejects_zero_depth() {
        let _ = sample_row().trimmed_view(0);
    }

    #[test]
    fn view_with_depths_mixed() {
        let row = sample_row();
        let v = row.view_with_depths(&[2, 1, 1, 0]);
        let want = vec![(0..1, 2), (1..3, 1), (3..4, 0)];
        assert_eq!(runs(&v, SchemeId::SignMagnitude), Ok(want));
        // Every run reads the row's own planes from coordinate 0.
        let bits = SchemeId::SignMagnitude.part_bits();
        (&v).runs(bits, |run| {
            assert_eq!(run.origin, 0);
            assert_eq!(run.parts[0], row.parts[0].as_bytes());
            assert_eq!(run.parts[1], row.parts[1].as_bytes());
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "depth exceeds part count")]
    fn view_with_depths_rejects_a_depth_past_the_parts() {
        let _ = sample_row().view_with_depths(&[3, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "planes must hold")]
    fn a_view_of_planes_too_short_for_the_row_is_refused() {
        let long = EncodedRow {
            n: 8,
            ..sample_row()
        };
        let _ = long.full_view();
    }

    #[test]
    fn runs_catch_another_geometry() {
        let row = sample_row();
        let v = row.full_view();
        assert_eq!(
            runs(&v, SchemeId::MultiLevelRht),
            Err(DecodeError::PartCountMismatch {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            runs(&v, SchemeId::Stochastic),
            Err(DecodeError::LengthMismatch {
                part: 1,
                expected: 4 * 32,
                got: 4 * 31
            })
        );
    }

    #[test]
    fn decode_error_messages() {
        let e = DecodeError::LengthMismatch {
            part: 1,
            expected: 128,
            got: 124,
        };
        assert!(e.to_string().contains("part 1"));
        let e = DecodeError::BadOriginalLen {
            n: 8,
            original_len: 9,
        };
        assert!(e.to_string().contains("inconsistent"));
    }
}
