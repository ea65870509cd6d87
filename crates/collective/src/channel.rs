//! The channel abstraction collectives run over.
//!
//! A [`GradChannel`] moves one gradient segment from one worker to another
//! and lends what the receiver decodes to the caller, allocating nothing for
//! it. The two implementations bracket the paper's design space:
//!
//! * [`LosslessChannel`] — the uncompressed baseline (lends the sender's own
//!   data, counts raw bytes);
//! * [`TrimmingChannel`] — encode with a [`MessageCodec`], pass through a
//!   [`TrimInjector`] (the simulated congested fabric), decode on the far
//!   side. Counts the bytes that actually crossed the wire (trimmed packets
//!   are small — that is the whole point).

use crate::chunk::MessageCodec;
use crate::trim_inject::{Fate, InjectStats, TrimInjector};
use trimgrad_quant::scheme::RowScratch;
use trimgrad_telemetry::{Counter, Registry};
use trimgrad_wire::meta;
use trimgrad_wire::packetize::{frame_len, DEFAULT_MTU};
use trimgrad_wire::stack::{IP_OVERHEAD, PAYLOAD_START};

/// A point-to-point gradient transfer.
pub trait GradChannel {
    /// Transfers `data`, lending the receiver's decode of it to `sink` in
    /// order: `sink(offset, piece)` gets the decode of `data[offset..][..piece.len()]`.
    fn transfer(&mut self, data: &[f32], epoch: u32, msg_id: u32, sink: impl FnMut(usize, &[f32]));

    /// Wire bytes consumed so far (headers included).
    fn bytes_sent(&self) -> u64;
}

/// The uncompressed, lossless baseline channel.
#[derive(Debug, Default)]
pub struct LosslessChannel {
    bytes: u64,
}

impl LosslessChannel {
    /// Creates the channel.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl GradChannel for LosslessChannel {
    fn transfer(&mut self, data: &[f32], _: u32, _: u32, mut sink: impl FnMut(usize, &[f32])) {
        // Raw f32 payload in MTU packets: 4 B/coordinate plus the header
        // stack without the TrimGrad header.
        let per_packet = (DEFAULT_MTU - IP_OVERHEAD) / 4;
        let packets = data.len().div_ceil(per_packet);
        self.bytes += (data.len() * 4 + packets * PAYLOAD_START) as u64;
        sink(0, data);
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes
    }
}

/// Live telemetry handles for one channel, under a caller-chosen prefix.
#[derive(Debug, Clone)]
struct ChannelMetrics {
    intact: Counter,
    trimmed: Counter,
    dropped: Counter,
    bytes_sent: Counter,
    transfers: Counter,
}

/// Encode → inject trimming → decode.
#[derive(Debug)]
pub struct TrimmingChannel {
    codec: MessageCodec,
    injector: TrimInjector,
    bytes: u64,
    stats: InjectStats,
    metrics: Option<ChannelMetrics>,
    /// The current row's row stage, kept across rows and transfers.
    stage: RowScratch,
    /// The current row's packet fates, kept across rows.
    fates: Vec<Fate>,
    /// One packet-chunk's surviving parts, packed as the decoder reaches it.
    chunk: Vec<u8>,
    /// The current row's decode, kept across rows and transfers.
    scratch: Vec<f32>,
}

impl TrimmingChannel {
    /// Creates the channel.
    #[must_use]
    pub fn new(codec: MessageCodec, injector: TrimInjector) -> Self {
        Self {
            codec,
            injector,
            bytes: 0,
            stats: InjectStats::default(),
            metrics: None,
            stage: RowScratch::default(),
            fates: Vec::new(),
            chunk: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Attaches a telemetry registry: every subsequent transfer also updates
    /// live counters named `{prefix}.{intact,trimmed,dropped,bytes_sent,transfers}`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry, prefix: &str) -> Self {
        self.metrics = Some(ChannelMetrics {
            intact: registry.counter(&format!("{prefix}.intact")),
            trimmed: registry.counter(&format!("{prefix}.trimmed")),
            dropped: registry.counter(&format!("{prefix}.dropped")),
            bytes_sent: registry.counter(&format!("{prefix}.bytes_sent")),
            transfers: registry.counter(&format!("{prefix}.transfers")),
        });
        self
    }

    /// Cumulative injection outcomes.
    #[must_use]
    pub fn inject_stats(&self) -> InjectStats {
        self.stats
    }

    /// The codec in use.
    #[must_use]
    pub fn codec(&self) -> &MessageCodec {
        &self.codec
    }

    /// Transfers row `row_id` of `data` (rows as [`MessageCodec::row_range`]
    /// cuts them) and returns what the receiver decodes, in a scratch row
    /// the channel keeps across calls. The row is staged
    /// ([`SchemeId::stage`](trimgrad_quant::SchemeId::stage)), its packets
    /// meet their fates ([`TrimInjector::draw_row_fates`]), and the decoder
    /// reads it chunk by chunk
    /// ([`StagedRow::chunks`](trimgrad_quant::StagedRow::chunks)): each
    /// chunk's surviving parts that the decoder reads are packed into a
    /// small buffer as the decoder reaches them, so no plane or mask is
    /// built, and neither a part a fate cut nor one the decoder skips is
    /// packed — an SQ/SD row draws only for its trimmed chunks' heads and
    /// jumps its draw stream over the rest. Bit for bit, and fate for fate, the row decodes
    /// as its encoded planes viewed through
    /// [`EncodedRow::view_with_runs`](trimgrad_quant::EncodedRow::view_with_runs)
    /// do. Past the first rows the channel allocates nothing row-sized.
    ///
    /// A message's rows must go through in row order for the fates to be
    /// [`GradChannel::transfer`]'s. The outcome counters and wire bytes grow
    /// by the row's; the `transfers` counter counts `transfer` calls, not
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `row_id` is not a row of `data`.
    pub fn transfer_row(&mut self, data: &[f32], epoch: u32, msg_id: u32, row_id: usize) -> &[f32] {
        let range = self.codec.row_range(data.len(), row_id);
        assert!(!range.is_empty(), "row {row_id} is not a row of the blob");
        let (scheme, seed) = (
            self.codec.scheme_id(),
            self.codec.row_seed(epoch, msg_id, row_id as u32),
        );
        let staged = scheme.stage(&data[range.clone()], seed, &mut self.stage);
        let stats = self
            .injector
            .draw_row_fates(scheme, staged.n(), &mut self.fates);
        // Wire accounting: the frame each packet-chunk left the fabric as
        // (a dropped one counts as zero), plus the reliable metadata frame.
        let part_bits = scheme.part_bits();
        let mut bytes = meta::FRAME_LEN as u64;
        for (chunk, depth) in &self.fates {
            if *depth > 0 {
                bytes += frame_len(part_bits, chunk.len(), *depth) as u64;
            }
        }
        self.stats.merge(stats);
        self.bytes += bytes;
        if let Some(m) = &self.metrics {
            m.intact.add(stats.intact);
            m.trimmed.add(stats.trimmed);
            m.dropped.add(stats.dropped);
            m.bytes_sent.add(bytes);
        }
        if self.scratch.len() < range.len() {
            self.scratch.resize(range.len(), 0.0);
        }
        let row = &mut self.scratch[..range.len()];
        let chunks = staged.chunks(self.fates.iter().cloned(), &mut self.chunk);
        scheme
            .decode_runs(chunks, staged.n(), &staged.meta(), seed, row)
            // trimlint: allow(no-panic) -- the chunks are this row's own stage under fates drawn over its own geometry; a decode failure is a codec geometry bug, not a runtime condition
            .expect("a staged row decodes under its own fates");
        row
    }
}

impl GradChannel for TrimmingChannel {
    /// [`transfer_row`](TrimmingChannel::transfer_row) over every row of
    /// `data`, in row order, each row's decode lent to `sink` at its row
    /// offset while it is still in cache.
    fn transfer(
        &mut self,
        data: &[f32],
        epoch: u32,
        msg_id: u32,
        mut sink: impl FnMut(usize, &[f32]),
    ) {
        if data.is_empty() {
            return;
        }
        for row_id in 0..self.codec.rows_for(data.len()) {
            let start = self.codec.row_range(data.len(), row_id).start;
            sink(start, self.transfer_row(data, epoch, msg_id, row_id));
        }
        if let Some(m) = &self.metrics {
            m.transfers.inc();
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;
    use trimgrad_quant::SchemeId;

    fn blob(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
    }

    /// What the receiver of one transfer decodes, collected from the pieces
    /// the channel lends, which must arrive in order.
    fn received(ch: &mut impl GradChannel, data: &[f32], epoch: u32, msg_id: u32) -> Vec<f32> {
        let mut out = Vec::new();
        ch.transfer(data, epoch, msg_id, |offset, piece| {
            assert_eq!(offset, out.len(), "pieces arrive in order");
            out.extend_from_slice(piece);
        });
        out
    }

    #[test]
    fn lossless_is_identity_and_counts_bytes() {
        let mut ch = LosslessChannel::new();
        let b = blob(1000, 1);
        let out = received(&mut ch, &b, 0, 0);
        assert_eq!(out, b);
        // ≥ 4000 payload bytes plus 3 packet headers.
        assert!(ch.bytes_sent() >= 4000);
        assert!(ch.bytes_sent() < 4600);
    }

    #[test]
    fn trimming_channel_lossless_when_prob_zero() {
        let codec = MessageCodec::with_row_len(SchemeId::SignMagnitude, 3, 512);
        let mut ch = TrimmingChannel::new(codec, TrimInjector::new(0.0, 1));
        let b = blob(1000, 2);
        let out = received(&mut ch, &b, 1, 2);
        for (d, v) in out.iter().zip(&b) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
        assert_eq!(ch.inject_stats().trimmed, 0);
    }

    #[test]
    fn trimming_reduces_wire_bytes() {
        let mk = |p| {
            let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 3, 1024);
            TrimmingChannel::new(codec, TrimInjector::new(p, 1))
        };
        let b = blob(8192, 3);
        let mut clean = mk(0.0);
        let mut trimmed = mk(1.0);
        let _ = received(&mut clean, &b, 0, 0);
        let _ = received(&mut trimmed, &b, 0, 0);
        assert!(
            trimmed.bytes_sent() < clean.bytes_sent() / 5,
            "full trimming must slash bytes: {} vs {}",
            trimmed.bytes_sent(),
            clean.bytes_sent()
        );
        assert_eq!(trimmed.inject_stats().intact, 0);
    }

    #[test]
    fn trimming_decode_quality_degrades_gracefully() {
        let b = blob(4096, 4);
        let mut errs = Vec::new();
        for p in [0.0, 0.5, 1.0] {
            let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 3, 1024);
            let mut ch = TrimmingChannel::new(codec, TrimInjector::new(p, 7));
            let out = received(&mut ch, &b, 0, 0);
            errs.push(trimgrad_quant::error::nmse(&out, &b));
        }
        assert!(errs[0] < 1e-6);
        assert!(errs[0] < errs[1] && errs[1] < errs[2], "{errs:?}");
        assert!(errs[2] < 1.0, "heads-only still informative");
    }

    #[test]
    fn channel_telemetry_tracks_outcomes_and_bytes() {
        let reg = Registry::new();
        let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 3, 1024);
        let mut ch = TrimmingChannel::new(codec, TrimInjector::new(0.5, 11))
            .with_telemetry(&reg, "collective.channel.0");
        let b = blob(8192, 6);
        let _ = received(&mut ch, &b, 0, 0);
        let _ = received(&mut ch, &b, 0, 1);
        let snap = reg.snapshot();
        let s = ch.inject_stats();
        assert_eq!(snap.counter("collective.channel.0.intact"), s.intact);
        assert_eq!(snap.counter("collective.channel.0.trimmed"), s.trimmed);
        assert_eq!(snap.counter("collective.channel.0.dropped"), s.dropped);
        assert_eq!(
            snap.counter("collective.channel.0.bytes_sent"),
            ch.bytes_sent()
        );
        assert_eq!(snap.counter("collective.channel.0.transfers"), 2);
        // Conservation straight off the snapshot: every chunk is accounted.
        assert_eq!(
            snap.counter("collective.channel.0.intact")
                + snap.counter("collective.channel.0.trimmed")
                + snap.counter("collective.channel.0.dropped"),
            s.total()
        );
    }

    #[test]
    fn empty_transfer() {
        let codec = MessageCodec::new(SchemeId::Stochastic, 0);
        let mut ch = TrimmingChannel::new(codec, TrimInjector::new(0.5, 0));
        assert!(received(&mut ch, &[], 0, 0).is_empty());
        assert_eq!(ch.bytes_sent(), 0);
    }

    #[test]
    fn multi_row_messages_roundtrip() {
        let codec = MessageCodec::with_row_len(SchemeId::SubtractiveDither, 5, 100);
        let mut ch = TrimmingChannel::new(codec, TrimInjector::new(0.0, 1));
        let b = blob(350, 5); // 4 rows
        let out = received(&mut ch, &b, 2, 9);
        assert_eq!(out.len(), b.len());
        for (d, v) in out.iter().zip(&b) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }
}
