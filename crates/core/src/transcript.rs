//! Reproducibility transcripts (paper §5.4).
//!
//! "With trimmable gradient encoding, every distributed training run becomes
//! unique due to the unpredictable nature of network congestion … the
//! distributed training framework can record the indices of packets that
//! were trimmed across the entire training episode", then replay that
//! transcript against a reliable channel to reproduce a past run exactly.
//!
//! A [`TrimTranscript`] maps `(epoch, msg_id, row_id, chunk_id)` → the depth
//! that survived. During recording the injector appends events
//! ([`RecordingInjector::draw_row_fates`]); during replay the transcript
//! *is* the network ([`TrimTranscript::replay_fates`]): the same packets get
//! the same fates, so a row decoded through
//! [`StagedRow::chunks`](trimgrad_quant::StagedRow::chunks), the path
//! [`TrimmingChannel`](trimgrad_collective::TrimmingChannel) runs, comes out
//! bit for bit as it did, and so does training. Transcripts serialize to a
//! stable sorted text format for archival ([`TrimTranscript::to_bytes`]).

use std::collections::BTreeMap;
use trimgrad_collective::trim_inject::{packet_chunks, Fate, InjectStats};
use trimgrad_quant::SchemeId;

/// Identity of one data packet within a training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketKey {
    /// Training epoch.
    pub epoch: u32,
    /// Collective message id within the epoch.
    pub msg_id: u32,
    /// Row within the message.
    pub row_id: u32,
    /// Packet chunk within the row.
    pub chunk_id: u16,
}

/// The key of chunk `chunk_id` of row `row_id` of message `msg_id`.
fn packet_key(epoch: u32, msg_id: u32, row_id: u32, chunk_id: usize) -> PacketKey {
    PacketKey {
        epoch,
        msg_id,
        row_id,
        chunk_id: trimgrad_wire::narrow::to_u16(chunk_id, "chunk id"),
    }
}

/// A recorded training run's trimming history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrimTranscript {
    /// Only non-full-depth fates are stored; absent keys mean "untrimmed".
    events: BTreeMap<PacketKey, u8>,
}

impl TrimTranscript {
    /// An empty transcript (every packet untrimmed).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a packet survived with `depth` parts (0 = lost).
    pub fn record(&mut self, key: PacketKey, depth: u8) {
        self.events.insert(key, depth);
    }

    /// The recorded depth for a packet, or `None` if it passed untrimmed.
    #[must_use]
    pub fn depth_of(&self, key: &PacketKey) -> Option<u8> {
        self.events.get(key).copied()
    }

    /// Number of recorded (non-intact) packet fates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was trimmed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays this transcript against one row of `scheme` whose encoded
    /// length is `n`: fills `fates` (cleared first) with the packet fates
    /// the original run drew for it, one per [`packet_chunks`] chunk in
    /// chunk order, as [`RecordingInjector::draw_row_fates`] recorded them.
    /// A chunk with no recorded fate kept every part.
    pub fn replay_fates(
        &self,
        scheme: SchemeId,
        n: usize,
        epoch: u32,
        msg_id: u32,
        row_id: u32,
        fates: &mut Vec<Fate>,
    ) {
        let n_parts = scheme.part_bits().len();
        fates.clear();
        fates.extend(
            packet_chunks(scheme, n)
                .enumerate()
                .map(|(chunk_id, chunk)| {
                    let depth = self
                        .depth_of(&packet_key(epoch, msg_id, row_id, chunk_id))
                        .map_or(n_parts, |d| usize::from(d).min(n_parts));
                    (chunk, depth)
                }),
        );
    }

    /// Serializes to a stable sorted text format (the exact format is an
    /// implementation detail; use [`from_bytes`](Self::from_bytes) to load).
    ///
    /// # Panics
    ///
    /// Never panics for transcripts produced by this library.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        // Stable, dependency-light serialization: sorted "k=v" lines.
        let mut lines: Vec<String> = self
            .events
            .iter()
            .map(|(k, d)| format!("{} {} {} {} {}", k.epoch, k.msg_id, k.row_id, k.chunk_id, d))
            .collect();
        lines.sort_unstable();
        lines.join("\n").into_bytes()
    }

    /// Loads a transcript serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        // Each field parses at its own width: an out-of-range value is an
        // error, never silently truncated into another packet's key.
        fn parse<T: std::str::FromStr<Err = std::num::ParseIntError>>(
            i: usize,
            s: &str,
        ) -> Result<T, String> {
            s.parse().map_err(|e| format!("line {i}: {e}"))
        }
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let mut t = Self::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(format!("line {i}: expected 5 fields, got {}", fields.len()));
            }
            t.record(
                PacketKey {
                    epoch: parse(i, fields[0])?,
                    msg_id: parse(i, fields[1])?,
                    row_id: parse(i, fields[2])?,
                    chunk_id: parse(i, fields[3])?,
                },
                parse(i, fields[4])?,
            );
        }
        Ok(t)
    }
}

/// A transcript-recording wrapper around
/// [`trimgrad_collective::TrimInjector`]: draws fates as usual *and* logs
/// every non-intact fate so the run can be replayed.
#[derive(Debug)]
pub struct RecordingInjector {
    inner: trimgrad_collective::TrimInjector,
    transcript: TrimTranscript,
}

impl RecordingInjector {
    /// Wraps an injector.
    #[must_use]
    pub fn new(inner: trimgrad_collective::TrimInjector) -> Self {
        Self {
            inner,
            transcript: TrimTranscript::new(),
        }
    }

    /// Draws the packet fates of row `row_id` of message `msg_id`, a row of
    /// `scheme` whose encoded length is `n`, into `fates`
    /// ([`TrimInjector::draw_row_fates`](trimgrad_collective::TrimInjector::draw_row_fates)),
    /// records every chunk that lost a part, and returns the outcome counts.
    pub fn draw_row_fates(
        &mut self,
        scheme: SchemeId,
        n: usize,
        epoch: u32,
        msg_id: u32,
        row_id: u32,
        fates: &mut Vec<Fate>,
    ) -> InjectStats {
        let stats = self.inner.draw_row_fates(scheme, n, fates);
        let n_parts = scheme.part_bits().len();
        for (chunk_id, (_, depth)) in fates.iter().enumerate() {
            if *depth < n_parts {
                self.transcript.record(
                    packet_key(epoch, msg_id, row_id, chunk_id),
                    trimgrad_wire::narrow::to_u8(*depth, "trim depth"),
                );
            }
        }
        stats
    }

    /// The transcript recorded so far.
    #[must_use]
    pub fn transcript(&self) -> &TrimTranscript {
        &self.transcript
    }

    /// Consumes the recorder, returning the transcript.
    #[must_use]
    pub fn into_transcript(self) -> TrimTranscript {
        self.transcript
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_collective::TrimInjector;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;
    use trimgrad_quant::scheme::RowScratch;

    fn row(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
    }

    /// `r` staged under `seed` and decoded chunk by chunk under `fates`:
    /// the path `TrimmingChannel` runs.
    fn decode_under(scheme: SchemeId, r: &[f32], seed: u64, fates: &[Fate]) -> Vec<f32> {
        let mut scratch = RowScratch::default();
        let staged = scheme.stage(r, seed, &mut scratch);
        let (mut out, mut buf) = (vec![0.0; r.len()], Vec::new());
        let chunks = staged.chunks(fates.iter().cloned(), &mut buf);
        scheme
            .decode_runs(chunks, staged.n(), &staged.meta(), seed, &mut out)
            .unwrap();
        out
    }

    fn key(chunk: u16) -> PacketKey {
        PacketKey {
            epoch: 1,
            msg_id: 2,
            row_id: 3,
            chunk_id: chunk,
        }
    }

    #[test]
    fn record_and_query() {
        let mut t = TrimTranscript::new();
        assert!(t.is_empty());
        t.record(key(0), 1);
        t.record(key(5), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.depth_of(&key(0)), Some(1));
        assert_eq!(t.depth_of(&key(5)), Some(0));
        assert_eq!(t.depth_of(&key(1)), None);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut t = TrimTranscript::new();
        for c in 0..20 {
            t.record(key(c), (c % 3) as u8);
        }
        let bytes = t.to_bytes();
        let back = TrimTranscript::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        // Empty transcript roundtrips too.
        assert_eq!(
            TrimTranscript::from_bytes(&TrimTranscript::new().to_bytes()).unwrap(),
            TrimTranscript::new()
        );
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(TrimTranscript::from_bytes(b"1 2 3").is_err());
        assert!(TrimTranscript::from_bytes(b"a b c d e").is_err());
        // Fields wider than their key: epoch 2³² + 1, chunk 2¹⁶, depth 257.
        assert!(TrimTranscript::from_bytes(b"4294967297 0 0 0 1").is_err());
        assert!(TrimTranscript::from_bytes(b"0 0 0 65536 1").is_err());
        assert!(TrimTranscript::from_bytes(b"0 0 0 0 257").is_err());
    }

    #[test]
    fn replay_reproduces_recorded_run_exactly() {
        let scheme = SchemeId::RhtOneBit;
        let r = row(2048, 7);
        let (seed, n) = (99, scheme.encoded_len(r.len()));
        let injector = || TrimInjector::new(0.4, 5).with_drop_prob(0.1);

        // Original run: random trimming, recorded. The recorder draws what
        // the bare injector draws.
        let mut rec = RecordingInjector::new(injector());
        let mut fates = Vec::new();
        let stats = rec.draw_row_fates(scheme, n, 1, 2, 3, &mut fates);
        let mut bare = Vec::new();
        assert_eq!(injector().draw_row_fates(scheme, n, &mut bare), stats);
        assert_eq!(bare, fates);
        let original = decode_under(scheme, &r, seed, &fates);
        let transcript = rec.into_transcript();
        assert_eq!(transcript.len() as u64, stats.trimmed + stats.dropped);

        // Replay: same fates from the transcript alone (via serialization,
        // as a future run would).
        let restored = TrimTranscript::from_bytes(&transcript.to_bytes()).unwrap();
        let mut replay_fates = vec![(0..1, 9)]; // stale contents are cleared
        restored.replay_fates(scheme, n, 1, 2, 3, &mut replay_fates);
        assert_eq!(replay_fates, fates);
        let replayed = decode_under(scheme, &r, seed, &replay_fates);
        assert_eq!(replayed, original, "replay must be bit-identical");
    }

    #[test]
    fn unrecorded_packets_replay_untrimmed() {
        let t = TrimTranscript::new();
        let mut fates = Vec::new();
        t.replay_fates(SchemeId::SignMagnitude, 1000, 0, 0, 0, &mut fates);
        let chunks: Vec<_> = fates.iter().map(|(chunk, _)| chunk.clone()).collect();
        assert_eq!(
            chunks,
            packet_chunks(SchemeId::SignMagnitude, 1000).collect::<Vec<_>>()
        );
        assert!(fates.iter().all(|&(_, d)| d == 2));
    }

    #[test]
    fn different_rows_do_not_collide() {
        let mut t = TrimTranscript::new();
        t.record(
            PacketKey {
                epoch: 0,
                msg_id: 0,
                row_id: 0,
                chunk_id: 0,
            },
            1,
        );
        let mut fates = Vec::new();
        // Row 1 has no events → untrimmed.
        t.replay_fates(SchemeId::SignMagnitude, 500, 0, 0, 1, &mut fates);
        assert!(fates.iter().all(|&(_, d)| d == 2));
        // Row 0's first chunk is trimmed.
        t.replay_fates(SchemeId::SignMagnitude, 500, 0, 0, 0, &mut fates);
        assert_eq!(fates, [(0..360, 1), (360..500, 2)]);
    }
}
