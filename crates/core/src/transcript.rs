//! Reproducibility transcripts (paper §5.4).
//!
//! "With trimmable gradient encoding, every distributed training run becomes
//! unique due to the unpredictable nature of network congestion … the
//! distributed training framework can record the indices of packets that
//! were trimmed across the entire training episode", then replay that
//! transcript against a reliable channel to reproduce a past run exactly.
//!
//! A [`TrimTranscript`] maps `(epoch, msg_id, row_id, chunk_id)` → the depth
//! that survived. During recording the injector (or the netsim receiver)
//! appends events; during replay the transcript *is* the network: the same
//! packets get the same fates, so decoding — and therefore training — is
//! bit-reproducible. Transcripts serialize to a stable sorted text format
//! for archival ([`TrimTranscript::to_bytes`]).

use std::collections::BTreeMap;
use trimgrad_collective::trim_inject::{fate_depths, packet_chunks, Fate};
use trimgrad_quant::scheme::EncodedRow;

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

    /// Replays this transcript against one encoded row: produces the exact
    /// per-coordinate availability depths the original run saw. Chunk ids
    /// number the row's [`packet_chunks`], as [`RecordingInjector`] recorded
    /// them.
    #[must_use]
    pub fn replay_depths(
        &self,
        enc: &EncodedRow,
        epoch: u32,
        msg_id: u32,
        row_id: u32,
    ) -> Vec<usize> {
        let n_parts = enc.parts.len();
        let fates: Vec<Fate> = packet_chunks(enc)
            .enumerate()
            .map(|(chunk_id, chunk)| {
                let depth = self
                    .depth_of(&packet_key(epoch, msg_id, row_id, chunk_id))
                    .map_or(n_parts, |d| usize::from(d).min(n_parts));
                (chunk, depth)
            })
            .collect();
        fate_depths(&fates)
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

    /// Draws per-coordinate depths for one row, recording fates.
    pub fn draw_depths(
        &mut self,
        enc: &EncodedRow,
        epoch: u32,
        msg_id: u32,
        row_id: u32,
    ) -> Vec<usize> {
        let mut fates = Vec::new();
        self.inner.draw_fates(enc, &mut fates);
        let n_parts = enc.parts.len();
        for (chunk_id, (_, depth)) in fates.iter().enumerate() {
            if *depth < n_parts {
                self.transcript.record(
                    packet_key(epoch, msg_id, row_id, chunk_id),
                    trimgrad_wire::narrow::to_u8(*depth, "trim depth"),
                );
            }
        }
        fate_depths(&fates)
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
    use trimgrad_quant::rht1bit::RhtOneBit;
    use trimgrad_quant::scheme_for;
    use trimgrad_quant::TrimmableScheme;

    fn row(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
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
        let scheme = RhtOneBit;
        let r = row(2048, 7);
        let seed = 99;
        let enc = scheme.encode(&r, seed);

        // Original run: random trimming, recorded.
        let mut rec = RecordingInjector::new(TrimInjector::new(0.4, 5).with_drop_prob(0.1));
        let depths = rec.draw_depths(&enc, 1, 2, 3);
        let original = scheme
            .decode(&enc.view_with_depths(&depths), &enc.meta, seed)
            .unwrap();
        let transcript = rec.into_transcript();
        assert!(!transcript.is_empty());

        // Replay: same depths from the transcript alone (via serialization,
        // as a future run would).
        let restored = TrimTranscript::from_bytes(&transcript.to_bytes()).unwrap();
        let replay_depths = restored.replay_depths(&enc, 1, 2, 3);
        assert_eq!(replay_depths, depths);
        let replayed = scheme
            .decode(&enc.view_with_depths(&replay_depths), &enc.meta, seed)
            .unwrap();
        assert_eq!(replayed, original, "replay must be bit-identical");
    }

    #[test]
    fn unrecorded_packets_replay_untrimmed() {
        let scheme = scheme_for(trimgrad_quant::SchemeId::SignMagnitude);
        let r = row(1000, 8);
        let enc = scheme.encode(&r, 0);
        let t = TrimTranscript::new();
        let depths = t.replay_depths(&enc, 0, 0, 0);
        assert!(depths.iter().all(|&d| d == 2));
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
        let scheme = scheme_for(trimgrad_quant::SchemeId::SignMagnitude);
        let enc = scheme.encode(&row(500, 9), 0);
        // Row 1 has no events → untrimmed.
        let depths = t.replay_depths(&enc, 0, 0, 1);
        assert!(depths.iter().all(|&d| d == 2));
        // Row 0's first chunk is trimmed.
        let depths = t.replay_depths(&enc, 0, 0, 0);
        assert!(depths[..360].iter().all(|&d| d == 1));
        assert!(depths[360..].iter().all(|&d| d == 2));
    }
}
