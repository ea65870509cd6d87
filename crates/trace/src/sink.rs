//! Trace serialization: the `TGTRACE1` binary format and a JSONL mirror.
//!
//! The binary format is the canonical artifact (what determinism tests hash
//! and what the query CLI loads); the JSONL mirror exists so a trace can be
//! grepped or fed to ad-hoc tooling without this crate. Both serializers are
//! byte-deterministic: records are written in ring-buffer order with
//! little-endian fixed-width fields and length-prefixed names, and floats are
//! stored as their IEEE-754 bit patterns.
//!
//! This module owns the file framing (magic, `dropped_oldest`, record count,
//! each record's `seq`/`at`) and, in [`Field`], how each field type is
//! written, read and rendered. Which fields an event has, in which order and
//! under which tag, is the event table's business (`event.rs`).

use crate::event::{DropReason, TraceEvent};
use std::borrow::Cow;
use std::fmt::Write as _;
use trimgrad_telemetry::{json_f64, json_string};

/// File magic of the binary format (8 bytes, version baked in).
pub const MAGIC: &[u8; 8] = b"TGTRACE1";

/// One recorded event: monotone per-tracer sequence, sim-time stamp
/// (nanoseconds; 0 for events raised outside a simulation), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Emission order within the tracer (monotone, gap-free before the ring
    /// buffer wraps).
    pub seq: u64,
    /// Simulated time in nanoseconds.
    pub at: u64,
    /// The event.
    pub event: TraceEvent,
}

/// An owned trace: what a [`crate::Tracer`] snapshot produces and what the
/// query CLI loads back from disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Records in emission order.
    pub records: Vec<Record>,
    /// Events overwritten by the bounded ring buffer before this snapshot.
    pub dropped_oldest: u64,
}

impl Trace {
    /// Serializes to the binary format.
    #[must_use]
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.records.len() * 48);
        out.extend_from_slice(MAGIC);
        self.dropped_oldest.put(&mut out);
        (self.records.len() as u64).put(&mut out);
        for rec in &self.records {
            rec.seq.put(&mut out);
            rec.at.put(&mut out);
            rec.event.write_binary(&mut out);
        }
        out
    }

    /// Parses the binary format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (bad magic,
    /// truncation, unknown tag).
    pub fn from_binary(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(format!("bad magic {magic:?}; not a TGTRACE1 file"));
        }
        let dropped_oldest = u64::get(&mut r)?;
        let count = u64::get(&mut r)?;
        let mut records = Vec::new();
        for _ in 0..count {
            records.push(Record {
                seq: u64::get(&mut r)?,
                at: u64::get(&mut r)?,
                event: TraceEvent::read_binary(&mut r)?,
            });
        }
        if r.pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after last record",
                bytes.len() - r.pos
            ));
        }
        Ok(Self {
            records,
            dropped_oldest,
        })
    }

    /// Reads and parses a binary trace file.
    ///
    /// # Errors
    ///
    /// I/O failures and the parse errors of [`Trace::from_binary`].
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_binary(&bytes)
    }

    /// Renders the JSONL mirror: one object per line, `kind` holding the
    /// dot-separated event name.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for rec in &self.records {
            let _ = write!(
                s,
                "{{\"seq\":{},\"at\":{},\"kind\":\"{}\"",
                rec.seq,
                rec.at,
                rec.event.kind_name()
            );
            rec.event.write_json_fields(&mut s);
            s.push_str("}\n");
        }
        s
    }
}

/// A bounds-checked cursor over a binary trace.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated trace at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
}

/// One event-field type: how it is written to and read back from a binary
/// trace, and how it renders as a JSON value in the JSONL mirror.
pub(crate) trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, String>;
    fn json(&self, s: &mut String);
}

macro_rules! le_int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, String> {
                Ok(Self::from_le_bytes(r.array()?))
            }
            fn json(&self, s: &mut String) {
                let _ = write!(s, "{self}");
            }
        }
    )*};
}

le_int_field!(u16, u32, u64);

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let [b] = r.array()?;
        Ok(b != 0)
    }
    fn json(&self, s: &mut String) {
        let _ = write!(s, "{self}");
    }
}

/// Stored as its IEEE-754 bits; a non-finite value renders as JSON `null`.
impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        u64::get(r).map(f64::from_bits)
    }
    fn json(&self, s: &mut String) {
        s.push_str(&json_f64(*self));
    }
}

impl Field for DropReason {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.to_tag());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let [tag] = r.array()?;
        Self::from_tag(tag)
    }
    fn json(&self, s: &mut String) {
        s.push_str(&json_string(self.name()));
    }
}

/// A `u16` byte length, then the UTF-8 bytes; a name longer than
/// `u16::MAX` bytes is cut there.
impl Field for Cow<'static, str> {
    fn put(&self, out: &mut Vec<u8>) {
        let len = u16::try_from(self.len()).unwrap_or(u16::MAX);
        len.put(out);
        out.extend_from_slice(&self.as_bytes()[..usize::from(len)]);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let len = u16::get(r)?;
        let raw = r.take(usize::from(len))?;
        let s = std::str::from_utf8(raw).map_err(|e| format!("non-UTF-8 name: {e}"))?;
        Ok(Cow::Owned(s.to_string()))
    }
    fn json(&self, s: &mut String) {
        s.push_str(&json_string(self));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::samples;

    fn sample_trace() -> Trace {
        Trace {
            records: samples()
                .into_iter()
                .enumerate()
                .map(|(i, event)| Record {
                    seq: i as u64,
                    at: i as u64 * 100,
                    event,
                })
                .collect(),
            dropped_oldest: 3,
        }
    }

    #[test]
    fn binary_roundtrips_every_variant() {
        let t = sample_trace();
        let bytes = t.to_binary();
        assert_eq!(&bytes[..8], MAGIC);
        let back = Trace::from_binary(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_serialization_is_deterministic() {
        let t = sample_trace();
        assert_eq!(t.to_binary(), t.to_binary());
        assert_eq!(t.to_jsonl(), t.to_jsonl());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::from_binary(b"not a trace").is_err());
        let mut bytes = sample_trace().to_binary();
        bytes.truncate(bytes.len() - 1);
        assert!(Trace::from_binary(&bytes).is_err(), "truncation detected");
        let mut extra = sample_trace().to_binary();
        extra.push(0);
        assert!(
            Trace::from_binary(&extra).is_err(),
            "trailing bytes detected"
        );
    }

    #[test]
    fn jsonl_lines_are_balanced_objects() {
        let jsonl = sample_trace().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), samples().len());
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(line.contains("\"kind\":\""), "{line}");
            // Keys are quoted and values never contain raw control chars.
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        const GOLDEN_JSONL_FNV1A: u64 = 0x2882_68a8_f8b0_7136;
        let h = trimgrad_telemetry::fnv1a(sample_trace().to_jsonl().as_bytes());
        assert_eq!(h, GOLDEN_JSONL_FNV1A, "jsonl digest {h:#018x}");
    }

    /// Flips bits in every byte of the sample binary and folds each parse
    /// outcome — the error text, or the digest of the re-serialized trace —
    /// into one digest, so the reader's accept/reject decisions and its error
    /// messages are pinned byte for byte.
    #[test]
    fn bit_flip_outcomes_are_pinned() {
        const GOLDEN_OUTCOMES_FNV1A: u64 = 0x9342_c186_d75b_ee5c;
        let bytes = sample_trace().to_binary();
        let mut outcomes = String::new();
        for at in 0..bytes.len() {
            for mask in [0x01_u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[at] ^= mask;
                let parsed = std::panic::catch_unwind(|| Trace::from_binary(&mutated))
                    .unwrap_or_else(|_| panic!("byte {at} ^ {mask:#04x} panicked"));
                match parsed {
                    Ok(t) => outcomes.push_str(&format!(
                        "ok {:016x}\n",
                        trimgrad_telemetry::fnv1a(&t.to_binary())
                    )),
                    Err(e) => outcomes.push_str(&format!("err {e}\n")),
                }
            }
        }
        let h = trimgrad_telemetry::fnv1a(outcomes.as_bytes());
        assert_eq!(h, GOLDEN_OUTCOMES_FNV1A, "outcome digest {h:#018x}");
    }

    #[test]
    fn every_accepted_tag_has_exactly_one_sample() {
        // Enough zero bytes after the tag for any event's fields: zero is a
        // valid value of every field type (an empty name, `DataFull`).
        let mut accepted = Vec::new();
        for tag in 0..=u8::MAX {
            let mut bytes = vec![tag];
            bytes.resize(64, 0);
            let mut r = Reader {
                bytes: &bytes,
                pos: 0,
            };
            if TraceEvent::read_binary(&mut r).is_ok() {
                accepted.push(tag);
            }
        }
        let mut sampled: Vec<u8> = samples()
            .iter()
            .map(|ev| {
                let mut out = Vec::new();
                ev.write_binary(&mut out);
                out[0]
            })
            .collect();
        sampled.sort_unstable();
        assert_eq!(sampled, accepted, "each event tag needs one sample");
    }

    #[test]
    fn non_finite_floats_render_as_json_null() {
        let t = Trace {
            records: vec![Record {
                seq: 0,
                at: 0,
                event: TraceEvent::EpochTick {
                    epoch: 1,
                    loss: f64::NAN,
                    top1: f64::INFINITY,
                },
            }],
            dropped_oldest: 0,
        };
        assert_eq!(
            t.to_jsonl(),
            "{\"seq\":0,\"at\":0,\"kind\":\"epoch.tick\",\"epoch\":1,\"loss\":null,\"top1\":null}\n"
        );
        let back = Trace::from_binary(&t.to_binary()).unwrap();
        let TraceEvent::EpochTick { loss, top1, .. } = back.records[0].event else {
            panic!("decoded {:?}", back.records[0].event);
        };
        assert_eq!(loss.to_bits(), f64::NAN.to_bits(), "binary keeps the bits");
        assert_eq!(top1, f64::INFINITY);
    }

    #[test]
    fn names_with_control_characters_stay_on_one_jsonl_line() {
        let name = "bad\nname \"quoted\"";
        let mut t = sample_trace();
        t.records.push(Record {
            seq: 99,
            at: 0,
            event: TraceEvent::Mark {
                name: Cow::Borrowed(name),
                value: 1,
            },
        });
        let loaded = Trace::from_binary(&t.to_binary()).unwrap();
        assert_eq!(loaded.records.last().unwrap().event.name(), Some(name));
        let jsonl = loaded.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), loaded.records.len(), "{jsonl}");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(
            jsonl.contains(r#""name":"bad\nname \"quoted\"","value":1}"#),
            "{jsonl}"
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::default();
        assert_eq!(Trace::from_binary(&t.to_binary()).unwrap(), t);
        assert_eq!(t.to_jsonl(), "");
    }
}
