//! The typed trace-event taxonomy.
//!
//! Every event carries the **causal identifiers** needed to follow one packet
//! end to end — the flow id, the transport sequence number within the flow,
//! and the simulator-assigned packet id — or, for codec-level events, the
//! (message, row) pair. Event kinds are named like telemetry keys
//! (dot-separated lowercase, checked by the
//! `every_kind_name_is_a_valid_telemetry_key` test) so queries and counters
//! share one vocabulary.
//!
//! Each event is stated once, as one row of the `trace_events!` table below:
//! its `TGTRACE1` tag, its kind name, and its fields in serialization order.
//! The enum, [`TraceEvent::kind_name`], the binary writer and reader and the
//! JSONL field list are all derived from that row; how each field type is
//! written, read and rendered lives once, in `sink`'s `Field` trait.
//!
//! Events are plain data: fixed-width integers plus a `Cow<'static, str>`
//! name for span/mark events, which borrows on the hot path (no allocation)
//! and owns only when decoded back from a trace file.

use crate::sink::{Field, Reader};
use std::borrow::Cow;

/// Why the fabric destroyed a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Data queue full and the policy (or the packet) forbade trimming.
    DataFull,
    /// High-priority queue full.
    PrioFull,
    /// Random in-flight link loss.
    Random,
    /// Destroyed by an installed fault plan.
    Fault,
    /// No route to the destination.
    NoRoute,
}

impl DropReason {
    /// Stable lowercase label (used in JSONL and query output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::DataFull => "data_full",
            Self::PrioFull => "prio_full",
            Self::Random => "random",
            Self::Fault => "fault",
            Self::NoRoute => "no_route",
        }
    }

    pub(crate) fn to_tag(self) -> u8 {
        match self {
            Self::DataFull => 0,
            Self::PrioFull => 1,
            Self::Random => 2,
            Self::Fault => 3,
            Self::NoRoute => 4,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Self, String> {
        Ok(match tag {
            0 => Self::DataFull,
            1 => Self::PrioFull,
            2 => Self::Random,
            3 => Self::Fault,
            4 => Self::NoRoute,
            other => return Err(format!("unknown drop-reason tag {other}")),
        })
    }
}

/// Declares [`TraceEvent`] from one row per event,
/// `Variant = tag, "kind.name" { field: Type, … }` with the fields in
/// serialization order, and derives from the rows the enum, `kind_name`, the
/// `TGTRACE1` writer and reader, and the JSONL field list.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$doc:meta])*
                $variant:ident = $tag:literal, $kind:literal {
                    $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $( $(#[$doc])* $variant { $( $(#[$field_doc])* $field: $ty, )* }, )*
        }

        impl TraceEvent {
            /// The event's kind, named like a telemetry key.
            #[must_use]
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $kind, )*
                }
            }

            /// Appends the event's tag and fields to a `TGTRACE1` record.
            pub(crate) fn write_binary(&self, out: &mut Vec<u8>) {
                match self {
                    $( Self::$variant { $($field),* } => {
                        out.push($tag);
                        $( $field.put(out); )*
                    } )*
                }
            }

            /// Reads one event (tag, then fields) from a `TGTRACE1` record.
            pub(crate) fn read_binary(r: &mut Reader<'_>) -> Result<Self, String> {
                let [tag] = r.array()?;
                // Struct-literal fields evaluate in source order, so the
                // fields are read in the order `write_binary` put them.
                Ok(match tag {
                    $( $tag => Self::$variant { $( $field: Field::get(r)?, )* }, )*
                    other => return Err(format!("unknown event tag {other}")),
                })
            }

            /// Appends the event's fields as `,"field":value` JSON members.
            pub(crate) fn write_json_fields(&self, s: &mut String) {
                match self {
                    $( Self::$variant { $($field),* } => {
                        $(
                            s.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.json(s);
                        )*
                    } )*
                }
            }
        }
    };
}

// One row per event: `Variant = binary tag, "kind name" { fields }`. Trace
// files on disk name events by tag, so a tag is never reused and a new event
// takes the next free one (a repeated tag is an unreachable pattern in
// `read_binary`). The table is hand-formatted: rustfmt leaves macro bodies
// alone.
trace_events! {
    /// One flight-recorder event.
    ///
    /// Packet-lifecycle events (`pkt.*`, `fault.injected`) come from the network
    /// simulator's serial event loop; row events (`row.*`) from the wire/codec
    /// layers; step and epoch events from the collective and training layers;
    /// `span.*`/`mark` from [`crate::Tracer::span_at`] and
    /// [`crate::Tracer::mark`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A host handed a packet to its NIC.
        PktSent = 1, "pkt.sent" {
            /// Sending host.
            node: u32,
            /// Flow id.
            flow: u64,
            /// Transport sequence within the flow.
            pseq: u64,
            /// Simulator-assigned globally unique packet id.
            pkt: u64,
            /// Wire size in bytes.
            size: u32,
        },
        /// A packet was queued intact on an egress port.
        PktEnqueued = 2, "pkt.enqueued" {
            /// Node owning the egress port.
            node: u32,
            /// Next hop the port leads to.
            to: u32,
            /// Flow id.
            flow: u64,
            /// Transport sequence within the flow.
            pseq: u64,
            /// Packet id.
            pkt: u64,
            /// Wire size in bytes.
            size: u32,
            /// Whether it entered the high-priority queue.
            prio: bool,
        },
        /// A switch trimmed a packet on queue overflow and requeued the remnant.
        PktTrimmed = 3, "pkt.trimmed" {
            /// Node owning the egress port.
            node: u32,
            /// Next hop the port leads to.
            to: u32,
            /// Flow id.
            flow: u64,
            /// Transport sequence within the flow.
            pseq: u64,
            /// Packet id.
            pkt: u64,
            /// Size before the trim.
            old_size: u32,
            /// Surviving size after the trim.
            new_size: u32,
        },
        /// A packet was destroyed.
        PktDropped = 4, "pkt.dropped" {
            /// Node where the drop happened.
            node: u32,
            /// Next hop it was headed to (equal to `node` for no-route drops).
            to: u32,
            /// Flow id.
            flow: u64,
            /// Transport sequence within the flow.
            pseq: u64,
            /// Packet id (`u64::MAX` when dropped before one was assigned).
            pkt: u64,
            /// Drop cause.
            reason: DropReason,
        },
        /// A packet reached its destination host.
        PktDelivered = 5, "pkt.delivered" {
            /// Receiving host.
            node: u32,
            /// Flow id.
            flow: u64,
            /// Transport sequence within the flow.
            pseq: u64,
            /// Packet id.
            pkt: u64,
            /// Wire size on arrival.
            size: u32,
            /// Whether it arrived trimmed.
            trimmed: bool,
        },
        /// A fault plan materialized an extra packet (duplicate or replay).
        FaultInjected = 6, "fault.injected" {
            /// Node owning the channel.
            node: u32,
            /// Channel's next hop.
            to: u32,
            /// Flow id of the cloned packet.
            flow: u64,
            /// Transport sequence of the cloned packet.
            pseq: u64,
            /// Packet id the clone shares with its original.
            pkt: u64,
        },
        /// One gradient row was encoded and packetized.
        RowEncoded = 7, "row.encoded" {
            /// Message id.
            msg: u32,
            /// Row id within the message.
            row: u32,
            /// Data frames produced.
            packets: u32,
            /// Total wire bytes of those frames.
            bytes: u64,
        },
        /// A received row completed its head sections (decodable prefix).
        RowAssembled = 8, "row.assembled" {
            /// Message id.
            msg: u32,
            /// Row id within the message.
            row: u32,
            /// Coordinates received so far.
            coords: u32,
        },
        /// One gradient row was decoded.
        RowDecoded = 9, "row.decoded" {
            /// Message id.
            msg: u32,
            /// Row id within the message.
            row: u32,
            /// Coordinates recovered.
            coords: u32,
            /// Coordinates lost to trimming (encoded − received).
            lost: u32,
        },
        /// An all-reduce protocol step began sending.
        StepStarted = 10, "step.started" {
            /// Worker rank.
            rank: u32,
            /// Protocol step index.
            step: u32,
            /// Whether this is a reduce-scatter (accumulate) step.
            reduce: bool,
        },
        /// An all-reduce protocol step's inbound message was applied.
        StepApplied = 11, "step.applied" {
            /// Worker rank.
            rank: u32,
            /// Protocol step index.
            step: u32,
        },
        /// One training epoch finished.
        EpochTick = 12, "epoch.tick" {
            /// Epoch index.
            epoch: u32,
            /// Mean training loss of the epoch.
            loss: f64,
            /// Top-1 accuracy after the epoch.
            top1: f64,
        },
        /// A scoped span opened.
        SpanEnter = 13, "span.enter" {
            /// Span name (dot-separated lowercase).
            name: Cow<'static, str>,
        },
        /// A scoped span closed.
        SpanExit = 14, "span.exit" {
            /// Span name.
            name: Cow<'static, str>,
            /// Events emitted while the span was open.
            events: u64,
        },
        /// A named point event with one value.
        Mark = 15, "mark" {
            /// Mark name (dot-separated lowercase).
            name: Cow<'static, str>,
            /// Attached value.
            value: u64,
        },
    }
}

impl TraceEvent {
    /// The flow id, for packet-lifecycle events.
    #[must_use]
    pub fn flow(&self) -> Option<u64> {
        match self {
            Self::PktSent { flow, .. }
            | Self::PktEnqueued { flow, .. }
            | Self::PktTrimmed { flow, .. }
            | Self::PktDropped { flow, .. }
            | Self::PktDelivered { flow, .. }
            | Self::FaultInjected { flow, .. } => Some(*flow),
            _ => None,
        }
    }

    /// The transport sequence number, for packet-lifecycle events.
    #[must_use]
    pub fn pkt_seq(&self) -> Option<u64> {
        match self {
            Self::PktSent { pseq, .. }
            | Self::PktEnqueued { pseq, .. }
            | Self::PktTrimmed { pseq, .. }
            | Self::PktDropped { pseq, .. }
            | Self::PktDelivered { pseq, .. }
            | Self::FaultInjected { pseq, .. } => Some(*pseq),
            _ => None,
        }
    }

    /// The span/mark name, if this event carries one.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        match self {
            Self::SpanEnter { name } | Self::SpanExit { name, .. } | Self::Mark { name, .. } => {
                Some(name)
            }
            _ => None,
        }
    }
}

/// One sample of every event variant, for serialization tests.
#[cfg(test)]
pub(crate) fn samples() -> Vec<TraceEvent> {
    vec![
        TraceEvent::PktSent {
            node: 1,
            flow: 2,
            pseq: 3,
            pkt: 4,
            size: 1500,
        },
        TraceEvent::PktEnqueued {
            node: 0,
            to: 1,
            flow: 2,
            pseq: 3,
            pkt: 4,
            size: 1500,
            prio: false,
        },
        TraceEvent::PktTrimmed {
            node: 0,
            to: 1,
            flow: 2,
            pseq: 3,
            pkt: 4,
            old_size: 1500,
            new_size: 78,
        },
        TraceEvent::PktDropped {
            node: 0,
            to: 1,
            flow: 2,
            pseq: 3,
            pkt: 4,
            reason: DropReason::Random,
        },
        TraceEvent::PktDelivered {
            node: 1,
            flow: 2,
            pseq: 3,
            pkt: 4,
            size: 78,
            trimmed: true,
        },
        TraceEvent::FaultInjected {
            node: 0,
            to: 1,
            flow: 2,
            pseq: 3,
            pkt: 4,
        },
        TraceEvent::RowEncoded {
            msg: 1,
            row: 2,
            packets: 3,
            bytes: 4096,
        },
        TraceEvent::RowAssembled {
            msg: 1,
            row: 2,
            coords: 512,
        },
        TraceEvent::RowDecoded {
            msg: 1,
            row: 2,
            coords: 512,
            lost: 512,
        },
        TraceEvent::StepStarted {
            rank: 0,
            step: 1,
            reduce: true,
        },
        TraceEvent::StepApplied { rank: 0, step: 1 },
        TraceEvent::EpochTick {
            epoch: 3,
            loss: 0.25,
            top1: 0.875,
        },
        TraceEvent::SpanEnter {
            name: Cow::Borrowed("ring.send_step"),
        },
        TraceEvent::SpanExit {
            name: Cow::Borrowed("ring.send_step"),
            events: 9,
        },
        TraceEvent::Mark {
            name: Cow::Borrowed("conservation.violation"),
            value: 7,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_name_is_a_valid_telemetry_key() {
        for ev in samples() {
            let name = ev.kind_name();
            assert!(crate::is_valid_name(name), "bad kind name {name:?}");
        }
    }

    #[test]
    fn causal_accessors_cover_packet_events() {
        for ev in samples() {
            let is_pkt = ev.kind_name().starts_with("pkt.") || ev.kind_name() == "fault.injected";
            assert_eq!(ev.flow().is_some(), is_pkt, "{}", ev.kind_name());
            assert_eq!(ev.pkt_seq().is_some(), is_pkt, "{}", ev.kind_name());
        }
    }

    #[test]
    fn drop_reason_tags_roundtrip() {
        for r in [
            DropReason::DataFull,
            DropReason::PrioFull,
            DropReason::Random,
            DropReason::Fault,
            DropReason::NoRoute,
        ] {
            assert_eq!(DropReason::from_tag(r.to_tag()).unwrap(), r);
            assert!(crate::is_valid_name(r.name()));
        }
        assert!(DropReason::from_tag(99).is_err());
    }
}
