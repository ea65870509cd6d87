//! Collective communication with trimmable gradients.
//!
//! This crate is the \*ccl substrate of the reproduction: it moves gradient
//! blobs between training workers, with the trimmable encoding plugged into
//! the exchange exactly where the paper's PyTorch-DDP communication hook
//! sits.
//!
//! * [`chunk`] — [`chunk::MessageCodec`], the one message path: blob ↔ rows
//!   of 2¹⁵ coordinates (per-row shared seeds derived from base seed, epoch,
//!   message id, row) ↔ MTU frames ([`chunk::MessageCodec::packetize_message`]
//!   out, [`chunk::MessageCodec::decode_assembled_into`] in).
//! * [`trim_inject`] — the paper's evaluation harness (§4): probabilistic
//!   per-packet trimming/drop injection, applied at packet granularity to
//!   encoded rows (the authors likewise injected trimming in software because
//!   NCCL's wire format is closed).
//! * [`channel`] — the [`channel::GradChannel`] abstraction: a lossless
//!   channel, a trimming channel (encode → inject → decode), and byte
//!   accounting for the round-time model.
//! * [`ring`] — the ring schedule, the only code that knows it, and
//!   [`ring::ring_all_reduce`] over any channel: reduce-scatter then
//!   all-gather in one step loop.
//! * [`hooks`] — DDP-style gradient aggregation hooks used by the trainer.
//! * [`ring_netsim`] — the full-fidelity path: the same schedule executed by
//!   host apps inside `trimgrad-netsim`, moving real TrimGrad frames through
//!   trimming switches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod chunk;
pub mod hooks;
pub mod ring;
pub mod ring_netsim;
pub mod trim_inject;

/// The path [`ring::segment_range`] was first published under. It stays
/// only because the `benchmark/` driver imports `segment_range` from here;
/// new code names [`ring::segment_range`].
pub mod reducescatter {
    pub use crate::ring::segment_range;
}

pub use channel::{GradChannel, LosslessChannel, TrimmingChannel};
pub use chunk::MessageCodec;
pub use trim_inject::{InjectStats, TrimInjector};
