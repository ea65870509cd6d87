//! # trimgrad — just-in-time gradient compression via packet trimming
//!
//! A from-scratch Rust implementation of *"When ML Training Cuts Through
//! Congestion: Just-in-Time Gradient Compression via Packet Trimming"*
//! (HotNets '24). Gradients are encoded so that every coordinate splits into
//! a `P`-bit head and a `Q`-bit tail, heads laid out at the front of each
//! packet; a congested shallow-buffer switch can then *trim* the packet —
//! truncate it at a section boundary and forward the remnant high-priority —
//! and the receiver still decodes a useful low-precision gradient, with no
//! retransmission and no straggler.
//!
//! ## Crate map
//!
//! | Layer | Crate |
//! |---|---|
//! | FWHT / RHT / portable PRNG | [`trimgrad_hadamard`] |
//! | The trimmable encodings (sign-magnitude, SQ, SD, RHT, multi-level) | [`trimgrad_quant`] |
//! | Wire formats + the in-switch trim operation | [`trimgrad_wire`] |
//! | Discrete-event DC fabric with trimming switches | [`trimgrad_netsim`] |
//! | The message codec (blob ↔ rows ↔ frames), ring collectives + DDP hooks | [`trimgrad_collective`] |
//! | Data-parallel training + round-time model | [`trimgrad_mltrain`] |
//!
//! This crate ties them together behind one API:
//!
//! * [`pipeline::TrimmablePipeline`] — blob → rows → packets, and back from
//!   any mix of trimmed/untrimmed/lost packets (the message path itself is
//!   [`trimgrad_collective::chunk::MessageCodec`], shared with the ring
//!   workers that run inside the simulator);
//! * [`transcript`] — §5.4 reproducibility: record which packets were
//!   trimmed, replay the exact run later.
//!
//! ## Quickstart
//!
//! ```
//! use trimgrad::pipeline::{TrimmablePipeline, PipelineConfig};
//! use trimgrad::quant::SchemeId;
//!
//! let pipe = TrimmablePipeline::new(
//!     PipelineConfig::builder().scheme(SchemeId::RhtOneBit).row_len(1024).build(),
//! );
//! let gradient: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.01).sin()).collect();
//!
//! // Sender side: encode + packetize (epoch 0, message 0, hosts 1 → 2).
//! let tx = pipe.encode(&gradient, 0, 0, 1, 2);
//!
//! // Network: congested switch trims some packets (here: every other one).
//! let mut packets = tx.packets;
//! for (i, p) in packets.iter_mut().enumerate() {
//!     if i % 2 == 0 {
//!         p.trim_to_depth(1).unwrap();
//!     }
//! }
//!
//! // Receiver side: decode whatever arrived.
//! let decoded = pipe.decode(&packets, &tx.metas, 0, 0).unwrap();
//! assert_eq!(decoded.len(), gradient.len());
//! let nmse = trimgrad_quant::error::nmse(&decoded, &gradient);
//! assert!(nmse < 0.5, "half-trimmed decode still close: {nmse}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lowrank;
pub mod pipeline;
pub mod transcript;

pub use pipeline::{PipelineConfig, TrimmablePipeline};

// Re-export the substrate crates so downstream users need only one dependency.
pub use trimgrad_collective as collective;
pub use trimgrad_hadamard as hadamard;
pub use trimgrad_mltrain as mltrain;
pub use trimgrad_netsim as netsim;
pub use trimgrad_quant as quant;
pub use trimgrad_telemetry as telemetry;
pub use trimgrad_trace as trace;
pub use trimgrad_wire as wire;
