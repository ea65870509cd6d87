//! Quickstart: encode a gradient into trimmable packets, trim some of them
//! the way a congested switch would, and decode what survived.
//!
//! Run: `cargo run --release --example quickstart`

use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline};
use trimgrad::quant::error::nmse;
use trimgrad::quant::SchemeId;

fn main() {
    // A synthetic "gradient": 10k coordinates with realistic heavy tails.
    let gradient: Vec<f32> = (0..10_000)
        .map(|i| {
            let x = ((i * 37 + 11) % 1000) as f32 / 500.0 - 1.0;
            x * x * x * 0.1
        })
        .collect();

    for scheme in [
        SchemeId::SignMagnitude,
        SchemeId::Stochastic,
        SchemeId::SubtractiveDither,
        SchemeId::RhtOneBit,
    ] {
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder()
                .scheme(scheme)
                .row_len(1 << 12)
                .build(),
        );

        // Sender: packetize (epoch 0, message 0, host 1 → host 2).
        let tx = pipe.encode(&gradient, 0, 0, 1, 2);
        let full_bytes = tx.wire_bytes();

        // Network: a congested switch trims 50% of the data packets down to
        // their 1-bit heads. This truncates real frame bytes and patches the
        // IP/UDP lengths + checksums exactly like a trimming ASIC.
        let mut packets = tx.packets;
        let mut trimmed_bytes = 0usize;
        for (i, p) in packets.iter_mut().enumerate() {
            if i % 2 == 0 {
                p.trim_to_depth(1).expect("data packets are trimmable");
            }
            trimmed_bytes += p.wire_len();
        }

        // Receiver: reassemble + decode whatever arrived.
        let decoded = pipe
            .decode(&packets, &tx.metas, 0, 0)
            .expect("valid packets");

        println!(
            "{:8}  wire: {:7} B -> {:7} B ({:4.1}% saved)   nmse vs original: {:.4}",
            scheme.name(),
            full_bytes,
            trimmed_bytes,
            (1.0 - trimmed_bytes as f64 / full_bytes as f64) * 100.0,
            nmse(&decoded, &gradient),
        );
    }
    println!("\nNote the RHT encoding's lower error at the same trim rate — that is");
    println!("the paper's core result, and why it alone survives 50% trimming.");
}
