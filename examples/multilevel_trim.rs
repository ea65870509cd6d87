//! Multi-level trimming (§5.1).
//!
//! The three-part `MultiLevelRht` encoding (1-bit sign / 8-bit exponent /
//! 23-bit mantissa) lets switches pick a trim depth per congestion level;
//! this prints what each depth costs in accuracy.
//!
//! Run: `cargo run --release --example multilevel_trim`

use trimgrad::quant::error::nmse;
use trimgrad::quant::SchemeId;

fn main() {
    let scheme = SchemeId::MultiLevelRht;
    let gradient: Vec<f32> = (0..4096)
        .map(|i| ((i as f32) * 0.0137).sin() * 0.2)
        .collect();
    let enc = scheme.encode(&gradient, 7);

    println!("switch trim levels of the {scheme} encoding:");
    let part_bits = scheme.part_bits();
    for depth in (1..=part_bits.len()).rev() {
        let kept_bits: u32 = part_bits[..depth].iter().sum();
        let dec = scheme
            .decode(&enc.trimmed_view(depth), &enc.meta, 7)
            .expect("valid view");
        println!(
            "  depth {depth} ({kept_bits:>2} bits/coord, {:>5.1}% of payload): nmse {:.6}",
            kept_bits as f64 / 32.0 * 100.0,
            nmse(&dec, &gradient)
        );
    }
}
