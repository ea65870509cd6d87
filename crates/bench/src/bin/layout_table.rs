//! Regenerates the **§2 in-text packet-layout numbers** ("T-layout" in
//! DESIGN.md).
//!
//! The paper: with P = 1 bit per 32-bit float, "a typical MTU-sized packet
//! of 1500 bytes can accommodate about n = 365 coordinates … the trimmed
//! packet contains 45 bytes of compressed payload. Accounting for a 42-byte
//! standard header (Ethernet, IP, UDP), we should configure the switches to
//! trim packets at 87 bytes upon congestion, achieving a compression ratio
//! of 94.2%."
//!
//! Our wire format adds a 28-byte TrimGrad application header the paper's
//! back-of-envelope omits; both accountings are printed.
//!
//! Run: `cargo run --release -p trimgrad-bench --bin layout_table`

use trimgrad::quant::SchemeId;
use trimgrad::wire::packetize::{layout_report, DEFAULT_MTU};
use trimgrad::wire::payload::{max_coords_for_budget, PayloadLayout};
use trimgrad::wire::stack::{IP_OVERHEAD, PAYLOAD_START};
use trimgrad_bench::print_row;

fn main() {
    println!("# S2 packet-layout numbers (MTU 1500)");

    // --- The paper's accounting: 42 B of Ethernet+IP+UDP, no app header. ---
    let paper_budget = DEFAULT_MTU - IP_OVERHEAD; // payload under the IP MTU
    let n = max_coords_for_budget(&[1, 31], paper_budget).unwrap();
    let layout = PayloadLayout::new(&[1, 31], n);
    let trimmed_frame = PAYLOAD_START + layout.trim_point(1);
    let full_frame = PAYLOAD_START + layout.total_len();
    println!("\n## paper's accounting (no app header)");
    println!("coordinates per MTU packet: {n}   (paper: ~365)");
    println!(
        "trimmed payload: {} B      (paper: 45 B)",
        layout.trim_point(1)
    );
    println!("trim threshold: {trimmed_frame} B      (paper: 87 B)");
    println!(
        "compression ratio: {:.1}%   (paper: 94.2%)",
        (1.0 - trimmed_frame as f64 / full_frame as f64) * 100.0
    );

    // --- This implementation's accounting (with the TrimGrad header). ---
    println!("\n## this implementation (28 B TrimGrad header included)");
    let widths = [8usize, 8, 10, 10, 10, 12];
    print_row(
        &[
            "scheme".into(),
            "coords".into(),
            "full(B)".into(),
            "trim1(B)".into(),
            "ratio".into(),
            "trim-levels".into(),
        ],
        &widths,
    );
    for scheme in SchemeId::ALL {
        let r = layout_report(scheme.part_bits(), DEFAULT_MTU).expect("MTU fits coordinates");
        let layout = PayloadLayout::new(scheme.part_bits(), r.coords_per_packet);
        let levels: Vec<String> = layout
            .trim_points()
            .iter()
            .map(|p| format!("{p}"))
            .collect();
        print_row(
            &[
                scheme.name().into(),
                format!("{}", r.coords_per_packet),
                format!("{}", r.full_frame_len),
                format!("{}", r.trimmed_frame_len),
                format!("{:.1}%", r.compression_ratio * 100.0),
                levels.join("/"),
            ],
            &widths,
        );
    }
    eprintln!("layout_table: done");
}
