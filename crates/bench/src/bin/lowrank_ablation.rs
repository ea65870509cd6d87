//! Ablation for **§5.2/§5.3 low-rank decomposition**: rank-prefix
//! decodability as the trimming mechanism.
//!
//! A synthetic gradient matrix with a decaying spectrum is compressed with
//! the PowerSGD-style [`trimgrad::lowrank`] compressor; the table reports
//! reconstruction error as a function of how many ranks survive "trimming",
//! next to the quantization schemes' error at the byte budget each rank
//! prefix implies. This is the comparison the paper poses as future work:
//! "what is the best method or a combination of methods".
//!
//! Run: `cargo run --release -p trimgrad-bench --bin lowrank_ablation`

use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::lowrank::LowRankCompressor;
use trimgrad::quant::error::nmse;
use trimgrad::quant::SchemeId;
use trimgrad_bench::print_row;

const ROWS: usize = 128;
const COLS: usize = 128;

/// A gradient matrix with power-law spectrum plus dense noise.
fn gradient_matrix(seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut g = vec![0.0f32; ROWS * COLS];
    for k in 0..16 {
        let scale = 8.0 / (k + 1) as f32;
        let u: Vec<f32> = (0..ROWS).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
        let v: Vec<f32> = (0..COLS).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
        for i in 0..ROWS {
            for j in 0..COLS {
                g[i * COLS + j] += scale * u[i] * v[j];
            }
        }
    }
    for x in &mut g {
        *x += 0.3 * rng.next_f32_range(-1.0, 1.0);
    }
    g
}

fn main() {
    let g = gradient_matrix(1);
    let compressor = LowRankCompressor::new(16, 2, 7);
    let msg = compressor.compress(&g, ROWS, COLS);

    println!("# S5.2 low-rank trimmable compression: 128x128 gradient,");
    println!("# rank-16 PowerSGD factorization, decoded from rank prefixes");
    let widths = [8usize, 12, 12, 12];
    print_row(
        &[
            "ranks".into(),
            "floats".into(),
            "ratio".into(),
            "nmse".into(),
        ],
        &widths,
    );
    let full = (ROWS * COLS) as f64;
    for ranks in [1usize, 2, 4, 8, 16] {
        let floats = ranks * (ROWS + COLS);
        let rec = msg.reconstruct(ranks);
        print_row(
            &[
                format!("{ranks}"),
                format!("{floats}"),
                format!("{:.1}x", full / floats as f64),
                format!("{:.4}", nmse(&rec, &g)),
            ],
            &widths,
        );
    }

    println!("\n# quantization schemes at comparable budgets (whole matrix):");
    let widths = [10usize, 12, 12];
    print_row(
        &["scheme".into(), "bits/coord".into(), "nmse".into()],
        &widths,
    );
    for (id, depth) in [
        (SchemeId::RhtOneBit, 1usize),    // 1 bit/coord ≈ rank 2 budget
        (SchemeId::MultiLevelRht, 2),     // 9 bits/coord
        (SchemeId::SubtractiveDither, 1), // 1 bit/coord
    ] {
        let enc = id.encode(&g, 3);
        let dec = id
            .decode(&enc.trimmed_view(depth), &enc.meta, 3)
            .expect("valid view");
        let bits: u32 = id.part_bits()[..depth].iter().sum();
        print_row(
            &[
                id.name().into(),
                format!("{bits}"),
                format!("{:.4}", nmse(&dec, &g)),
            ],
            &widths,
        );
    }
    println!("# low-rank shines when the gradient has spectral structure;");
    println!("# quantization wins on unstructured (noise-dominated) gradients.");
    eprintln!("lowrank_ablation: done");
}
