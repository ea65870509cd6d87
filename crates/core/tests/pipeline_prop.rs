//! Property tests over the end-to-end pipeline: any blob, any scheme, any
//! MTU, any trimming pattern applied to the *actual frames*, the decode is
//! sound; untrimmed, it is faithful.

use proptest::prelude::*;
use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline};
use trimgrad::quant::error::nmse;
use trimgrad::Scheme;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

fn blob(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-3.0, 3.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_untrimmed_is_faithful(
        scheme_idx in 0usize..Scheme::ALL.len(),
        len in 0usize..3000,
        row_len in prop::sample::select(vec![256usize, 512, 1024, 4096]),
        mtu in 300usize..1500,
        seed in any::<u64>(),
        epoch in any::<u32>(),
        msg in any::<u32>()
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder()
                .scheme(scheme)
                .row_len(row_len)
                .mtu(mtu)
                .base_seed(seed)
                .build(),
        );
        let g = blob(len, seed);
        let tx = pipe.encode(&g, epoch, msg, 1, 2);
        let dec = pipe.decode(&tx.packets, &tx.metas, epoch, msg).expect("decodable");
        prop_assert_eq!(dec.len(), len);
        for (d, v) in dec.iter().zip(&g) {
            prop_assert!((d - v).abs() <= 1e-3 + 1e-4 * v.abs());
        }
    }

    #[test]
    fn pipeline_survives_arbitrary_frame_trimming(
        scheme_idx in 0usize..Scheme::ALL.len(),
        len in 1usize..2500,
        seed in any::<u64>(),
        pattern in proptest::collection::vec(0u8..=3, 1..40)
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let n_parts = scheme.part_bits().len() as u8;
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder().scheme(scheme).row_len(512).build(),
        );
        let g = blob(len, seed);
        let tx = pipe.encode(&g, 1, 2, 1, 2);
        let mut packets = Vec::new();
        for (i, pkt) in tx.packets.iter().enumerate() {
            match pattern[i % pattern.len()] {
                0 => {} // lost
                d => {
                    let mut p = pkt.clone();
                    let depth = d.min(n_parts);
                    if depth < n_parts {
                        p.trim_to_depth(depth).expect("trimmable");
                    }
                    packets.push(p);
                }
            }
        }
        let dec = pipe.decode(&packets, &tx.metas, 1, 2).expect("decodable");
        prop_assert_eq!(dec.len(), len);
        for d in &dec {
            prop_assert!(d.is_finite());
        }
        // Error is bounded: decoding can never be worse than "all lost plus
        // the worst-case head estimate" — sanity-bound it loosely.
        if !g.iter().all(|&v| v == 0.0) {
            let e = nmse(&dec, &g);
            prop_assert!(e < 30.0, "{scheme}: implausible error {e}");
        }
    }

    /// The pipeline's telemetry accounts for any trim/loss pattern: packet
    /// and coordinate counters in the snapshot equal the ground truth
    /// computed alongside (delivered = encoded − lost; trimmed and
    /// parts-lost tallies match the applied pattern exactly).
    #[test]
    fn pipeline_telemetry_accounts_for_any_pattern(
        scheme_idx in 0usize..Scheme::ALL.len(),
        len in 1usize..2500,
        seed in any::<u64>(),
        pattern in proptest::collection::vec(0u8..=3, 1..40)
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let n_parts = scheme.part_bits().len() as u8;
        let reg = trimgrad_telemetry::Registry::new();
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder().scheme(scheme).row_len(512).build(),
        )
        .with_telemetry(reg.clone());
        let g = blob(len, seed);
        let tx = pipe.encode(&g, 1, 2, 1, 2);
        let mut packets = Vec::new();
        let mut lost = 0u64;
        let mut trimmed = 0u64;
        let mut parts_lost = 0u64;
        for (i, pkt) in tx.packets.iter().enumerate() {
            match pattern[i % pattern.len()] {
                0 => lost += 1,
                d => {
                    let mut p = pkt.clone();
                    let depth = d.min(n_parts);
                    if depth < n_parts {
                        p.trim_to_depth(depth).expect("trimmable");
                        trimmed += 1;
                        parts_lost += u64::from(n_parts - depth);
                    }
                    packets.push(p);
                }
            }
        }
        let dec = pipe.decode(&packets, &tx.metas, 1, 2).expect("decodable");
        let snap = reg.snapshot();
        // Conservation: what went in is what came out plus what was lost.
        prop_assert_eq!(
            snap.counter("core.pipeline.packets_out"),
            snap.counter("core.pipeline.packets_in") + lost,
            "packets_out != packets_in + lost"
        );
        prop_assert_eq!(snap.counter("core.pipeline.packets_out"), tx.packets.len() as u64);
        prop_assert_eq!(snap.counter("core.pipeline.packets_trimmed_in"), trimmed);
        prop_assert_eq!(snap.counter("core.pipeline.parts_lost"), parts_lost);
        prop_assert_eq!(snap.counter("core.pipeline.coords_out"), dec.len() as u64);
        prop_assert_eq!(
            snap.counter("core.pipeline.rows_encoded"),
            snap.counter("core.pipeline.rows_decoded")
        );
        prop_assert!(snap.counter("core.pipeline.bytes_out") > 0);
    }
}

/// Sign-magnitude says exactly what each coordinate must decode to — its own
/// bits from an intact frame, `±σ` with its sign from a trimmed one, `0.0`
/// from a lost one — so it checks the decode runs of real frames coordinate
/// by coordinate. At IP MTU 101 a frame carries 11 coordinates and at 9000
/// it carries 2235: runs that start and end inside a group of eight, unlike
/// the default MTU's multiples of 360.
#[test]
fn signmag_frames_decode_exactly_at_any_mtu() {
    for (mtu, per_frame) in [(101usize, 11u16), (1500, 360), (9000, 2235)] {
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder()
                .scheme(Scheme::SignMagnitude)
                .row_len(1 << 13)
                .mtu(mtu)
                .build(),
        );
        let g = blob((1 << 13) * 2 + 777, mtu as u64);
        let tx = pipe.encode(&g, 3, 4, 1, 2);
        let mut expect = vec![0.0f32; g.len()];
        let mut frames = Vec::new();
        for (i, pkt) in tx.packets.iter().enumerate() {
            let f = pkt.quick_fields().expect("own frame");
            assert_eq!(
                f.coord_start % u32::from(per_frame),
                0,
                "the stated geometry"
            );
            let first = f.row_id as usize * (1 << 13) + f.coord_start as usize;
            let coords = first..first + f.coord_count as usize;
            let sigma = tx.metas[f.row_id as usize].scale;
            let mut pkt = pkt.clone();
            match i % 5 {
                0 | 3 => expect[coords.clone()].copy_from_slice(&g[coords]),
                1 | 2 => {
                    pkt.trim_to_depth(1).expect("trimmable");
                    for c in coords {
                        expect[c] = sigma.copysign(g[c]);
                    }
                }
                _ => continue, // lost: stays 0.0
            }
            frames.push(pkt);
        }
        let dec = pipe.decode(&frames, &tx.metas, 3, 4).expect("decodable");
        assert_eq!(dec.len(), g.len());
        for (c, (d, e)) in dec.iter().zip(&expect).enumerate() {
            assert_eq!(d.to_bits(), e.to_bits(), "mtu {mtu}: coordinate {c}");
        }
    }
}
