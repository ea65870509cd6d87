//! Property tests over the end-to-end pipeline: any blob, any scheme, any
//! MTU, any trimming pattern applied to the *actual frames*, the decode is
//! sound; untrimmed, it is faithful; and decoding the frames where they lie
//! gives, bit for bit, what reassembling them into planes
//! (`RowAssembler`) and decoding those (`MessageCodec::decode_row`) gives.

use proptest::prelude::*;
use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline};
use trimgrad::quant::error::nmse;
use trimgrad::quant::SchemeId;
use trimgrad_collective::chunk::MessageCodec;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_wire::ipv4::DSCP_TRIMMED;
use trimgrad_wire::meta::RowMetaPacket;
use trimgrad_wire::packet::{GradPacket, STACK_OVERHEAD};
use trimgrad_wire::reassemble::RowAssembler;
use trimgrad_wire::stack::reseal;
use trimgrad_wire::WireError;

fn blob(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-3.0, 3.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_untrimmed_is_faithful(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 0usize..3000,
        row_len in prop::sample::select(vec![256usize, 512, 1024, 4096]),
        mtu in 300usize..1500,
        seed in any::<u64>(),
        epoch in any::<u32>(),
        msg in any::<u32>()
    ) {
        let scheme = SchemeId::ALL[scheme_idx];
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
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..2500,
        seed in any::<u64>(),
        pattern in proptest::collection::vec(0u8..=3, 1..40)
    ) {
        let scheme = SchemeId::ALL[scheme_idx];
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
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..2500,
        seed in any::<u64>(),
        pattern in proptest::collection::vec(0u8..=3, 1..40)
    ) {
        let scheme = SchemeId::ALL[scheme_idx];
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
                .scheme(SchemeId::SignMagnitude)
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

/// The staging the pipeline's decode replaced: every row's frames, in
/// arrival order, reassembled into planes and decoded from them.
fn staged_decode(
    codec: &MessageCodec,
    frames: &[GradPacket],
    metas: &[RowMetaPacket],
    (epoch, msg): (u32, u32),
) -> Result<Vec<f32>, WireError> {
    let mut rows: Vec<RowAssembler> = metas.iter().map(RowAssembler::from_meta).collect();
    for frame in frames {
        let row = frame.quick_fields()?.row_id as usize;
        rows[row].ingest(frame)?;
    }
    let mut out = Vec::new();
    for (row_id, asm) in rows.iter().enumerate() {
        let meta = asm.meta().expect("assembled from its meta");
        let decoded = codec.decode_row(&asm.partial_row(), meta, epoch, msg, row_id as u32);
        out.extend(decoded.map_err(|_| WireError::BadField("row decode"))?);
    }
    Ok(out)
}

/// What arrives of `sent`: each frame lost, delivered at a drawn depth, or
/// delivered twice at two depths — one copy of a duplicate, at times, with
/// a section byte flipped and the checksums resealed, so the two copies
/// disagree and the later one must win part by part — then reordered.
fn arrivals(sent: &[GradPacket], n_parts: u8, rng: &mut Xoshiro256StarStar) -> Vec<GradPacket> {
    let at_depth = |frame: &GradPacket, depth: u8| {
        let mut frame = frame.clone();
        if depth < n_parts {
            frame.trim_to_depth(depth).expect("data frames trim");
        }
        frame
    };
    let mut out = Vec::new();
    for frame in sent {
        let mut draw = |below: u64| (rng.next_u64() % below) as u8;
        match draw(6) {
            0 => {}
            1 | 2 => {
                let depth = 1 + draw(u64::from(n_parts));
                out.push(at_depth(frame, depth));
            }
            _ => {
                let (a, b) = (1 + draw(u64::from(n_parts)), 1 + draw(u64::from(n_parts)));
                out.push(at_depth(frame, a));
                let mut dup = at_depth(frame, b).as_bytes().to_vec();
                if draw(2) == 0 {
                    let at = STACK_OVERHEAD + usize::from(draw(255)) % (dup.len() - STACK_OVERHEAD);
                    dup[at] ^= 1 << draw(8);
                    reseal(&mut dup, DSCP_TRIMMED);
                }
                out.push(GradPacket::from_frame(dup));
            }
        }
    }
    // Fisher–Yates with the test's generator.
    for i in (1..out.len()).rev() {
        out.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_decode_where_they_lie_as_reassembled_planes_do(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..5000,
        row_len in prop::sample::select(vec![256usize, 1000, 2048]),
        mtu in prop::sample::select(vec![101usize, 1499, 9000]),
        seed in any::<u64>()
    ) {
        let scheme = SchemeId::ALL[scheme_idx];
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder()
                .scheme(scheme)
                .row_len(row_len)
                .mtu(mtu)
                .base_seed(seed)
                .build(),
        );
        let codec = MessageCodec::with_row_len(scheme, seed, row_len);
        let g = blob(len, seed);
        let tx = pipe.encode(&g, 5, 6, 1, 2);
        let mut rng = Xoshiro256StarStar::new(seed ^ 0xA11);
        let frames = arrivals(&tx.packets, scheme.part_bits().len() as u8, &mut rng);
        let direct = pipe.decode(&frames, &tx.metas, 5, 6);
        let staged = staged_decode(&codec, &frames, &tx.metas, (5, 6));
        let bits = |r: Result<Vec<f32>, WireError>| r.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        prop_assert_eq!(bits(direct), bits(staged));
    }
}

#[test]
fn a_frame_claiming_coordinates_off_its_chunk_is_refused() {
    // A frame moved by 8 coordinates still fits its row and still passes
    // both checksums once resealed: reassembled into planes, it would
    // overwrite coordinates its chunk does not own and decode `Ok`. The
    // pipeline refuses it, in arrival order, before it is indexed.
    let pipe = TrimmablePipeline::new(
        PipelineConfig::builder()
            .scheme(SchemeId::RhtOneBit)
            .row_len(1024)
            .build(),
    );
    let tx = pipe.encode(&blob(2500, 12), 3, 4, 1, 2);
    let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, pipe.config().base_seed(), 1024);
    // coord_start is the big-endian u32 at byte 16 of the TrimGrad header,
    // chunk_id the u16 at byte 6.
    let edited = |frame: &GradPacket, at: usize, edit: &dyn Fn(&mut [u8])| {
        let mut bytes = frame.as_bytes().to_vec();
        edit(&mut bytes[STACK_OVERHEAD - 28 + at..]);
        reseal(&mut bytes, trimgrad_wire::ipv4::DSCP_BULK);
        GradPacket::from_frame(bytes)
    };
    let shifted = edited(&tx.packets[0], 16, &|b| {
        let start = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) + 8;
        b[..4].copy_from_slice(&start.to_be_bytes());
    });
    let renumbered = edited(&tx.packets[1], 6, &|b| {
        b[..2].copy_from_slice(&0u16.to_be_bytes())
    });
    let clean = staged_decode(&codec, &tx.packets, &tx.metas, (3, 4)).expect("own frames");
    for bad in [shifted, renumbered] {
        let mut frames = tx.packets.clone();
        frames[0] = bad.clone();
        let planes = staged_decode(&codec, &frames, &tx.metas, (3, 4)).expect("planes take it");
        assert_ne!(planes, clean, "the frame moved coordinates");
        assert_eq!(
            pipe.decode(&frames, &tx.metas, 3, 4).unwrap_err(),
            WireError::BadField("coord range")
        );
        // In arrival order: a foreign frame before it is refused first.
        let foreign = pipe.encode(&blob(100, 1), 3, 5, 1, 2).packets.remove(0);
        for (first, second, err) in [(&bad, &foreign, "coord range"), (&foreign, &bad, "msg_id")] {
            let frames = [first.clone(), second.clone()];
            let got = pipe.decode(&frames, &tx.metas, 3, 4).unwrap_err();
            assert_eq!(got, WireError::BadField(err));
        }
    }
}
