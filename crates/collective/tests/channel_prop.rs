//! Bit-identity of the trimming channel's chunk path against the plane path.
//!
//! `TrimmingChannel` stages each row, draws its packet fates over the chunk
//! geometry and decodes it chunk by chunk, packing a chunk's surviving parts
//! only as the decoder reaches them (`StagedRow::chunks`). The reference
//! here is the path that builds whole-row planes and masks, from public
//! pieces only: `SchemeId::encode` under the codec's row seed →
//! `TrimInjector::draw_row_fates` → `EncodedRow::view_with_depths` →
//! `SchemeId::decode_into`. For every scheme — SD's dither stream
//! running on across dropped chunks, the RHT schemes padding short rows —
//! at row lengths 1, 7, 1000, 2¹⁵ and 2¹⁵ + 3, under random intact, trimmed
//! and dropped fates, the channel must decode the same bits, count the same
//! outcomes and wire bytes, and report the same telemetry. Two messages
//! cross each channel, so the second one's fates are drawn where the first
//! left the generator.

use proptest::prelude::*;
use trimgrad_collective::channel::{GradChannel, TrimmingChannel};
use trimgrad_collective::chunk::MessageCodec;
use trimgrad_collective::trim_inject::{InjectStats, TrimInjector};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::Registry;
use trimgrad_wire::meta;
use trimgrad_wire::packetize::frame_len;

/// Row lengths: one coordinate, a short padded row, a multi-packet row, the
/// paper's row and one just past it (padded to 2¹⁶ by the RHT schemes).
const ROW_LENS: [usize; 5] = [1, 7, 1000, 1 << 15, (1 << 15) + 3];

fn blob(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| match i % 13 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_f32_range(-1.0, 1.0) * 10f32.powi((i % 5) as i32 - 2),
        })
        .collect()
}

/// One transfer along the plane path: the decode, the outcome counts and
/// the wire bytes, with `inj` advanced as the channel's injector must be.
fn plane_transfer(
    codec: &MessageCodec,
    inj: &mut TrimInjector,
    data: &[f32],
    epoch: u32,
    msg_id: u32,
) -> (Vec<f32>, InjectStats, u64) {
    let scheme = codec.scheme_id();
    let (mut out, mut stats, mut bytes) = (Vec::new(), InjectStats::default(), 0u64);
    let mut fates = Vec::new();
    for row_id in 0..codec.rows_for(data.len()) {
        let range = codec.row_range(data.len(), row_id);
        let seed = codec.row_seed(epoch, msg_id, row_id as u32);
        let enc = scheme.encode(&data[range.clone()], seed);
        stats.merge(inj.draw_row_fates(enc.scheme, enc.n, &mut fates));
        bytes += meta::FRAME_LEN as u64;
        for (chunk, depth) in &fates {
            if *depth > 0 {
                bytes += frame_len(scheme.part_bits(), chunk.len(), *depth) as u64;
            }
        }
        let depths: Vec<usize> = fates
            .iter()
            .flat_map(|(chunk, depth)| std::iter::repeat_n(*depth, chunk.len()))
            .collect();
        let view = enc.view_with_depths(&depths);
        let mut row = vec![f32::NAN; range.len()];
        scheme
            .decode_into(&view, &enc.meta, seed, &mut row)
            .expect("own planes decode");
        out.extend_from_slice(&row);
    }
    (out, stats, bytes)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `Err(what diverged)` unless two messages of `len` coordinates cross a
/// channel exactly as they cross the plane path.
fn check_channel(
    scheme: SchemeId,
    row_len: usize,
    len: usize,
    trim: f64,
    drop: f64,
    seed: u64,
) -> Result<(), String> {
    let codec = || MessageCodec::with_row_len(scheme, seed, row_len);
    let injector = TrimInjector::new(trim, seed ^ 0x1F).with_drop_prob(drop);
    let registry = Registry::new();
    let mut ch = TrimmingChannel::new(codec(), injector.clone()).with_telemetry(&registry, "ch");
    let (reference_codec, mut reference) = (codec(), injector);
    let (mut stats, mut bytes) = (InjectStats::default(), 0);
    for msg_id in 0..2 {
        let data = blob(len, seed.wrapping_add(u64::from(msg_id)));
        let (want, s, b) = plane_transfer(&reference_codec, &mut reference, &data, 3, msg_id);
        stats.merge(s);
        bytes += b;
        let mut got = Vec::new();
        ch.transfer(&data, 3, msg_id, |_, piece| got.extend_from_slice(piece));
        if bits(&got) != bits(&want) {
            let at = (0..len).find(|&i| got[i].to_bits() != want[i].to_bits());
            return Err(format!("message {msg_id}: decode differs at {at:?}"));
        }
    }
    if ch.inject_stats() != stats {
        return Err(format!("stats {:?}, planes {stats:?}", ch.inject_stats()));
    }
    if ch.bytes_sent() != bytes {
        return Err(format!("bytes {}, planes {bytes}", ch.bytes_sent()));
    }
    let snap = registry.snapshot();
    let counters = [
        snap.counter("ch.intact"),
        snap.counter("ch.trimmed"),
        snap.counter("ch.dropped"),
        snap.counter("ch.bytes_sent"),
        snap.counter("ch.transfers"),
    ];
    let want = [stats.intact, stats.trimmed, stats.dropped, bytes, 2];
    if counters != want {
        return Err(format!("telemetry {counters:?}, planes {want:?}"));
    }
    Ok(())
}

#[test]
fn every_scheme_and_row_length_under_fixed_fate_mixes() {
    for scheme in SchemeId::ALL {
        for row_len in ROW_LENS {
            for (trim, drop) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.2)] {
                let len = 2 * row_len + row_len / 2 + 1;
                check_channel(scheme, row_len, len, trim, drop, 7)
                    .unwrap_or_else(|e| panic!("{scheme} row {row_len} ({trim}, {drop}): {e}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn the_chunk_path_decodes_as_the_plane_path(
        scheme in proptest::sample::select(SchemeId::ALL.to_vec()),
        row_len in proptest::sample::select(ROW_LENS.to_vec()),
        rows in 0.0f64..3.0,
        trim in 0.0f64..1.0,
        drop_share in 0.0f64..1.0,
        seed in any::<u64>()
    ) {
        let len = ((rows * row_len as f64) as usize).max(1);
        let drop = (1.0 - trim) * drop_share;
        prop_assert_eq!(check_channel(scheme, row_len, len, trim, drop, seed), Ok(()));
    }
}
