//! The staged source's pulled draws under hand-built packet fates.
//!
//! An SQ or SD row's draws are pulled from its draw stream as head packs
//! need them: `StagedRow::chunks` packs a trimmed chunk's heads (and so
//! draws them) and an intact chunk's tails alone, and the SD decoder pulls
//! the dithers of heads-only runs. Whichever chunks are trimmed, the row
//! must decode bit for bit as its whole-row planes viewed through the same
//! fates (`EncodedRow::view_with_depths` → `SchemeId::decode_runs`), where
//! every draw is made in order. The patterns put the trimmed chunks where
//! the stream has to step, jump, or start from the front; one staged row
//! also decodes every pattern in turn, so its stream goes back and starts
//! over between them. `pack_range` itself must write the plane's bytes
//! whatever order its head ranges come in.

use core::ops::Range;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::scheme::{RowScratch, StagedRow};
use trimgrad_quant::SchemeId;

const SCHEMES: [SchemeId; 2] = [SchemeId::Stochastic, SchemeId::SubtractiveDither];

/// Coordinates per packet-chunk: about what an SQ/SD packet carries.
const CHUNK: usize = 350;

const INTACT: usize = 2;
const TRIMMED: usize = 1;
const DROPPED: usize = 0;

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| match i % 11 {
            0 => 0.0,
            4 => -0.0,
            7 => rng.next_f32_range(-1e4, 1e4),
            _ => rng.next_f32_range(-1.0, 1.0),
        })
        .collect()
}

/// The fates of a row of `n` coordinates cut into `CHUNK`-sized chunks,
/// chunk `c` keeping `depth(c, chunks)` parts.
fn fates(n: usize, depth: impl Fn(usize, usize) -> usize) -> Vec<(Range<usize>, usize)> {
    let chunks = n.div_ceil(CHUNK);
    (0..chunks)
        .map(|c| (c * CHUNK..n.min((c + 1) * CHUNK), depth(c, chunks)))
        .collect()
}

/// Named chunk-fate patterns over `chunks` chunks.
#[allow(clippy::type_complexity)]
fn patterns() -> Vec<(&'static str, Box<dyn Fn(usize, usize) -> usize>)> {
    let pick = |hit: bool| if hit { TRIMMED } else { INTACT };
    vec![
        ("only the first trimmed", Box::new(move |c, _| pick(c == 0))),
        (
            "only the last trimmed",
            Box::new(move |c, k| pick(c + 1 == k)),
        ),
        (
            "first and last trimmed",
            Box::new(move |c, k| pick(c == 0 || c + 1 == k)),
        ),
        (
            "every other trimmed",
            Box::new(move |c, _| pick(c % 2 == 1)),
        ),
        ("all trimmed", Box::new(|_, _| TRIMMED)),
        ("none trimmed", Box::new(|_, _| INTACT)),
        (
            "drops between trimmed chunks",
            Box::new(|c, _| match c % 4 {
                0 => TRIMMED,
                1 | 2 => DROPPED,
                _ => INTACT,
            }),
        ),
        ("all dropped", Box::new(|_, _| DROPPED)),
    ]
}

/// `staged` decoded through its chunks under `fates`.
fn chunk_decode(
    id: SchemeId,
    staged: StagedRow<'_>,
    fates: &[(Range<usize>, usize)],
    seed: u64,
) -> Vec<u32> {
    let mut out = vec![f32::NAN; staged.meta().original_len];
    let mut buf = Vec::new();
    let chunks = staged.chunks(fates.iter().cloned(), &mut buf);
    id.decode_runs(chunks, staged.n(), &staged.meta(), seed, &mut out)
        .unwrap();
    out.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn chunks_decode_as_the_planes_under_every_pattern() {
    // Several chunks with a ragged last one, and a row inside one chunk.
    for n in [7 * CHUNK + 123, 4 * CHUNK, 100] {
        for id in SCHEMES {
            let (data, seed) = (row(n, n as u64), 0x5EED ^ n as u64);
            let enc = id.encode(&data, seed);
            let mut shared = RowScratch::default();
            let reused = id.stage(&data, seed, &mut shared);
            for (name, depth) in patterns() {
                let fates = fates(n, depth);
                let depths: Vec<usize> = fates
                    .iter()
                    .flat_map(|(chunk, depth)| std::iter::repeat_n(*depth, chunk.len()))
                    .collect();
                let mut want = vec![f32::NAN; n];
                let view = enc.view_with_depths(&depths);
                id.decode_runs(&view, enc.n, &enc.meta, seed, &mut want)
                    .unwrap();
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let mut fresh = RowScratch::default();
                let staged = id.stage(&data, seed, &mut fresh);
                assert_eq!(
                    chunk_decode(id, staged, &fates, seed),
                    want,
                    "{id} n {n}: {name}, fresh stage"
                );
                assert_eq!(
                    chunk_decode(id, reused, &fates, seed),
                    want,
                    "{id} n {n}: {name}, after the other patterns"
                );
            }
        }
    }
}

#[test]
fn head_ranges_in_any_order_pack_the_plane_bytes() {
    let n = 5000;
    // Out of order, repeated, backwards, byte-unaligned, the whole row.
    let ranges = [
        4000..4500,
        0..8,
        0..8,
        100..3000,
        50..60,
        3..3,
        4990..5000,
        2999..3001,
        0..n,
        7..4993,
    ];
    for id in SCHEMES {
        let data = row(n, 3);
        let plane = &id.encode(&data, 41).parts[0];
        let mut scratch = RowScratch::default();
        let staged = id.stage(&data, 41, &mut scratch);
        for coords in ranges.clone() {
            let mut want = vec![0xC3u8; coords.len().div_ceil(8)];
            plane.copy_bits_to(coords.start, coords.len(), &mut want);
            let mut got = vec![0x5Au8; want.len()];
            staged.pack_range(0, coords.clone(), &mut got);
            assert_eq!(got, want, "{id} heads {coords:?}");
            // A tail pack between head packs moves no draw.
            let mut tails = vec![0u8; coords.len() * 4];
            staged.pack_range(1, coords, &mut tails);
        }
    }
}
