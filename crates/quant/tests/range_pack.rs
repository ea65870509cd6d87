//! The range packer against the whole-row planes.
//!
//! A packet section carries the fields of one coordinate range of one part,
//! re-based to bit 0. The send path writes them straight from the row stage
//! with [`StagedRow::pack_range`]; the plane path packs the whole row
//! ([`SchemeId::encode`]) and a packetizer copies the range out of the
//! plane with [`BitBuf::copy_bits_to`]. The two must agree on every byte,
//! slack bits included, for every scheme, row length and range start modulo
//! eight — the group of eight coordinates is the packers' unit, and a range
//! that starts inside one re-bases every group.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::bitpack::BitBuf;
use trimgrad_quant::scheme::RowScratch;
use trimgrad_quant::SchemeId;

/// A row of ordinary gradient values with zeros, negative zeros and large
/// magnitudes mixed in, so every field takes varied bits.
fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| match i % 13 {
            0 => 0.0,
            5 => -0.0,
            9 if i % 3 == 0 => -3.0e38,
            11 => rng.next_f32_range(-1e6, 1e6),
            _ => rng.next_f32_range(-2.0, 2.0),
        })
        .collect()
}

/// Range starts with every residue modulo eight at the front, the middle
/// and the back of an `n`-coordinate row.
fn starts(n: usize) -> Vec<usize> {
    let mut s: Vec<usize> = (0..16).collect();
    s.extend((0..8).map(|r| n / 3 + r));
    s.extend((1..=9).map(|r| n.saturating_sub(r)));
    s.retain(|&s| s < n);
    s.sort_unstable();
    s.dedup();
    s
}

/// Range ends after `start`: one group, around it, a packet's worth and
/// the end of the row.
fn ends(start: usize, n: usize) -> Vec<usize> {
    let mut e: Vec<usize> = [1, 2, 7, 8, 9, 63, 360, 2235]
        .iter()
        .map(|&len| start + len)
        .chain([n])
        .filter(|&e| e <= n)
        .collect();
    e.sort_unstable();
    e.dedup();
    e
}

/// `Err(where)` unless every range of every part packs to the bytes the
/// whole-row plane holds there.
fn check(id: SchemeId, len: usize, seed: u64) -> Result<(), String> {
    let data = row(len, seed ^ len as u64);
    let enc = id.encode(&data, seed);
    let mut scratch = RowScratch::default();
    let staged = id.stage(&data, seed, &mut scratch);
    if staged.n() != enc.n || staged.meta() != enc.meta {
        return Err(format!("{id} len {len}: staged geometry differs"));
    }
    let n = enc.n;
    for (part, (plane, &w)) in enc.parts.iter().zip(id.part_bits()).enumerate() {
        let w = w as usize;
        for s in starts(n) {
            for e in ends(s, n) {
                let bits = (e - s) * w;
                let mut want = vec![0xC3u8; bits.div_ceil(8)];
                plane.copy_bits_to(s * w, bits, &mut want);
                let mut got = vec![0x5Au8; bits.div_ceil(8)];
                staged.pack_range(part, s..e, &mut got);
                if got != want {
                    return Err(format!(
                        "{id} len {len}: part {part} range {s}..{e} differs"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn every_range_packs_to_the_plane_bits() {
    for id in SchemeId::ALL {
        for len in [1usize, 7, 8, 9, 1000, 1 << 15] {
            check(id, len, 0x5EED_0000 + len as u64).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn a_reused_scratch_stages_like_a_fresh_one() {
    // One scratch across rows of every scheme and length, longest first: a
    // row must not see what the previous one left in the buffers.
    let mut scratch = RowScratch::default();
    for len in [4096usize, 1000, 9, 0, 300] {
        for id in SchemeId::ALL {
            let data = row(len, 3);
            let staged = id.stage(&data, 17, &mut scratch).to_encoded();
            assert_eq!(staged, id.encode(&data, 17), "{id} len {len}");
        }
    }
}

#[test]
fn the_whole_row_pack_is_the_range_packer_over_the_row() {
    for id in SchemeId::ALL {
        let data = row(777, 5);
        let mut scratch = RowScratch::default();
        let staged = id.stage(&data, 9, &mut scratch);
        let enc = staged.to_encoded();
        for (part, (plane, &w)) in enc.parts.iter().zip(id.part_bits()).enumerate() {
            let bits = staged.n() * w as usize;
            let mut bytes = vec![0xFFu8; bits.div_ceil(8)];
            staged.pack_range(part, 0..staged.n(), &mut bytes);
            assert_eq!(*plane, BitBuf::from_bytes(bytes, bits), "{id} part {part}");
        }
    }
}
