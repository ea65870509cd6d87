//! Adversarial property tests for [`RowAssembler`]: arbitrary interleavings
//! of trimmed, duplicated, reordered, and foreign packets must never panic,
//! availability must be monotone non-decreasing event by event, and the
//! final decode must be bit-identical to the decode of the best copy of
//! each packet — duplicates and hostile packets can neither improve nor
//! degrade the assembled row.
//!
//! The assembler answers its completeness questions from running counters,
//! not from its depths, so after *every* ingest the counters are checked
//! against a recount: a per-part `Vec<bool>` model filled from the packets
//! the assembler accepted. The view's depth runs, read through
//! `RunSource::runs`, must hold exactly the model's parts.
//!
//! The receive path, [`RowFrames`], is held to that plane oracle: it takes
//! every event too, built without its metadata, which arrives first, last
//! or never. After every event it must accept or refuse exactly what the
//! assembler did and give the same head counts, and at the end its frames,
//! read in place, must decode to the assembler's bits.

use proptest::prelude::*;
use std::borrow::Cow;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::scheme::RunSource;
use trimgrad_quant::SchemeId;
use trimgrad_wire::packet::{GradPacket, NetAddrs};
use trimgrad_wire::packetize::{coords_per_packet, packetize_row, PacketizeConfig};
use trimgrad_wire::reassemble::{RowAssembler, RowFrames};

fn cfg() -> PacketizeConfig {
    PacketizeConfig {
        mtu: 700,
        net: NetAddrs::between_hosts(1, 2),
        msg_id: 3,
        row_id: 1,
        epoch: 2,
    }
}

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-10.0, 10.0)).collect()
}

/// The depths of the assembler's view, coordinate by coordinate, as the
/// decoder reads its runs; the runs must tile the row in order and be
/// maximal.
fn view_depths(asm: &RowAssembler) -> Vec<usize> {
    let mut depths = Vec::with_capacity(asm.n());
    let mut last = None;
    asm.partial_row()
        .runs(asm.scheme().part_bits(), |run| {
            assert_eq!(run.coords.start, depths.len(), "runs tile the row");
            assert!(!run.coords.is_empty(), "no empty run");
            assert_ne!(last.replace(run.depth), Some(run.depth), "maximal runs");
            depths.extend(std::iter::repeat_n(run.depth, run.coords.len()));
        })
        .expect("the row's own geometry");
    assert_eq!(depths.len(), asm.n(), "runs cover the row");
    depths
}

/// Total per-part coordinate availability — the quantity that must only grow.
fn availability(asm: &RowAssembler) -> usize {
    view_depths(asm).iter().sum()
}

/// Per-part presence as the test recounts it: `model[k][i]` is whether an
/// accepted packet delivered part `k` of coordinate `i`.
type Model = Vec<Vec<bool>>;

/// Marks what an accepted packet delivered.
fn record(model: &mut Model, pkt: &GradPacket) {
    let parsed = pkt.parse().expect("the assembler accepted it");
    let f = &parsed.fields;
    let (start, count) = (f.coord_start as usize, f.coord_count as usize);
    for part in &mut model[..parsed.sections.len()] {
        part[start..start + count].fill(true);
    }
}

/// Every O(1) answer of the assembler equals a recount of the model, and
/// the view it hands the decoder holds part `k` of coordinate `i` exactly
/// where the model does.
fn assert_counters_match(asm: &RowAssembler, model: &Model) -> Result<(), TestCaseError> {
    let n = asm.n();
    let counts: Vec<usize> = model
        .iter()
        .map(|part| part.iter().filter(|&&p| p).count())
        .collect();
    prop_assert_eq!(asm.coords_received(), counts[0]);
    prop_assert_eq!(asm.heads_complete(), counts[0] == n);
    prop_assert_eq!(asm.is_complete(), counts.iter().all(|&c| c == n));
    let depths = view_depths(asm);
    prop_assert_eq!(model.len(), asm.scheme().part_bits().len());
    for (k, (bits, &count)) in model.iter().zip(&counts).enumerate() {
        prop_assert_eq!(
            depths.iter().filter(|&&d| d > k).count(),
            count,
            "part {}",
            k
        );
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(depths[i] > k, bit, "part {} coordinate {}", k, i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Feed the assembler a shuffled mix of (possibly trimmed, possibly
    /// duplicated) legitimate packets plus wrong-row, wrong-epoch, and
    /// hand-truncated hostile packets. Invariants:
    ///
    /// * no ingest call panics (hostile ones return `Err`);
    /// * availability is monotone non-decreasing after every event;
    /// * after every event `coords_received`, `heads_complete`, `is_complete`
    ///   and the depths of `partial_row` per part equal a recount
    ///   of what was accepted — so a rejected frame changes none of them, and
    ///   duplicates and re-deliveries at other depths are not counted twice;
    /// * the final decode equals, bit for bit, the decode of an assembler
    ///   fed only the least-trimmed surviving copy of each packet;
    /// * a `RowFrames` fed the same events, its metadata at `meta_at` (0
    ///   first, 1 last, 2 never), returns the assembler's `Ok`/`Err` and head
    ///   counts after every event and decodes to the assembler's bits.
    #[test]
    fn adversarial_interleavings_keep_assembler_sound(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..900,
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        fates in proptest::collection::vec(0u8..=14, 1..32),
        meta_at in 0u8..3
    ) {
        let scheme_id = SchemeId::ALL[scheme_idx];
        let data = row(len, seed);
        let enc = scheme_id.encode(&data, seed);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        let n_parts = scheme_id.part_bits().len();

        // Expand per-packet fates into delivery events. fate % 5 is the
        // surviving depth (0 = the packet is lost entirely), fate / 5 adds
        // up to two duplicate copies at other depths.
        let mut events: Vec<GradPacket> = Vec::new();
        let mut best_depth = vec![0usize; pr.packets.len()];
        for (i, pkt) in pr.packets.iter().enumerate() {
            let fate = fates[i % fates.len()];
            let depth = ((fate % 5) as usize).min(n_parts);
            if depth == 0 {
                continue;
            }
            let copies = 1 + (fate / 5) as usize;
            for copy in 0..copies {
                let d = if copy == 0 {
                    depth
                } else {
                    1 + (depth + copy) % n_parts
                };
                let mut p = pkt.clone();
                if d < n_parts {
                    p.trim_to_depth(d as u8).expect("trimmable");
                }
                best_depth[i] = best_depth[i].max(d);
                events.push(p);
            }
        }
        // Hostile traffic: a packet for another row, a packet from another
        // epoch, and a frame whose tail bytes were chopped off.
        let foreign = packetize_row(&enc, &PacketizeConfig { row_id: 999, ..cfg() });
        let stale = packetize_row(&enc, &PacketizeConfig { epoch: 7, ..cfg() });
        events.push(foreign.packets[0].clone());
        events.push(stale.packets[0].clone());
        let mut chopped = pr.packets[0].as_bytes().to_vec();
        chopped.truncate(chopped.len() - 3);
        events.push(GradPacket::from_frame(chopped));

        // Reorder: seeded Fisher–Yates shuffle of the event list.
        let mut rng = Xoshiro256StarStar::new(shuffle_seed);
        for i in (1..events.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            events.swap(i, j);
        }

        let mut asm = RowAssembler::new(scheme_id, c.msg_id, c.row_id, len);
        asm.ingest_meta(&pr.meta).expect("meta matches");
        let per_packet = coords_per_packet(scheme_id.part_bits(), c.mtu).expect("fits");
        let mut frames =
            RowFrames::new(scheme_id, c.epoch, c.msg_id, c.row_id, len, per_packet);
        if meta_at == 0 {
            frames.ingest_meta(&pr.meta).expect("meta matches");
        }
        let mut model: Model = vec![vec![false; asm.n()]; n_parts];
        assert_counters_match(&asm, &model)?;
        let mut prev = availability(&asm);
        for ev in &events {
            // Hostile events return Err; none may panic.
            let accepted = asm.ingest(ev);
            if accepted.is_ok() {
                record(&mut model, ev);
            }
            prop_assert_eq!(frames.ingest(Cow::Borrowed(ev)), accepted);
            prop_assert_eq!(frames.coords_received(), asm.coords_received());
            prop_assert_eq!(frames.heads_complete(), asm.heads_complete());
            assert_counters_match(&asm, &model)?;
            let now = availability(&asm);
            prop_assert!(now >= prev, "availability shrank: {now} < {prev}");
            prev = now;
        }

        // Reference: only the best surviving copy of each packet, in order.
        let mut reference = RowAssembler::new(scheme_id, c.msg_id, c.row_id, len);
        reference.ingest_meta(&pr.meta).expect("meta matches");
        for (i, pkt) in pr.packets.iter().enumerate() {
            if best_depth[i] == 0 {
                continue;
            }
            let mut p = pkt.clone();
            if best_depth[i] < n_parts {
                p.trim_to_depth(best_depth[i] as u8).expect("trimmable");
            }
            reference.ingest(&p).expect("clean ingest");
        }
        prop_assert_eq!(availability(&asm), availability(&reference));
        let got = scheme_id
            .decode(&asm.partial_row(), asm.meta().expect("meta"), seed)
            .expect("decodable");
        let want = scheme_id
            .decode(&reference.partial_row(), reference.meta().expect("meta"), seed)
            .expect("decodable");
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "interleaving changed the decode"
            );
        }

        if meta_at == 1 {
            frames.ingest_meta(&pr.meta).expect("meta matches");
        }
        prop_assert_eq!(frames.meta().is_some(), meta_at < 2);
        let mut direct = vec![f32::NAN; len];
        scheme_id
            .decode_runs(&frames, frames.n(), &pr.meta.row_meta(), seed, &mut direct)
            .expect("decodable");
        for (a, b) in direct.iter().zip(&got) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "the frames decode otherwise");
        }
    }
}
