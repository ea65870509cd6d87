//! Cross-crate integration tests: the full path from gradient blob through
//! encoding, packetization, the simulated network (including genuine
//! in-switch byte-level trimming), reassembly, decoding, and SGD.

use trimgrad::collective::trim_inject::Fate;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline};
use trimgrad::quant::error::{cosine_similarity, nmse};
use trimgrad::quant::scheme::RowScratch;
use trimgrad::Scheme;

fn blob(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
}

/// Stages `row` under `seed` and decodes it chunk by chunk as its packets'
/// `fates` left it: the receive side of `TrimmingChannel::transfer_row`.
fn decode_under(scheme: Scheme, row: &[f32], seed: u64, fates: &[Fate]) -> Vec<f32> {
    let mut scratch = RowScratch::default();
    let staged = scheme.stage(row, seed, &mut scratch);
    let (mut out, mut buf) = (vec![0.0; row.len()], Vec::new());
    let chunks = staged.chunks(fates.iter().cloned(), &mut buf);
    scheme
        .decode_runs(chunks, staged.n(), &staged.meta(), seed, &mut out)
        .expect("a staged row decodes under fates drawn over its geometry");
    out
}

/// Gradient → pipeline → real switch trim (byte level) → pipeline → gradient.
#[test]
fn pipeline_survives_real_switch_trimming() {
    for scheme in [
        Scheme::SignMagnitude,
        Scheme::RhtOneBit,
        Scheme::MultiLevelRht,
    ] {
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder()
                .scheme(scheme)
                .row_len(1 << 11)
                .build(),
        );
        let g = blob(6000, 1);
        let tx = pipe.encode(&g, 2, 5, 1, 2);
        let mut packets = tx.packets;
        // A congested switch trims 40% of the data packets.
        for (i, p) in packets.iter_mut().enumerate() {
            if i % 5 < 2 {
                p.trim_to_depth(1).expect("data packets trim");
            }
        }
        let dec = pipe.decode(&packets, &tx.metas, 2, 5).expect("decodable");
        assert_eq!(dec.len(), g.len());
        let e = nmse(&dec, &g);
        assert!(e < 0.6, "{scheme}: nmse {e}");
        assert!(
            cosine_similarity(&dec, &g) > 0.7,
            "{scheme}: direction must be preserved"
        );
    }
}

/// The full netsim path: a ring all-reduce whose frames *really* cross
/// switches, with the result numerically matching the in-memory collective.
#[test]
fn netsim_ring_matches_in_memory_ring_when_clean() {
    use trimgrad::collective::channel::LosslessChannel;
    use trimgrad::collective::ring::ring_all_reduce;
    use trimgrad::collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
    use trimgrad::netsim::sim::Simulator;
    use trimgrad::netsim::switch::QueuePolicy;
    use trimgrad::netsim::time::{gbps, SimTime};
    use trimgrad::netsim::topology::Topology;

    let w = 4;
    let len = 4096;
    let blobs: Vec<Vec<f32>> = (0..w).map(|i| blob(len, 10 + i as u64)).collect();

    // In-memory reference.
    let mut reference = blobs.clone();
    let mut chans: Vec<LosslessChannel> = (0..w).map(|_| LosslessChannel::new()).collect();
    ring_all_reduce(&mut reference, &mut chans, 1, 0);

    // Through the simulator.
    let mut topo = Topology::new();
    let sw = topo.add_switch(QueuePolicy::trim_default());
    let hosts: Vec<_> = (0..w)
        .map(|_| {
            let h = topo.add_host();
            topo.link(h, sw, gbps(100.0), SimTime::from_micros(1));
            h
        })
        .collect();
    let mut sim = Simulator::new(topo);
    let cfg = RingNetConfig {
        scheme: Scheme::RhtOneBit,
        row_len: 1024,
        base_seed: 3,
        epoch: 1,
        mtu: 1500,
        hosts,
        blob_len: len,
        flow_base: 0,
    };
    let (out, trim_frac) = run_ring_allreduce(&mut sim, &cfg, blobs, SimTime::from_secs(10));
    assert_eq!(trim_frac, 0.0);
    assert!(sim.conservation_holds());
    for (sim_worker, ref_worker) in out.iter().zip(&reference) {
        let e = nmse(sim_worker, ref_worker);
        assert!(e < 1e-6, "netsim ring must match in-memory ring: nmse {e}");
    }
}

/// Distributed training through the trimmable hook learns, and transcripts
/// make a trimmed exchange bit-reproducible.
#[test]
fn training_and_transcript_reproducibility() {
    use trimgrad::collective::hooks::TrimmableHook;
    use trimgrad::collective::TrimInjector;
    use trimgrad::mltrain::data::gaussian_mixture;
    use trimgrad::mltrain::parallel::{DataParallelTrainer, ParallelConfig};
    use trimgrad::transcript::{RecordingInjector, TrimTranscript};

    // Short training smoke: accuracy must clearly beat chance (10 classes).
    let (train, test) = gaussian_mixture(10, 16, 60, 2.0, 0.8, 5).split(0.8, 5);
    let hook = TrimmableHook::new(Scheme::RhtOneBit, 2, 0.3, 0.0, 1 << 10, 3);
    let mut t = DataParallelTrainer::new(
        &[16, 32, 10],
        train,
        test,
        Box::new(hook),
        ParallelConfig {
            workers: 2,
            batch_size: 16,
            rounds_per_epoch: 15,
            ..ParallelConfig::default()
        },
    );
    for _ in 0..12 {
        t.run_epoch();
    }
    let (top1, _) = t.evaluate();
    assert!(
        top1 > 0.5,
        "training through trimmed exchange stuck at {top1}"
    );

    // Transcript: record one trimmed exchange, replay bit-identically.
    let (g, scheme) = (blob(4096, 9), Scheme::RhtOneBit);
    let n = scheme.encoded_len(g.len());
    let mut rec = RecordingInjector::new(TrimInjector::new(0.5, 123));
    let mut fates = Vec::new();
    rec.draw_row_fates(scheme, n, 0, 1, 2, &mut fates);
    let original = decode_under(scheme, &g, 77, &fates);
    let bytes = rec.into_transcript().to_bytes();
    TrimTranscript::from_bytes(&bytes)
        .expect("well-formed")
        .replay_fates(scheme, n, 0, 1, 2, &mut fates);
    let replayed = decode_under(scheme, &g, 77, &fates);
    assert_eq!(original, replayed);
}

/// A [`TrimmingChannel`]'s exchange, recorded fate by fate with an injector
/// built like the channel's, serialized and reloaded, replays bit for bit
/// through the decode path the channel runs — for every scheme, SD's dither
/// stream included.
#[test]
fn transcript_replays_a_trimming_channel_exchange_bit_for_bit() {
    use trimgrad::collective::chunk::MessageCodec;
    use trimgrad::collective::{TrimInjector, TrimmingChannel};
    use trimgrad::transcript::{RecordingInjector, TrimTranscript};

    let injector = || TrimInjector::new(0.4, 31).with_drop_prob(0.1);
    let (epoch, row_len) = (6, 3000);
    let g = blob(2 * row_len + 700, 12);
    for scheme in Scheme::ALL {
        let codec = MessageCodec::with_row_len(scheme, 5, row_len);
        let mut channel =
            TrimmingChannel::new(MessageCodec::with_row_len(scheme, 5, row_len), injector());
        let mut rec = RecordingInjector::new(injector());
        let (mut fates, mut sent) = (Vec::new(), Vec::new());
        for msg_id in 0..2 {
            for row_id in 0..codec.rows_for(g.len()) {
                let row = &g[codec.row_range(g.len(), row_id)];
                let n = scheme.encoded_len(row.len());
                rec.draw_row_fates(scheme, n, epoch, msg_id, row_id as u32, &mut fates);
                let received = channel.transfer_row(&g, epoch, msg_id, row_id);
                sent.push((msg_id, row_id, received.to_vec()));
            }
        }
        let transcript = rec.into_transcript();
        let stats = channel.inject_stats();
        assert_eq!(transcript.len() as u64, stats.trimmed + stats.dropped);
        assert!(stats.trimmed > 0 && stats.dropped > 0 && stats.intact > 0);

        let restored = TrimTranscript::from_bytes(&transcript.to_bytes()).expect("well-formed");
        for (msg_id, row_id, received) in sent {
            let row = &g[codec.row_range(g.len(), row_id)];
            let n = scheme.encoded_len(row.len());
            restored.replay_fates(scheme, n, epoch, msg_id, row_id as u32, &mut fates);
            let seed = codec.row_seed(epoch, msg_id, row_id as u32);
            let replayed = decode_under(scheme, row, seed, &fates);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&replayed),
                bits(&received),
                "{scheme}: message {msg_id} row {row_id}"
            );
        }
    }
}

/// Every scheme round-trips bit-exactly (or to rotation rounding) through
/// the COMPLETE stack: encode → packets → frames → parse → reassemble →
/// decode, with zero trimming.
#[test]
fn lossless_full_stack_all_schemes() {
    for scheme in trimgrad::quant::SchemeId::ALL {
        let pipe = TrimmablePipeline::new(
            PipelineConfig::builder()
                .scheme(scheme)
                .row_len(512)
                .build(),
        );
        let g = blob(1500, 2);
        let tx = pipe.encode(&g, 0, 0, 3, 4);
        // Parse every frame as raw bytes first (checksums must verify).
        for p in &tx.packets {
            p.parse().expect("valid frame");
        }
        let dec = pipe
            .decode(&tx.packets, &tx.metas, 0, 0)
            .expect("decodable");
        for (d, v) in dec.iter().zip(&g) {
            assert!((d - v).abs() < 1e-4, "{scheme}: {d} vs {v}");
        }
    }
}

/// The in-memory harness (Fig 3/4) counts exactly the bytes the real frames
/// (fabric path) occupy: `TrimmingChannel::bytes_sent` equals the pipeline's
/// frames for the same blob, untrimmed and with every packet cut to heads.
#[test]
fn in_memory_byte_accounting_equals_real_frames() {
    use trimgrad::collective::{GradChannel, MessageCodec, TrimInjector, TrimmingChannel};
    for scheme in Scheme::ALL {
        for coords in [1usize, 3_000, 100_000] {
            let g = blob(coords, coords as u64);
            let pipe = TrimmablePipeline::new(PipelineConfig::builder().scheme(scheme).build());
            for trim_prob in [0.0, 1.0] {
                let mut frames = pipe.encode(&g, 0, 0, 1, 2);
                if trim_prob == 1.0 {
                    for p in &mut frames.packets {
                        p.trim_to_depth(1).expect("data packets trim");
                    }
                }
                let codec = MessageCodec::new(scheme, 0);
                let mut ch = TrimmingChannel::new(codec, TrimInjector::new(trim_prob, 1));
                ch.transfer(&g, 0, 0, |_, _| {});
                assert_eq!(
                    ch.bytes_sent(),
                    frames.wire_bytes() as u64,
                    "{scheme}, {coords} coordinates, trim_prob {trim_prob}"
                );
            }
        }
    }
}
