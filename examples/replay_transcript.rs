//! Reproducibility (§5.4): record which packets a congested run trimmed,
//! serialize the transcript, and replay it later for a bit-identical decode.
//!
//! Run: `cargo run --release --example replay_transcript`

use trimgrad::collective::trim_inject::{Fate, TrimInjector};
use trimgrad::quant::scheme::RowScratch;
use trimgrad::quant::SchemeId;
use trimgrad::transcript::{RecordingInjector, TrimTranscript};

/// Stages `row` under `seed` and decodes it chunk by chunk as its packets'
/// `fates` left it: what `TrimmingChannel` does on the far side of the
/// fabric.
fn decode_under(scheme: SchemeId, row: &[f32], seed: u64, fates: &[Fate]) -> Vec<f32> {
    let mut scratch = RowScratch::default();
    let staged = scheme.stage(row, seed, &mut scratch);
    let (mut out, mut buf) = (vec![0.0; row.len()], Vec::new());
    let chunks = staged.chunks(fates.iter().cloned(), &mut buf);
    scheme
        .decode_runs(chunks, staged.n(), &staged.meta(), seed, &mut out)
        .expect("a staged row decodes under fates drawn over its geometry");
    out
}

fn main() {
    let gradient: Vec<f32> = (0..8192)
        .map(|i| ((i as f32) * 0.013).sin() * ((i % 97) as f32 / 97.0))
        .collect();
    let (epoch, msg_id, row_id, seed) = (3, 14, 0, 0xFACE);
    let scheme = SchemeId::RhtOneBit;
    let n = scheme.encoded_len(gradient.len());

    // --- The original congested run: random trimming, recorded. ---
    let mut recorder = RecordingInjector::new(TrimInjector::new(0.35, 2024).with_drop_prob(0.05));
    let mut fates = Vec::new();
    recorder.draw_row_fates(scheme, n, epoch, msg_id, row_id, &mut fates);
    let original = decode_under(scheme, &gradient, seed, &fates);
    let transcript = recorder.into_transcript();
    println!(
        "original run: {} of {} packet-chunks trimmed or lost",
        transcript.len(),
        fates.len()
    );

    // --- Archive the transcript (any byte store works). ---
    let archived = transcript.to_bytes();
    println!("transcript serialized: {} bytes", archived.len());

    // --- Much later: replay. The transcript IS the network now. ---
    let restored = TrimTranscript::from_bytes(&archived).expect("well-formed transcript");
    let mut replay_fates = Vec::new();
    restored.replay_fates(scheme, n, epoch, msg_id, row_id, &mut replay_fates);
    let replayed = decode_under(scheme, &gradient, seed, &replay_fates);

    assert_eq!(replayed, original);
    println!("replayed decode is BIT-IDENTICAL to the original run ✓");
    println!(
        "(first coords: original {:?} == replay {:?})",
        &original[..4],
        &replayed[..4]
    );
}
