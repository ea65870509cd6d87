//! Reproducibility (§5.4): record which packets a congested run trimmed,
//! serialize the transcript, and replay it later for a bit-identical decode.
//!
//! Run: `cargo run --release --example replay_transcript`

use trimgrad::collective::trim_inject::{packet_chunks, TrimInjector};
use trimgrad::transcript::{RecordingInjector, TrimTranscript};
use trimgrad::Scheme;

fn main() {
    let gradient: Vec<f32> = (0..8192)
        .map(|i| ((i as f32) * 0.013).sin() * ((i % 97) as f32 / 97.0))
        .collect();
    let (epoch, msg_id, row_id, seed) = (3, 14, 0, 0xFACE);
    let enc = Scheme::RhtOneBit.encode(&gradient, seed);

    // --- The original congested run: random trimming, recorded. ---
    let mut recorder = RecordingInjector::new(TrimInjector::new(0.35, 2024).with_drop_prob(0.05));
    let depths = recorder.draw_depths(&enc, epoch, msg_id, row_id);
    let original = Scheme::RhtOneBit
        .decode(&enc.view_with_depths(&depths), &enc.meta, seed)
        .expect("valid view");
    let transcript = recorder.into_transcript();
    println!(
        "original run: {} of {} packet-chunks trimmed or lost",
        transcript.len(),
        packet_chunks(&enc).count()
    );

    // --- Archive the transcript (any byte store works). ---
    let archived = transcript.to_bytes();
    println!("transcript serialized: {} bytes", archived.len());

    // --- Much later: replay. The transcript IS the network now. ---
    let restored = TrimTranscript::from_bytes(&archived).expect("well-formed transcript");
    let replay_depths = restored.replay_depths(&enc, epoch, msg_id, row_id);
    let replayed = Scheme::RhtOneBit
        .decode(&enc.view_with_depths(&replay_depths), &enc.meta, seed)
        .expect("valid view");

    assert_eq!(replayed, original);
    println!("replayed decode is BIT-IDENTICAL to the original run ✓");
    println!(
        "(first coords: original {:?} == replay {:?})",
        &original[..4],
        &replayed[..4]
    );
}
