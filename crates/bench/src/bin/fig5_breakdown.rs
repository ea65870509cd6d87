//! Regenerates **Figure 5**: per-round time breakdown
//! (compute / encode / communicate).
//!
//! Unlike Figs 3–4 (whose encode component comes from the calibrated time
//! model), the encode column here is **measured**: this binary times the
//! frame path every training round runs — `TrimmablePipeline::encode` then
//! `TrimmablePipeline::decode` of the untrimmed frames — for every scheme,
//! takes the median of [`REPS`] round trips after one warm-up, the schemes
//! interleaved, and scales it to a 25 MB gradient to compose the round.
//! Paper claims to check:
//!
//! * trimmable encoding adds noticeable per-round time (the paper measured
//!   +42–68% including the Python hook overhead);
//! * RHT is ≈ 18% slower to encode than the scalar schemes;
//! * the baseline's round balloons once drops appear (5–10× at 1–2%).
//!
//! Every measurement is recorded into (and printed back from) a telemetry
//! registry under `fig5.*`; the snapshot is saved to
//! `results/fig5_breakdown.snapshot.json`.
//!
//! Run: `TRIMGRAD_THREADS=1 cargo run --release -p trimgrad-bench --bin fig5_breakdown`
//! (the published table pins the worker pool to one thread).

use std::time::Instant;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::mltrain::timemodel::TimeModel;
use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline};
use trimgrad::quant::SchemeId;
use trimgrad_bench::{print_row, write_snapshot_file};
use trimgrad_telemetry::{Registry, Snapshot};

/// Timed round trips per scheme; the column is their median.
const REPS: u32 = 31;

/// Median seconds per coordinate of one untrimmed round trip of a
/// `coords`-coordinate gradient through the frame path, for each of
/// `schemes`. The schemes take turns, one round trip each, so a slow
/// stretch of the machine lands on all of them alike.
fn measure_codec_s_per_coord(schemes: &[SchemeId], coords: usize) -> Vec<f64> {
    let mut rng = Xoshiro256StarStar::new(1);
    let blob: Vec<f32> = (0..coords).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
    let pipes: Vec<TrimmablePipeline> = schemes
        .iter()
        .map(|&scheme| {
            TrimmablePipeline::new(
                PipelineConfig::builder()
                    .scheme(scheme)
                    .base_seed(7)
                    .build(),
            )
        })
        .collect();
    let round_trip = |pipe: &TrimmablePipeline, msg_id| {
        let tx = pipe.encode(&blob, 0, msg_id, 1, 2);
        pipe.decode(&tx.packets, &tx.metas, 0, msg_id)
            .expect("untrimmed frames decode")
    };
    for pipe in &pipes {
        std::hint::black_box(round_trip(pipe, 0));
    }
    let mut secs = vec![Vec::new(); pipes.len()];
    for msg_id in 1..=REPS {
        for (pipe, secs) in pipes.iter().zip(&mut secs) {
            let t0 = Instant::now();
            std::hint::black_box(round_trip(pipe, msg_id));
            secs.push(t0.elapsed().as_secs_f64());
        }
    }
    secs.into_iter()
        .map(|mut secs| {
            secs.sort_by(f64::total_cmp);
            secs[secs.len() / 2] / coords as f64
        })
        .collect()
}

/// Prints one scheme row of the breakdown table from the snapshot.
fn print_scheme_row(snap: &Snapshot, name: &str, widths: &[usize]) {
    let f = |field: &str| snap.float(&format!("fig5.{name}.{field}"));
    let base_total = snap.float("fig5.baseline.total_s");
    print_row(
        &[
            name.into(),
            format!("{:.4}", f("compute_s")),
            format!("{:.4}", f("encode_s")),
            format!("{:.4}", f("comm_s")),
            format!("{:.4}", f("total_s")),
            format!("{:.2}x", f("total_s") / base_total),
        ],
        widths,
    );
}

fn main() {
    // 25 MB of f32 gradient — PyTorch DDP's default bucket scale.
    let coords = 25_000_000 / 4;
    let tm = TimeModel::default();
    let reg = Registry::new();
    let record = |prefix: &str, compute_s: f64, encode_s: f64, comm_s: f64| {
        reg.float_gauge(&format!("fig5.{prefix}.compute_s"))
            .set(compute_s);
        reg.float_gauge(&format!("fig5.{prefix}.encode_s"))
            .set(encode_s);
        reg.float_gauge(&format!("fig5.{prefix}.comm_s"))
            .set(comm_s);
        reg.float_gauge(&format!("fig5.{prefix}.total_s"))
            .set(compute_s + encode_s + comm_s);
    };

    // Baseline (no congestion): no encoding, full bytes.
    let base = tm.round_time(None, coords as u64, 25_000_000, 0.0);
    record("baseline", base.compute_s, base.encode_s, base.comm_s);

    let schemes = [
        SchemeId::SignMagnitude,
        SchemeId::Stochastic,
        SchemeId::SubtractiveDither,
        SchemeId::RhtOneBit,
        SchemeId::MultiLevelRht,
    ];
    let per_coord = measure_codec_s_per_coord(&schemes, 1 << 20);
    for (&scheme, &per_coord) in schemes.iter().zip(&per_coord) {
        let encode_s = per_coord * coords as f64;
        // Untrimmed wire bytes: bits/coord ÷ 8 (+ ~4% header overhead).
        let wire =
            (coords as f64 * f64::from(scheme.part_bits().iter().sum::<u32>()) / 8.0 * 1.04) as u64;
        let comm_s = tm.comm_time_trimming(wire);
        record(scheme.name(), base.compute_s, encode_s, comm_s);
        reg.gauge(&format!("fig5.{}.wire_bytes", scheme.name()))
            .set(wire);
    }

    // The RHT/scalar encode ratio the paper puts at ≈1.18× (SQ is the
    // scalar scheme, schemes[1]; RHT is schemes[3]).
    reg.float_gauge("fig5.rht_scalar_encode_ratio")
        .set(per_coord[3] / per_coord[1]);

    // Baseline under loss: the §4.4 blowup. The paper's "5-10x slower
    // round" is the comm-dominated regime (large models / many buckets);
    // report the comm inflation factor, which is what the anchors pin.
    let loss_rates = [0.0015, 0.0025, 0.01, 0.02];
    for p in loss_rates {
        let r = tm.round_time(None, coords as u64, 25_000_000, p);
        reg.float_gauge(&format!("fig5.loss.{p:.4}.comm_s"))
            .set(r.comm_s);
        reg.float_gauge(&format!("fig5.loss.{p:.4}.comm_inflation"))
            .set(r.comm_s / base.comm_s);
    }

    // All measurements are in the registry: print the figure from its
    // snapshot so stdout and the saved JSON can never disagree.
    let snap = reg.snapshot();
    println!("# Figure 5: per-round time breakdown (seconds)");
    println!(
        "# encode column = MEASURED untrimmed encode+decode on the frame path (median of {REPS}), scaled to a 25MB gradient"
    );
    let widths = [10usize, 10, 10, 10, 10, 8];
    print_row(
        &[
            "scheme".into(),
            "compute".into(),
            "encode".into(),
            "comm".into(),
            "total".into(),
            "vs-base".into(),
        ],
        &widths,
    );
    print_scheme_row(&snap, "baseline", &widths);
    for scheme in schemes {
        print_scheme_row(&snap, scheme.name(), &widths);
    }

    println!(
        "\n# measured RHT/scalar encode ratio: {:.2}x (paper: ~1.18x)",
        snap.float("fig5.rht_scalar_encode_ratio")
    );

    println!("\n# baseline communication under packet loss (reliable transport):");
    for p in loss_rates {
        println!(
            "#   p={:.2}%  comm={:.4}s  ({:.2}x the loss-free comm; paper anchors 1.05x/1.25x/5x/10x)",
            p * 100.0,
            snap.float(&format!("fig5.loss.{p:.4}.comm_s")),
            snap.float(&format!("fig5.loss.{p:.4}.comm_inflation")),
        );
    }
    match write_snapshot_file("fig5_breakdown", &[("summary".to_string(), snap)]) {
        Ok(path) => eprintln!("fig5_breakdown: done (snapshot -> {})", path.display()),
        Err(e) => eprintln!("fig5_breakdown: done (snapshot write failed: {e})"),
    }
}
