//! The metric catalogue: the single source of `BENCHMARK.json`.
//! `run.sh --emit-manifest` prints the manifest; `run.sh --quick` fails if
//! the committed file has drifted from it.

use crate::workloads;
use std::fmt::Write as _;

pub const RUN_SECONDS: u32 = 25;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change is rejected.
    pub bound: f64,
    /// Repeats exactly for a given seed and round count (a count, a
    /// simulated statistic, a digest): `--check-repeat` demands equality.
    pub exact: bool,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
        exact,
    }
}

/// A measured per-layer metric, lower is better.
const fn lo(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, false, 0.0, false)
}

/// A measured per-layer metric, higher is better.
const fn hi(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, true, 0.0, false)
}

/// A per-layer metric that repeats exactly.
const fn exact(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, false, 0.0, true)
}

pub const WHY: [(&str, &str); 4] = [
    (
        "codec_loopback",
        "hadamard/quant/wire/core do all the work and netsim/collective/mltrain none; 30% heads-only packets exercise full and trimmed decode",
    ),
    (
        "train_fabric",
        "the pinned training round: every layer works, ring_netsim dominates, and switches trim because an incast fills their queues",
    ),
    (
        "netsim_storm",
        "netsim does all the work and the codec layers none: a data-plane change shows here and must not show on codec_loopback",
    ),
    (
        "train_inject",
        "the Fig 3/4 path: SQ over in-memory channels and mltrain-heavy, so a gain for the fabric path that costs the figure path shows",
    ),
];

/// Measured with tracing off, reported by every workload, never zero.
/// Durations are at nominal box speed (see `util::BoxProbe`). README.md has
/// every definition.
pub const END_TO_END: [Metric; 3] = [
    metric("round_ms", "ms", false, 0.25, false),
    metric("peak_rss_mb", "MB", false, 0.25, false),
    metric("setup_s", "s", false, 0.25, false),
];

/// Measured in the traced run. `*_ns_per_*` and `*_ms` are medians over the
/// traced rounds, each round scaled to nominal box speed by its own probes.
pub const PER_LAYER: [Metric; 67] = [
    // Outcomes a user sees but that exist on some workloads only or are
    // zero by design; the contract wants every end-to-end metric on every
    // workload and never zero, so they live here, and the pinned-epoch
    // oracle (`workloads::Caps`) is what keeps them from worsening.
    hi("e2e.coords_per_s", "1/s"),
    hi("e2e.sim_events_per_s", "1/s"),
    exact("e2e.sim_round_us", "us"),
    exact("e2e.agg_nmse", "ratio"),
    exact("e2e.final_loss", "loss"),
    exact("e2e.wire_bytes_per_coord", "B"),
    exact("e2e.failed_share", "ratio"),
    lo("hadamard.forward_ns_per_coord", "ns"),
    lo("hadamard.inverse_ns_per_coord", "ns"),
    exact("hadamard.rows_per_round", "count"),
    lo("quant.encode_ns_per_coord", "ns"),
    lo("quant.decode_mixed_ns_per_coord", "ns"),
    lo("quant.decode_full_ns_per_coord", "ns"),
    lo("quant.decode_heads_ns_per_coord", "ns"),
    exact("quant.rows_encoded_per_round", "count"),
    exact("quant.rows_decoded_per_round", "count"),
    exact("quant.decode_errors", "count"),
    exact("quant.encoded_bits_per_coord", "bit"),
    lo("wire.packetize_ns_per_packet", "ns"),
    lo("wire.trim_ns_per_packet", "ns"),
    lo("wire.reassemble_ns_per_packet", "ns"),
    exact("wire.packets_per_round", "count"),
    exact("wire.bytes_per_round", "B"),
    exact("wire.ingest_rejected", "count"),
    exact("wire.header_overhead_pct", "%"),
    lo("core.encode_ms", "ms"),
    lo("core.decode_ms", "ms"),
    lo("core.self_ms", "ms"),
    lo("netsim.build_ms", "ms"),
    lo("netsim.run_ms", "ms"),
    exact("netsim.events_per_round", "count"),
    lo("netsim.ns_per_event", "ns"),
    exact("netsim.packets_sent", "count"),
    exact("netsim.packets_delivered", "count"),
    exact("netsim.packets_trimmed", "count"),
    exact("netsim.packets_dropped", "count"),
    exact("netsim.trim_fraction", "ratio"),
    exact("netsim.max_queue_bytes", "B"),
    exact("netsim.arena_high_water", "count"),
    exact("netsim.conservation_failures", "count"),
    exact("netsim.fct_p50_us", "us"),
    exact("netsim.fct_max_us", "us"),
    lo("collective.aggregate_ms", "ms"),
    lo("collective.self_ms", "ms"),
    lo("collective.self_share_pct", "%"),
    exact("collective.steps_per_round", "count"),
    exact("collective.bytes_sent_per_round", "B"),
    exact("collective.trimmed_received_pct", "%"),
    exact("collective.unfinished_rounds", "count"),
    lo("mltrain.grad_ms", "ms"),
    lo("mltrain.step_ms", "ms"),
    exact("mltrain.params", "count"),
    exact("mltrain.replica_divergence", "l2"),
    lo("mltrain.baseline_round_ms", "ms"),
    lo("mltrain.timemodel_codec_ratio", "ratio"),
    metric("par.pool_width", "count", true, 0.0, true),
    lo("par.width2_round_ratio", "ratio"),
    hi("bench.rounds", "count"),
    lo("bench.round_tail_ms", "ms"),
    lo("bench.round_iqr_pct", "%"),
    lo("bench.unattributed_pct", "%"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.encode_overhead_pct", "%"),
    lo("bench.box_probe_ns", "ns"),
    lo("bench.box_drift_pct", "%"),
    lo("bench.build_s", "s"),
    exact("bench.output_digest", "count"),
];

fn entry(out: &mut String, m: &Metric, with_bound: bool) {
    let better = if m.higher { "higher" } else { "lower" };
    let _ = write!(
        out,
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
        m.name, m.unit
    );
    if with_bound {
        let _ = write!(out, ", \"bound\": {}", m.bound);
    }
    out.push('}');
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, name) in workloads::NAMES.iter().enumerate() {
        let why = WHY.iter().find(|(n, _)| n == name).map_or("", |w| w.1);
        let sep = if i + 1 < workloads::NAMES.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        entry(&mut out, m, true);
        out.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        entry(&mut out, m, false);
        out.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Contract limits on names and units, checked by `--quick`.
pub fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
