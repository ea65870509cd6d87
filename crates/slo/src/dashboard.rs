//! Dependency-free HTML + inline-SVG fleet dashboard.
//!
//! [`render_dashboard`] turns a [`FleetReport`] into a
//! single self-contained HTML page: one sparkline row per tenant (p99 step
//! time, goodput, trim fraction), a fabric queue-depth heatmap strip, and
//! the SLO verdict table with a ready-to-paste `trimgrad-trace query`
//! drill-down command for each tenant's worst flow. No JavaScript, no
//! external assets — the page is a pure function of the report, so fixed
//! seeds render byte-identical bytes at any thread width.
//!
//! [`check_dashboard`] is the well-formedness gate CI runs against the
//! rendered page (balanced tags, at least one sparkline per tenant, the
//! verdict table present).

use crate::{FleetReport, SloSpec, Verdict};
use std::fmt::Write as _;

const SPARK_W: f64 = 220.0;
const SPARK_H: f64 = 36.0;

/// Formats a float with enough digits to be stable but readable.
fn fnum(v: f64) -> String {
    // trimlint: allow(float-eq) -- exact-zero display sentinel, not a tolerance comparison
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Human-ish duration from nanoseconds.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{}s", fnum(ns / 1e9))
    } else if ns >= 1e6 {
        format!("{}ms", fnum(ns / 1e6))
    } else if ns >= 1e3 {
        format!("{}us", fnum(ns / 1e3))
    } else {
        format!("{}ns", fnum(ns))
    }
}

/// Bits-ish throughput label from bytes/second.
fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{}GB/s", fnum(bps / 1e9))
    } else if bps >= 1e6 {
        format!("{}MB/s", fnum(bps / 1e6))
    } else if bps >= 1e3 {
        format!("{}KB/s", fnum(bps / 1e3))
    } else {
        format!("{}B/s", fnum(bps))
    }
}

/// Escapes the five HTML-special characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders one `(t, value)` series as an inline-SVG polyline sparkline.
/// Always emits a `<svg class="spark">` element, even for empty series, so
/// every tenant row carries its sparklines through churn.
fn sparkline(series: &[(u64, f64)], stroke: &str, threshold: Option<f64>) -> String {
    let mut svg = format!(
        "<svg class=\"spark\" width=\"{SPARK_W:.0}\" height=\"{SPARK_H:.0}\" \
         viewBox=\"0 0 {SPARK_W:.0} {SPARK_H:.0}\">"
    );
    if !series.is_empty() {
        let (t0, t1) = (series[0].0, series[series.len() - 1].0);
        let vmax = series
            .iter()
            .map(|&(_, v)| v)
            .fold(threshold.unwrap_or(0.0), f64::max)
            .max(1e-9);
        let x = |t: u64| {
            if t1 == t0 {
                SPARK_W / 2.0
            } else {
                (t - t0) as f64 / (t1 - t0) as f64 * (SPARK_W - 4.0) + 2.0
            }
        };
        let y = |v: f64| SPARK_H - 3.0 - (v / vmax) * (SPARK_H - 6.0);
        if let Some(th) = threshold {
            let ty = y(th);
            let _ = write!(
                svg,
                "<line class=\"thresh\" x1=\"0\" y1=\"{ty:.1}\" x2=\"{SPARK_W:.0}\" \
                 y2=\"{ty:.1}\" stroke=\"#d33\" stroke-dasharray=\"3,2\"></line>"
            );
        }
        let mut pts = String::new();
        for &(t, v) in series {
            let _ = write!(pts, "{:.1},{:.1} ", x(t), y(v));
        }
        let _ = write!(
            svg,
            "<polyline fill=\"none\" stroke=\"{stroke}\" stroke-width=\"1.5\" \
             points=\"{}\"></polyline>",
            pts.trim_end()
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Renders the fabric queue-depth strip: one rect per sampling window,
/// shaded by the window's p90 queue depth relative to the series maximum.
fn heatmap(windows: &[(u64, f64)]) -> String {
    let mut svg =
        String::from("<svg class=\"heatmap\" width=\"880\" height=\"24\" viewBox=\"0 0 880 24\">");
    if !windows.is_empty() {
        let vmax = windows.iter().map(|&(_, v)| v).fold(1e-9, f64::max);
        let w = 880.0 / windows.len() as f64;
        for (i, &(at, v)) in windows.iter().enumerate() {
            // Shade 0 (idle, near-white) to 9 (saturated).
            let shade = ((v / vmax) * 9.0).round() as u32;
            let _ = write!(
                svg,
                "<rect x=\"{:.1}\" y=\"0\" width=\"{:.1}\" height=\"24\" \
                 class=\"q{shade}\"><title>t={}us p90={}B</title></rect>",
                i as f64 * w,
                w,
                at / 1_000,
                fnum(v)
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// Renders the full dashboard page for one fleet report.
#[must_use]
pub fn render_dashboard(report: &FleetReport, spec: &SloSpec, title: &str) -> String {
    let mut html = String::with_capacity(1 << 16);
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    let _ = write!(html, "<title>{}</title>", escape(title));
    html.push_str(
        "<style>\n\
         body{font-family:monospace;margin:24px;background:#fafafa;color:#222}\n\
         h1{font-size:18px}h2{font-size:15px;margin-top:28px}\n\
         table{border-collapse:collapse;margin-top:8px}\n\
         td,th{border:1px solid #bbb;padding:4px 10px;text-align:left;font-size:13px}\n\
         th{background:#eee}\n\
         .spark{background:#fff;border:1px solid #ddd;margin:2px 6px 2px 0;vertical-align:middle}\n\
         .heatmap{border:1px solid #ddd;background:#fff}\n\
         .verdict-pass{color:#0a0;font-weight:bold}\n\
         .verdict-warn{color:#b80;font-weight:bold}\n\
         .verdict-fail{color:#c00;font-weight:bold}\n\
         .drill{font-size:12px;color:#555}\n\
         .q0{fill:#f7fbff}.q1{fill:#deebf7}.q2{fill:#c6dbef}.q3{fill:#9ecae1}\n\
         .q4{fill:#6baed6}.q5{fill:#4292c6}.q6{fill:#2171b5}.q7{fill:#08519c}\n\
         .q8{fill:#08306b}.q9{fill:#041f4a}\n\
         </style></head><body>\n",
    );
    let _ = write!(html, "<h1>{}</h1>", escape(title));
    let _ = writeln!(
        html,
        "<p>SLO: p99 step &le; {}; goodput &ge; {}; trim fraction &le; {}; \
         error budget {}% of active windows. Trim fairness (Jain) across \
         tenants: <b>{}</b>.</p>",
        fmt_ns(spec.p99_step_time_ns as f64),
        fmt_bps(spec.min_goodput_bps),
        fnum(spec.max_trim_fraction),
        fnum(spec.error_budget * 100.0),
        fnum(report.trim_fairness)
    );

    html.push_str("<h2>Fabric queue depth (p90 per window)</h2>\n");
    html.push_str(&heatmap(&report.queue_windows));

    html.push_str("<h2>Per-tenant series</h2>\n<table id=\"tenant-series\">");
    html.push_str(
        "<tr><th>tenant</th><th>p99 step time</th><th>goodput</th><th>trim fraction</th></tr>\n",
    );
    for t in &report.tenants {
        let p99: Vec<(u64, f64)> = t.windows.iter().map(|w| (w.at_ns, w.p99_step_ns)).collect();
        let goodput: Vec<(u64, f64)> = t.windows.iter().map(|w| (w.at_ns, w.goodput_bps)).collect();
        let trim: Vec<(u64, f64)> = t
            .windows
            .iter()
            .map(|w| (w.at_ns, w.trim_fraction))
            .collect();
        let _ = writeln!(
            html,
            "<tr><td>{}<br><span class=\"drill\">{}</span></td><td>{}</td><td>{}</td>\
             <td>{}</td></tr>",
            escape(&t.spec.scope),
            escape(&t.spec.label),
            sparkline(&p99, "#24f", Some(spec.p99_step_time_ns as f64)),
            sparkline(&goodput, "#082", Some(spec.min_goodput_bps)),
            sparkline(&trim, "#c60", Some(spec.max_trim_fraction)),
        );
    }
    html.push_str("</table>\n");

    html.push_str("<h2>SLO verdicts</h2>\n<table id=\"slo-table\">");
    html.push_str(
        "<tr><th>tenant</th><th>verdict</th><th>p99 step</th><th>mean goodput</th>\
         <th>trim frac</th><th>trim bytes</th><th>burn</th><th>recent burn</th>\
         <th>worst flow drill-down</th></tr>\n",
    );
    for t in &report.tenants {
        let class = match t.verdict {
            Verdict::Pass => "verdict-pass",
            Verdict::Warn => "verdict-warn",
            Verdict::Fail => "verdict-fail",
        };
        // Window the drill-down one sampling interval around the worst p99.
        let step = t
            .windows
            .first()
            .map_or(1_000_000, |w| w.at_ns.max(1_000_000));
        let t1 = t.worst_window_at_ns;
        let t0 = t1.saturating_sub(step);
        let drill = format!(
            "trimgrad-trace query results/fleet.trace.bin --follow {:#x}:0 --tenant {} --between {t0} {t1}",
            t.worst_flow, t.spec.scope
        );
        let _ = writeln!(
            html,
            "<tr><td>{}</td><td class=\"{class}\">{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td><code class=\"drill\">{}</code></td></tr>",
            escape(&t.spec.scope),
            t.verdict.name(),
            fmt_ns(t.p99_step_ns),
            fmt_bps(t.mean_goodput_bps),
            fnum(t.trim_fraction),
            t.trim_bytes,
            fnum(t.burn_rate),
            fnum(t.recent_burn_rate),
            escape(&drill),
        );
    }
    html.push_str("</table>\n</body></html>\n");
    html
}

/// A failed [`check_dashboard`] assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DashboardError(pub String);

impl std::fmt::Display for DashboardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Lists every `<tag` / `</tag>` token in document order, ignoring
/// attribute text. Void elements (`<meta>`, `<br>`) are skipped.
fn tag_stream(html: &str) -> Vec<(bool, String)> {
    let mut tags = Vec::new();
    let bytes = html.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        let rest = &html[i + 1..];
        if rest.starts_with('!') {
            // doctype / comment: skip to '>'
            i += 1 + rest.find('>').map_or(rest.len(), |p| p + 1);
            continue;
        }
        let closing = rest.starts_with('/');
        let name_start = if closing { 1 } else { 0 };
        let name: String = rest[name_start..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        let end = rest.find('>').map_or(rest.len(), |p| p + 1);
        let self_closed = rest[..end.saturating_sub(1)].ends_with('/');
        i += 1 + end;
        if name.is_empty() {
            continue;
        }
        if matches!(
            name.as_str(),
            "meta" | "br" | "hr" | "img" | "input" | "link"
        ) || self_closed
        {
            continue;
        }
        tags.push((closing, name));
    }
    tags
}

/// Verifies a rendered dashboard is well-formed:
///
/// * every open tag (SVG elements included) has a matching close tag in
///   LIFO order;
/// * at least one `class="spark"` sparkline appears per expected tenant;
/// * the SLO verdict table (`id="slo-table"`) is present.
///
/// This is what the `dashboard-smoke` CI job asserts after rendering.
pub fn check_dashboard(html: &str, expected_tenants: usize) -> Result<(), DashboardError> {
    let mut stack: Vec<String> = Vec::new();
    for (closing, name) in tag_stream(html) {
        if closing {
            match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(DashboardError(format!(
                        "mismatched close tag </{name}> while <{open}> is open"
                    )))
                }
                None => {
                    return Err(DashboardError(format!(
                        "close tag </{name}> with nothing open"
                    )))
                }
            }
        } else {
            stack.push(name);
        }
    }
    if let Some(open) = stack.pop() {
        return Err(DashboardError(format!("unclosed tag <{open}>")));
    }
    let sparks = html.matches("class=\"spark\"").count();
    if sparks < expected_tenants {
        return Err(DashboardError(format!(
            "expected at least {expected_tenants} sparklines, found {sparks}"
        )));
    }
    if !html.contains("id=\"slo-table\"") {
        return Err(DashboardError("missing SLO verdict table".to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, SloSpec, TenantSpec};
    use trimgrad_telemetry::{Registry, TimeSeries};

    fn sample_report() -> (FleetReport, SloSpec) {
        let reg = Registry::new();
        let t0 = reg.scoped("tenant.job0");
        let t1 = reg.scoped("tenant.job1");
        let mut ts = TimeSeries::new(32);
        for w in 1..=6u64 {
            for t in [&t0, &t1] {
                t.histogram("collective.rank.0.step_time_ns")
                    .record(w * 10_000);
                t.counter("collective.rank.0.bytes_received").add(1_000_000);
                t.counter("collective.rank.0.packets_received").add(50);
            }
            t1.counter("collective.rank.0.trimmed_received").add(40);
            t1.counter("netsim.trim_bytes").add(5_000);
            reg.histogram("netsim.queue.depth_bytes").record(w * 1_000);
            ts.sample(w * 1_000_000, &reg.snapshot());
        }
        let tenants = vec![
            TenantSpec {
                scope: "tenant.job0".into(),
                flow_base: 1 << 32,
                label: "rht depth1".into(),
            },
            TenantSpec {
                scope: "tenant.job1".into(),
                flow_base: 2 << 32,
                label: "sign depth2".into(),
            },
        ];
        let spec = SloSpec::default();
        (evaluate(&ts, &tenants, &spec), spec)
    }

    #[test]
    fn render_passes_its_own_well_formedness_check() {
        let (report, spec) = sample_report();
        let html = render_dashboard(&report, &spec, "fleet test");
        check_dashboard(&html, report.tenants.len()).expect("well-formed");
        assert!(html.contains("id=\"slo-table\""));
        assert!(html.contains("class=\"heatmap\""));
        assert!(html.contains("--follow"));
        assert!(html.contains("--between"));
        // Three sparklines (p99, goodput, trim) per tenant.
        assert_eq!(html.matches("class=\"spark\"").count(), 6);
    }

    #[test]
    fn render_is_deterministic() {
        let (report, spec) = sample_report();
        let a = render_dashboard(&report, &spec, "fleet test");
        let b = render_dashboard(&report, &spec, "fleet test");
        assert_eq!(a, b);
    }

    #[test]
    fn checker_rejects_malformed_pages() {
        let unclosed = "<html><body><svg class=\"spark\"></svg></body>";
        assert!(check_dashboard(unclosed, 0).is_err());
        let crossed = "<html><body><b><i></b></i></body></html>";
        assert!(check_dashboard(crossed, 0).is_err());
        let no_table = "<html><body><svg class=\"spark\"></svg></body></html>";
        let err = check_dashboard(no_table, 1).unwrap_err();
        assert!(err.0.contains("SLO"), "{err}");
        let too_few = render_missing_sparks();
        assert!(check_dashboard(&too_few, 5).is_err());
    }

    fn render_missing_sparks() -> String {
        "<html><body><table id=\"slo-table\"></table>\
         <svg class=\"spark\"></svg></body></html>"
            .to_string()
    }

    #[test]
    fn escape_covers_the_special_characters() {
        assert_eq!(escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
    }

    #[test]
    fn tag_stream_skips_voids_and_doctype() {
        let tags = tag_stream("<!DOCTYPE html><html><meta charset=\"x\"><br><p>hi</p></html>");
        let names: Vec<String> = tags.iter().map(|(_, n)| n.clone()).collect();
        assert_eq!(names, ["html", "p", "p", "html"]);
    }
}
