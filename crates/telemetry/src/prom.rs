//! Prometheus text exposition (format v0.0.4) for [`MetricsSnapshot`].
//!
//! Renders a snapshot as the plain-text format every Prometheus scraper
//! understands, so `sweep --prom-out` or `replay --prom-out` can drop a
//! `.prom` file on disk for node-exporter's textfile collector (or any
//! sidecar) to pick up. No network code here — the writer produces a `String`; callers
//! decide where it goes.
//!
//! Mapping:
//!
//! * counters → `# TYPE … counter` with the dotted name flattened
//!   (`flow.resolves_partial` → `elastisim_flow_resolves_partial`);
//! * gauges → `# TYPE … gauge`;
//! * histograms → native Prometheus histograms: cumulative
//!   `…_bucket{le="…"}` series over the non-empty log2 buckets, a final
//!   `le="+Inf"` bucket, and exact `…_sum` / `…_count` series.
//!
//! Optional labels (e.g. `scheduler="elastic"`) are attached to every
//! sample, letting one exposition file carry per-scheduler aggregates
//! side by side.

use crate::MetricsSnapshot;

/// Prefix prepended to every metric name in the exposition.
pub const NAME_PREFIX: &str = "elastisim_";

/// Flattens a dotted metric name into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, with the [`NAME_PREFIX`] guaranteeing a
/// valid first character.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(NAME_PREFIX.len() + name.len());
    out.push_str(NAME_PREFIX);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a float the way the Prometheus text format expects
/// (`+Inf`/`-Inf`/`NaN` spelled out).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(&str, &str)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders the snapshot as Prometheus text exposition with no labels.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    render_labeled(snapshot, &[])
}

/// Renders the snapshot with the given labels attached to every sample.
pub fn render_labeled(snapshot: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} counter\n"));
        out.push_str(&format!("{n}{} {value}\n", label_block(labels, None)));
    }
    for (name, value) in &snapshot.gauges {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n"));
        out.push_str(&format!(
            "{n}{} {}\n",
            label_block(labels, None),
            fmt_f64(*value)
        ));
    }
    for (name, h) in &snapshot.histograms {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for &(le, count) in &h.buckets {
            cumulative += count;
            out.push_str(&format!(
                "{n}_bucket{} {cumulative}\n",
                label_block(labels, Some(("le", fmt_f64(le))))
            ));
        }
        out.push_str(&format!(
            "{n}_bucket{} {}\n",
            label_block(labels, Some(("le", "+Inf".to_owned()))),
            h.count
        ));
        out.push_str(&format!(
            "{n}_sum{} {}\n",
            label_block(labels, None),
            fmt_f64(h.sum)
        ));
        out.push_str(&format!(
            "{n}_count{} {}\n",
            label_block(labels, None),
            h.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample_snapshot() -> MetricsSnapshot {
        let t = Telemetry::enabled();
        t.counter_add("runs.completed", 5);
        t.gauge_set("queue.depth", 3.0);
        t.observe("run.wall_seconds", 0.5);
        t.observe("run.wall_seconds", 1.5);
        t.snapshot()
    }

    #[test]
    fn names_are_sanitized_and_prefixed() {
        assert_eq!(
            sanitize_name("des.queue.live-entries"),
            "elastisim_des_queue_live_entries"
        );
        assert_eq!(sanitize_name("runs"), "elastisim_runs");
    }

    #[test]
    fn exposition_has_type_lines_and_samples() {
        let text = render(&sample_snapshot());
        assert!(
            text.contains("# TYPE elastisim_runs_completed counter"),
            "{text}"
        );
        assert!(text.contains("elastisim_runs_completed 5"), "{text}");
        assert!(
            text.contains("# TYPE elastisim_queue_depth gauge"),
            "{text}"
        );
        assert!(text.contains("elastisim_queue_depth 3"), "{text}");
        assert!(
            text.contains("# TYPE elastisim_run_wall_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("elastisim_run_wall_seconds_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("elastisim_run_wall_seconds_sum 2"), "{text}");
        assert!(
            text.contains("elastisim_run_wall_seconds_count 2"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = render(&sample_snapshot());
        // Two observations in different buckets: the first bucket line
        // carries 1, the +Inf line 2, and counts never decrease.
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("elastisim_run_wall_seconds_bucket") {
                let v: u64 = rest
                    .rsplit(' ')
                    .next()
                    .unwrap()
                    .parse()
                    .expect("integer cumulative count");
                assert!(v >= last, "non-monotone buckets: {text}");
                last = v;
                bucket_lines += 1;
            }
        }
        assert!(bucket_lines >= 3, "{text}");
        assert_eq!(last, 2);
    }

    #[test]
    fn labels_attach_to_every_sample_and_escape() {
        let text = render_labeled(&sample_snapshot(), &[("scheduler", "ela\"stic")]);
        assert!(
            text.contains("elastisim_runs_completed{scheduler=\"ela\\\"stic\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("_bucket{scheduler=\"ela\\\"stic\",le=\""),
            "{text}"
        );
    }

    #[test]
    fn special_floats_are_spelled_out() {
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
