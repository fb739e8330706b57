//! `--check BENCHMARK.json`: compares a fresh set of measurements with a
//! recorded results file, using the bounds `BENCHMARK.json` fixes.

use serde::Value;

use crate::harness::{field, Measurement};
use crate::metrics::EXACT_COUNTS;

fn number(value: &Value, what: &str) -> Result<f64, String> {
    match value {
        Value::Num(n) => Ok(*n),
        other => Err(format!("{what}: expected a number, found {other:?}")),
    }
}

fn text<'a>(value: &'a Value, what: &str) -> Result<&'a str, String> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(format!("{what}: expected a string, found {other:?}")),
    }
}

/// Every way `measurements` is worse than `baseline_json` allows: a
/// failed simulation, an end-to-end metric outside its bound, or (for
/// the baseline's seed and size, unless `allow_digest_change`) a changed
/// exact count or `sim_digest`. Empty means the check passes.
pub fn violations(
    benchmark_json: &str,
    baseline_json: &str,
    seed: u64,
    smoke: bool,
    measurements: &[Measurement],
    allow_digest_change: bool,
) -> Result<Vec<String>, String> {
    let benchmark = serde_json::parse_value(benchmark_json).map_err(|e| e.to_string())?;
    let baseline = serde_json::parse_value(baseline_json).map_err(|e| e.to_string())?;
    let Value::Seq(end_to_end) = field(&benchmark, "end_to_end")? else {
        return Err("BENCHMARK.json: `end_to_end` is not a list".into());
    };
    let same_inputs = number(field(&baseline, "seed")?, "seed")? == seed as f64
        && field(&baseline, "smoke")? == &Value::Bool(smoke);
    let recorded = field(&baseline, "workloads")?;

    let mut out = Vec::new();
    for m in measurements {
        let name = m.workload;
        if !m.correct() {
            out.push(format!(
                "{name}: {} of {} simulations failed",
                m.failed, m.attempted
            ));
        }
        let Ok(base) = field(recorded, name) else {
            out.push(format!("{name}: not in the baseline"));
            continue;
        };
        let base_metrics = field(base, "metrics")?;
        let base_value = |metric: &str| -> Result<f64, String> {
            number(field(field(base_metrics, metric)?, "value")?, metric)
        };
        for spec in end_to_end {
            let metric = text(field(spec, "name")?, "name")?;
            let bound = number(field(spec, "bound")?, "bound")?;
            let lower = text(field(spec, "better")?, "better")? == "lower";
            let Some((_, now)) = m.end_to_end.iter().find(|(n, _)| *n == metric) else {
                return Err(format!("BENCHMARK.json names an unknown metric `{metric}`"));
            };
            let was = base_value(metric)?;
            let worse_by = if lower {
                (now.median - was) / was
            } else {
                (was - now.median) / was
            };
            if worse_by > bound {
                out.push(format!(
                    "{name}: {metric} is {:.1}% worse than the baseline ({} vs {was}), bound {:.0}%",
                    worse_by * 100.0,
                    now.median,
                    bound * 100.0
                ));
            }
        }
        if same_inputs && !allow_digest_change {
            let was = text(field(base, "sim_digest")?, "sim_digest")?;
            if was != m.sim_digest {
                out.push(format!(
                    "{name}: sim_digest changed ({was} -> {})",
                    m.sim_digest
                ));
            }
            for count in EXACT_COUNTS {
                let now = m.per_layer.iter().find(|(n, _)| *n == count);
                if let (Some((_, now)), Ok(was)) = (now, base_value(count)) {
                    if now.median != was {
                        out.push(format!("{name}: {count} changed ({was} -> {})", now.median));
                    }
                }
            }
        }
    }
    Ok(out)
}
