//! Harness self-tests: the metric tables agree with `BENCHMARK.json`,
//! every workload reports every metric, digests are stable, the probes
//! are result-neutral, and the span tree accounts for the wall time.

use std::collections::BTreeSet;

use perf_ledger::harness::{field, run_rep, RepResult};
use perf_ledger::metrics::{END_TO_END, PER_LAYER};
use perf_ledger::workloads::{Mode, Rep, Workload, WORKLOADS};
use serde::Value;

fn smoke(workload: &Workload, seed: u64, mode: Mode) -> (Rep, RepResult) {
    run_rep(workload, seed, true, mode, None).expect("the repetition runs")
}

fn valid_name(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    let rest = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    first && rest && name.len() <= 64
}

#[test]
fn names_are_well_formed_and_unique() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(valid_name(name), "bad name `{name}`");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
}

#[test]
fn benchmark_json_lists_the_same_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let rows = |key: &str| -> Vec<Vec<String>> {
        let Value::Seq(items) = field(&root, key).unwrap() else {
            panic!("`{key}` is not a list");
        };
        items
            .iter()
            .map(|item| {
                let Value::Map(entries) = item else {
                    panic!("`{key}` holds a non-object");
                };
                entries
                    .iter()
                    .map(|(k, v)| match v {
                        Value::Str(s) => format!("{k}={s}"),
                        Value::Num(n) => format!("{k}={n}"),
                        other => panic!("unexpected value {other:?}"),
                    })
                    .collect()
            })
            .collect()
    };
    let workloads: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|w| vec![format!("name={}", w.name), format!("why={}", w.why)])
        .collect();
    assert_eq!(rows("workloads"), workloads);
    let end_to_end: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|m| {
            vec![
                format!("name={}", m.name),
                format!("unit={}", m.unit),
                format!("better={}", m.better),
                format!("bound={}", m.bound),
            ]
        })
        .collect();
    assert_eq!(rows("end_to_end"), end_to_end);
    let per_layer: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|m| {
            vec![
                format!("name={}", m.name),
                format!("unit={}", m.unit),
                format!("better={}", m.better),
            ]
        })
        .collect();
    assert_eq!(rows("per_layer"), per_layer);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in &WORKLOADS {
        let (_, result) = smoke(w, 3, Mode::Timed);
        assert_eq!(result.failed, 0, "{}: {:?}", w.name, result.errors);
        assert_eq!(result.attempted, w.sims.1, "{}", w.name);
        for m in &END_TO_END {
            let v = result.values.get(m.name).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{}: {} = {v}", w.name, m.name);
        }
        let again = RepResult::from_json(&result.to_json()).expect("round-trips");
        assert_eq!(again.values, result.values);
        assert_eq!(again.digest, result.digest);
    }
}

#[test]
fn every_per_layer_metric_is_emitted_by_some_workload() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        let (_, result) = smoke(w, 3, Mode::Traced);
        seen.extend(result.values.into_keys());
    }
    for m in &PER_LAYER {
        // The parent computes the overhead from two kinds of repetition.
        if m.name != "trace.overhead_share" {
            assert!(seen.contains(m.name), "nothing emits `{}`", m.name);
        }
    }
}

#[test]
fn digest_is_stable_per_seed_and_moves_with_the_seed() {
    for w in &WORKLOADS {
        let first = smoke(w, 3, Mode::Timed).1.digest;
        assert_eq!(first, smoke(w, 3, Mode::Timed).1.digest, "{}", w.name);
        assert_ne!(first, smoke(w, 4, Mode::Timed).1.digest, "{}", w.name);
    }
}

#[test]
fn probes_and_the_invariant_checker_are_result_neutral() {
    for w in &WORKLOADS {
        let bare = smoke(w, 5, Mode::Timed).1;
        for mode in [Mode::Traced, Mode::Verify] {
            let probed = smoke(w, 5, mode).1;
            assert_eq!(probed.failed, 0, "{}: {:?}", w.name, probed.errors);
            assert_eq!(bare.digest, probed.digest, "{} {mode:?}", w.name);
        }
    }
}

#[test]
fn span_tree_is_well_nested_and_accounts_for_the_wall_time() {
    for w in &WORKLOADS {
        let (rep, result) = smoke(w, 3, Mode::Traced);
        rep.tracer.check_nested().unwrap();
        let spans = rep.tracer.spans();
        assert_eq!(spans[0].name, "wall");
        assert!(spans.iter().skip(1).all(|s| s.parent.is_some()));
        let unattributed = result.values["trace.unattributed_share"];
        assert!(unattributed <= 0.05, "{}: {unattributed}", w.name);
        // On traced repetitions the scheduler decorator saw every call.
        let calls = result.values["sched.invocations"];
        assert!(calls > 0.0, "{}", w.name);
    }
}
