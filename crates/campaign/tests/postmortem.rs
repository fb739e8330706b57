//! Flight-recorder conformance: a run that panics mid-simulation leaves a
//! well-formed post-mortem dump (last-N event ring + telemetry snapshot),
//! and attaching the observability layer never changes results.

use std::sync::{Arc, Mutex};

use elastisim::recorder::RING_CAPACITY;
use elastisim_campaign::{Executor, Observability, RunRecord, RunSpec, SchedulerSpec};
use elastisim_sched::{Decision, Invocation, Scheduler, SystemView};
use elastisim_telemetry::log::{Level, Logger};
use serde::Value;

mod common;
use common::run_identity;

/// Delegates to fcfs until the Nth invocation, then panics — so the
/// simulation has emitted real events before it dies.
struct PanicsAfter {
    inner: Box<dyn Scheduler>,
    calls: usize,
    fuse: usize,
}

impl Scheduler for PanicsAfter {
    fn name(&self) -> &'static str {
        "panics-after"
    }
    fn schedule(&mut self, view: &SystemView, why: Invocation) -> Vec<Decision> {
        self.calls += 1;
        if self.calls >= self.fuse {
            panic!("fuse blew on invocation {}", self.calls);
        }
        self.inner.schedule(view, why)
    }
}

fn saboteur_spec(id: u64, fuse: usize) -> RunSpec {
    RunSpec {
        id,
        label: format!("saboteur{id}"),
        scheduler: SchedulerSpec::Custom {
            label: "panics-after".into(),
            factory: Arc::new(move || {
                Box::new(PanicsAfter {
                    inner: elastisim_sched::by_name("fcfs").unwrap(),
                    calls: 0,
                    fuse,
                })
            }),
        },
        ..RunSpec::from_seed(id, 3, "fcfs")
    }
}

/// A saboteur over `jobs` generated jobs whose fuse blows on invocation
/// `jobs`: the submits and completions of that many jobs take more than
/// `jobs` invocations, so the run dies mid-way.
fn long_saboteur_spec(id: u64, jobs: usize) -> RunSpec {
    let spec = saboteur_spec(id, jobs);
    let workload = elastisim_workload::WorkloadConfig::new(jobs)
        .with_platform_nodes(spec.platform.num_nodes() as u32)
        .with_seed(id)
        .generate();
    RunSpec {
        workload: Arc::new(workload),
        ..spec
    }
}

/// A `Vec<u8>` sink shareable with the logger under test.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Buf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn take_map(v: Value) -> Vec<(String, Value)> {
    match v {
        Value::Map(map) => map,
        other => panic!("expected JSON object, got {other:?}"),
    }
}

#[test]
fn panicking_run_dumps_a_postmortem() {
    let dir = std::env::temp_dir().join(format!("elastisim-pm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let logbuf = Buf::default();
    let obs = Observability {
        logger: Logger::to_writer(logbuf.clone(), Level::Debug).with("campaign", "pm-test"),
        collect_metrics: true,
        recorder: Some(dir.clone()),
    };
    let executor = Executor::new(2).with_observability(obs);
    let mut specs = vec![saboteur_spec(0, 3)];
    specs.push(RunSpec::from_seed(1, 1, "fcfs"));
    let result = executor.run_campaign_with(specs, |_| {});

    // The failed record points at the dump; the healthy run has metrics.
    let failed = &result.records[0];
    assert!(failed.error().is_some());
    let path = failed.postmortem.as_ref().expect("post-mortem written");
    assert!(path.starts_with(&dir));
    let healthy = &result.records[1];
    assert!(healthy.report().is_some());
    let metrics = healthy.metrics.as_ref().expect("per-run snapshot kept");
    assert!(metrics.counter("des.events_delivered").unwrap_or(0) > 0);

    // The dump is well-formed: format tag, reason, run identity, a
    // non-empty event ring, and a telemetry snapshot.
    let json = std::fs::read_to_string(path).expect("dump readable");
    let mut map = take_map(serde_json::parse_value(&json).expect("dump is valid JSON"));
    assert_eq!(
        serde::map_take(&mut map, "postmortem"),
        Some(Value::Str("pm1".into()))
    );
    assert_eq!(
        serde::map_take(&mut map, "reason"),
        Some(Value::Str("panicked".into()))
    );
    match serde::map_take(&mut map, "message") {
        Some(Value::Str(m)) => assert!(m.contains("fuse blew"), "{m}"),
        other => panic!("message missing: {other:?}"),
    }
    assert_eq!(serde::map_take(&mut map, "run_id"), Some(Value::Num(0.0)));
    match serde::map_take(&mut map, "fingerprint") {
        Some(Value::Str(fp)) => assert!(fp.starts_with("sfp1-"), "{fp}"),
        other => panic!("fingerprint missing: {other:?}"),
    }
    let Some(Value::Seq(events)) = serde::map_take(&mut map, "events") else {
        panic!("events missing");
    };
    assert!(!events.is_empty(), "ring must hold the pre-panic events");
    // Every ring entry is a tagged SimEvent object.
    for event in &events {
        let Value::Map(fields) = event else {
            panic!("ring entry is not an object: {event:?}");
        };
        assert!(fields.iter().any(|(k, _)| k == "event"));
        assert!(fields.iter().any(|(k, _)| k == "time"));
    }
    let Some(Value::Map(metrics)) = serde::map_take(&mut map, "metrics") else {
        panic!("metrics snapshot missing");
    };
    assert!(metrics.iter().any(|(k, _)| k == "counters"));

    // The structured log carries the run-correlated failure records.
    let log = String::from_utf8(logbuf.0.lock().unwrap().clone()).unwrap();
    assert!(log.contains("\"event\":\"run_failed\""), "{log}");
    assert!(log.contains("\"campaign\":\"pm-test\""), "{log}");
    assert!(log.contains("\"reason\":\"panicked\""), "{log}");
    assert!(log.contains("\"event\":\"postmortem_written\""), "{log}");
    for line in log.lines() {
        serde_json::parse_value(line).expect("every log record parses");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The ring is bounded: a long run trims to the ring capacity and
/// reports the true events_seen count.
#[test]
fn postmortem_ring_is_bounded() {
    let dir = std::env::temp_dir().join(format!("elastisim-pm-ring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let executor = Executor::new(1).with_observability(Observability {
        logger: Logger::disabled(),
        collect_metrics: false,
        recorder: Some(dir.clone()),
    });
    // Blow the fuse late enough that more than RING_CAPACITY events
    // precede it.
    let result = executor.run(vec![long_saboteur_spec(0, RING_CAPACITY + 3)]);
    let path = result[0].postmortem.as_ref().expect("dump written");
    let mut map = take_map(
        serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).expect("valid JSON"),
    );
    let Some(Value::Seq(events)) = serde::map_take(&mut map, "events") else {
        panic!("events missing");
    };
    assert_eq!(events.len(), RING_CAPACITY, "ring trimmed to capacity");
    match serde::map_take(&mut map, "events_seen") {
        Some(Value::Num(seen)) => assert!(seen >= (RING_CAPACITY + 2) as f64, "seen={seen}"),
        other => panic!("events_seen missing: {other:?}"),
    }
    assert_eq!(
        serde::map_take(&mut map, "ring_capacity"),
        Some(Value::Num(RING_CAPACITY as f64))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Observability attached vs detached: report digests and engine
/// counters are identical — the layer is result-neutral by construction.
#[test]
fn observability_is_result_neutral() {
    let identity = |r: RunRecord| (r.id, run_identity(&r));
    let specs = || -> Vec<RunSpec> {
        (0..4)
            .flat_map(|seed| {
                ["fcfs", "elastic"]
                    .iter()
                    .enumerate()
                    .map(move |(i, s)| RunSpec::from_seed(seed * 2 + i as u64, seed, s))
            })
            .collect()
    };
    let bare: Vec<_> = Executor::new(2)
        .run(specs())
        .into_iter()
        .map(identity)
        .collect();
    let dir = std::env::temp_dir().join(format!("elastisim-pm-neutral-{}", std::process::id()));
    let instrumented: Vec<_> = Executor::new(2)
        .with_observability(Observability {
            logger: Logger::to_writer(std::io::sink(), Level::Debug),
            collect_metrics: true,
            recorder: Some(dir.clone()),
        })
        .run(specs())
        .into_iter()
        .map(identity)
        .collect();
    assert_eq!(bare, instrumented);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Campaign metric aggregation: per-run snapshots roll up into campaign
/// and per-scheduler aggregates with exact counter sums.
#[test]
fn campaign_metrics_aggregate_per_scheduler() {
    let mut specs = Vec::new();
    for seed in 0..3u64 {
        for (i, s) in ["fcfs", "easy"].iter().enumerate() {
            specs.push(RunSpec::from_seed(seed * 2 + i as u64, seed, s));
        }
    }
    let executor = Executor::new(2).with_observability(Observability {
        collect_metrics: true,
        ..Observability::default()
    });
    let result = executor.run_campaign_with(specs, |_| {});
    let merged = result.merged_metrics();
    assert_eq!(merged.counter("campaign.runs"), Some(6));
    assert_eq!(merged.counter("campaign.completed"), Some(6));
    assert_eq!(merged.counter("campaign.failed"), None);
    let wall = merged
        .histogram("campaign.run_wall_seconds")
        .expect("wall histogram");
    assert_eq!(wall.count, 6);
    // Engine metrics from per-run snapshots roll up too.
    assert!(merged.counter("des.events_delivered").unwrap_or(0) > 0);

    let by_sched = result.metrics_by_scheduler();
    assert_eq!(by_sched.len(), 2);
    assert_eq!(by_sched[0].0, "easy");
    assert_eq!(by_sched[1].0, "fcfs");
    let total: u64 = by_sched
        .iter()
        .filter_map(|(_, snap)| snap.counter("campaign.runs"))
        .sum();
    assert_eq!(total, 6, "per-scheduler groups partition the campaign");
    // The per-scheduler DES counters sum exactly to the campaign total.
    let des_total: u64 = by_sched
        .iter()
        .filter_map(|(_, snap)| snap.counter("des.events_delivered"))
        .sum();
    assert_eq!(merged.counter("des.events_delivered"), Some(des_total));
}

/// Cache hits enter the campaign counters but not the wall-time
/// histogram — a cached record never executed anything.
#[test]
fn counts_cached_runs_in_campaign_metrics() {
    // Three ids over the same scenario: one executes, two cache-hit.
    let specs: Vec<RunSpec> = (0..3).map(|id| RunSpec::from_seed(id, 0, "fcfs")).collect();
    let executor = Executor::new(1).with_observability(Observability {
        collect_metrics: true,
        ..Observability::default()
    });
    let result = executor.run_campaign_with(specs, |_| {});
    let merged = result.merged_metrics();
    // Same scenario three times: one executed, two served from cache.
    assert_eq!(merged.counter("campaign.runs"), Some(3));
    assert_eq!(merged.counter("campaign.cached"), Some(2));
    assert_eq!(
        merged
            .histogram("campaign.run_wall_seconds")
            .map(|h| h.count),
        Some(1),
        "cache hits don't pollute the wall-time histogram"
    );
}
