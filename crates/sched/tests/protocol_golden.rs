//! Golden-fixture tests pinning the wire protocol's JSON schema.
//!
//! Each fixture under `tests/fixtures/` is the committed JSON shape of one
//! protocol message, covering every [`Invocation`] and [`Decision`]
//! variant. Each test round-trips three ways:
//!
//! 1. fixture → parsed message equals the expected in-memory value,
//! 2. expected value → JSON equals the fixture (as a [`serde::Value`],
//!    so formatting is free but field names, tags and values are pinned),
//! 3. parsed → re-serialized → re-parsed equals the original.
//!
//! Changing the schema breaks these tests by construction; the fix is to
//! bump [`PROTOCOL_VERSION`] and regenerate the fixtures.

use elastisim_platform::NodeId;
use elastisim_sched::protocol::{Request, Response, PROTOCOL_VERSION};
use elastisim_sched::{Decision, Invocation, JobRunInfo, JobState, JobView, SystemView};
use elastisim_workload::{JobClass, JobId};

fn nodes(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().map(|&i| NodeId(i)).collect()
}

/// Asserts fixture ⇄ value round-trips in both directions.
fn check_request(fixture: &str, expected: &Request) {
    let parsed = Request::from_json(fixture).expect("fixture must parse");
    assert_eq!(&parsed, expected, "fixture disagrees with expected value");
    let ours: serde::Value = serde_json::from_str(&expected.to_json()).unwrap();
    let theirs: serde::Value = serde_json::from_str(fixture).unwrap();
    assert_eq!(ours, theirs, "serialized shape drifted from the fixture");
    let again = Request::from_json(&parsed.to_json()).unwrap();
    assert_eq!(again, parsed, "re-serialization must round-trip");
}

fn check_response(fixture: &str, expected: &Response) {
    let parsed = Response::from_json(fixture).expect("fixture must parse");
    assert_eq!(&parsed, expected, "fixture disagrees with expected value");
    let ours: serde::Value = serde_json::from_str(&expected.to_json()).unwrap();
    let theirs: serde::Value = serde_json::from_str(fixture).unwrap();
    assert_eq!(ours, theirs, "serialized shape drifted from the fixture");
    let again = Response::from_json(&parsed.to_json()).unwrap();
    assert_eq!(again, parsed, "re-serialization must round-trip");
}

#[test]
fn periodic_request_matches_fixture() {
    let expected = Request {
        protocol: PROTOCOL_VERSION,
        seq: 0,
        invocation: Invocation::Periodic,
        view: SystemView {
            now: 60.0,
            total_nodes: 4,
            free_nodes: nodes(&[0, 1, 2, 3]),
            jobs: vec![JobView {
                id: JobId(1),
                class: JobClass::Rigid,
                submit_time: 0.0,
                min_nodes: 2,
                max_nodes: 2,
                walltime: None,
                evolving_request: None,
                fixed_start: Some(2),
                state: JobState::Pending,
            }],
        },
    };
    check_request(include_str!("fixtures/request_periodic.json"), &expected);
}

#[test]
fn job_submitted_request_matches_fixture() {
    let expected = Request {
        protocol: PROTOCOL_VERSION,
        seq: 1,
        invocation: Invocation::JobSubmitted { job: JobId(3) },
        view: SystemView {
            now: 12.5,
            total_nodes: 2,
            free_nodes: nodes(&[0, 1]),
            jobs: vec![JobView {
                id: JobId(3),
                class: JobClass::Moldable,
                submit_time: 12.5,
                min_nodes: 1,
                max_nodes: 2,
                walltime: Some(1800.0),
                evolving_request: None,
                fixed_start: None,
                state: JobState::Pending,
            }],
        },
    };
    check_request(
        include_str!("fixtures/request_job_submitted.json"),
        &expected,
    );
}

#[test]
fn job_completed_request_matches_fixture() {
    let expected = Request {
        protocol: PROTOCOL_VERSION,
        seq: 2,
        invocation: Invocation::JobCompleted { job: JobId(1) },
        view: SystemView {
            now: 300.0,
            total_nodes: 2,
            free_nodes: nodes(&[0, 1]),
            jobs: vec![],
        },
    };
    check_request(
        include_str!("fixtures/request_job_completed.json"),
        &expected,
    );
}

#[test]
fn evolving_request_matches_fixture() {
    let expected = Request {
        protocol: PROTOCOL_VERSION,
        seq: 3,
        invocation: Invocation::EvolvingRequest {
            job: JobId(5),
            nodes: 3,
        },
        view: SystemView {
            now: 450.0,
            total_nodes: 4,
            free_nodes: nodes(&[2, 3]),
            jobs: vec![JobView {
                id: JobId(5),
                class: JobClass::Evolving,
                submit_time: 100.0,
                min_nodes: 1,
                max_nodes: 4,
                walltime: None,
                evolving_request: Some(3),
                fixed_start: None,
                state: JobState::Running(JobRunInfo {
                    nodes: nodes(&[0, 1]),
                    start_time: 120.0,
                    reconfig_pending: false,
                    progress: 0.5,
                }),
            }],
        },
    };
    check_request(
        include_str!("fixtures/request_evolving_request.json"),
        &expected,
    );
}

#[test]
fn scheduling_point_request_matches_fixture() {
    let expected = Request {
        protocol: PROTOCOL_VERSION,
        seq: 4,
        invocation: Invocation::SchedulingPoint { job: JobId(7) },
        view: SystemView {
            now: 600.0,
            total_nodes: 4,
            free_nodes: nodes(&[3]),
            jobs: vec![JobView {
                id: JobId(7),
                class: JobClass::Malleable,
                submit_time: 0.0,
                min_nodes: 1,
                max_nodes: 4,
                walltime: Some(7200.0),
                evolving_request: None,
                fixed_start: None,
                state: JobState::Running(JobRunInfo {
                    nodes: nodes(&[0, 1, 2]),
                    start_time: 30.0,
                    reconfig_pending: true,
                    progress: 0.75,
                }),
            }],
        },
    };
    check_request(
        include_str!("fixtures/request_scheduling_point.json"),
        &expected,
    );
}

#[test]
fn start_response_matches_fixture() {
    let expected = Response {
        protocol: PROTOCOL_VERSION,
        seq: 0,
        decisions: vec![Decision::Start {
            job: JobId(1),
            nodes: nodes(&[0, 1]),
        }],
    };
    check_response(include_str!("fixtures/response_start.json"), &expected);
}

#[test]
fn reconfigure_response_matches_fixture() {
    let expected = Response {
        protocol: PROTOCOL_VERSION,
        seq: 3,
        decisions: vec![Decision::Reconfigure {
            job: JobId(5),
            nodes: nodes(&[0, 1, 2]),
        }],
    };
    check_response(
        include_str!("fixtures/response_reconfigure.json"),
        &expected,
    );
}

#[test]
fn kill_response_matches_fixture() {
    let expected = Response {
        protocol: PROTOCOL_VERSION,
        seq: 4,
        decisions: vec![Decision::Kill { job: JobId(7) }],
    };
    check_response(include_str!("fixtures/response_kill.json"), &expected);
}

#[test]
fn empty_response_matches_fixture() {
    let expected = Response {
        protocol: PROTOCOL_VERSION,
        seq: 2,
        decisions: vec![],
    };
    check_response(include_str!("fixtures/response_empty.json"), &expected);
}

#[test]
fn fixture_with_wrong_version_is_rejected() {
    let bumped = include_str!("fixtures/response_empty.json").replace(
        "\"protocol\": 1",
        &format!("\"protocol\": {}", PROTOCOL_VERSION + 1),
    );
    let err = Response::from_json(&bumped).unwrap_err();
    assert!(err.to_string().contains("version mismatch"), "{err}");
}
