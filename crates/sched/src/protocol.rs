//! The versioned wire protocol of the scheduler boundary.
//!
//! The original ElastiSim exposes system snapshots and scheduling decisions
//! to an out-of-process (Python) scheduler over ZeroMQ. This module is that
//! boundary's message envelopes: the in-memory [`crate::Invocation`],
//! [`crate::SystemView`] and [`crate::Decision`] values — which derive
//! their own JSON form — wrapped in requests and responses that carry a
//! protocol-version header and a sequence number.
//!
//! ## Framing
//!
//! Messages travel as JSON-lines: one JSON object per `\n`-terminated
//! line. The engine writes one [`Request`] per invocation to the external
//! scheduler's stdin and expects exactly one [`Response`] line (matching
//! `seq`) on its stdout. Both sides must set `protocol` to
//! [`PROTOCOL_VERSION`]; a mismatch is a fatal, reported error — never a
//! silent misinterpretation.
//!
//! ## Schema stability
//!
//! The JSON shape of every message is pinned by golden fixtures under
//! `tests/fixtures/`; breaking the shape requires bumping
//! [`PROTOCOL_VERSION`] and regenerating the fixtures.

use serde::{Deserialize, Serialize};

use crate::api::{Decision, Invocation, SystemView};

/// Version of the wire protocol. Bumped on any incompatible change to the
/// message schema; both endpoints refuse to talk across a mismatch.
pub const PROTOCOL_VERSION: u32 = 1;

/// One engine → scheduler invocation: the version header, a sequence
/// number, why the scheduler is being asked, and the system snapshot.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Request {
    /// Must equal [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// Monotonic per-connection sequence number; echoed by the response.
    pub seq: u64,
    /// Why the scheduler is invoked.
    pub invocation: Invocation,
    /// The system snapshot to decide over.
    pub view: SystemView,
}

impl Request {
    /// Builds a current-version request around a copy of `view`.
    pub fn new(seq: u64, invocation: Invocation, view: &SystemView) -> Request {
        Request {
            protocol: PROTOCOL_VERSION,
            seq,
            invocation,
            view: view.clone(),
        }
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("request serialization cannot fail")
    }

    /// Parses a request line, checking the protocol version.
    pub fn from_json(line: &str) -> Result<Request, ProtocolError> {
        let req: Request =
            serde_json::from_str(line).map_err(|e| ProtocolError::Malformed(e.to_string()))?;
        check_version(req.protocol)?;
        Ok(req)
    }
}

/// One scheduler → engine reply: the version header, the echoed sequence
/// number, and the decision list (possibly empty).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Response {
    /// Must equal [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// Decisions for the engine to validate and apply, in order.
    pub decisions: Vec<Decision>,
}

impl Response {
    /// Builds a current-version response.
    pub fn new(seq: u64, decisions: Vec<Decision>) -> Response {
        Response {
            protocol: PROTOCOL_VERSION,
            seq,
            decisions,
        }
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("response serialization cannot fail")
    }

    /// Parses a response line, checking the protocol version.
    pub fn from_json(line: &str) -> Result<Response, ProtocolError> {
        let resp: Response =
            serde_json::from_str(line).map_err(|e| ProtocolError::Malformed(e.to_string()))?;
        check_version(resp.protocol)?;
        Ok(resp)
    }
}

fn check_version(theirs: u32) -> Result<(), ProtocolError> {
    if theirs == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(ProtocolError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs,
        })
    }
}

/// Errors decoding a protocol message.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtocolError {
    /// The message parsed but declared an incompatible protocol version.
    VersionMismatch {
        /// This side's version.
        ours: u32,
        /// The peer's version.
        theirs: u32,
    },
    /// The line was not a valid message of the expected shape.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer sent v{theirs}"
            ),
            ProtocolError::Malformed(msg) => write!(f, "malformed protocol message: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{JobRunInfo, JobState, JobView};
    use elastisim_platform::NodeId;
    use elastisim_workload::{JobClass, JobId};

    fn sample_view() -> SystemView {
        SystemView {
            now: 120.5,
            total_nodes: 8,
            free_nodes: vec![NodeId(4), NodeId(5)],
            jobs: vec![
                JobView {
                    id: JobId(1),
                    class: JobClass::Malleable,
                    state: JobState::Running(JobRunInfo {
                        nodes: vec![NodeId(0), NodeId(1)],
                        start_time: 10.0,
                        reconfig_pending: true,
                        progress: 0.25,
                    }),
                    submit_time: 0.0,
                    min_nodes: 1,
                    max_nodes: 4,
                    walltime: Some(3600.0),
                    evolving_request: None,
                    fixed_start: None,
                },
                JobView {
                    id: JobId(2),
                    class: JobClass::Evolving,
                    state: JobState::Pending,
                    submit_time: 60.0,
                    min_nodes: 2,
                    max_nodes: 6,
                    walltime: None,
                    evolving_request: Some(4),
                    fixed_start: Some(2),
                },
            ],
        }
    }

    #[test]
    fn request_roundtrips_through_json() {
        let view = sample_view();
        for why in [
            Invocation::Periodic,
            Invocation::JobSubmitted { job: JobId(2) },
            Invocation::JobCompleted { job: JobId(1) },
            Invocation::EvolvingRequest {
                job: JobId(2),
                nodes: 4,
            },
            Invocation::SchedulingPoint { job: JobId(1) },
        ] {
            let req = Request::new(7, why, &view);
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(req, back);
            assert_eq!(back.view, view);
            assert_eq!(back.invocation, why);
        }
    }

    #[test]
    fn response_roundtrips_through_json() {
        let decisions = vec![
            Decision::Start {
                job: JobId(2),
                nodes: vec![NodeId(4), NodeId(5)],
            },
            Decision::Reconfigure {
                job: JobId(1),
                nodes: vec![NodeId(0)],
            },
            Decision::Kill { job: JobId(3) },
        ];
        let resp = Response::new(9, decisions.clone());
        let back = Response::from_json(&resp.to_json()).unwrap();
        assert_eq!(back.seq, 9);
        assert_eq!(back.decisions, decisions);
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut resp = Response::new(1, vec![]);
        resp.protocol = PROTOCOL_VERSION + 1;
        let err = Response::from_json(&resp.to_json()).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::VersionMismatch { theirs, .. } if theirs == PROTOCOL_VERSION + 1
        ));
        assert!(err.to_string().contains("version mismatch"));
    }

    #[test]
    fn malformed_lines_are_reported() {
        assert!(matches!(
            Response::from_json("{not json"),
            Err(ProtocolError::Malformed(_))
        ));
        assert!(matches!(
            Request::from_json(r#"{"protocol": 1}"#),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn state_tag_is_flattened_into_job_objects() {
        let req = Request::new(0, Invocation::Periodic, &sample_view());
        let json = req.to_json();
        assert!(
            json.contains(r#""state":"running","nodes":[0,1],"start_time":10"#),
            "{json}"
        );
        assert!(json.contains(r#""state":"pending""#), "{json}");
        assert!(json.contains(r#""why":"periodic""#), "{json}");
    }
}
