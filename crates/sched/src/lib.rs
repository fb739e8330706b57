#![warn(missing_docs)]

//! # elastisim-sched — the scheduling-algorithm interface and algorithms
//!
//! ElastiSim's defining architectural feature is the decoupling of the
//! simulated batch system from the scheduling algorithm: the simulator
//! invokes the algorithm at well-defined *invocation points* with a
//! snapshot of system state, and the algorithm answers with a list of
//! *decisions*. The original exposes this boundary over ZeroMQ to a Python
//! process; this reproduction provides the same vocabulary both as a Rust
//! trait and as a versioned wire protocol spoken to external scheduler
//! processes (see DESIGN.md §5 and the protocol reference).
//!
//! * [`Scheduler`] — the trait an in-process algorithm implements.
//! * [`SystemView`] / [`JobView`] — the read-only snapshot.
//! * [`Decision`] — start / reconfigure / kill.
//! * [`Invocation`] — why the scheduler was called.
//! * [`protocol`] — the request/response envelopes that carry the above
//!   (whose serde derives are the wire format) with a protocol-version
//!   header ([`protocol::PROTOCOL_VERSION`]).
//! * [`ExternalProcess`] — a scheduler in a child process, spoken to in
//!   JSON lines, with timeout-and-kill semantics and a bounded line size.
//!
//! ## Provided algorithms
//!
//! | type | policy |
//! |------|--------|
//! | [`FcfsScheduler`] | first-come first-served, strict queue order |
//! | [`EasyBackfilling`] | FCFS + EASY backfill against the head job's reservation |
//! | [`ConservativeBackfilling`] | reservations for every queued job |
//! | [`FirstFit`] | start everything that fits, skip blocked jobs |
//! | [`ElasticScheduler`] | EASY base + malleable expand/shrink + evolving grants |
//!
//! Construct by name with [`by_name`] (CLI and config-file use).
//!
//! All algorithms are deterministic given the same sequence of views.

mod algo_conservative;
mod algo_easy;
mod algo_elastic;
mod algo_fcfs;
mod algo_firstfit;
mod api;
mod external;
mod node_selection;
pub mod protocol;
mod registry;

pub use algo_conservative::ConservativeBackfilling;
pub use algo_easy::{EasyBackfilling, SizingPolicy};
pub use algo_elastic::ElasticScheduler;
pub use algo_fcfs::FcfsScheduler;
pub use algo_firstfit::FirstFit;
pub use api::{Decision, Invocation, JobRunInfo, JobState, JobView, Scheduler, SystemView};
pub use external::{ExternalProcess, TransportError};
pub use node_selection::{lowest_free, NodeSet};
pub use registry::{by_name, SCHEDULER_NAMES};
