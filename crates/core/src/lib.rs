#![warn(missing_docs)]

//! # elastisim — a batch-system simulator for malleable workloads
//!
//! A from-scratch Rust reproduction of the system described in *"ElastiSim:
//! A Batch-System Simulator for Malleable Workloads"* (Özden, Beringer,
//! Mazaheri, Fard, Wolf — ICPP 2022): a discrete-event simulator of an HPC
//! batch system whose distinguishing feature is first-class support for
//! rigid, moldable, **malleable**, and **evolving** jobs, with a decoupled
//! scheduling-algorithm interface.
//!
//! ## Architecture
//!
//! ```text
//!  PlatformSpec ──► Platform ──► flow resources (CPU/GPU/NIC/PFS/BB)
//!  Vec<JobSpec> ──► JobRuntime table        │ elastisim-des kernel
//!  scheduler driver ◄───── SystemView ──────┤ (max-min fair sharing)
//!   │ in-process trait │ external process   │
//!   │ decisions        ▼ (JSON wire proto)  ▼
//!   └─► Simulation::run() ──► SimEvent bus ──► Report (+ observers:
//!       (try_run for external schedulers)      Gantt, util, warnings,
//!                                              JSONL event trace)
//! ```
//!
//! Jobs execute a phase-structured [`elastisim_workload::ApplicationModel`];
//! phases iterate task lists (compute, communication collectives, PFS or
//! burst-buffer I/O, delays) whose loads are performance-model expressions
//! over `num_nodes`. After each iteration of a scheduling-point phase the
//! engine applies pending reconfigurations — the mechanism by which
//! malleable jobs grow and shrink — and evolving jobs emit resource
//! requests on phase entry.
//!
//! ## Quick start
//!
//! ```
//! use elastisim::{Simulation, SimConfig};
//! use elastisim_platform::PlatformSpec;
//! use elastisim_sched::ElasticScheduler;
//! use elastisim_workload::WorkloadConfig;
//!
//! let platform = PlatformSpec::homogeneous(
//!     "demo", 16, elastisim_platform::NodeSpec::default());
//! let jobs = WorkloadConfig::new(10)
//!     .with_platform_nodes(16)
//!     .with_malleable_fraction(0.5)
//!     .generate();
//! let sim = Simulation::new(
//!     &platform, jobs, Box::new(ElasticScheduler::new()), SimConfig::default(),
//! ).unwrap();
//! let report = sim.run();
//! assert_eq!(report.summary().completed, 10);
//! ```

pub mod chrome;
mod config;
mod decisions;
mod driver;
mod engine;
mod exec;
pub mod invariant;
mod lifecycle;
pub mod observe;
pub mod recorder;
mod stats;
mod trace;

pub use chrome::ChromeTraceWriter;
pub use config::{FailureModel, ReconfigCost, SimConfig};
pub use driver::SimError;
pub use engine::Simulation;
pub use exec::ExecError;
pub use invariant::{InvariantChecker, InvariantViolation};
pub use observe::{EventTraceWriter, Observer, SimEvent, TimedObserver};
pub use recorder::FlightRecorder;
pub use stats::{
    fnv_digest, GanttEntry, JobRecord, Outcome, Report, Summary, UtilizationSeries, Warning,
    WarningKind,
};
pub use trace::{gantt_csv, jobs_csv, utilization_csv};
