#![warn(missing_docs)]

//! # perf_ledger — the end-to-end + per-layer performance ledger
//!
//! The benchmark `BENCHMARK.json` at the repository root describes: five
//! workloads that run a real `run` / `replay` / `sweep` through the
//! public functions the CLI commands call, end-to-end metrics measured
//! with tracing off, and per-layer metrics measured from outside each
//! layer on a separate traced repetition. See `README.md`.

pub mod check;
pub mod digest;
pub mod harness;
pub mod metrics;
pub mod probe;
pub mod span;
pub mod workloads;
