#![warn(missing_docs)]

//! # elastisim-cli — command-line driver
//!
//! The executable face of the ElastiSim reproduction, mirroring how the
//! original is used: JSON platform and job descriptions in, simulation
//! results (CSV + summary) out.
//!
//! ```text
//! elastisim platform --nodes 64 --out platform.json
//! elastisim generate --nodes 64 --jobs 200 --malleable 0.5 --out jobs.json
//! elastisim run --platform platform.json --jobs jobs.json \
//!               --scheduler elastic --out results/
//! ```
//!
//! All subcommand logic lives in [`commands`] as plain functions so the
//! test suite exercises it without process spawning; `main` is a thin
//! wrapper.

pub mod args;
pub mod campaign_cmd;
pub mod commands;
pub mod replay_cmd;

pub use args::{Args, UsageError};
pub use campaign_cmd::cmd_sweep;
pub use commands::{dispatch, CliError, HELP};
pub use replay_cmd::cmd_replay;
