//! Campaign runtime: many simulations as cheap, `Send`-able, cache-keyed
//! units of work.
//!
//! The core engine runs one scenario per [`elastisim::Simulation`]. This
//! crate is the layer above it for *campaigns* — parameter sweeps,
//! scheduler comparisons, nightly conformance corpora — built from four
//! pieces:
//!
//! - [`RunSpec`] ([`spec`]): an immutable scenario *specification*
//!   (platform + workload + config + scheduler behind `Arc`s), split
//!   from run *state*, with a canonical [`fingerprint`](RunSpec::fingerprint)
//!   over every result-affecting input. [`campaign_specs`] expands a
//!   [`SeedRange`] × scheduler list into specs for `elastisim sweep`.
//! - [`ResultCache`] ([`cache`]): a fingerprint-keyed report cache. The
//!   determinism oracles make this sound: equal fingerprints mean equal
//!   inputs mean byte-identical reports.
//! - [`Executor`] ([`executor`]): a work-queue thread pool that runs
//!   specs concurrently and merges [`RunRecord`]s id-ordered, so merged
//!   output is byte-identical at any worker count.
//! - [`ReplayCampaign`] ([`replay`]): the SWF trace-replay campaign
//!   behind `elastisim replay`, with its own fingerprints.
//!
//! ```
//! use elastisim_campaign::{Executor, RunSpec};
//!
//! let specs: Vec<RunSpec> = (0..4)
//!     .map(|seed| RunSpec::from_seed(seed, seed, "fcfs"))
//!     .collect();
//! let records = Executor::new(2).run(specs);
//! assert_eq!(records.len(), 4);
//! assert!(records.iter().all(|r| r.report().is_some()));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod executor;
pub mod replay;
pub mod spec;

pub use cache::{CachedRun, ResultCache};
pub use executor::{
    aggregate_by_scheduler, CampaignEvent, CampaignResult, Executor, Observability, RunError,
    RunOutcome, RunRecord, SchedulerAggregate,
};
pub use replay::{combined_fingerprint, ReplayCampaign, ReplaySpec};
pub use spec::{campaign_specs, RunSpec, SchedulerSpec, SeedRange};
