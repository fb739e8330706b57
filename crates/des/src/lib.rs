#![warn(missing_docs)]

//! # elastisim-des — flow-level discrete-event simulation kernel
//!
//! This crate is the substrate that replaces SimGrid in the ElastiSim
//! reproduction: a deterministic discrete-event engine whose resources
//! (compute, network links, storage servers) are shared among concurrent
//! *activities* by bottleneck max-min fairness, the same fluid model
//! flow-level simulators use.
//!
//! ## Layers
//!
//! * [`time`] — the [`Time`] newtype (seconds, totally ordered).
//! * [`queue`] — deterministic future-event list with lazy cancellation.
//! * [`fairshare`] — the progressive-filling max-min solver (pure function).
//! * [`flow`] — resources + activities + work integration. Incremental:
//!   lazy per-activity integration, a lazily-invalidated completion heap,
//!   and partial fair-share re-solves scoped to the connected component of
//!   the resources an event touched, falling back to a full solve when
//!   the change spans most of the network. State lives in dense
//!   slot-indexed structure-of-arrays tables with a shared CSR usage
//!   arena.
//! * [`sim`] — [`Simulator`], the inverted-control driver: every timer and
//!   activity carries a user payload which `step()` hands back in
//!   deterministic order.
//!
//! ## Determinism
//!
//! Two runs with identical inputs produce identical event traces: the event
//! list breaks time ties by insertion sequence, and activity completions are
//! harvested in activity-id order. All experiment reproducibility in the
//! workspace rests on this property.

pub mod fairshare;
pub mod flow;
mod hash;
pub mod queue;
pub mod sim;
pub mod time;

pub use flow::{ActivityId, ActivitySpec, FlowNetwork, Progress, ResourceId, SolveKind};
pub use queue::{EntryId, EventQueue};
pub use sim::{Simulator, TimerId};
pub use time::Time;
