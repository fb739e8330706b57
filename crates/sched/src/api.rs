//! The scheduler-facing API: views, decisions, invocation points.
//!
//! These types are also the wire format spoken to external schedulers
//! ([`crate::protocol`]): their serde derives emit the protocol-v1 JSON,
//! which the fixtures under `tests/fixtures/` pin.

use serde::{Deserialize, Serialize};

use elastisim_platform::NodeId;
use elastisim_workload::{JobClass, JobId};

/// Why the scheduler is being invoked. Mirrors ElastiSim's invocation
/// points: a periodic timer plus the job-lifecycle events. On the wire,
/// tagged with a `why` discriminator.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(tag = "why", rename_all = "snake_case")]
pub enum Invocation {
    /// The periodic scheduling interval elapsed.
    Periodic,
    /// A job was submitted.
    JobSubmitted {
        /// The submitted job.
        job: JobId,
    },
    /// A job finished (completed, was killed, or failed validation).
    JobCompleted {
        /// The finished job.
        job: JobId,
    },
    /// A running evolving job asked to change to the given node count.
    EvolvingRequest {
        /// The requesting job.
        job: JobId,
        /// The desired node count.
        nodes: u32,
    },
    /// A running job passed a scheduling point (reconfiguration
    /// opportunity for malleable jobs).
    SchedulingPoint {
        /// The job at its scheduling point.
        job: JobId,
    },
}

impl std::fmt::Display for Invocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invocation::Periodic => write!(f, "periodic"),
            Invocation::JobSubmitted { job } => write!(f, "submitted:{job}"),
            Invocation::JobCompleted { job } => write!(f, "completed:{job}"),
            Invocation::EvolvingRequest { job, nodes } => write!(f, "evolving:{job}:{nodes}"),
            Invocation::SchedulingPoint { job } => write!(f, "scheduling_point:{job}"),
        }
    }
}

/// Runtime details of a running job.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct JobRunInfo {
    /// Nodes currently allocated to the job.
    pub nodes: Vec<NodeId>,
    /// When the job started.
    pub start_time: f64,
    /// Whether a reconfiguration is already ordered but not yet applied
    /// (the engine applies it at the job's next scheduling point; issuing
    /// another one meanwhile is rejected).
    pub reconfig_pending: bool,
    /// Fraction of the application's task executions already completed,
    /// in `[0, 1]` — a progress hint some policies use.
    pub progress: f64,
}

/// Scheduling state of a job. On the wire, tagged with a `state`
/// discriminator; a running job's [`JobRunInfo`] fields sit beside it.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(tag = "state", rename_all = "snake_case")]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Executing.
    Running(JobRunInfo),
}

/// Snapshot of one job, as shown to the scheduling algorithm.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct JobView {
    /// Job id.
    pub id: JobId,
    /// Elasticity class.
    pub class: JobClass,
    /// Submission time.
    pub submit_time: f64,
    /// Smallest allocation the job accepts.
    pub min_nodes: u32,
    /// Largest allocation the job can use.
    pub max_nodes: u32,
    /// User-supplied walltime limit (the scheduler's runtime estimate, as
    /// in real batch systems).
    pub walltime: Option<f64>,
    /// For evolving jobs: an unanswered resource request, if any.
    pub evolving_request: Option<u32>,
    /// Start size the *user* fixed (rigid and evolving jobs); `None` when
    /// the scheduler chooses (moldable, malleable).
    pub fixed_start: Option<u32>,
    /// Current state, flattened into the job object on the wire.
    #[serde(flatten)]
    pub state: JobState,
}

impl JobView {
    /// Whether the job is waiting to start.
    pub fn is_pending(&self) -> bool {
        matches!(self.state, JobState::Pending)
    }

    /// Run info if running.
    pub fn run_info(&self) -> Option<&JobRunInfo> {
        match &self.state {
            JobState::Running(info) => Some(info),
            JobState::Pending => None,
        }
    }

    /// The allocation size to use when starting this job with `free` nodes
    /// available: the user-fixed size where the user decides, otherwise the
    /// greedy choice `min(max_nodes, free)`. `None` if the job cannot start
    /// yet.
    pub fn start_size(&self, free: usize) -> Option<usize> {
        match self.fixed_start {
            Some(s) => (free >= s as usize).then_some(s as usize),
            None => (free >= self.min_nodes as usize).then(|| (self.max_nodes as usize).min(free)),
        }
    }

    /// The smallest allocation that lets the job start (for backfill
    /// feasibility checks).
    pub fn min_start_size(&self) -> usize {
        self.fixed_start.unwrap_or(self.min_nodes) as usize
    }
}

/// Snapshot of the whole system at an invocation.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SystemView {
    /// Current simulated time, seconds.
    pub now: f64,
    /// Total nodes in the platform.
    pub total_nodes: usize,
    /// Currently unallocated nodes, ascending id order.
    pub free_nodes: Vec<NodeId>,
    /// All pending and running jobs, ascending id order (pending jobs of
    /// equal submit time keep id order, i.e. queue order).
    pub jobs: Vec<JobView>,
}

impl SystemView {
    /// Pending jobs in queue order (submit time, then id). A NaN submit
    /// time sorts last (`f64::total_cmp`) rather than panicking.
    pub fn queue(&self) -> Vec<&JobView> {
        let mut q: Vec<&JobView> = self.jobs.iter().filter(|j| j.is_pending()).collect();
        q.sort_by(|a, b| {
            a.submit_time
                .total_cmp(&b.submit_time)
                .then(a.id.cmp(&b.id))
        });
        q
    }

    /// Running jobs, ascending id order.
    pub fn running(&self) -> impl Iterator<Item = &JobView> {
        self.jobs.iter().filter(|j| !j.is_pending())
    }

    /// Looks up a job by id — a binary search, since `jobs` is ascending
    /// by id (part of the [`SystemView`] contract).
    pub fn job(&self, id: JobId) -> Option<&JobView> {
        self.jobs
            .binary_search_by(|j| j.id.cmp(&id))
            .ok()
            .map(|i| &self.jobs[i])
    }
}

/// A scheduling decision returned to the engine.
///
/// The engine validates every decision (nodes actually free, counts within
/// the job's range, job in the right state) and ignores invalid ones with a
/// logged warning — the same defensive posture a production batch system
/// takes toward a scheduling plug-in. On the wire, tagged with an
/// `action` discriminator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(tag = "action", rename_all = "snake_case")]
pub enum Decision {
    /// Start a pending job on exactly these (free) nodes.
    Start {
        /// The pending job.
        job: JobId,
        /// Nodes to allocate; length must lie in `[min_nodes, max_nodes]`
        /// and equal the user-fixed size for rigid/evolving jobs.
        nodes: Vec<NodeId>,
    },
    /// Change a running malleable/evolving job's allocation to exactly
    /// this node set, applied at the job's next scheduling point. Nodes
    /// being added must be free and are reserved immediately.
    Reconfigure {
        /// The running job.
        job: JobId,
        /// The complete new node set.
        nodes: Vec<NodeId>,
    },
    /// Remove a job (walltime overruns are killed by the engine itself;
    /// this lets policies evict).
    Kill {
        /// The job to remove.
        job: JobId,
    },
}

impl Decision {
    /// The job the decision concerns.
    pub fn job(&self) -> JobId {
        match self {
            Decision::Start { job, .. }
            | Decision::Reconfigure { job, .. }
            | Decision::Kill { job } => *job,
        }
    }
}

/// A scheduling algorithm.
///
/// Implementations must be deterministic functions of the view sequence;
/// they may keep internal state (e.g. reservations) across invocations.
/// `Send` because a simulation run — scheduler included — is a unit of
/// work the campaign executor moves across worker threads; a single run
/// still invokes its scheduler from one thread at a time.
pub trait Scheduler: Send {
    /// Algorithm name used in reports and traces.
    fn name(&self) -> &'static str;

    /// Produce decisions for the given system snapshot.
    fn schedule(&mut self, view: &SystemView, why: Invocation) -> Vec<Decision>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, submit: f64, pending: bool) -> JobView {
        JobView {
            id: JobId(id),
            class: JobClass::Rigid,
            state: if pending {
                JobState::Pending
            } else {
                JobState::Running(JobRunInfo {
                    nodes: vec![NodeId(0)],
                    start_time: 0.0,
                    reconfig_pending: false,
                    progress: 0.5,
                })
            },
            submit_time: submit,
            min_nodes: 1,
            max_nodes: 1,
            walltime: None,
            evolving_request: None,
            fixed_start: Some(1),
        }
    }

    #[test]
    fn queue_orders_by_submit_then_id() {
        let view = SystemView {
            now: 0.0,
            total_nodes: 4,
            free_nodes: vec![],
            jobs: vec![
                job(3, 5.0, true),
                job(1, 5.0, true),
                job(2, 1.0, true),
                job(4, 0.0, false),
            ],
        };
        let q: Vec<u64> = view.queue().iter().map(|j| j.id.0).collect();
        assert_eq!(q, vec![2, 1, 3]);
        assert_eq!(view.running().count(), 1);
    }

    #[test]
    fn job_lookup() {
        let view = SystemView {
            now: 0.0,
            total_nodes: 1,
            free_nodes: vec![],
            jobs: vec![job(7, 0.0, true)],
        };
        assert!(view.job(JobId(7)).is_some());
        assert!(view.job(JobId(8)).is_none());
    }

    #[test]
    fn job_lookup_binary_searches_sorted_views() {
        let view = SystemView {
            now: 0.0,
            total_nodes: 8,
            free_nodes: vec![],
            jobs: (0..20).map(|i| job(i * 3, 0.0, i % 2 == 0)).collect(),
        };
        for i in 0..20 {
            assert_eq!(view.job(JobId(i * 3)).unwrap().id, JobId(i * 3));
            assert!(view.job(JobId(i * 3 + 1)).is_none());
        }
        assert!(view.job(JobId(999)).is_none());
    }

    #[test]
    fn queue_tolerates_nan_submit_times() {
        let mut bad = job(5, f64::NAN, true);
        bad.submit_time = f64::NAN;
        let view = SystemView {
            now: 0.0,
            total_nodes: 4,
            free_nodes: vec![],
            jobs: vec![job(1, 2.0, true), bad, job(9, 1.0, true)],
        };
        // total_cmp sorts NaN after every finite value instead of panicking.
        let q: Vec<u64> = view.queue().iter().map(|j| j.id.0).collect();
        assert_eq!(q, vec![9, 1, 5]);
    }

    #[test]
    fn run_info_accessor() {
        let j = job(1, 0.0, false);
        assert_eq!(j.run_info().unwrap().nodes.len(), 1);
        assert!(job(1, 0.0, true).run_info().is_none());
    }
}
