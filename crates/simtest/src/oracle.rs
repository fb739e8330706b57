//! An independent oracle for what the scheduler is shown.
//!
//! The engine builds each [`SystemView`] from its own job table. This
//! module rebuilds the same facts from the [`SimEvent`] stream alone —
//! which jobs are queued, which are running and on which nodes — and,
//! at every invocation, compares them with the view the scheduler
//! actually receives. The observer half and the scheduler half share one
//! state, so the comparison happens at the exact point in the stream
//! where the view was built.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use elastisim::{Observer, Outcome, SimEvent};
use elastisim_platform::NodeId;
use elastisim_sched::{Decision, Invocation, JobState, Scheduler, SystemView};
use elastisim_workload::{JobId, JobSpec};

/// Cross-checks every view against the state replayed from the event
/// stream. Attach [`ViewOracle::observer`] to the simulation and run it
/// under [`ViewOracle::wrap`]ped scheduler; read the result with
/// [`ViewOracle::mismatches`].
pub struct ViewOracle {
    state: Arc<Mutex<Replayed>>,
}

/// Job state as the event stream tells it.
#[derive(Default)]
struct Replayed {
    /// `afterok` dependencies per job, from the workload.
    deps: HashMap<JobId, Vec<JobId>>,
    /// Submitted, neither started nor completed.
    queued: BTreeSet<JobId>,
    /// Started and not completed, with the nodes it holds.
    running: BTreeMap<JobId, BTreeSet<NodeId>>,
    /// Jobs that completed successfully.
    succeeded: BTreeSet<JobId>,
    /// Invocations compared so far.
    checked: u64,
    /// One line per invocation whose view disagreed with the stream.
    mismatches: Vec<String>,
}

impl Replayed {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::JobSubmitted { job, .. } => {
                self.queued.insert(*job);
            }
            SimEvent::JobStarted { job, nodes, .. } => {
                self.queued.remove(job);
                self.running.insert(*job, nodes.iter().copied().collect());
            }
            SimEvent::JobReconfigured {
                job,
                added,
                removed,
                ..
            } => {
                let nodes = self.running.entry(*job).or_default();
                for node in removed {
                    nodes.remove(node);
                }
                nodes.extend(added.iter().copied());
            }
            SimEvent::JobCompleted { job, outcome, .. } => {
                self.queued.remove(job);
                self.running.remove(job);
                if *outcome == Outcome::Completed {
                    self.succeeded.insert(*job);
                }
            }
            _ => {}
        }
    }

    /// Queued jobs whose dependencies all succeeded: the ones a view
    /// must list as pending.
    fn eligible(&self) -> BTreeSet<JobId> {
        self.queued
            .iter()
            .copied()
            .filter(|id| {
                self.deps
                    .get(id)
                    .is_none_or(|deps| deps.iter().all(|d| self.succeeded.contains(d)))
            })
            .collect()
    }

    fn check(&mut self, view: &SystemView, why: Invocation) {
        self.checked += 1;
        let mut pending = BTreeSet::new();
        let mut running = BTreeMap::new();
        for job in &view.jobs {
            match &job.state {
                JobState::Pending => {
                    pending.insert(job.id);
                }
                JobState::Running(info) => {
                    running.insert(job.id, info.nodes.iter().copied().collect::<BTreeSet<_>>());
                }
            }
        }
        let eligible = self.eligible();
        if pending != eligible {
            self.mismatches.push(format!(
                "t={} ({why}): view pending {pending:?}, stream pending {eligible:?}",
                view.now
            ));
        }
        if running != self.running {
            self.mismatches.push(format!(
                "t={} ({why}): view running {running:?}, stream running {:?}",
                view.now, self.running
            ));
        }
    }
}

fn lock(state: &Mutex<Replayed>) -> MutexGuard<'_, Replayed> {
    state
        .lock()
        .expect("view oracle state poisoned by a panicking run")
}

impl ViewOracle {
    /// An oracle for a run of `jobs`.
    pub fn new(jobs: &[JobSpec]) -> ViewOracle {
        let deps = jobs
            .iter()
            .filter(|j| !j.dependencies.is_empty())
            .map(|j| (j.id, j.dependencies.clone()))
            .collect();
        ViewOracle {
            state: Arc::new(Mutex::new(Replayed {
                deps,
                ..Replayed::default()
            })),
        }
    }

    /// The observer half: replays the event stream into the shared state.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(StreamHalf(Arc::clone(&self.state)))
    }

    /// The scheduler half: compares each view with the replayed state,
    /// then hands it to `inner` unchanged.
    pub fn wrap(&self, inner: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        Box::new(ViewHalf {
            state: Arc::clone(&self.state),
            inner,
        })
    }

    /// How many invocations were compared.
    pub fn checked(&self) -> u64 {
        lock(&self.state).checked
    }

    /// Every disagreement found, one line each (empty = the views match
    /// the stream).
    pub fn mismatches(&self) -> Vec<String> {
        lock(&self.state).mismatches.clone()
    }
}

struct StreamHalf(Arc<Mutex<Replayed>>);

impl Observer for StreamHalf {
    fn on_event(&mut self, event: &SimEvent) {
        lock(&self.0).on_event(event);
    }
}

struct ViewHalf {
    state: Arc<Mutex<Replayed>>,
    inner: Box<dyn Scheduler>,
}

impl Scheduler for ViewHalf {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SystemView, why: Invocation) -> Vec<Decision> {
        lock(&self.state).check(view, why);
        self.inner.schedule(view, why)
    }
}
