//! Pure validation of scheduler decisions against engine state.
//!
//! Validation must be interleaved with application: a `Start` can complete
//! instantly (zero-work application) and free its nodes for the *next*
//! decision in the same batch, so each decision is checked against the
//! live job table and free set, not a snapshot. These functions hold the
//! rules; the engine applies the state changes. Every rejection is a
//! human-readable reason that becomes a
//! [`crate::observe::SimEvent::DecisionRejected`] event.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use elastisim_platform::NodeId;
use elastisim_workload::JobId;

use crate::lifecycle::{JobRuntime, RunState};
use crate::stats::Outcome;

/// All `afterok` dependencies of a job completed successfully.
pub(crate) fn deps_satisfied(rt: &JobRuntime, outcomes: &HashMap<JobId, (Outcome, f64)>) -> bool {
    rt.spec
        .dependencies
        .iter()
        .all(|dep| matches!(outcomes.get(dep), Some((Outcome::Completed, _))))
}

/// Read-only engine state a decision is validated against.
pub(crate) struct DecisionCtx<'a> {
    pub jobs: &'a BTreeMap<JobId, JobRuntime>,
    pub free: &'a BTreeSet<NodeId>,
    pub outcomes: &'a HashMap<JobId, (Outcome, f64)>,
    pub now: f64,
}

/// What a valid `Kill` decision targets.
#[derive(Debug)]
pub(crate) enum KillTarget {
    /// A queued job: remove it without touching allocations.
    Pending,
    /// A running (or reconfiguring) job: full termination.
    Active,
}

impl DecisionCtx<'_> {
    /// Validates a `Start`; returns the de-duplicated node set to allocate.
    pub(crate) fn validate_start(
        &self,
        id: JobId,
        nodes: &[NodeId],
    ) -> Result<BTreeSet<NodeId>, String> {
        let rt = self
            .jobs
            .get(&id)
            .ok_or_else(|| format!("start: unknown job {id}"))?;
        if rt.state != RunState::Pending {
            return Err(format!("start: {id} is not pending"));
        }
        if rt.spec.submit_time > self.now {
            return Err(format!("start: {id} not submitted yet"));
        }
        if !deps_satisfied(rt, self.outcomes) {
            return Err(format!("start: {id} has unmet dependencies"));
        }
        let n = nodes.len();
        if n < rt.spec.min_nodes as usize || n > rt.spec.max_nodes as usize {
            return Err(format!(
                "start: {id} given {n} nodes outside [{}, {}]",
                rt.spec.min_nodes, rt.spec.max_nodes
            ));
        }
        if let Some(fixed) = rt.spec.user_fixed_start() {
            if n != fixed as usize {
                return Err(format!(
                    "start: {id} requires exactly {fixed} nodes, given {n}"
                ));
            }
        }
        let unique: BTreeSet<NodeId> = nodes.iter().copied().collect();
        if unique.len() != n {
            return Err(format!("start: {id} given duplicate nodes"));
        }
        if !unique.iter().all(|node| self.free.contains(node)) {
            return Err(format!("start: {id} given non-free nodes"));
        }
        Ok(unique)
    }

    /// Validates a `Reconfigure`; returns the nodes *added* to the
    /// allocation (the ones the engine must reserve).
    pub(crate) fn validate_reconfigure(
        &self,
        id: JobId,
        nodes: &[NodeId],
    ) -> Result<Vec<NodeId>, String> {
        let rt = self
            .jobs
            .get(&id)
            .ok_or_else(|| format!("reconfigure: unknown job {id}"))?;
        if rt.state != RunState::Running {
            return Err(format!("reconfigure: {id} is not running"));
        }
        if !rt.spec.class.is_elastic() {
            return Err(format!(
                "reconfigure: {id} is {} (not elastic)",
                rt.spec.class
            ));
        }
        if rt.pending_reconfig.is_some() {
            return Err(format!("reconfigure: {id} already has one pending"));
        }
        let n = nodes.len();
        if n < rt.spec.min_nodes as usize || n > rt.spec.max_nodes as usize {
            return Err(format!(
                "reconfigure: {id} target {n} outside [{}, {}]",
                rt.spec.min_nodes, rt.spec.max_nodes
            ));
        }
        let unique: BTreeSet<NodeId> = nodes.iter().copied().collect();
        if unique.len() != n {
            return Err(format!("reconfigure: {id} given duplicate nodes"));
        }
        let old: BTreeSet<NodeId> = rt.alloc.iter().copied().collect();
        let added: Vec<NodeId> = unique.difference(&old).copied().collect();
        if !added.iter().all(|node| self.free.contains(node)) {
            return Err(format!("reconfigure: {id} expansion nodes not free"));
        }
        Ok(added)
    }

    /// Validates a `Kill`; says whether the victim is queued or active.
    pub(crate) fn validate_kill(&self, id: JobId) -> Result<KillTarget, String> {
        let rt = self
            .jobs
            .get(&id)
            .ok_or_else(|| format!("kill: unknown job {id}"))?;
        match rt.state {
            RunState::Done => Err(format!("kill: {id} already done")),
            RunState::Pending if rt.spec.submit_time > self.now => {
                Err(format!("kill: {id} not submitted yet"))
            }
            RunState::Pending => Ok(KillTarget::Pending),
            RunState::Running | RunState::Reconfiguring => Ok(KillTarget::Active),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisim_workload::{ApplicationModel, JobSpec, Phase};

    fn table(specs: Vec<JobSpec>) -> BTreeMap<JobId, JobRuntime> {
        specs
            .into_iter()
            .map(|s| (s.id, JobRuntime::new(s)))
            .collect()
    }

    fn rigid(id: u64, nodes: u32) -> JobSpec {
        JobSpec::rigid(
            id,
            0.0,
            nodes,
            ApplicationModel::new(vec![Phase::once("p", vec![])]),
        )
    }

    #[test]
    fn start_validation_rejects_in_documented_order() {
        let jobs = table(vec![rigid(1, 2)]);
        let free: BTreeSet<NodeId> = [NodeId(0)].into();
        let outcomes = HashMap::new();
        let ctx = DecisionCtx {
            jobs: &jobs,
            free: &free,
            outcomes: &outcomes,
            now: 0.0,
        };
        let err = ctx.validate_start(JobId(9), &[]).unwrap_err();
        assert!(err.contains("unknown job"), "{err}");
        let err = ctx.validate_start(JobId(1), &[NodeId(0)]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = ctx
            .validate_start(JobId(1), &[NodeId(0), NodeId(7)])
            .unwrap_err();
        assert!(err.contains("non-free"), "{err}");
    }

    #[test]
    fn start_accepts_and_dedups() {
        let jobs = table(vec![rigid(1, 2)]);
        let free: BTreeSet<NodeId> = [NodeId(0), NodeId(1)].into();
        let outcomes = HashMap::new();
        let ctx = DecisionCtx {
            jobs: &jobs,
            free: &free,
            outcomes: &outcomes,
            now: 0.0,
        };
        let unique = ctx
            .validate_start(JobId(1), &[NodeId(1), NodeId(0)])
            .unwrap();
        assert_eq!(unique.len(), 2);
        let err = ctx
            .validate_start(JobId(1), &[NodeId(0), NodeId(0)])
            .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn kill_distinguishes_pending_from_done() {
        let mut later = rigid(4, 1);
        later.submit_time = 5.0;
        let mut jobs = table(vec![rigid(1, 1), rigid(2, 1), later]);
        jobs.get_mut(&JobId(2)).unwrap().state = RunState::Done;
        let free = BTreeSet::new();
        let outcomes = HashMap::new();
        let ctx = DecisionCtx {
            jobs: &jobs,
            free: &free,
            outcomes: &outcomes,
            now: 0.0,
        };
        assert!(matches!(
            ctx.validate_kill(JobId(1)),
            Ok(KillTarget::Pending)
        ));
        assert!(ctx.validate_kill(JobId(2)).unwrap_err().contains("done"));
        assert!(ctx.validate_kill(JobId(3)).unwrap_err().contains("unknown"));
        let err = ctx.validate_kill(JobId(4)).unwrap_err();
        assert!(err.contains("not submitted"), "{err}");
    }

    #[test]
    fn reconfigure_requires_running_elastic_job() {
        let jobs = table(vec![rigid(1, 1)]);
        let free = BTreeSet::new();
        let outcomes = HashMap::new();
        let ctx = DecisionCtx {
            jobs: &jobs,
            free: &free,
            outcomes: &outcomes,
            now: 0.0,
        };
        let err = ctx
            .validate_reconfigure(JobId(1), &[NodeId(0)])
            .unwrap_err();
        assert!(err.contains("not running"), "{err}");
    }
}
