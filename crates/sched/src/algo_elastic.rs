//! The elastic scheduling algorithm: EASY base + malleable resizing +
//! evolving-request handling.

use crate::algo_easy::{EasyBackfilling, SizingPolicy};
use crate::api::{Decision, Invocation, Scheduler, SystemView};
use crate::node_selection::NodeSet;
use elastisim_workload::JobClass;

/// Minimum relative growth (added / current nodes) for an expansion to be
/// worth its reconfiguration cost: `0.25` suppresses +1-node expansions of
/// a 16-node job.
const MIN_EXPAND_GAIN: f64 = 0.25;

/// The malleable-aware policy the elasticity experiments showcase.
///
/// Decision order within one invocation:
///
/// 1. **Evolving requests** — grant pending application-initiated resize
///    requests (shrinks always; grows when enough free nodes exist).
/// 2. **Starts** — run the EASY backfilling pass over the queue.
/// 3. **Shrink-to-start** — if the queue head still cannot start, shrink
///    running malleable jobs (largest allocation first, down to their
///    minimum) so the head fits at an upcoming scheduling point.
/// 4. **Expand-to-fill** — hand remaining free nodes to running malleable
///    jobs (smallest allocation first, up to their maximum), keeping
///    utilization flat.
///
/// Starts use equal-share sizing: expand-to-fill grows jobs afterwards, so
/// starting small keeps the queue moving without oscillation.
#[derive(Debug, Clone)]
pub struct ElasticScheduler {
    base: EasyBackfilling,
}

impl Default for ElasticScheduler {
    fn default() -> Self {
        ElasticScheduler {
            base: EasyBackfilling::with_sizing(SizingPolicy::EqualShare),
        }
    }
}

impl ElasticScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for ElasticScheduler {
    fn name(&self) -> &'static str {
        "elastic"
    }

    fn schedule(&mut self, view: &SystemView, why: Invocation) -> Vec<Decision> {
        let mut free = NodeSet::new(&view.free_nodes);
        let mut out = Vec::new();

        // --- 1. Evolving requests -------------------------------------
        for job in view.running() {
            let Some(info) = job.run_info() else { continue };
            if info.reconfig_pending {
                continue;
            }
            let Some(want) = job.evolving_request else {
                continue;
            };
            let want = want as usize;
            let have = info.nodes.len();
            if want < have {
                // Shrink: keep the lowest-id prefix; tail becomes free at
                // the job's next scheduling point.
                out.push(Decision::Reconfigure {
                    job: job.id,
                    nodes: info.nodes[..want].to_vec(),
                });
            } else if want > have {
                if let Some(extra) = free.take(want - have) {
                    let mut nodes = info.nodes.clone();
                    nodes.extend(extra);
                    out.push(Decision::Reconfigure { job: job.id, nodes });
                }
                // else: not enough free nodes; the request stays pending
                // and is retried at the next invocation.
            }
        }

        // --- 2. Starts (EASY pass on the remaining free pool) ----------
        let mut easy_view = view.clone();
        easy_view.free_nodes = {
            // NodeSet has no inspect-all; rebuild from what's left.
            let n = free.available();
            let taken = free.take(n).expect("taking all");
            free.give_back(&taken);
            taken
        };
        let start_decisions = self.base.schedule(&easy_view, why);
        for d in &start_decisions {
            if let Decision::Start { nodes, .. } = d {
                // Remove from our pool what EASY handed out.
                let mut remaining = Vec::new();
                let n_all = free.available();
                let all = free.take(n_all).expect("taking all");
                for node in all {
                    if !nodes.contains(&node) {
                        remaining.push(node);
                    }
                }
                free.give_back(&remaining);
            }
        }
        let started: Vec<_> = start_decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Start { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        out.extend(start_decisions);

        // --- 3. Shrink-to-start ----------------------------------------
        let queue: Vec<_> = view
            .queue()
            .into_iter()
            .filter(|j| !started.contains(&j.id))
            .collect();
        if !queue.is_empty() {
            // Free enough for the whole queue's minimum demand (not
            // just the head): draining a burst with one bulk shrink
            // beats one shrink-per-start cycles.
            let needed: usize = queue.iter().map(|j| j.min_start_size()).sum();
            let needed = needed.min(view.total_nodes);
            let mut will_free = free.available();
            if will_free < needed {
                // Shrink malleable jobs, largest allocation first.
                let mut candidates: Vec<_> = view
                    .running()
                    .filter(|j| j.class == JobClass::Malleable)
                    .filter_map(|j| j.run_info().map(|i| (j, i)))
                    .filter(|(j, i)| {
                        !i.reconfig_pending
                            && i.nodes.len() > j.min_nodes as usize
                            && j.evolving_request.is_none()
                    })
                    .collect();
                candidates.sort_by_key(|(j, i)| (std::cmp::Reverse(i.nodes.len()), j.id));
                for (job, info) in candidates {
                    if will_free >= needed {
                        break;
                    }
                    let releasable = info.nodes.len() - job.min_nodes as usize;
                    let take = releasable.min(needed - will_free);
                    let keep = info.nodes.len() - take;
                    out.push(Decision::Reconfigure {
                        job: job.id,
                        nodes: info.nodes[..keep].to_vec(),
                    });
                    will_free += take;
                }
            }
        }

        // --- 4. Expand-to-fill ------------------------------------------
        // Only when nobody is waiting: an expansion would otherwise steal
        // the nodes the queue head is waiting for.
        if queue.is_empty() {
            let mut growers: Vec<_> = view
                .running()
                .filter(|j| j.class == JobClass::Malleable)
                .filter_map(|j| j.run_info().map(|i| (j, i)))
                .filter(|(j, i)| {
                    !i.reconfig_pending
                        && i.nodes.len() < j.max_nodes as usize
                        && j.evolving_request.is_none()
                        && !out
                            .iter()
                            .any(|d| matches!(d, Decision::Reconfigure { job, .. } if *job == j.id))
                })
                .collect();
            // Smallest first: equalizes allocations across malleable jobs.
            growers.sort_by_key(|(j, i)| (i.nodes.len(), j.id));
            let mut grants: Vec<(usize, usize)> = growers
                .iter()
                .map(|(_, i)| (i.nodes.len(), i.nodes.len()))
                .collect();
            // Round-robin single-node grants until the pool dries up or
            // everyone is at max.
            let mut progressed = true;
            let mut budget = free.available();
            while budget > 0 && progressed {
                progressed = false;
                for (gi, (job, _)) in growers.iter().enumerate() {
                    if budget == 0 {
                        break;
                    }
                    if grants[gi].1 < job.max_nodes as usize {
                        grants[gi].1 += 1;
                        budget -= 1;
                        progressed = true;
                    }
                }
            }
            for (gi, (job, info)) in growers.iter().enumerate() {
                let (had, now) = grants[gi];
                let gain_ok = had == 0 || (now - had) as f64 / had as f64 >= MIN_EXPAND_GAIN;
                if now > had && gain_ok {
                    let extra = free.take(now - had).expect("budget accounted");
                    let mut nodes = info.nodes.clone();
                    nodes.extend(extra);
                    out.push(Decision::Reconfigure { job: job.id, nodes });
                }
            }
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{JobRunInfo, JobState, JobView};
    use elastisim_platform::NodeId;
    use elastisim_workload::JobId;

    fn pending_rigid(id: u64, submit: f64, size: u32) -> JobView {
        JobView {
            id: JobId(id),
            class: JobClass::Rigid,
            state: JobState::Pending,
            submit_time: submit,
            min_nodes: size,
            max_nodes: size,
            walltime: Some(1000.0),
            evolving_request: None,
            fixed_start: Some(size),
        }
    }

    fn running_malleable(id: u64, nodes: &[u32], min: u32, max: u32) -> JobView {
        JobView {
            id: JobId(id),
            class: JobClass::Malleable,
            state: JobState::Running(JobRunInfo {
                nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
                start_time: 0.0,
                reconfig_pending: false,
                progress: 0.1,
            }),
            submit_time: 0.0,
            min_nodes: min,
            max_nodes: max,
            walltime: Some(1000.0),
            evolving_request: None,
            fixed_start: None,
        }
    }

    fn running_evolving(id: u64, nodes: &[u32], min: u32, max: u32, want: u32) -> JobView {
        JobView {
            id: JobId(id),
            class: JobClass::Evolving,
            state: JobState::Running(JobRunInfo {
                nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
                start_time: 0.0,
                reconfig_pending: false,
                progress: 0.1,
            }),
            submit_time: 0.0,
            min_nodes: min,
            max_nodes: max,
            walltime: None,
            evolving_request: Some(want),
            fixed_start: Some(nodes.len() as u32),
        }
    }

    fn view(total: u32, free: &[u32], jobs: Vec<JobView>) -> SystemView {
        SystemView {
            now: 0.0,
            total_nodes: total as usize,
            free_nodes: free.iter().map(|&n| NodeId(n)).collect(),
            jobs,
        }
    }

    fn reconfigs(d: &[Decision]) -> Vec<(u64, usize)> {
        d.iter()
            .filter_map(|d| match d {
                Decision::Reconfigure { job, nodes } => Some((job.0, nodes.len())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn expands_malleable_into_idle_nodes() {
        let v = view(
            8,
            &[4, 5, 6, 7],
            vec![
                running_malleable(1, &[0, 1], 1, 8),
                running_malleable(2, &[2, 3], 1, 4),
            ],
        );
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        let r = reconfigs(&d);
        // 4 free nodes split between the two jobs (round-robin from the
        // smaller): both get 2 → sizes 4 and 4.
        assert_eq!(r.len(), 2);
        let total_after: usize = r.iter().map(|(_, n)| n).sum();
        assert_eq!(total_after, 8, "all idle nodes absorbed");
    }

    #[test]
    fn expansion_respects_max_nodes() {
        let v = view(
            8,
            &[4, 5, 6, 7],
            vec![running_malleable(1, &[0, 1, 2, 3], 1, 5)],
        );
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        assert_eq!(reconfigs(&d), vec![(1, 5)]);
    }

    #[test]
    fn no_expansion_while_queue_waits() {
        let v = view(
            8,
            &[6, 7],
            vec![
                running_malleable(1, &[0, 1, 2, 3, 4, 5], 2, 8),
                pending_rigid(2, 1.0, 4),
            ],
        );
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        // Queue head needs 4: 2 free → shrink job 1 by 2 (to 4 nodes).
        assert_eq!(reconfigs(&d), vec![(1, 4)]);
    }

    #[test]
    fn shrink_stops_at_min_nodes() {
        let v = view(
            8,
            &[],
            vec![
                running_malleable(1, &[0, 1, 2, 3], 3, 8),
                running_malleable(2, &[4, 5, 6, 7], 3, 8),
                pending_rigid(3, 1.0, 2),
            ],
        );
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        // Each malleable can release only 1; both shrink by 1.
        let r = reconfigs(&d);
        assert_eq!(r, vec![(1, 3), (2, 3)]);
    }

    #[test]
    fn evolving_shrink_granted_immediately() {
        let v = view(8, &[], vec![running_evolving(1, &[0, 1, 2, 3], 1, 8, 2)]);
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        assert_eq!(reconfigs(&d), vec![(1, 2)]);
    }

    #[test]
    fn evolving_grow_granted_when_free() {
        let v = view(
            8,
            &[4, 5, 6, 7],
            vec![running_evolving(1, &[0, 1], 1, 8, 5)],
        );
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        assert_eq!(reconfigs(&d), vec![(1, 5)]);
    }

    #[test]
    fn evolving_grow_deferred_when_full() {
        let v = view(
            4,
            &[],
            vec![
                running_evolving(1, &[0, 1], 1, 4, 4),
                running_malleable(2, &[2, 3], 2, 4),
            ],
        );
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        assert!(reconfigs(&d).is_empty(), "no free nodes → request deferred");
    }

    #[test]
    fn starts_still_happen() {
        let v = view(4, &[0, 1, 2, 3], vec![pending_rigid(1, 0.0, 2)]);
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        assert!(d
            .iter()
            .any(|d| matches!(d, Decision::Start { job: JobId(1), nodes } if nodes.len() == 2)));
    }

    #[test]
    fn started_nodes_not_reused_for_expansion() {
        let v = view(
            4,
            &[0, 1, 2, 3],
            vec![running_malleable(1, &[], 1, 4), pending_rigid(2, 0.0, 4)],
        );
        // Malleable with empty allocation is synthetic, but the start must
        // consume all nodes and leave nothing to expand into.
        let d = ElasticScheduler::new().schedule(&v, Invocation::Periodic);
        let mut allocated = std::collections::HashSet::new();
        for dec in &d {
            let nodes = match dec {
                Decision::Start { nodes, .. } => nodes,
                Decision::Reconfigure { nodes, .. } => nodes,
                _ => continue,
            };
            for n in nodes {
                assert!(allocated.insert(*n), "node {n:?} double-allocated");
            }
        }
    }
}
