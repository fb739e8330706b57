//! Conservative backfilling.

use crate::api::{Decision, Invocation, Scheduler, SystemView};
use crate::node_selection::NodeSet;

/// Conservative backfilling: like EASY, but *every* queued job gets a
/// reservation, and a job may only backfill if it delays none of them.
///
/// Implemented via profile simulation: build the future availability
/// profile from running jobs' walltime estimates, give each queued job (in
/// order) the earliest start that fits the profile, and start the jobs
/// whose planned start is "now". Jobs without walltime estimates occupy
/// their nodes forever in the profile, which makes the policy maximally
/// conservative around them.
#[derive(Default, Debug, Clone)]
pub struct ConservativeBackfilling;

impl ConservativeBackfilling {
    /// Creates the scheduler.
    pub fn new() -> Self {
        ConservativeBackfilling
    }
}

/// A step in the availability profile: from `time` onward, `free` nodes
/// are free (until the next step).
#[derive(Clone, Copy, Debug)]
struct ProfileStep {
    time: f64,
    free: usize,
}

/// Inserts a job into the profile: finds the earliest `start ≥ now` such
/// that `size` nodes are free during `[start, start + walltime)`, then
/// subtracts them. Returns the planned start.
fn place(profile: &mut Vec<ProfileStep>, now: f64, size: usize, walltime: f64) -> f64 {
    // Candidate starts are profile step times.
    let mut idx = 0;
    loop {
        debug_assert!(idx < profile.len());
        let start = profile[idx].time.max(now);
        let end = start + walltime;
        // Check capacity over [start, end): every step overlapping it has
        // `free ≥ size`. A step overlaps if step.time < end and the next
        // step's time > start.
        let mut fits = true;
        for (i, s) in profile.iter().enumerate() {
            let next_t = profile.get(i + 1).map(|n| n.time).unwrap_or(f64::INFINITY);
            if s.time < end && next_t > start && s.free < size {
                fits = false;
                break;
            }
        }
        if fits {
            // Subtract capacity over [start, end): split steps at the
            // boundaries first.
            split_at(profile, start);
            if end.is_finite() {
                split_at(profile, end);
            }
            for s in profile.iter_mut() {
                if s.time >= start && (s.time < end) {
                    s.free -= size;
                }
            }
            return start;
        }
        idx += 1;
        if idx >= profile.len() {
            // Should not happen: the tail step always has full capacity of
            // whatever frees up eventually; bail out with "never".
            return f64::INFINITY;
        }
    }
}

fn split_at(profile: &mut Vec<ProfileStep>, t: f64) {
    if !t.is_finite() {
        return;
    }
    match profile.binary_search_by(|s| s.time.partial_cmp(&t).unwrap()) {
        Ok(_) => {}
        Err(pos) => {
            debug_assert!(pos > 0, "profile must start at now");
            let free = profile[pos - 1].free;
            profile.insert(pos, ProfileStep { time: t, free });
        }
    }
}

impl Scheduler for ConservativeBackfilling {
    fn name(&self) -> &'static str {
        "conservative-backfilling"
    }

    fn schedule(&mut self, view: &SystemView, _why: Invocation) -> Vec<Decision> {
        // Build the availability profile from running jobs.
        let mut events: Vec<(f64, usize)> = view
            .running()
            .filter_map(|j| {
                let info = j.run_info()?;
                let end = j.walltime.map(|w| info.start_time + w)?;
                Some((end, info.nodes.len()))
            })
            .collect();
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

        let mut profile = vec![ProfileStep {
            time: view.now,
            free: view.free_nodes.len(),
        }];
        for (end, nodes) in events {
            let last_free = profile.last().unwrap().free;
            if end > profile.last().unwrap().time {
                profile.push(ProfileStep {
                    time: end,
                    free: last_free + nodes,
                });
            } else {
                profile.last_mut().unwrap().free += nodes;
            }
        }
        // Note: jobs without walltime never appear, so their nodes stay
        // missing from every step — conservative, as documented.

        let mut free = NodeSet::new(&view.free_nodes);
        let mut out = Vec::new();
        for job in view.queue() {
            let size = job.min_start_size();
            let walltime = job.walltime.unwrap_or(f64::INFINITY);
            let start = place(&mut profile, view.now, size, walltime);
            if start <= view.now && free.available() >= size {
                let nodes = free.take(size).expect("profile said it fits");
                out.push(Decision::Start { job: job.id, nodes });
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
    use elastisim_workload::{JobClass, JobId};

    fn pending(id: u64, submit: f64, size: u32, walltime: Option<f64>) -> JobView {
        JobView {
            id: JobId(id),
            class: JobClass::Rigid,
            state: JobState::Pending,
            submit_time: submit,
            min_nodes: size,
            max_nodes: size,
            walltime,
            evolving_request: None,
            fixed_start: Some(size),
        }
    }

    fn running(id: u64, nodes: &[u32], start: f64, walltime: Option<f64>) -> JobView {
        JobView {
            id: JobId(id),
            class: JobClass::Rigid,
            state: JobState::Running(JobRunInfo {
                nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
                start_time: start,
                reconfig_pending: false,
                progress: 0.0,
            }),
            submit_time: 0.0,
            min_nodes: nodes.len() as u32,
            max_nodes: nodes.len() as u32,
            walltime,
            evolving_request: None,
            fixed_start: Some(nodes.len() as u32),
        }
    }

    fn started(d: &[Decision]) -> Vec<u64> {
        d.iter()
            .filter_map(|d| match d {
                Decision::Start { job, .. } => Some(job.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn starts_fcfs_when_everything_fits() {
        let v = SystemView {
            now: 0.0,
            total_nodes: 8,
            free_nodes: (0..8).map(NodeId).collect(),
            jobs: vec![
                pending(1, 0.0, 4, Some(100.0)),
                pending(2, 1.0, 4, Some(100.0)),
            ],
        };
        let d = ConservativeBackfilling::new().schedule(&v, Invocation::Periodic);
        assert_eq!(started(&d), vec![1, 2]);
    }

    #[test]
    fn backfills_job_that_delays_nobody() {
        // 4 nodes: j10 holds all 4 until t=100. j1 (4 nodes, reserved at
        // t=100). j2 (2 nodes, 50 s) — would be planned *after* j1 in the
        // profile... and there are no free nodes now anyway: no starts.
        let v = SystemView {
            now: 0.0,
            total_nodes: 4,
            free_nodes: vec![],
            jobs: vec![
                running(10, &[0, 1, 2, 3], 0.0, Some(100.0)),
                pending(1, 1.0, 4, Some(100.0)),
                pending(2, 2.0, 2, Some(50.0)),
            ],
        };
        let d = ConservativeBackfilling::new().schedule(&v, Invocation::Periodic);
        assert!(started(&d).is_empty());
    }

    #[test]
    fn backfill_on_free_nodes_without_delaying_reservations() {
        // 8 nodes: j10 holds 4 until t=100; 4 free. j1 needs 6 → reserved
        // at t=100. j2 (2 nodes, 50 s) fits now and ends at t=50 < 100 →
        // delays nobody → backfills.
        let v = SystemView {
            now: 0.0,
            total_nodes: 8,
            free_nodes: (4..8).map(NodeId).collect(),
            jobs: vec![
                running(10, &[0, 1, 2, 3], 0.0, Some(100.0)),
                pending(1, 1.0, 6, Some(100.0)),
                pending(2, 2.0, 2, Some(50.0)),
            ],
        };
        let d = ConservativeBackfilling::new().schedule(&v, Invocation::Periodic);
        assert_eq!(started(&d), vec![2]);
    }

    #[test]
    fn long_backfill_that_would_delay_second_reservation_is_blocked() {
        // Same as above but j2 runs 200 s: at t=100, j1's reservation
        // needs 6 nodes; j2 would still hold 2 of the 8 → only 6 free —
        // exactly enough. So j2 CAN backfill (uses the spare pair).
        // Make it need 3 nodes: then at t=100 only 5 free < 6 → blocked.
        let v = SystemView {
            now: 0.0,
            total_nodes: 8,
            free_nodes: (4..8).map(NodeId).collect(),
            jobs: vec![
                running(10, &[0, 1, 2, 3], 0.0, Some(100.0)),
                pending(1, 1.0, 6, Some(100.0)),
                pending(2, 2.0, 3, Some(200.0)),
            ],
        };
        let d = ConservativeBackfilling::new().schedule(&v, Invocation::Periodic);
        assert!(started(&d).is_empty(), "got {:?}", started(&d));
    }

    #[test]
    fn chain_of_reservations_is_respected() {
        // 4 nodes free. j1 (4 nodes, 100 s) starts now. j2 (4 nodes,
        // 100 s) reserved at t=100. j3 (1 node, 99 s): no nodes free after
        // j1 starts → cannot start now regardless of profile.
        let v = SystemView {
            now: 0.0,
            total_nodes: 4,
            free_nodes: (0..4).map(NodeId).collect(),
            jobs: vec![
                pending(1, 0.0, 4, Some(100.0)),
                pending(2, 1.0, 4, Some(100.0)),
                pending(3, 2.0, 1, Some(99.0)),
            ],
        };
        let d = ConservativeBackfilling::new().schedule(&v, Invocation::Periodic);
        assert_eq!(started(&d), vec![1]);
    }

    #[test]
    fn no_walltime_job_is_conservative_blocker() {
        // j10 has no walltime: its 2 nodes never free up in the profile,
        // so j1 (4 nodes) can never be placed and j2 must not start if it
        // would use nodes j1 could get... j1's reservation is at infinity;
        // j2 (1 node, any length) fits the 2 free nodes forever → starts.
        let v = SystemView {
            now: 0.0,
            total_nodes: 4,
            free_nodes: vec![NodeId(2), NodeId(3)],
            jobs: vec![
                running(10, &[0, 1], 0.0, None),
                pending(1, 1.0, 4, Some(100.0)),
                pending(2, 2.0, 1, None),
            ],
        };
        let d = ConservativeBackfilling::new().schedule(&v, Invocation::Periodic);
        assert_eq!(started(&d), vec![2]);
    }
}
