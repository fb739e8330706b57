//! Simulation configuration.

/// Cost model for applying a malleable/evolving reconfiguration.
///
/// ElastiSim lets the platform attach a cost to resizing: the job pauses
/// while state is redistributed. [`SimConfig::default`] and every
/// `exp_*` binary use `Fixed(5.0)`; no experiment compares the models
/// (`--reconfig-cost` and the conformance corpus pick others).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReconfigCost {
    /// Resizing is instantaneous.
    Free,
    /// A fixed pause, seconds.
    Fixed(f64),
    /// Data redistribution: every node of the *new* allocation sends this
    /// many bytes through its `nic_up` and the backbone. Nodes removed by
    /// a shrink are freed before the transfer and send nothing, and no
    /// receiver's `nic_down` is charged (ROADMAP item 14(a) is the fix).
    DataVolume {
        /// Bytes per participating node.
        bytes_per_node: f64,
    },
}

/// Node-failure injection: nodes fail at exponentially distributed times
/// (cluster-wide rate = nodes / MTBF), killing whatever runs on them, and
/// return to service after `repair_time`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureModel {
    /// Mean time between failures of a *single node*, seconds.
    pub node_mtbf: f64,
    /// Downtime per failure, seconds.
    pub repair_time: f64,
    /// Seed of the failure process (independent of workload seeds).
    pub seed: u64,
}

impl FailureModel {
    /// A failure model with the given per-node MTBF and one-hour repairs.
    pub fn with_mtbf(node_mtbf: f64) -> Self {
        assert!(node_mtbf > 0.0);
        FailureModel {
            node_mtbf,
            repair_time: 3600.0,
            seed: 0x5EED,
        }
    }
}

/// Knobs of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Period of the scheduler's timer-driven invocation, seconds.
    pub scheduling_interval: f64,
    /// Invoke the scheduler when a job is submitted.
    pub invoke_on_submit: bool,
    /// Invoke the scheduler when a job completes.
    pub invoke_on_completion: bool,
    /// Invoke the scheduler when an evolving job requests resources.
    pub invoke_on_evolving_request: bool,
    /// Invoke the scheduler at every job scheduling point (expensive;
    /// mirrors ElastiSim's optional fine-grained invocation).
    pub invoke_on_scheduling_point: bool,
    /// Invoke the scheduler when an applied reconfiguration released
    /// nodes, so freed capacity is handed out without waiting for the next
    /// periodic tick (the "resources released" invocation point).
    pub invoke_on_release: bool,
    /// Cost of applying a reconfiguration.
    pub reconfig_cost: ReconfigCost,
    /// Record per-job node assignment intervals (Gantt trace). Costs
    /// memory on large runs.
    pub record_gantt: bool,
    /// Optional node-failure injection.
    pub failures: Option<FailureModel>,
    /// Emit a progress heartbeat to stderr every this many *wall-clock*
    /// seconds (sim-time, %jobs done, events/sec). `None` = silent.
    /// Output goes to stderr only and never affects simulation results.
    pub progress: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheduling_interval: 60.0,
            invoke_on_submit: true,
            invoke_on_completion: true,
            invoke_on_evolving_request: true,
            invoke_on_scheduling_point: false,
            invoke_on_release: true,
            reconfig_cost: ReconfigCost::Fixed(5.0),
            record_gantt: true,
            failures: None,
            progress: None,
        }
    }
}

impl SimConfig {
    /// Sets the scheduling interval.
    pub fn with_interval(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.scheduling_interval = seconds;
        self
    }

    /// Sets the reconfiguration cost model.
    pub fn with_reconfig_cost(mut self, cost: ReconfigCost) -> Self {
        self.reconfig_cost = cost;
        self
    }

    /// Disables the Gantt trace (large sweeps).
    pub fn without_gantt(mut self) -> Self {
        self.record_gantt = false;
        self
    }

    /// Enables node-failure injection.
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Enables the stderr progress heartbeat, every `seconds` of wall
    /// clock.
    pub fn with_progress(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.progress = Some(seconds);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = SimConfig::default();
        assert!(c.scheduling_interval > 0.0);
        assert!(c.invoke_on_submit);
    }

    #[test]
    fn builders() {
        let c = SimConfig::default()
            .with_interval(10.0)
            .with_reconfig_cost(ReconfigCost::Free)
            .without_gantt();
        assert_eq!(c.scheduling_interval, 10.0);
        assert_eq!(c.reconfig_cost, ReconfigCost::Free);
        assert!(!c.record_gantt);
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        SimConfig::default().with_interval(0.0);
    }
}
