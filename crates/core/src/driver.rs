//! The scheduler driver: the engine's handle on the scheduling algorithm.
//!
//! `SchedulerDriver` owns the scheduler (an in-process trait object or an
//! [`ExternalProcess`]), counts invocations, and wraps external failures
//! into the structured [`SimError`] that ends a run. Decision
//! *validation* lives in the `decisions` module — it must be interleaved
//! with application against live engine state — and every rejection is
//! reported through the observer bus as a
//! [`crate::observe::SimEvent::DecisionRejected`] event.

use elastisim_sched::{
    Decision, ExternalProcess, Invocation, Scheduler, SystemView, TransportError,
};
use elastisim_telemetry::Telemetry;

/// A fatal error that ends a simulation run early.
#[derive(Debug)]
pub enum SimError {
    /// The external scheduler failed: the process was unresponsive
    /// (killed after the timeout), crashed, spoke an incompatible protocol
    /// version, or an I/O error occurred.
    Scheduler {
        /// Simulated time of the failing invocation.
        time: f64,
        /// The scheduler's name (for external ones, the command line).
        scheduler: String,
        /// The underlying transport failure.
        source: TransportError,
    },
    /// An observer failed to finish cleanly (e.g. an event-trace or
    /// Chrome-trace writer hit an I/O error): the simulation itself
    /// completed, but its requested outputs are incomplete.
    Observer {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Scheduler {
                time,
                scheduler,
                source,
            } => write!(f, "scheduler `{scheduler}` failed at t={time}: {source}"),
            SimError::Observer { message } => write!(f, "observer failed: {message}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Scheduler { source, .. } => Some(source),
            SimError::Observer { .. } => None,
        }
    }
}

/// Where the scheduling algorithm runs.
pub(crate) enum Backend {
    /// A trait object called with the borrowed view: nothing is copied or
    /// serialized.
    InProcess(Box<dyn Scheduler>),
    /// A child process spoken to in JSON lines.
    External(ExternalProcess),
}

/// Owns the scheduling algorithm and mediates every invocation the engine
/// makes.
pub(crate) struct SchedulerDriver {
    backend: Backend,
    invocations: u64,
    telemetry: Telemetry,
}

impl SchedulerDriver {
    pub(crate) fn new(backend: Backend) -> Self {
        SchedulerDriver {
            backend,
            invocations: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; each invocation's round-trip is timed
    /// into `sched.invoke.{in_process,external}_seconds`.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// How many times the scheduler has been invoked.
    pub(crate) fn invocations(&self) -> u64 {
        self.invocations
    }

    /// One invocation: sends the view, returns the decision batch, or a
    /// structured error if the external scheduler failed.
    pub(crate) fn invoke(
        &mut self,
        now: f64,
        view: &SystemView,
        why: Invocation,
    ) -> Result<Vec<Decision>, SimError> {
        self.invocations += 1;
        self.telemetry.counter_add("sched.invocations", 1);
        match &mut self.backend {
            Backend::InProcess(algorithm) => {
                let _span = self.telemetry.span("sched.invoke.in_process_seconds");
                Ok(algorithm.schedule(view, why))
            }
            Backend::External(process) => {
                let _span = self.telemetry.span("sched.invoke.external_seconds");
                process
                    .request(view, why)
                    .map_err(|source| SimError::Scheduler {
                        time: now,
                        scheduler: process.name(),
                        source,
                    })
            }
        }
    }

    /// Kills an external scheduler; a no-op in process.
    pub(crate) fn shutdown(&mut self) {
        if let Backend::External(process) = &mut self.backend {
            process.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisim_sched::FcfsScheduler;

    #[test]
    fn in_process_driver_invokes_and_counts() {
        let mut driver = SchedulerDriver::new(Backend::InProcess(Box::new(FcfsScheduler::new())));
        assert_eq!(driver.invocations(), 0);
        let view = SystemView {
            now: 0.0,
            total_nodes: 0,
            free_nodes: vec![],
            jobs: vec![],
        };
        let decisions = driver.invoke(0.0, &view, Invocation::Periodic).unwrap();
        assert!(decisions.is_empty());
        assert_eq!(driver.invocations(), 1);
        driver.shutdown();
    }
}
