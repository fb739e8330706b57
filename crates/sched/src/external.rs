//! External-process scheduler: JSON-lines over stdin/stdout.
//!
//! This restores the original ElastiSim deployment model in spirit: the
//! scheduling algorithm lives in its *own process* (any language), receives
//! one [`crate::protocol::Request`] JSON line per invocation on stdin, and
//! answers with one [`crate::protocol::Response`] line on stdout. The
//! engine enforces a per-request timeout and a per-line size cap: an
//! unresponsive or runaway scheduler is killed and the run fails with a
//! structured [`TransportError`] instead of hanging or buffering without
//! bound. Stderr is inherited, so external schedulers can log freely.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::api::{Decision, Invocation, SystemView};
use crate::protocol::{ProtocolError, Request, Response};

/// A structured failure talking to an external scheduler, surfaced
/// instead of hanging or silently dropping decisions.
#[derive(Debug)]
pub enum TransportError {
    /// Spawning or talking to the external process failed at the OS level.
    Io(std::io::Error),
    /// The external scheduler did not answer within the configured
    /// timeout; it has been killed.
    Timeout {
        /// The timeout that elapsed, seconds.
        secs: f64,
    },
    /// The external scheduler exited (or closed its stdout) mid-run.
    ChildExited {
        /// Exit status description, if the process could be reaped.
        status: String,
    },
    /// A protocol-level failure: version mismatch or malformed message.
    Protocol(ProtocolError),
    /// The response's sequence number did not match the request's.
    SeqMismatch {
        /// Sequence number we sent.
        sent: u64,
        /// Sequence number the peer echoed.
        got: u64,
    },
    /// A response line grew past [`ExternalProcess::MAX_RESPONSE_LINE`]
    /// bytes without a newline; the scheduler has been killed.
    ResponseTooLong {
        /// The cap that was exceeded, bytes.
        limit: usize,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "scheduler transport I/O error: {e}"),
            TransportError::Timeout { secs } => {
                write!(f, "external scheduler unresponsive for {secs} s; killed")
            }
            TransportError::ChildExited { status } => {
                write!(f, "external scheduler exited mid-run ({status})")
            }
            TransportError::Protocol(e) => write!(f, "{e}"),
            TransportError::SeqMismatch { sent, got } => {
                write!(f, "response out of sequence: sent seq {sent}, got {got}")
            }
            TransportError::ResponseTooLong { limit } => {
                write!(
                    f,
                    "external scheduler response line exceeds {limit} bytes; killed"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A scheduler running as a child process, spoken to over JSON lines.
#[derive(Debug)]
pub struct ExternalProcess {
    /// Command line, for reporting.
    cmd: Vec<String>,
    child: Child,
    stdin: std::process::ChildStdin,
    /// Lines read off the child's stdout by a background thread, at most
    /// one ahead of the engine; disconnection marks EOF.
    lines: mpsc::Receiver<Result<String, TransportError>>,
    timeout: Duration,
    seq: u64,
    /// Set once a fatal error occurred; further requests fail fast.
    dead: bool,
}

impl ExternalProcess {
    /// Default per-request timeout.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

    /// Longest response line accepted, bytes (newline excluded). A child
    /// that writes more without a newline is killed with
    /// [`TransportError::ResponseTooLong`].
    pub const MAX_RESPONSE_LINE: usize = 16 << 20;

    /// Spawns `cmd[0]` with arguments `cmd[1..]`, pipes attached. Fails if
    /// the command is empty or the process cannot start.
    pub fn spawn(cmd: &[String], timeout: Duration) -> Result<ExternalProcess, TransportError> {
        let (program, args) = cmd.split_first().ok_or_else(|| {
            TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "empty external scheduler command",
            ))
        })?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(TransportError::Io)?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        // One line in flight: the reader blocks (and so does a flooding
        // child) until the engine takes the previous line.
        let (tx, rx) = mpsc::sync_channel(1);
        std::thread::spawn(move || read_lines(stdout, tx));
        Ok(ExternalProcess {
            cmd: cmd.to_vec(),
            child,
            stdin,
            lines: rx,
            timeout,
            seq: 0,
            dead: false,
        })
    }

    /// Parses a shell-ish command string (whitespace-split, no quoting) and
    /// spawns it.
    pub fn spawn_command_line(
        line: &str,
        timeout: Duration,
    ) -> Result<ExternalProcess, TransportError> {
        let cmd: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        ExternalProcess::spawn(&cmd, timeout)
    }

    /// Kills the child and describes its exit status.
    fn kill_and_reap(&mut self) -> String {
        self.dead = true;
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("unreapable: {e}"),
        }
    }

    /// Name used in reports and traces: `external:` plus the command line.
    pub fn name(&self) -> String {
        format!("external:{}", self.cmd.join(" "))
    }

    /// Sends one invocation and returns the scheduler's decisions. Any
    /// failure kills the child, and later requests fail fast.
    pub fn request(
        &mut self,
        view: &SystemView,
        why: Invocation,
    ) -> Result<Vec<Decision>, TransportError> {
        if self.dead {
            return Err(TransportError::ChildExited {
                status: "already failed".into(),
            });
        }
        self.seq += 1;
        let mut line = Request::new(self.seq, why, view).to_json();
        line.push('\n');
        let sent = self
            .stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.flush());
        let reply = match sent {
            // A broken pipe means the child died; report that, not EPIPE.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(None),
            Err(e) => Err(Some(TransportError::Io(e))),
            Ok(()) => match self.lines.recv_timeout(self.timeout) {
                Ok(Ok(reply)) => {
                    Response::from_json(&reply).map_err(|e| Some(TransportError::Protocol(e)))
                }
                Ok(Err(e)) => Err(Some(e)),
                Err(mpsc::RecvTimeoutError::Timeout) => Err(Some(TransportError::Timeout {
                    secs: self.timeout.as_secs_f64(),
                })),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(None),
            },
        };
        let err = match reply {
            Ok(resp) if resp.seq == self.seq => return Ok(resp.decisions),
            Ok(resp) => Some(TransportError::SeqMismatch {
                sent: self.seq,
                got: resp.seq,
            }),
            Err(err) => err,
        };
        // `None`: the child is gone, and its exit status is the error.
        let status = self.kill_and_reap();
        Err(err.unwrap_or(TransportError::ChildExited { status }))
    }

    /// Kills and reaps the child. Called once when the simulation
    /// finishes; later requests fail fast.
    pub fn shutdown(&mut self) {
        if !self.dead {
            self.kill_and_reap();
        }
    }
}

/// Reads `\n`-terminated lines (a trailing `\r` is dropped) until EOF, the
/// first error, or the receiver hanging up. A line longer than
/// [`ExternalProcess::MAX_RESPONSE_LINE`] is an error, not an allocation.
fn read_lines(stdout: ChildStdout, tx: mpsc::SyncSender<Result<String, TransportError>>) {
    let limit = ExternalProcess::MAX_RESPONSE_LINE;
    let mut reader = BufReader::new(stdout);
    loop {
        let mut buf = Vec::new();
        let line = match (&mut reader)
            .take(limit as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) => return,
            Ok(_) if buf.len() > limit && buf.last() != Some(&b'\n') => {
                Err(TransportError::ResponseTooLong { limit })
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                }
                String::from_utf8(buf).map_err(|e| {
                    TransportError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
                })
            }
            Err(e) => Err(TransportError::Io(e)),
        };
        let failed = line.is_err();
        if tx.send(line).is_err() || failed {
            return;
        }
    }
}

impl Drop for ExternalProcess {
    fn drop(&mut self) {
        if !self.dead {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_command_is_rejected() {
        let err = ExternalProcess::spawn(&[], Duration::from_secs(1)).unwrap_err();
        assert!(err.to_string().contains("empty external scheduler"));
    }

    #[test]
    fn missing_binary_is_an_io_error() {
        let err = ExternalProcess::spawn_command_line(
            "/nonexistent/scheduler-binary --flag",
            Duration::from_secs(1),
        )
        .unwrap_err();
        assert!(matches!(err, TransportError::Io(_)));
    }

    /// `cat` echoes requests back verbatim: a request is not a valid
    /// response envelope only when the seq differs, but seq matches — so
    /// this exercises the malformed/shape path via the missing
    /// `decisions` field.
    #[test]
    fn echo_process_yields_protocol_error() {
        let Ok(mut t) = ExternalProcess::spawn_command_line("cat", Duration::from_secs(5)) else {
            return; // no `cat` on this system; nothing to test
        };
        let view = SystemView {
            now: 0.0,
            total_nodes: 1,
            free_nodes: vec![],
            jobs: vec![],
        };
        let err = t.request(&view, Invocation::Periodic).unwrap_err();
        assert!(
            matches!(err, TransportError::Protocol(_)),
            "unexpected: {err}"
        );
        // After a fatal error the transport stays dead.
        let err = t.request(&view, Invocation::Periodic).unwrap_err();
        assert!(matches!(err, TransportError::ChildExited { .. }));
    }

    #[test]
    fn silent_process_times_out_and_is_killed() {
        let Ok(mut t) = ExternalProcess::spawn_command_line("sleep 30", Duration::from_millis(200))
        else {
            return;
        };
        let view = SystemView {
            now: 0.0,
            total_nodes: 1,
            free_nodes: vec![],
            jobs: vec![],
        };
        let start = std::time::Instant::now();
        let err = t.request(&view, Invocation::Periodic).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_secs(10), "did not kill");
    }

    #[test]
    fn transport_errors_render() {
        let e = TransportError::Timeout { secs: 2.5 };
        assert!(e.to_string().contains("2.5"));
        let e = TransportError::SeqMismatch { sent: 3, got: 4 };
        assert!(e.to_string().contains("sent seq 3"));
        let e = TransportError::ResponseTooLong { limit: 16 };
        assert!(e.to_string().contains("exceeds 16 bytes"));
    }
}
