//! A reference external scheduler speaking the wire protocol.
//!
//! Reads one JSON [`Request`] per line on stdin, answers one [`Response`]
//! per line on stdout, and delegates the actual policy to an in-process
//! registry scheduler — `fcfs` unless `--scheduler=NAME` picks another —
//! so a run through this process must be byte-identical to the same
//! scheduler run in process (asserted by `tests/external_scheduler.rs`).
//!
//! Failure-injection modes for testing the engine's error handling:
//!
//! * `--bad-version` — replies with an incompatible protocol version
//! * `--hang`        — reads the request, then never answers
//! * `--crash`       — reads the request, then exits with status 3
//! * `--garbage`     — replies with a line that is not a protocol message
//! * `--oversized`   — reads the request, then writes bytes without a
//!   newline until the engine kills it

use std::io::{self, BufRead, Write};

use elastisim_sched::by_name;
use elastisim_sched::protocol::{Request, Response, PROTOCOL_VERSION};

fn main() {
    let mut mode = String::new();
    let mut scheduler = by_name("fcfs").expect("fcfs is registered");
    for arg in std::env::args().skip(1) {
        match arg.strip_prefix("--scheduler=") {
            Some(name) => {
                scheduler = by_name(name).unwrap_or_else(|| panic!("unknown scheduler `{name}`"))
            }
            None => mode = arg,
        }
    }
    let stdin = io::stdin();
    let mut out = io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.expect("reading request line");
        if line.trim().is_empty() {
            continue;
        }
        let req = Request::from_json(&line).unwrap_or_else(|e| panic!("bad request: {e}"));
        match mode.as_str() {
            "--hang" => loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
            "--crash" => std::process::exit(3),
            "--oversized" => {
                let chunk = [b'x'; 1 << 16];
                while out.write_all(&chunk).is_ok() {}
                std::process::exit(4);
            }
            "--garbage" => {
                writeln!(out, "this is not a protocol message").expect("writing response");
                out.flush().expect("flushing response");
            }
            "--bad-version" => {
                let mut resp = Response::new(req.seq, Vec::new());
                resp.protocol = PROTOCOL_VERSION + 1;
                writeln!(out, "{}", resp.to_json()).expect("writing response");
                out.flush().expect("flushing response");
            }
            _ => {
                let decisions = scheduler.schedule(&req.view, req.invocation);
                let resp = Response::new(req.seq, decisions);
                writeln!(out, "{}", resp.to_json()).expect("writing response");
                out.flush().expect("flushing response");
            }
        }
    }
}
