//! Leveled, structured JSONL logging for the campaign runtime.
//!
//! One record per line, one JSON object per record. Off by default: a
//! [`Logger`] is a cheap cloneable handle around `Option<Arc<…>>`, so the
//! disabled path is a single branch — the same zero-cost discipline as
//! [`Telemetry`](crate::Telemetry). Logging never feeds back into
//! simulation decisions, so reports stay byte-identical with logging on
//! or off; records do carry wall-clock timestamps, which is why the
//! facility lives *outside* the deterministic event stream.
//!
//! Record schema (key order is fixed):
//!
//! ```json
//! {"ts":1754650000.123,"seq":42,"level":"info","event":"run_finished",
//!  "campaign":"sweep-0..8","fingerprint":"sfp1-…","run_id":3,"worker":1,…}
//! ```
//!
//! * `ts` — wall-clock unix seconds (fractional);
//! * `seq` — per-sink monotonic sequence number, so interleaved worker
//!   records can be totally ordered even when timestamps collide;
//! * `level` — `debug` | `info` | `warn` | `error`;
//! * `event` — machine-readable event name;
//! * everything after is context: fields bound on the handle (campaign
//!   id, `sfp1-`/`rfp1-` fingerprint, run id, worker id) come first, then
//!   per-call fields, in call order.
//!
//! Handles are forked with [`Logger::with`]: the executor binds
//! `campaign`, each worker binds `worker`, each run binds
//! `run_id`/`fingerprint` — every record then carries the full chain
//! without call sites repeating it.
//!
//! Activation: the CLI's `--log-json PATH` or the `ELASTISIM_LOG=PATH`
//! environment variable (with optional `ELASTISIM_LOG_LEVEL`, default
//! `info`). Files are opened in append mode so repeated invocations
//! share one log.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained diagnostics (per-event detail).
    Debug,
    /// Normal operational records (run started/finished).
    Info,
    /// Unexpected but recoverable conditions.
    Warn,
    /// Failures (run errors, panics, protocol errors).
    Error,
}

impl Level {
    /// The lowercase wire name (`"info"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a wire name, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A structured field value: strings, integers, floats, booleans.
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// A string (JSON-escaped on write).
    Str(String),
    /// An unsigned integer, written without a fraction.
    U64(u64),
    /// A signed integer, written without a fraction.
    I64(i64),
    /// A float (finite values only; non-finite writes `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// Shorthand for building a field pair: `field("run_id", 3usize)`.
pub fn field(key: &'static str, value: impl Into<FieldValue>) -> (&'static str, FieldValue) {
    (key, value.into())
}

struct Sink {
    min: Level,
    out: Mutex<Box<dyn Write + Send>>,
    seq: AtomicU64,
}

/// Cheap cloneable handle to a shared JSONL sink; `None` inside = disabled.
///
/// Clones share the sink (and its sequence counter); [`with`](Logger::with)
/// forks a child handle carrying additional bound context fields.
#[derive(Clone, Default)]
pub struct Logger {
    sink: Option<Arc<Sink>>,
    bound: Arc<Vec<(String, FieldValue)>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("enabled", &self.sink.is_some())
            .field("bound", &self.bound)
            .finish()
    }
}

impl Logger {
    /// A disabled handle — every call is a single branch.
    pub fn disabled() -> Logger {
        Logger::default()
    }

    /// Logs to an arbitrary writer (used by tests and the overhead gate).
    pub fn to_writer(out: impl Write + Send + 'static, min: Level) -> Logger {
        Logger {
            sink: Some(Arc::new(Sink {
                min,
                out: Mutex::new(Box::new(out)),
                seq: AtomicU64::new(0),
            })),
            bound: Arc::new(Vec::new()),
        }
    }

    /// Opens (append, create) a JSONL log file.
    pub fn create(path: &Path, min: Level) -> io::Result<Logger> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Logger::to_writer(io::BufWriter::new(f), min))
    }

    /// Builds a logger from `ELASTISIM_LOG` (path) and
    /// `ELASTISIM_LOG_LEVEL` (default `info`). Unset or empty
    /// `ELASTISIM_LOG` yields a disabled handle.
    pub fn from_env() -> io::Result<Logger> {
        match std::env::var("ELASTISIM_LOG") {
            Ok(path) if !path.is_empty() => {
                let min = std::env::var("ELASTISIM_LOG_LEVEL")
                    .ok()
                    .and_then(|s| Level::parse(&s))
                    .unwrap_or(Level::Info);
                Logger::create(Path::new(&path), min)
            }
            _ => Ok(Logger::disabled()),
        }
    }

    /// Whether this handle writes anywhere.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Forks a child handle with one more bound context field, appended
    /// after the existing ones. Cheap when disabled.
    pub fn with(&self, key: &str, value: impl Into<FieldValue>) -> Logger {
        if self.sink.is_none() {
            return Logger::disabled();
        }
        let mut bound = (*self.bound).clone();
        bound.push((key.to_owned(), value.into()));
        Logger {
            sink: self.sink.clone(),
            bound: Arc::new(bound),
        }
    }

    /// Writes one record if `level` clears the sink's threshold.
    pub fn log(&self, level: Level, event: &str, fields: &[(&str, FieldValue)]) {
        let Some(sink) = &self.sink else { return };
        if level < sink.min {
            return;
        }
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let seq = sink.seq.fetch_add(1, Ordering::Relaxed);
        let mut line = String::with_capacity(128);
        let _ = write!(line, "{{\"ts\":{ts:.6},\"seq\":{seq}");
        let _ = write!(line, ",\"level\":\"{}\"", level.as_str());
        line.push_str(",\"event\":");
        write_json_str(&mut line, event);
        for (k, v) in self.bound.iter() {
            write_field(&mut line, k, v);
        }
        for (k, v) in fields {
            write_field(&mut line, k, v);
        }
        line.push_str("}\n");
        // Logging must never take the process down: short writes and io
        // errors are swallowed (the run's own outputs are the source of
        // truth; logs are best-effort diagnostics).
        let mut out = sink
            .out
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }

    /// [`log`](Self::log) at [`Level::Debug`].
    pub fn debug(&self, event: &str, fields: &[(&str, FieldValue)]) {
        self.log(Level::Debug, event, fields);
    }

    /// [`log`](Self::log) at [`Level::Info`].
    pub fn info(&self, event: &str, fields: &[(&str, FieldValue)]) {
        self.log(Level::Info, event, fields);
    }

    /// [`log`](Self::log) at [`Level::Warn`].
    pub fn warn(&self, event: &str, fields: &[(&str, FieldValue)]) {
        self.log(Level::Warn, event, fields);
    }

    /// [`log`](Self::log) at [`Level::Error`].
    pub fn error(&self, event: &str, fields: &[(&str, FieldValue)]) {
        self.log(Level::Error, event, fields);
    }
}

fn write_field(line: &mut String, key: &str, value: &FieldValue) {
    line.push(',');
    write_json_str(line, key);
    line.push(':');
    match value {
        FieldValue::Str(s) => write_json_str(line, s),
        FieldValue::U64(v) => {
            let _ = write!(line, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(line, "{v}");
        }
        FieldValue::F64(v) => {
            if v.is_finite() {
                let _ = write!(line, "{v}");
            } else {
                line.push_str("null");
            }
        }
        FieldValue::Bool(v) => {
            let _ = write!(line, "{v}");
        }
    }
}

/// Minimal JSON string escaping (quote, backslash, control chars).
fn write_json_str(line: &mut String, s: &str) {
    line.push('"');
    for c in s.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(line, "\\u{:04x}", c as u32);
            }
            c => line.push(c),
        }
    }
    line.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shared Vec<u8> sink whose contents outlive the logger.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Buf {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect()
        }
    }

    #[test]
    fn disabled_logger_is_inert() {
        let log = Logger::disabled();
        assert!(!log.is_enabled());
        log.info("event", &[field("k", 1u64)]);
        let child = log.with("campaign", "c1");
        assert!(!child.is_enabled());
        child.error("boom", &[]);
    }

    #[test]
    fn records_are_one_json_object_per_line() {
        let buf = Buf::default();
        let log = Logger::to_writer(buf.clone(), Level::Debug);
        log.info("run_started", &[field("run_id", 3usize)]);
        log.error("run_failed", &[field("message", "x \"quoted\"\n")]);
        let lines = buf.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"level\":\"info\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"event\":\"run_started\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"run_id\":3"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"message\":\"x \\\"quoted\\\"\\n\""),
            "{}",
            lines[1]
        );
        // Each line parses as JSON (vendored parser).
        for line in &lines {
            serde_json::parse_value(line).expect("record parses as JSON");
        }
    }

    #[test]
    fn seq_is_monotonic_and_shared_across_clones() {
        let buf = Buf::default();
        let log = Logger::to_writer(buf.clone(), Level::Debug);
        let a = log.with("worker", 0usize);
        let b = log.with("worker", 1usize);
        a.info("e", &[]);
        b.info("e", &[]);
        a.info("e", &[]);
        let seqs: Vec<u64> = buf
            .lines()
            .iter()
            .map(|l| {
                let serde::Value::Map(mut map) = serde_json::parse_value(l).unwrap() else {
                    panic!("record is not an object: {l}");
                };
                match serde::map_take(&mut map, "seq") {
                    Some(serde::Value::Num(n)) => n as u64,
                    other => panic!("seq missing: {other:?}"),
                }
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn level_threshold_filters() {
        let buf = Buf::default();
        let log = Logger::to_writer(buf.clone(), Level::Warn);
        log.debug("d", &[]);
        log.info("i", &[]);
        log.warn("w", &[]);
        log.error("e", &[]);
        let lines = buf.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"level\":\"warn\""));
        assert!(lines[1].contains("\"level\":\"error\""));
    }

    #[test]
    fn bound_fields_come_before_call_fields() {
        let buf = Buf::default();
        let log = Logger::to_writer(buf.clone(), Level::Debug)
            .with("campaign", "sweep-0..4")
            .with("fingerprint", "sfp1-abc")
            .with("run_id", 7usize)
            .with("worker", 2usize);
        log.info("run_finished", &[field("wall_seconds", 0.25)]);
        let line = &buf.lines()[0];
        let campaign = line.find("\"campaign\"").unwrap();
        let fp = line.find("\"fingerprint\"").unwrap();
        let run = line.find("\"run_id\"").unwrap();
        let wall = line.find("\"wall_seconds\"").unwrap();
        assert!(campaign < fp && fp < run && run < wall, "{line}");
        assert!(line.contains("\"fingerprint\":\"sfp1-abc\""), "{line}");
    }

    #[test]
    fn level_parse_roundtrips() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn loggers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Logger>();
    }
}
