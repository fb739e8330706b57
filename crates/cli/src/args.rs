//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The first positional argument.
    pub command: String,
    options: HashMap<String, String>,
}

/// A usage error, printed with the help text.
#[derive(Debug, PartialEq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse<I, S>(argv: I) -> Result<Args, UsageError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = argv.into_iter().map(Into::into);
        let command = it
            .next()
            .ok_or_else(|| UsageError("missing command".into()))?;
        if command.starts_with('-') {
            return Err(UsageError(format!(
                "expected command, got option `{command}`"
            )));
        }
        let mut options = HashMap::new();
        let mut it = it.peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| UsageError(format!("expected `--option`, got `{arg}`")))?
                .to_string();
            if key.is_empty() {
                return Err(UsageError("empty option name".into()));
            }
            // `--flag` at the end or followed by another option is a
            // boolean flag; everything else takes the next token as value.
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                _ => "true".to_string(),
            };
            if options.insert(key.clone(), value).is_some() {
                return Err(UsageError(format!("duplicate option `--{key}`")));
            }
        }
        Ok(Args { command, options })
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, UsageError> {
        self.get(key)
            .ok_or_else(|| UsageError(format!("missing required option `--{key}`")))
    }

    /// A numeric option with a default.
    pub fn num(&self, key: &str, default: f64) -> Result<f64, UsageError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("option `--{key}`: `{v}` is not a number"))),
        }
    }

    /// A numeric option with a default that must be finite and `> 0`.
    pub fn positive(&self, key: &str, default: f64) -> Result<f64, UsageError> {
        let v = self.num(key, default)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(UsageError(format!("--{key} must be > 0")));
        }
        Ok(v)
    }

    /// An integer option with a default.
    pub fn int(&self, key: &str, default: u64) -> Result<u64, UsageError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("option `--{key}`: `{v}` is not an integer"))),
        }
    }

    /// A boolean flag: absent → `false`, bare `--key` → `true`, and an
    /// explicit `true`/`false` value is honored.
    pub fn flag(&self, key: &str) -> Result<bool, UsageError> {
        match self.get(key) {
            None => Ok(false),
            Some("true") | Some("1") => Ok(true),
            Some("false") | Some("0") => Ok(false),
            Some(v) => Err(UsageError(format!(
                "option `--{key}`: `{v}` is not a boolean"
            ))),
        }
    }

    /// Rejects unknown options (catches typos).
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), UsageError> {
        for key in self.options.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(UsageError(format!(
                    "unknown option `--{key}` for `{}` (allowed: {})",
                    self.command,
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(["run", "--platform", "p.json", "--jobs", "j.json"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("platform"), Some("p.json"));
        assert_eq!(a.require("jobs").unwrap(), "j.json");
        assert_eq!(a.get("nope"), None);
    }

    #[test]
    fn numeric_options() {
        let a = Args::parse(["generate", "--jobs", "100", "--malleable", "0.5"]).unwrap();
        assert_eq!(a.int("jobs", 0).unwrap(), 100);
        assert_eq!(a.num("malleable", 0.0).unwrap(), 0.5);
        assert_eq!(a.num("seed", 7.0).unwrap(), 7.0);
        assert!(Args::parse(["g", "--n", "abc"])
            .unwrap()
            .int("n", 0)
            .is_err());
    }

    #[test]
    fn error_cases() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
        assert!(Args::parse(["--run"]).is_err());
        assert!(Args::parse(["run", "x"]).is_err());
        assert!(Args::parse(["run", "--a", "1", "--a", "2"]).is_err());
    }

    #[test]
    fn boolean_flags() {
        let a = Args::parse(["run", "--check", "--jobs", "j.json", "--fast"]).unwrap();
        assert!(a.flag("check").unwrap());
        assert!(a.flag("fast").unwrap());
        assert!(!a.flag("absent").unwrap());
        assert_eq!(a.get("jobs"), Some("j.json"));
        let b = Args::parse(["run", "--check", "false"]).unwrap();
        assert!(!b.flag("check").unwrap());
        assert!(Args::parse(["run", "--jobs", "j.json"])
            .unwrap()
            .flag("jobs")
            .is_err());
    }

    #[test]
    fn expect_only_catches_typos() {
        let a = Args::parse(["run", "--platfrom", "p.json"]).unwrap();
        let err = a.expect_only(&["platform", "jobs"]).unwrap_err();
        assert!(err.0.contains("platfrom"));
    }
}
