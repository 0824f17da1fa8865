//! A minimal `--key value` argument parser for the experiment binaries
//! (no external CLI dependency needed for a handful of flags).
//!
//! Malformed input is reported through [`lrb_core::error::ConfigError`]
//! rather than panicking, so library callers get a typed error and the
//! binaries exit with a clean message (see [`OrExit`]).

use std::collections::HashMap;

use lrb_core::error::ConfigError;

/// Parsed command-line options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    values: HashMap<String, String>,
}

impl Options {
    /// Parse `--key value` pairs from an iterator of arguments (the program
    /// name should already be stripped). A key not in `known` is a
    /// [`ConfigError::UnknownFlag`], so a flag the binary would ignore is
    /// refused instead; a trailing key without a value is an error.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        known: &[&str],
    ) -> Result<Self, ConfigError> {
        let mut values = HashMap::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or(ConfigError::NotAFlag {
                    argument: arg.clone(),
                })?
                .to_string();
            if !known.contains(&key.as_str()) {
                return Err(ConfigError::UnknownFlag {
                    key,
                    known: known.iter().map(|k| k.to_string()).collect(),
                });
            }
            let value = iter
                .next()
                .ok_or_else(|| ConfigError::MissingValue { key: key.clone() })?;
            values.insert(key, value);
        }
        Ok(Self { values })
    }

    /// Parse the process arguments (skipping the program name) against the
    /// keys the binary reads, exiting with a message on malformed input.
    pub fn from_env(known: &[&str]) -> Self {
        match Self::parse(std::env::args().skip(1), known) {
            Ok(options) => options,
            Err(error) => exit_with(&error),
        }
    }

    /// Look up an integer flag, falling back to `default`. A present but
    /// non-integer value is a [`ConfigError::InvalidValue`].
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ConfigError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(value) => value.parse::<u64>().map_err(|_| ConfigError::InvalidValue {
                key: key.to_string(),
                value: value.clone(),
                expected: "an unsigned integer",
            }),
        }
    }

    /// Look up a usize flag, falling back to `default`.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ConfigError> {
        self.u64_or(key, default as u64).map(|v| v as usize)
    }

    /// Look up a floating-point flag, falling back to `default`. Rejects
    /// non-finite values (a NaN bound or budget is always a typo).
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ConfigError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(value) => match value.parse::<f64>() {
                Ok(parsed) if parsed.is_finite() => Ok(parsed),
                _ => Err(ConfigError::InvalidValue {
                    key: key.to_string(),
                    value: value.clone(),
                    expected: "a finite number",
                }),
            },
        }
    }

    /// Whether a flag was supplied at all.
    pub fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// Print a configuration error and terminate with the conventional usage
/// exit code.
fn exit_with(error: &ConfigError) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: --key value pairs only (e.g. --json 1)");
    std::process::exit(2);
}

/// Binary-side sugar: unwrap a flag lookup or exit(2) with the message.
/// Library callers should match on the [`ConfigError`] instead.
pub trait OrExit<T> {
    /// Return the value or terminate the process with a clean message.
    fn or_exit(self) -> T;
}

impl<T> OrExit<T> for Result<T, ConfigError> {
    fn or_exit(self) -> T {
        match self {
            Ok(value) => value,
            Err(error) => exit_with(&error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, ConfigError> {
        Options::parse(
            args.iter().map(|s| s.to_string()),
            &["trials", "seed", "ratio", "bad"],
        )
    }

    #[test]
    fn parses_key_value_pairs() {
        let o = parse(&["--trials", "1000", "--seed", "7"]).unwrap();
        assert_eq!(o.u64_or("trials", 5).unwrap(), 1000);
        assert_eq!(o.u64_or("seed", 0).unwrap(), 7);
        assert_eq!(o.u64_or("missing", 42).unwrap(), 42);
        assert!(o.contains("trials"));
        assert!(!o.contains("missing"));
    }

    #[test]
    fn empty_arguments_are_fine() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.usize_or("trials", 9).unwrap(), 9);
        assert_eq!(o.f64_or("ratio", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse(&["--trials"]),
            Err(ConfigError::MissingValue {
                key: "trials".into()
            })
        );
    }

    #[test]
    fn non_flag_argument_is_an_error() {
        assert_eq!(
            parse(&["trials", "7"]),
            Err(ConfigError::NotAFlag {
                argument: "trials".into()
            })
        );
    }

    #[test]
    fn non_integer_value_is_a_typed_error_not_a_panic() {
        let o = parse(&["--trials", "abc"]).unwrap();
        assert_eq!(
            o.u64_or("trials", 1),
            Err(ConfigError::InvalidValue {
                key: "trials".into(),
                value: "abc".into(),
                expected: "an unsigned integer",
            })
        );
        // A negative count is rejected by the same path.
        let o = parse(&["--trials", "-3"]).unwrap();
        assert!(o.u64_or("trials", 1).is_err());
        // The error carries enough to render a useful message.
        let message = o.u64_or("trials", 1).unwrap_err().to_string();
        assert!(message.contains("--trials"));
        assert!(message.contains("-3"));
    }

    #[test]
    fn unknown_flag_is_an_error_and_a_listed_flag_parses() {
        let args = ["--json", "1", "--readers", "8"].map(String::from);
        assert_eq!(
            Options::parse(args, &["json"]),
            Err(ConfigError::UnknownFlag {
                key: "readers".into(),
                known: vec!["json".into()],
            })
        );
        let o = Options::parse(["--json", "1"].map(String::from), &["json"]).unwrap();
        assert!(o.contains("json"));
    }

    #[test]
    fn float_flags_parse_and_reject_non_finite() {
        let o = parse(&["--ratio", "2.5", "--bad", "nan"]).unwrap();
        assert_eq!(o.f64_or("ratio", 1.0).unwrap(), 2.5);
        assert!(o.f64_or("bad", 1.0).is_err());
    }
}
