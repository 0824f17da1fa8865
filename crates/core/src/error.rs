//! Error type shared by every selector in the crate.

use std::fmt;

/// Reasons a roulette wheel selection can fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionError {
    /// The fitness vector was empty.
    EmptyFitness,
    /// Every fitness value was zero, so the target distribution is undefined.
    AllZeroFitness,
    /// A fitness value was negative, NaN or infinite.
    InvalidFitness {
        /// Index of the offending value.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A sampler was asked for more distinct items than there are indices
    /// with positive fitness (sampling without replacement only).
    NotEnoughCandidates {
        /// How many items were requested.
        requested: usize,
        /// How many indices have positive fitness.
        available: usize,
    },
    /// A category index was outside the sampler's `0..len` range.
    ///
    /// The in-place samplers historically panicked here; the concurrent
    /// engine routes writer mistakes through `Result` instead, because a
    /// misbehaving client must not poison shared snapshots.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of categories in the sampler.
        len: usize,
    },
    /// A multiplicative weight scale (e.g. an evaporation factor) was
    /// negative, NaN or infinite.
    InvalidScale {
        /// The offending factor.
        factor: f64,
    },
    /// A sampler backend was requested by a name no registry entry carries
    /// (the `lrb-engine` backend registry validates fixed choices up
    /// front, so a typo fails at construction instead of at publish time).
    UnknownBackend {
        /// The name that failed to resolve.
        name: &'static str,
    },
    /// The durability layer failed — a WAL append could not be persisted
    /// or recovery found irreconcilable state. The publish that hit it is
    /// rolled back (its updates return to the pending queue), so a flaky
    /// disk loses no writes, only progress.
    Durability {
        /// Which durability operation failed (`"wal-append"`,
        /// `"recovery"`, ...).
        op: &'static str,
    },
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionError::EmptyFitness => write!(f, "the fitness vector is empty"),
            SelectionError::AllZeroFitness => {
                write!(f, "all fitness values are zero; the selection probabilities are undefined")
            }
            SelectionError::InvalidFitness { index, value } => write!(
                f,
                "fitness[{index}] = {value} is invalid: values must be finite and non-negative"
            ),
            SelectionError::NotEnoughCandidates {
                requested,
                available,
            } => write!(
                f,
                "cannot sample {requested} distinct items: only {available} indices have positive fitness"
            ),
            SelectionError::IndexOutOfRange { index, len } => {
                write!(f, "category index {index} is outside 0..{len}")
            }
            SelectionError::InvalidScale { factor } => write!(
                f,
                "scale factor {factor} is invalid: factors must be finite and non-negative"
            ),
            SelectionError::UnknownBackend { name } => {
                write!(f, "no sampler backend named '{name}' is registered")
            }
            SelectionError::Durability { op } => {
                write!(f, "durability operation '{op}' failed; the publish was rolled back")
            }
        }
    }
}

impl std::error::Error for SelectionError {}

/// Errors from parsing configuration input — command-line flags of the
/// experiment binaries and engine workload descriptions.
///
/// Shared here (rather than in `lrb-bench`) so library code can validate
/// configuration without depending on the harness crate, and so every binary
/// reports malformed input the same way instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// An argument did not look like a `--key` flag.
    NotAFlag {
        /// The argument as given.
        argument: String,
    },
    /// A `--key` flag was not followed by a value.
    MissingValue {
        /// The flag name (without the `--` prefix).
        key: String,
    },
    /// A flag's value failed to parse as the expected type.
    InvalidValue {
        /// The flag name (without the `--` prefix).
        key: String,
        /// The value as given.
        value: String,
        /// What the flag expects (e.g. `"an unsigned integer"`).
        expected: &'static str,
    },
    /// A `--key` flag the binary does not read.
    UnknownFlag {
        /// The flag name (without the `--` prefix).
        key: String,
        /// The flags the binary reads (without the `--` prefix).
        known: Vec<String>,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotAFlag { argument } => {
                write!(f, "expected --key, got '{argument}'")
            }
            ConfigError::MissingValue { key } => write!(f, "missing value for --{key}"),
            ConfigError::InvalidValue {
                key,
                value,
                expected,
            } => write!(f, "--{key} expects {expected}, got '{value}'"),
            ConfigError::UnknownFlag { key, known } => write!(
                f,
                "unknown flag --{key} (this binary reads --{})",
                known.join(", --")
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SelectionError::EmptyFitness.to_string().contains("empty"));
        assert!(SelectionError::AllZeroFitness.to_string().contains("zero"));
        let e = SelectionError::InvalidFitness {
            index: 4,
            value: -1.0,
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains("-1"));
        let e = SelectionError::NotEnoughCandidates {
            requested: 5,
            available: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));
        let e = SelectionError::IndexOutOfRange { index: 9, len: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = SelectionError::InvalidScale { factor: -0.5 };
        assert!(e.to_string().contains("-0.5"));
        let e = SelectionError::UnknownBackend { name: "gpu-table" };
        assert!(e.to_string().contains("gpu-table"));
        let e = SelectionError::Durability { op: "wal-append" };
        assert!(e.to_string().contains("wal-append"));
    }

    #[test]
    fn config_error_display_is_informative() {
        let e = ConfigError::NotAFlag {
            argument: "trials".into(),
        };
        assert!(e.to_string().contains("trials"));
        let e = ConfigError::MissingValue { key: "seed".into() };
        assert!(e.to_string().contains("--seed"));
        let e = ConfigError::InvalidValue {
            key: "trials".into(),
            value: "abc".into(),
            expected: "an unsigned integer",
        };
        let text = e.to_string();
        assert!(text.contains("--trials"));
        assert!(text.contains("abc"));
        assert!(text.contains("unsigned integer"));
        let e = ConfigError::UnknownFlag {
            key: "readers".into(),
            known: vec!["trials".into(), "json".into()],
        };
        assert_eq!(
            e.to_string(),
            "unknown flag --readers (this binary reads --trials, --json)"
        );
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(!boxed.to_string().is_empty());
    }

    #[test]
    fn works_as_a_boxed_error() {
        let e: Box<dyn std::error::Error> = Box::new(SelectionError::EmptyFitness);
        assert!(!e.to_string().is_empty());
    }
}
