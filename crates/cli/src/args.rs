//! A small `--key value` argument parser (the workspace avoids external
//! CLI crates).

use std::collections::BTreeMap;

/// Parsed command-line arguments: one subcommand, bare positionals
/// (e.g. the trace path in `carpool report run.jsonl`) and `--key value`
/// options (`--flag` without a value is stored as `"true"`).
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    command: Option<String>,
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

/// The values a numeric option accepts: `(option, what a value must be,
/// whether a value is)`.
pub(crate) type ValueRange = (&'static str, &'static str, fn(f64) -> bool);

/// Errors from argument parsing and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ArgError {
    /// An option's value failed to parse.
    BadValue {
        /// Option name (without dashes).
        key: String,
        /// Offending raw value.
        value: String,
    },
    /// An option's value parsed but lies outside the range every
    /// command that reads the option accepts.
    OutOfRange {
        /// Option name (without dashes).
        key: String,
        /// What the value must be, e.g. `"at least 1"`.
        expected: &'static str,
    },
    /// An option the subcommand does not read (usually a typo).
    UnknownOption {
        /// Option name (without dashes).
        key: String,
        /// The subcommand it was given to (`None` without one).
        command: Option<String>,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::BadValue { key, value } => {
                write!(f, "invalid value '{value}' for --{key}")
            }
            ArgError::OutOfRange { key, expected } => write!(f, "--{key} must be {expected}"),
            ArgError::UnknownOption { key, command } => match command {
                Some(command) => write!(f, "unknown option --{key} for '{command}'"),
                None => write!(f, "unknown option --{key}"),
            },
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    /// The first bare token becomes the subcommand; later bare tokens are
    /// collected as positionals in order.
    ///
    /// # Errors
    ///
    /// Infallible today (the `Result` is kept for option-value errors
    /// surfaced later by [`Args::get_or`]).
    pub(crate) fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                args.command = iter.next();
            }
        }
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                args.positionals.push(token);
                continue;
            };
            let value = iter
                .next_if(|v| !v.starts_with("--"))
                .unwrap_or_else(|| "true".to_string());
            args.options.insert(key.to_string(), value);
        }
        Ok(args)
    }

    /// The subcommand, if any.
    pub(crate) fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// Bare positional arguments after the subcommand, in order.
    pub(crate) fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The `idx`-th positional argument.
    pub(crate) fn positional(&self, idx: usize) -> Option<&str> {
        self.positionals.get(idx).map(String::as_str)
    }

    /// Raw string option.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Boolean flag (present without value, or an explicit true/false).
    pub(crate) fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Rejects any option that is in none of the `allowed` lists, so a
    /// typo'd flag fails loudly instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownOption`] naming the first unknown
    /// option (in sorted order).
    pub(crate) fn check_options(&self, allowed: &[&[&str]]) -> Result<(), ArgError> {
        match self
            .options
            .keys()
            .find(|key| !allowed.iter().any(|list| list.contains(&key.as_str())))
        {
            Some(key) => Err(ArgError::UnknownOption {
                key: key.clone(),
                command: self.command.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Checks the value of every given option that `ranges` lists, read
    /// as a number.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] for a value that is not a number
    /// and [`ArgError::OutOfRange`] for one its check rejects, naming the
    /// first such option in `ranges` order.
    pub(crate) fn check_ranges(&self, ranges: &[ValueRange]) -> Result<(), ArgError> {
        for &(key, expected, valid) in ranges {
            if self.get(key).is_some() && !valid(self.get_or(key, 0.0)?) {
                return Err(ArgError::OutOfRange {
                    key: key.to_string(),
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if the value does not parse.
    pub(crate) fn get_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn command_and_options() {
        let a = parse(&["mac-sim", "--stas", "30", "--rts-cts", "--seed", "7"]);
        assert_eq!(a.command(), Some("mac-sim"));
        assert_eq!(a.get_or("stas", 0usize).unwrap(), 30);
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert!(a.flag("rts-cts"));
        assert!(!a.flag("background"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["phy-ber"]);
        assert_eq!(a.get_or("frames", 20usize).unwrap(), 20);
        assert_eq!(a.get_or("snr", 28.0f64).unwrap(), 28.0);
    }

    #[test]
    fn bad_value_reported() {
        let a = parse(&["x", "--stas", "many"]);
        assert!(matches!(
            a.get_or("stas", 0usize),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn out_of_range_values_are_named() {
        let ranges: &[ValueRange] = &[("duration", "finite and positive", |d| {
            d.is_finite() && d > 0.0
        })];
        let check = |tokens: &[&str]| parse(tokens).check_ranges(ranges);
        assert_eq!(check(&["mac-sim", "--duration", "2"]), Ok(()));
        assert_eq!(check(&["mac-sim"]), Ok(()));
        for bad in ["nan", "inf", "0", "-1"] {
            let err = check(&["mac-sim", "--duration", bad]).unwrap_err();
            assert_eq!(err.to_string(), "--duration must be finite and positive");
        }
        assert!(matches!(
            check(&["mac-sim", "--duration", "long"]),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn positionals_collected_in_order() {
        let a = parse(&["report", "run.jsonl", "--top", "5", "other.jsonl"]);
        assert_eq!(a.command(), Some("report"));
        assert_eq!(a.positionals(), ["run.jsonl", "other.jsonl"]);
        assert_eq!(a.positional(0), Some("run.jsonl"));
        assert_eq!(a.positional(2), None);
        assert_eq!(a.get_or("top", 0usize).unwrap(), 5);
    }

    #[test]
    fn unknown_options_are_named() {
        let a = parse(&["mac-sim", "--stass", "30", "--seed", "1"]);
        assert_eq!(
            a.check_options(&[&["stas", "seed"], &["obs"]]),
            Err(ArgError::UnknownOption {
                key: "stass".to_string(),
                command: Some("mac-sim".to_string()),
            })
        );
        let err = a.check_options(&[&["seed"]]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --stass for 'mac-sim'");
        assert!(a.check_options(&[&["stass", "seed"]]).is_ok());
    }

    #[test]
    fn no_command_only_flags() {
        let a = parse(&["--help"]);
        assert_eq!(a.command(), None);
        assert!(a.flag("help"));
    }
}
