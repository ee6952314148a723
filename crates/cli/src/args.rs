//! A small `--key value` argument parser (no external dependencies).
//!
//! Each subcommand names the options it takes; the parser rejects any
//! other `--key` as it reads it, so a misspelled option fails the command
//! before any work starts instead of silently falling back to a default.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: one subcommand plus `--key value` options and
/// bare `--flag` switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors from parsing or option extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was supplied.
    MissingCommand,
    /// An option was given without a value (`--n` at the end).
    MissingValue(String),
    /// A positional token appeared where an option was expected.
    UnexpectedToken(String),
    /// An option the subcommand does not take.
    UnknownOption(String),
    /// A required option is absent.
    MissingOption(String),
    /// An option failed to parse as the requested type.
    BadValue {
        /// Option name.
        key: String,
        /// The offending raw value.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected token '{t}'"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k}"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} is missing"),
            ArgError::BadValue { key, value } => {
                write!(f, "option --{key} has invalid value '{value}'")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean switches (take no value).
const SWITCHES: &[&str] = &["static", "no-bs", "no-skip", "help", "occupy", "full"];

impl Args {
    /// Parses `tokens` (without the program name), accepting only the
    /// options named in `known` (space-separated, without the leading
    /// `--`) plus `--help`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on malformed input, including
    /// [`ArgError::UnknownOption`] for an option outside `known`.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I, known: &str) -> Result<Self, ArgError> {
        let mut iter = tokens.into_iter().peekable();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::UnexpectedToken(command));
        }
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(tok) = iter.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::UnexpectedToken(tok.clone()))?
                .to_string();
            if key != "help" && !known.split_whitespace().any(|k| k == key) {
                return Err(ArgError::UnknownOption(key));
            }
            if SWITCHES.contains(&key.as_str()) {
                flags.push(key);
                continue;
            }
            match iter.next() {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key, v);
                }
                _ => return Err(ArgError::MissingValue(key)),
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Returns `true` when the switch was present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A required typed option.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingOption`] or [`ArgError::BadValue`].
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let raw = self
            .options
            .get(key)
            .ok_or_else(|| ArgError::MissingOption(key.to_string()))?;
        raw.parse().map_err(|_| ArgError::BadValue {
            key: key.to_string(),
            value: raw.clone(),
        })
    }

    /// An optional typed option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but malformed.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: raw.clone(),
            }),
        }
    }

    /// An optional typed option: `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but malformed.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: raw.clone(),
            }),
        }
    }

    /// A comma-separated list option.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when any element is malformed.
    pub fn get_list<T: std::str::FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, ArgError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|part| {
                    part.trim().parse().map_err(|_| ArgError::BadValue {
                        key: key.to_string(),
                        value: raw.clone(),
                    })
                })
                .collect::<Result<Vec<T>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &str = "alpha n ns phi static no-bs";

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from), KNOWN)
    }

    #[test]
    fn parses_command_options_and_flags() {
        let args = parse("measure --alpha 0.25 --n 500 --static").unwrap();
        assert_eq!(args.command(), "measure");
        assert_eq!(args.require::<f64>("alpha").unwrap(), 0.25);
        assert_eq!(args.require::<usize>("n").unwrap(), 500);
        assert!(args.flag("static"));
        assert!(!args.flag("no-bs"));
    }

    #[test]
    fn unknown_options_rejected_by_name() {
        assert_eq!(
            parse("measure --n 150 --sedd 3"),
            Err(ArgError::UnknownOption("sedd".into()))
        );
        // Rejected before its value is looked for: an unknown switch at
        // the end names itself instead of asking for a value.
        assert_eq!(
            parse("sweep --ns 100,200 --resume"),
            Err(ArgError::UnknownOption("resume".into()))
        );
        assert!(parse("measure --n 150 --help").unwrap().flag("help"));
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(""), Err(ArgError::MissingCommand));
        assert!(matches!(
            parse("--alpha 0.2"),
            Err(ArgError::UnexpectedToken(_))
        ));
    }

    #[test]
    fn option_without_value_rejected() {
        assert_eq!(
            parse("measure --n"),
            Err(ArgError::MissingValue("n".into()))
        );
        assert_eq!(
            parse("measure --n --static"),
            Err(ArgError::MissingValue("n".into()))
        );
    }

    #[test]
    fn bad_value_reported_with_context() {
        let args = parse("measure --n abc").unwrap();
        assert_eq!(
            args.require::<usize>("n"),
            Err(ArgError::BadValue {
                key: "n".into(),
                value: "abc".into()
            })
        );
    }

    #[test]
    fn defaults_apply_when_absent() {
        let args = parse("theory").unwrap();
        assert_eq!(args.get_or("phi", 0.5).unwrap(), 0.5);
        assert_eq!(
            args.require::<f64>("alpha"),
            Err(ArgError::MissingOption("alpha".into()))
        );
    }

    #[test]
    fn lists_parse() {
        // A space inside the list makes the tail a stray positional token.
        assert!(matches!(
            parse("sweep --ns 100,200, 400"),
            Err(ArgError::UnexpectedToken(_))
        ));
        let args = parse("sweep --ns 100,200,400").unwrap();
        assert_eq!(
            args.get_list::<usize>("ns").unwrap(),
            Some(vec![100, 200, 400])
        );
        assert_eq!(args.get_list::<usize>("missing").unwrap(), None);
    }

    #[test]
    fn display_messages_are_lowercase() {
        for err in [
            ArgError::MissingCommand,
            ArgError::MissingValue("x".into()),
            ArgError::UnexpectedToken("y".into()),
            ArgError::UnknownOption("u".into()),
            ArgError::MissingOption("z".into()),
            ArgError::BadValue {
                key: "k".into(),
                value: "v".into(),
            },
        ] {
            let msg = err.to_string();
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
