//! Typed command-line flag parsing for the bench binaries.
//!
//! The bench bins used to scan `std::env::args()` with `.any(...)`, which
//! silently ignored typos (`--qick` ran the full sweep). [`FlagSet`]
//! declares the accepted flags up front and rejects anything else with a
//! typed [`FlagError`], so a misspelled flag fails fast instead of running
//! the wrong benchmark for an hour.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Why an argument vector was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagError {
    /// A `--flag` that no bin declared.
    Unknown {
        /// The offending flag (with dashes).
        flag: String,
        /// Every flag this binary accepts.
        allowed: Vec<String>,
    },
    /// A valued flag at the end of the argument list.
    MissingValue {
        /// The flag that wanted a value.
        flag: String,
    },
    /// A switch given an `=value`.
    UnexpectedValue {
        /// The switch that takes no value.
        flag: String,
    },
    /// An argument that is not a `--flag` at all.
    Positional {
        /// The stray argument.
        arg: String,
    },
    /// A value that failed to parse as the requested type.
    BadValue {
        /// The flag whose value was malformed.
        flag: String,
        /// The literal value given.
        value: String,
        /// The parse error.
        reason: String,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Unknown { flag, allowed } if allowed.is_empty() => {
                write!(f, "unknown flag '{flag}'; this command takes no flags")
            }
            FlagError::Unknown { flag, allowed } => {
                write!(f, "unknown flag '{flag}'; accepted: {}", allowed.join(", "))
            }
            FlagError::MissingValue { flag } => write!(f, "flag '{flag}' expects a value"),
            FlagError::UnexpectedValue { flag } => {
                write!(f, "switch '{flag}' does not take a value")
            }
            FlagError::Positional { arg } => {
                write!(
                    f,
                    "unexpected positional argument '{arg}' (flags are --name)"
                )
            }
            FlagError::BadValue {
                flag,
                value,
                reason,
            } => write!(f, "flag '{flag}': cannot parse '{value}': {reason}"),
        }
    }
}

impl std::error::Error for FlagError {}

/// The flags one binary accepts: presence-only switches and valued flags.
#[derive(Clone, Debug, Default)]
pub struct FlagSet {
    switches: Vec<&'static str>,
    valued: Vec<&'static str>,
}

impl FlagSet {
    /// An empty set. `--bench` (injected by cargo's bench harness) is
    /// always accepted and ignored.
    pub fn new() -> FlagSet {
        FlagSet::default().switch("bench")
    }

    /// Declares a presence-only switch, e.g. `--quick`.
    pub fn switch(mut self, name: &'static str) -> FlagSet {
        self.switches.push(name);
        self
    }

    /// Declares a flag that takes a value, as `--name value` or
    /// `--name=value`.
    pub fn valued(mut self, name: &'static str) -> FlagSet {
        self.valued.push(name);
        self
    }

    /// Parses an argument vector (without the program name).
    pub fn parse(&self, argv: &[String]) -> Result<Flags, FlagError> {
        let mut set = HashSet::new();
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(body) = arg.strip_prefix("--") else {
                return Err(FlagError::Positional { arg: arg.clone() });
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            if self.switches.contains(&name) {
                if inline.is_some() {
                    return Err(FlagError::UnexpectedValue { flag: arg.clone() });
                }
                set.insert(name.to_string());
            } else if self.valued.contains(&name) {
                let value = match inline {
                    Some(v) => v,
                    None => {
                        i += 1;
                        argv.get(i)
                            .cloned()
                            .ok_or_else(|| FlagError::MissingValue {
                                flag: format!("--{name}"),
                            })?
                    }
                };
                values.insert(name.to_string(), value);
            } else {
                let mut allowed: Vec<String> = self
                    .switches
                    .iter()
                    .chain(&self.valued)
                    .map(|n| format!("--{n}"))
                    .collect();
                allowed.sort();
                return Err(FlagError::Unknown {
                    flag: format!("--{name}"),
                    allowed,
                });
            }
            i += 1;
        }
        Ok(Flags { set, values })
    }

    /// Parses the process arguments (skipping the program name). A rejected
    /// argument vector is a usage error: see [`exit_usage`].
    pub fn parse_env(&self) -> Flags {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        self.parse(&argv).unwrap_or_else(|e| exit_usage(e))
    }
}

/// Prints `<bin>: <msg>` on stderr, where `<bin>` is the running
/// executable's file name, and exits with the usage-error status 2.
pub fn exit_usage(msg: impl fmt::Display) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = Path::new(&bin)
        .file_name()
        .map_or(bin.clone(), |n| n.to_string_lossy().into_owned());
    eprintln!("{bin}: {msg}");
    std::process::exit(2)
}

/// The parsed result: which switches appeared and the valued flags' values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flags {
    set: HashSet<String>,
    values: HashMap<String, String>,
}

impl Flags {
    /// True when the switch `name` appeared.
    pub fn is_set(&self, name: &str) -> bool {
        self.set.contains(name)
    }

    /// The raw value of `name`, or `default` if absent.
    pub fn get(&self, name: &str, default: &str) -> String {
        self.values
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Parses the value of `name` as `T`, or returns `default` if absent.
    pub fn get_parse<T>(&self, name: &str, default: T) -> Result<T, FlagError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e: T::Err| FlagError::BadValue {
                flag: format!("--{name}"),
                value: v.clone(),
                reason: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_switches_and_values_in_both_syntaxes() {
        let fs = FlagSet::new().switch("quick").valued("rows").valued("dim");
        let f = fs
            .parse(&argv(&["--quick", "--rows", "100", "--dim=32"]))
            .expect("valid argv");
        assert!(f.is_set("quick"));
        assert!(!f.is_set("verbose"));
        assert_eq!(f.get_parse("rows", 0usize).expect("parses"), 100);
        assert_eq!(f.get_parse("dim", 0usize).expect("parses"), 32);
        assert_eq!(f.get_parse("absent", 7u64).expect("default"), 7);
        // Only the first '=' splits, and '=' may give an empty value.
        let fs = FlagSet::new().valued("expr").valued("out");
        let f = fs
            .parse(&argv(&["--expr=a=b", "--out="]))
            .expect("valid argv");
        assert_eq!(f.get("expr", ""), "a=b");
        assert_eq!(f.get("out", "default"), "");
    }

    #[test]
    fn unknown_flag_is_a_typed_error_listing_the_accepted_set() {
        let fs = FlagSet::new().switch("quick");
        match fs.parse(&argv(&["--qick"])) {
            Err(FlagError::Unknown { flag, allowed }) => {
                assert_eq!(flag, "--qick");
                assert!(allowed.contains(&"--quick".to_string()), "{allowed:?}");
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        let err = FlagSet::default()
            .parse(&argv(&["--tune", "x"]))
            .expect_err("no flags are declared");
        assert_eq!(
            err.to_string(),
            "unknown flag '--tune'; this command takes no flags"
        );
    }

    /// The loss-strategy flags `kernel_bench` grew with the sub-quadratic
    /// kernels (`--loss`, `--negatives`) are declared, so typos against
    /// them are typed `Unknown` errors that list the accepted set.
    #[test]
    fn loss_strategy_flags_are_declared_and_typos_rejected() {
        let fs = FlagSet::new()
            .switch("quick")
            .valued("loss")
            .valued("negatives");
        match fs.parse(&argv(&["--negatvies", "256"])) {
            Err(FlagError::Unknown { flag, allowed }) => {
                assert_eq!(flag, "--negatvies");
                assert!(allowed.contains(&"--loss".to_string()), "{allowed:?}");
                assert!(allowed.contains(&"--negatives".to_string()), "{allowed:?}");
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        match fs.parse(&argv(&["--loss-strategy=smallneg"])) {
            Err(FlagError::Unknown { flag, .. }) => assert_eq!(flag, "--loss-strategy"),
            other => panic!("expected Unknown, got {other:?}"),
        }
        let f = fs
            .parse(&argv(&["--loss", "smallneg", "--negatives=256"]))
            .expect("valid argv");
        assert_eq!(
            f.get_parse("loss", "full".to_string()).expect("parses"),
            "smallneg"
        );
        assert_eq!(f.get_parse("negatives", 0usize).expect("parses"), 256);
    }

    #[test]
    fn missing_and_malformed_values_are_typed() {
        let fs = FlagSet::new().valued("rows");
        assert_eq!(
            fs.parse(&argv(&["--rows"])),
            Err(FlagError::MissingValue {
                flag: "--rows".into()
            })
        );
        let f = fs.parse(&argv(&["--rows", "lots"])).expect("parse ok");
        match f.get_parse("rows", 0usize) {
            Err(FlagError::BadValue { flag, value, .. }) => {
                assert_eq!((flag.as_str(), value.as_str()), ("--rows", "lots"));
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn positional_arguments_and_valued_switches_are_rejected() {
        let fs = FlagSet::new().switch("quick");
        assert_eq!(
            fs.parse(&argv(&["stray"])),
            Err(FlagError::Positional {
                arg: "stray".into()
            })
        );
        assert_eq!(
            fs.parse(&argv(&["--quick=yes"])),
            Err(FlagError::UnexpectedValue {
                flag: "--quick=yes".into()
            })
        );
    }

    #[test]
    fn cargo_bench_harness_flag_is_tolerated() {
        let f = FlagSet::new()
            .parse(&argv(&["--bench"]))
            .expect("tolerated");
        assert!(f.is_set("bench"));
    }

    #[test]
    fn errors_render_readably() {
        let e = FlagError::Unknown {
            flag: "--qick".into(),
            allowed: vec!["--quick".into()],
        };
        assert!(e.to_string().contains("--quick"));
        let e = FlagError::BadValue {
            flag: "--rows".into(),
            value: "x".into(),
            reason: "invalid digit".into(),
        };
        assert!(e.to_string().contains("invalid digit"));
    }
}
