//! The shared experiment command line, parsed once.
//!
//! Every `xp` experiment subcommand understands the same flags:
//!
//! | flag | meaning |
//! |------|---------|
//! | `--quick` | reduced sweep (also honoured via `NONSEARCH_QUICK=1`) |
//! | `--threads N` | worker threads for the trial engine (0 = all cores) |
//! | `--seed S` | override the experiment's default root seed |
//! | `--out PATH` | write structured run records to `PATH` |
//! | `--format F` | `jsonl` (default), `csv`, or `both` |
//! | `--trials N` | override the per-cell trial count |
//! | `--sizes A,B,C` | override the size sweep |
//! | `--corpus DIR` | serve trial graphs from a stored corpus instead of generating |
//! | `--mmap` | serve corpus graphs zero-copy from memory-mapped files |
//! | `--trust-checksums` | skip per-load payload checksums (run `corpus verify` first) |
//! | `--profile` | emit per-cell throughput records (`"type":"profile"`) alongside cells |
//! | `--trace PATH` | record run/cell/trial spans and write Chrome Trace Event JSON to `PATH` |
//! | `--heal` | quarantine + regenerate corrupt corpus blobs instead of failing the load |
//!
//! `--quick`, `--mmap`, `--trust-checksums`, `--profile`, and `--heal` are boolean flags: they take no value, and
//! the parser rejects `--quick=...` outright — silently treating
//! `--quick=false` as *enabling* quick mode was a real bug. Unknown
//! arguments and malformed values are errors too.
//! `NONSEARCH_QUICK` enables quick mode unless it is empty or one of
//! `0`, `false`, `off`, `no` (case-insensitive), which disable it —
//! `NONSEARCH_QUICK=0` used to enable quick mode too.

use std::fmt;
use std::path::PathBuf;

/// Which structured formats a run writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// JSON Lines: one self-describing object per record.
    #[default]
    Jsonl,
    /// Comma-separated values with a header row.
    Csv,
    /// JSON Lines at `--out`, CSV alongside with a `.csv` extension.
    Both,
}

impl OutputFormat {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<OutputFormat, OptionsError> {
        match s {
            "jsonl" | "json" => Ok(OutputFormat::Jsonl),
            "csv" => Ok(OutputFormat::Csv),
            "both" => Ok(OutputFormat::Both),
            other => Err(OptionsError::BadValue {
                flag: "--format",
                value: other.to_string(),
                expected: "jsonl | csv | both",
            }),
        }
    }
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputFormat::Jsonl => "jsonl",
            OutputFormat::Csv => "csv",
            OutputFormat::Both => "both",
        })
    }
}

/// A malformed experiment command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionsError {
    /// A flag that takes a value was given none.
    MissingValue {
        /// The offending flag.
        flag: &'static str,
    },
    /// A flag value failed to parse.
    BadValue {
        /// The offending flag.
        flag: &'static str,
        /// What was passed.
        value: String,
        /// What would have parsed.
        expected: &'static str,
    },
    /// An argument the parser does not know.
    Unknown {
        /// The argument as given.
        arg: String,
    },
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            OptionsError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag}: cannot parse {value:?} (expected {expected})"),
            OptionsError::Unknown { arg } => write!(f, "unknown argument {arg:?}"),
        }
    }
}

impl std::error::Error for OptionsError {}

/// The experiment options shared by every `xp` experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// Reduced sweep requested (`--quick` / `NONSEARCH_QUICK`).
    pub quick: bool,
    /// Requested worker threads; `0` means one per available core.
    pub threads: usize,
    /// Root-seed override (`None` = the experiment's default seed).
    pub seed: Option<u64>,
    /// Structured-output path (`None` = pretty tables only).
    pub out: Option<PathBuf>,
    /// Structured-output format.
    pub format: OutputFormat,
    /// Per-cell trial-count override.
    pub trials: Option<usize>,
    /// Size-sweep override.
    pub sizes: Option<Vec<usize>>,
    /// Directory of a persistent graph corpus; experiments that sample
    /// whole graphs per trial serve them from here instead of
    /// regenerating (`None` = generate per trial).
    pub corpus: Option<PathBuf>,
    /// Serve corpus graphs zero-copy from memory-mapped `.nsg` files
    /// (`--mmap`); meaningful only together with `--corpus`.
    pub mmap: bool,
    /// Skip the per-load payload checksum pass on corpus opens
    /// (`--trust-checksums`): integrity then rests on a prior
    /// `corpus verify`, which always hashes. Meaningful only together
    /// with `--corpus`.
    pub trust_checksums: bool,
    /// Emit per-cell throughput records (`--profile`): wall time and
    /// requests/sec per measured cell, as JSONL `"type":"profile"`
    /// records riding alongside the deterministic cell stream.
    pub profile: bool,
    /// Write span traces as Chrome Trace Event Format JSON to this path
    /// (`--trace PATH`): run → size-cell → trial-batch scopes, loadable
    /// in Perfetto / `chrome://tracing`. `None` disables tracing.
    pub trace: Option<PathBuf>,
    /// Self-heal corrupt corpus blobs (`--heal`): a checksum-failing
    /// `.nsg` file is quarantined and regenerated from the manifest's
    /// model spec + seed instead of failing the load. Meaningful only
    /// together with `--corpus`.
    pub heal: bool,
}

impl CliOptions {
    /// Parses experiment flags: unknown arguments and malformed values
    /// are errors. `NONSEARCH_QUICK` in the environment also enables
    /// quick mode.
    pub fn from_args<I, S>(args: I) -> Result<CliOptions, OptionsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut opts = CliOptions {
            quick: env_flag_enabled(std::env::var_os("NONSEARCH_QUICK")),
            ..CliOptions::default()
        };
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            // Accept both `--flag value` and `--flag=value`.
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let mut value = |flag_name: &'static str| -> Result<String, OptionsError> {
                match &inline {
                    Some(v) => Ok(v.clone()),
                    // Never consume a following `--flag` as this flag's
                    // value: `--seed --quick` must report the missing
                    // seed, not eat (and lose) `--quick`.
                    None => match iter.peek() {
                        Some(next) if !next.starts_with("--") => {
                            Ok(iter.next().expect("peeked value exists"))
                        }
                        _ => Err(OptionsError::MissingValue { flag: flag_name }),
                    },
                }
            };
            // Boolean flags take no value. An inline value is an error:
            // `--quick=false` must not *enable* quick mode.
            let boolean = |flag_name: &'static str| -> Result<bool, OptionsError> {
                match &inline {
                    Some(v) => Err(OptionsError::BadValue {
                        flag: flag_name,
                        value: v.clone(),
                        expected: "no value (boolean flag; pass it bare)",
                    }),
                    None => Ok(true),
                }
            };
            match flag.as_str() {
                "--quick" => boolean("--quick").map(|b| opts.quick = b),
                "--mmap" => boolean("--mmap").map(|b| opts.mmap = b),
                "--trust-checksums" => {
                    boolean("--trust-checksums").map(|b| opts.trust_checksums = b)
                }
                "--profile" => boolean("--profile").map(|b| opts.profile = b),
                "--heal" => boolean("--heal").map(|b| opts.heal = b),
                "--threads" => value("--threads")
                    .and_then(|v| parse_num(&v, "--threads"))
                    .map(|n| opts.threads = n),
                "--seed" => value("--seed")
                    .and_then(|v| parse_num(&v, "--seed"))
                    .map(|s| opts.seed = Some(s)),
                "--trials" => value("--trials")
                    .and_then(|v| parse_num(&v, "--trials"))
                    .map(|t| opts.trials = Some(t)),
                "--out" => value("--out").map(|v| opts.out = Some(PathBuf::from(v))),
                "--trace" => value("--trace").map(|v| opts.trace = Some(PathBuf::from(v))),
                "--corpus" => value("--corpus").map(|v| opts.corpus = Some(PathBuf::from(v))),
                "--format" => value("--format")
                    .and_then(|v| OutputFormat::parse(&v))
                    .map(|f| opts.format = f),
                "--sizes" => value("--sizes").and_then(|raw| {
                    let sizes: Result<Vec<usize>, OptionsError> = raw
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| parse_num(s, "--sizes"))
                        .collect();
                    let sizes = sizes?;
                    if sizes.is_empty() {
                        return Err(OptionsError::BadValue {
                            flag: "--sizes",
                            value: raw,
                            expected: "a comma-separated list like 512,1024",
                        });
                    }
                    opts.sizes = Some(sizes);
                    Ok(())
                }),
                _ => Err(OptionsError::Unknown { arg }),
            }?;
        }
        Ok(opts)
    }

    /// The worker-thread count after resolving `0` to the machine's
    /// available parallelism. This is the run's worker *ceiling*: the
    /// engine additionally caps each cell's workers at its trial count.
    pub fn resolved_threads(&self) -> usize {
        crate::runner::resolve_thread_setting(self.threads)
    }

    /// The experiment's root seed: the `--seed` override, else `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Applies the `--sizes` override / quick truncation to a full sweep.
    pub fn sweep(&self, full: &[usize]) -> Vec<usize> {
        if let Some(sizes) = &self.sizes {
            return sizes.clone();
        }
        if self.quick {
            full.iter().copied().take(3.min(full.len())).collect()
        } else {
            full.to_vec()
        }
    }

    /// Applies the `--trials` override / quick scaling to a full count.
    pub fn trial_count(&self, full: usize) -> usize {
        if let Some(trials) = self.trials {
            return trials.max(1);
        }
        if self.quick {
            (full / 3).max(3)
        } else {
            full
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &'static str) -> Result<T, OptionsError> {
    s.parse().map_err(|_| OptionsError::BadValue {
        flag,
        value: s.to_string(),
        expected: "a non-negative integer",
    })
}

/// Interprets an on/off environment variable (`NONSEARCH_QUICK`).
///
/// Unset, empty, and the usual negatives — `0`, `false`, `off`, `no`
/// (case-insensitive, whitespace-trimmed) — mean *off*; anything else
/// (`1`, `true`, …) means *on*. The old rule was "set at all means on",
/// which turned `NONSEARCH_QUICK=0` into a way to *enable* quick mode.
fn env_flag_enabled(value: Option<std::ffi::OsString>) -> bool {
    match value {
        None => false,
        Some(raw) => {
            let text = raw.to_string_lossy();
            let text = text.trim();
            !(text.is_empty()
                || text.eq_ignore_ascii_case("0")
                || text.eq_ignore_ascii_case("false")
                || text.eq_ignore_ascii_case("off")
                || text.eq_ignore_ascii_case("no"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(args: &[&str]) -> Result<CliOptions, OptionsError> {
        CliOptions::from_args(args.iter().copied())
    }

    #[test]
    fn parses_every_flag() {
        let opts = strict(&[
            "--quick",
            "--threads",
            "4",
            "--seed",
            "17",
            "--out",
            "runs.jsonl",
            "--format",
            "both",
            "--trials",
            "9",
            "--sizes",
            "128,256,512",
            "--corpus",
            "corpus-dir",
            "--trust-checksums",
            "--profile",
            "--heal",
            "--trace",
            "run.trace.json",
        ])
        .unwrap();
        assert!(opts.quick);
        assert!(opts.trust_checksums);
        assert!(opts.profile);
        assert!(opts.heal);
        assert_eq!(
            opts.trace.as_deref(),
            Some(std::path::Path::new("run.trace.json"))
        );
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.seed, Some(17));
        assert_eq!(
            opts.out.as_deref(),
            Some(std::path::Path::new("runs.jsonl"))
        );
        assert_eq!(opts.format, OutputFormat::Both);
        assert_eq!(opts.trials, Some(9));
        assert_eq!(opts.sizes, Some(vec![128, 256, 512]));
        assert_eq!(
            opts.corpus.as_deref(),
            Some(std::path::Path::new("corpus-dir"))
        );
    }

    #[test]
    fn equals_form_is_accepted() {
        let opts = strict(&["--threads=2", "--sizes=64,128"]).unwrap();
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.sizes, Some(vec![64, 128]));
    }

    #[test]
    fn strict_rejects_unknown_arguments() {
        for args in [&["--wat"][..], &["--quick", "--wat"]] {
            assert_eq!(
                strict(args),
                Err(OptionsError::Unknown {
                    arg: "--wat".into()
                })
            );
        }
    }

    #[test]
    fn value_less_flag_never_eats_a_following_flag() {
        // The missing value is reported against `--seed`.
        assert_eq!(
            strict(&["--seed", "--quick"]),
            Err(OptionsError::MissingValue { flag: "--seed" })
        );
    }

    #[test]
    fn missing_and_bad_values_are_reported() {
        assert_eq!(
            strict(&["--threads"]),
            Err(OptionsError::MissingValue { flag: "--threads" })
        );
        assert!(matches!(
            strict(&["--seed", "xyz"]),
            Err(OptionsError::BadValue { flag: "--seed", .. })
        ));
        assert!(matches!(
            strict(&["--format", "xml"]),
            Err(OptionsError::BadValue {
                flag: "--format",
                ..
            })
        ));
        assert!(matches!(
            strict(&["--sizes", ","]),
            Err(OptionsError::BadValue {
                flag: "--sizes",
                ..
            })
        ));
    }

    #[test]
    fn env_flag_values_are_interpreted_not_just_detected() {
        use std::ffi::OsString;
        let enabled = |v: &str| env_flag_enabled(Some(OsString::from(v)));
        assert!(!env_flag_enabled(None));
        // The regression: these used to enable quick mode.
        for off in ["", "0", "false", "FALSE", "off", "Off", "no", " 0 "] {
            assert!(!enabled(off), "{off:?} must disable");
        }
        for on in ["1", "true", "TRUE", "yes", "on", "quick"] {
            assert!(enabled(on), "{on:?} must enable");
        }
    }

    #[test]
    fn boolean_flags_reject_inline_values_strictly() {
        // The regression: `--quick=false` used to *enable* quick mode.
        for arg in [
            "--quick=false",
            "--quick=true",
            "--quick=",
            "--mmap=0",
            "--trust-checksums=1",
            "--profile=true",
            "--heal=1",
        ] {
            let err = strict(&[arg]).unwrap_err();
            assert!(
                matches!(err, OptionsError::BadValue { .. }),
                "{arg}: {err:?}"
            );
        }
    }

    #[test]
    fn mmap_flag_parses() {
        let opts = strict(&["--mmap", "--corpus", "dir"]).unwrap();
        assert!(opts.mmap);
        assert!(!CliOptions::default().mmap);
    }

    #[test]
    fn profile_flag_parses() {
        let opts = strict(&["--profile"]).unwrap();
        assert!(opts.profile);
        assert!(!CliOptions::default().profile);
    }

    #[test]
    fn heal_flag_parses() {
        let opts = strict(&["--heal", "--corpus", "dir"]).unwrap();
        assert!(opts.heal);
        assert!(!CliOptions::default().heal);
    }

    #[test]
    fn trust_checksums_flag_parses() {
        let opts = strict(&["--trust-checksums", "--corpus", "dir"]).unwrap();
        assert!(opts.trust_checksums);
        assert!(!CliOptions::default().trust_checksums);
    }

    #[test]
    fn sweep_and_trials_honour_quick_and_overrides() {
        let full = CliOptions::default();
        assert_eq!(full.sweep(&[1, 2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(full.trial_count(12), 12);

        let quick = CliOptions {
            quick: true,
            ..CliOptions::default()
        };
        assert_eq!(quick.sweep(&[1, 2, 3, 4]), vec![1, 2, 3]);
        assert_eq!(quick.trial_count(12), 4);
        assert_eq!(quick.trial_count(4), 3);

        let overridden = CliOptions {
            quick: true,
            trials: Some(2),
            sizes: Some(vec![99]),
            ..CliOptions::default()
        };
        assert_eq!(overridden.sweep(&[1, 2, 3, 4]), vec![99]);
        assert_eq!(overridden.trial_count(12), 2);
    }

    #[test]
    fn resolved_threads_never_zero() {
        let opts = CliOptions::default();
        assert!(opts.resolved_threads() >= 1);
        let two = CliOptions {
            threads: 2,
            ..CliOptions::default()
        };
        assert_eq!(two.resolved_threads(), 2);
    }

    #[test]
    fn seed_override() {
        assert_eq!(CliOptions::default().seed_or(7), 7);
        let opts = CliOptions {
            seed: Some(1),
            ..CliOptions::default()
        };
        assert_eq!(opts.seed_or(7), 1);
    }

    #[test]
    fn errors_render() {
        let text = OptionsError::BadValue {
            flag: "--seed",
            value: "x".into(),
            expected: "a non-negative integer",
        }
        .to_string();
        assert!(text.contains("--seed"));
        assert!(OptionsError::MissingValue { flag: "--out" }
            .to_string()
            .contains("--out"));
    }
}
