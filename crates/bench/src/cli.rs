//! The `repro` command line: one argument reader and one typed error for
//! every reproduction.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use multipod_topology::MultipodConfig;

/// Every flag `repro` reads, as (flag, value placeholder — empty for a
/// bare switch, help). [`crate::usage`] prints this list and
/// [`Args::new`] rejects any flag outside it.
#[rustfmt::skip]
pub(crate) const FLAGS: &[(&str, &str, &str)] = &[
    ("--mesh", "<WxH>", "mesh instead of the 128x32 multipod (campaign rows)"),
    ("--json", "<path>", "the row's BENCH_*.json envelope (default: the committed one)"),
    ("--trace", "<path>", "also export a Chrome trace"),
    ("--profile", "<path>", "also export a flight-recorder report"),
    ("--check-determinism", "", "run twice; fail unless text, reports and trace agree"),
    ("--steps", "<n>", "training steps (faults, ckpt)"),
    ("--interval", "<n>", "steps between checkpoints (ckpt)"),
    ("--jobs", "<n>", "jobs submitted (sched, serve)"),
    ("--queries", "<n>", "DLRM queries (serve)"),
    ("--seed", "<n>", "arrival-stream seed (sched, serve)"),
    ("--chips", "<n>", "slice size (overlap)"),
    ("--buckets", "<n>", "gradient buckets (overlap)"),
    ("--quick", "", "2M samples instead of 20M (auc)"),
];

/// The flags after `repro <name>`. A flag is `--name value` or
/// `--name=value` (a bare switch is just `--name`); flags an entry does
/// not read are ignored, flags no entry reads are rejected.
#[derive(Clone, Debug, Default)]
pub struct Args {
    argv: Vec<String>,
    /// Set by `repro all` (never by a flag): entries that scale run the
    /// small anchor configuration EXPERIMENTS.md summarizes.
    pub(crate) summary: bool,
}

impl Args {
    /// Wraps the arguments that follow the reproduction name.
    ///
    /// # Errors
    ///
    /// [`ReproError::UnknownFlag`] for an argument that is not one of the
    /// flags [`crate::usage`] lists, in its form (a value flag with its
    /// value, a bare switch without one); [`ReproError::MissingValue`]
    /// for a value flag that ends the command line.
    pub fn new(argv: Vec<String>) -> Result<Args, ReproError> {
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let unknown = || ReproError::UnknownFlag(arg.clone());
            let (name, inline) = match arg.split_once('=') {
                Some((name, _)) => (name, true),
                None => (arg.as_str(), false),
            };
            let (flag, value, _) = FLAGS
                .iter()
                .find(|(flag, ..)| *flag == name)
                .ok_or_else(unknown)?;
            match (value.is_empty(), inline) {
                // `--flag value`: the next argument is the value.
                (false, false) => {
                    rest.next().ok_or(ReproError::MissingValue(flag))?;
                }
                (true, true) => return Err(unknown()),
                _ => {}
            }
        }
        Ok(Args {
            argv,
            summary: false,
        })
    }

    /// The raw value of `--flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let mut args = self.argv.iter();
        while let Some(arg) = args.next() {
            if arg == flag {
                return args.next().map(String::as_str);
            }
            if let Some(v) = arg.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                return Some(v);
            }
        }
        None
    }

    /// Whether the bare switch `--flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }

    /// `--flag <path>` as a path.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// `--flag <integer>`, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// [`ReproError::BadFlag`] when the value does not parse.
    pub fn parsed<T: FromStr>(&self, flag: &'static str, default: T) -> Result<T, ReproError> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ReproError::BadFlag {
                flag,
                value: v.to_string(),
            }),
        }
    }

    /// `--mesh <WxH>` as a torus-wrapped mesh, or `default` (usually the
    /// paper's 128×32 multipod).
    ///
    /// # Errors
    ///
    /// [`ReproError::BadMesh`] unless the spec is `WxH` with positive
    /// integer extents.
    pub fn mesh(&self, default: MultipodConfig) -> Result<MultipodConfig, ReproError> {
        let Some(spec) = self.value("--mesh") else {
            return Ok(default);
        };
        let extents = spec
            .split_once('x')
            .and_then(|(x, y)| Some((x.parse::<u32>().ok()?, y.parse::<u32>().ok()?)));
        match extents {
            Some((x, y)) if x > 0 && y > 0 => Ok(MultipodConfig::mesh(x, y, true)),
            _ => Err(ReproError::BadMesh(spec.to_string())),
        }
    }
}

/// Why a `repro` invocation did not produce its result.
///
/// Not itself a [`std::error::Error`], so that `?` lifts every simulator
/// error into [`ReproError::Failed`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ReproError {
    /// No reproduction name on the command line.
    MissingName,
    /// The name matches no row of [`crate::REPROS`].
    UnknownRepro(String),
    /// The name matches no workload of the model catalog.
    UnknownBenchmark(String),
    /// `--mesh` was not `WxH` with positive integer extents.
    BadMesh(String),
    /// A numeric flag's value did not parse.
    BadFlag {
        /// The flag as written on the command line.
        flag: &'static str,
        /// Its unparseable value.
        value: String,
    },
    /// An argument that is not one of the flags `repro` reads.
    UnknownFlag(String),
    /// A value flag given last, with no value after it.
    MissingValue(&'static str),
    /// `(flag, row)`: a flag the row rejects, as ignoring it would not do
    /// what the command line asks.
    NotRead(&'static str, &'static str),
    /// The simulation, or reading or writing a file, failed.
    Failed(Box<dyn Error>),
}

impl ReproError {
    /// A [`ReproError::Failed`] carrying a message.
    pub fn failed(message: String) -> ReproError {
        ReproError::Failed(message.into())
    }

    /// Whether the command line itself was wrong (exit 2 with usage)
    /// rather than the run (exit 1).
    pub fn is_usage(&self) -> bool {
        !matches!(self, ReproError::Failed(_))
    }
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::MissingName => write!(f, "no reproduction named"),
            ReproError::UnknownRepro(name) => write!(f, "unknown reproduction '{name}'"),
            ReproError::UnknownBenchmark(name) => {
                let known: Vec<_> = multipod_models::catalog::all()
                    .iter()
                    .map(|w| w.name)
                    .collect();
                write!(
                    f,
                    "unknown benchmark '{name}'; one of: {}",
                    known.join(", ")
                )
            }
            ReproError::BadMesh(spec) => write!(
                f,
                "--mesh expects WxH with positive integer extents, got '{spec}'"
            ),
            ReproError::BadFlag { flag, value } => {
                write!(f, "{flag} expects an integer, got '{value}'")
            }
            ReproError::UnknownFlag(arg) => write!(f, "unknown flag '{arg}'"),
            ReproError::MissingValue(flag) => write!(f, "{flag} expects a value"),
            ReproError::NotRead(flag, row) => write!(f, "`repro {row}` does not read {flag}"),
            ReproError::Failed(e) => write!(f, "{e}"),
        }
    }
}

impl<E: Error + 'static> From<E> for ReproError {
    fn from(e: E) -> ReproError {
        ReproError::Failed(Box::new(e))
    }
}
