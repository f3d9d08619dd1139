//! Shared command-line plumbing for the `src/bin/*` binaries.
//!
//! Every table/figure/tool binary accepts the same scenario-selection
//! vocabulary (`--isa`, `--model`, `--app`, `--cores`) and the sweep
//! family adds campaign knobs (`--faults`, `--epsilon`, `--threads`,
//! `--seed`, `--db`, `--sink`, `--prune-dead`, `--prune-classes`). This
//! module keeps the
//! parsing in one place so the binaries stay single-screen `main`s:
//!
//! * [`Parser`] — a minimal flag walker with uniform `usage:` / bad
//!   value / unknown flag diagnostics (exit code 2, matching the
//!   original `sweep` behaviour).
//! * [`ScenarioFilter`] — the four selection flags and their projection
//!   of [`Scenario::all`].
//! * [`SweepOpts`] — filter plus campaign overrides, and the resolution
//!   of database/sink paths and [`FleetConfig`] from flags over
//!   environment defaults.

use fracas::inject::FleetConfig;
use fracas::isa::IsaKind;
use fracas::npb::{App, Model, Scenario};
use std::path::{Path, PathBuf};
use std::process::exit;

/// Walks `std::env::args`, producing flags and their values with
/// uniform error handling. `--help`/`-h` print the usage line and exit.
pub struct Parser {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Parser {
    /// A parser over the process arguments; `usage` is the flag summary
    /// printed on any parse error.
    #[must_use]
    pub fn new(usage: &'static str) -> Parser {
        Parser {
            usage,
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// The next flag, or `None` when the command line is exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            self.usage();
        }
        Some(flag)
    }

    /// Prints the usage line and exits with status 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {}", self.usage);
        exit(2)
    }

    /// The value following `flag`, or a usage error.
    pub fn value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            self.usage()
        })
    }

    /// The value following `flag`, parsed as `T`, or a usage error.
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let text = self.value(flag);
        text.parse().unwrap_or_else(|_| {
            eprintln!("bad value {text:?} for {flag}");
            self.usage()
        })
    }

    /// Rejects an unrecognised flag with a usage error.
    pub fn unknown(&self, flag: &str) -> ! {
        eprintln!("unknown flag {flag}");
        self.usage()
    }
}

/// The four scenario-selection flags shared by every binary that
/// iterates campaigns. Unset fields match everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScenarioFilter {
    /// `--isa sira32|sira64`
    pub isa: Option<IsaKind>,
    /// `--model ser|omp|mpi`
    pub model: Option<Model>,
    /// `--app NAME` (case-insensitive NPB kernel name)
    pub app: Option<App>,
    /// `--cores N`
    pub cores: Option<u32>,
}

/// The usage fragment for [`ScenarioFilter`]'s flags.
pub const FILTER_USAGE: &str =
    "[--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N]";

impl ScenarioFilter {
    /// Consumes `flag` (and its value) when it is one of the selection
    /// flags; returns `false` to let the caller try its own flags.
    pub fn accept(&mut self, p: &mut Parser, flag: &str) -> bool {
        match flag {
            "--isa" => {
                self.isa = Some(match p.value(flag).as_str() {
                    "sira32" => IsaKind::Sira32,
                    "sira64" => IsaKind::Sira64,
                    other => {
                        eprintln!("unknown ISA {other}");
                        p.usage()
                    }
                });
            }
            "--model" => {
                self.model = Some(match p.value(flag).as_str() {
                    "ser" | "serial" => Model::Serial,
                    "omp" => Model::Omp,
                    "mpi" => Model::Mpi,
                    other => {
                        eprintln!("unknown model {other}");
                        p.usage()
                    }
                });
            }
            "--app" => {
                let name = p.value(flag).to_uppercase();
                self.app = Some(
                    App::ALL
                        .into_iter()
                        .find(|a| a.name() == name)
                        .unwrap_or_else(|| {
                            eprintln!("unknown app {name}");
                            p.usage()
                        }),
                );
            }
            "--cores" => self.cores = Some(p.parsed(flag)),
            _ => return false,
        }
        true
    }

    /// True when `s` passes every set field.
    #[must_use]
    pub fn matches(&self, s: &Scenario) -> bool {
        self.isa.is_none_or(|isa| s.isa == isa)
            && self.model.is_none_or(|m| s.model == m)
            && self.app.is_none_or(|a| s.app == a)
            && self.cores.is_none_or(|c| s.cores == c)
    }

    /// The matching subset of [`Scenario::all`]; exits with status 1
    /// when the filters select nothing (always a user typo).
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let out: Vec<Scenario> = Scenario::all()
            .into_iter()
            .filter(|s| self.matches(s))
            .collect();
        if out.is_empty() {
            eprintln!("no scenario matches the given filters");
            exit(1);
        }
        out
    }
}

/// The full sweep-family command line: scenario selection plus campaign
/// configuration overrides. Environment knobs (`FRACAS_FAULTS`, ...)
/// supply defaults; flags win.
#[derive(Debug, Default)]
pub struct SweepOpts {
    /// Scenario selection.
    pub filter: ScenarioFilter,
    /// `--faults N`: injections per scenario.
    pub faults: Option<usize>,
    /// `--epsilon E`: Wilson-interval early-stop half-width.
    pub epsilon: Option<f64>,
    /// `--threads N`: worker-pool size.
    pub threads: Option<usize>,
    /// `--seed N`: campaign PRNG seed.
    pub seed: Option<u64>,
    /// `--db PATH`: campaign database file.
    pub db: Option<PathBuf>,
    /// `--sink PATH`: in-flight record sink.
    pub sink: Option<PathBuf>,
    /// `--prune-dead`: short-circuit provably-masked injections (the
    /// database is byte-identical with or without it, only faster).
    pub prune_dead: bool,
    /// `--prune-classes`: collapse the fault list into interval-keyed
    /// equivalence classes and execute one representative per class
    /// (byte-identical database, fewer executions; composes with
    /// `--prune-dead`).
    pub prune_classes: bool,
    /// `--oracle-audit R`: with `--prune-dead` or `--prune-classes`,
    /// also execute a deterministic fraction `R` of the synthesized
    /// records (pruned faults and class members) for real and fail the
    /// sweep on any oracle-vs-execution mismatch.
    pub oracle_audit: Option<f64>,
    /// `--<domain>-faults` flags, in command-line order: fault-domain
    /// registry names whose spaces replace the architectural-register
    /// default. The first flag resets the space to empty, every flag
    /// enables its domain, so flags compose (`--text-faults` alone is
    /// the decode-differential campaign axis; `--cache-faults
    /// --kernelctl-faults --skip-faults` is the uncore axis).
    pub domains: Vec<&'static str>,
}

/// Resolves a `--<domain>-faults` flag against the fault-domain
/// registry: `Some(domain name)` when the stem names a registered
/// boolean-switch domain, `None` otherwise. Adding a domain to the
/// registry grows the sweep's flag set with no change here.
fn domain_flag(flag: &str) -> Option<&'static str> {
    let stem = flag.strip_prefix("--")?.strip_suffix("-faults")?;
    fracas::inject::domains()
        .iter()
        .find(|d| d.flag == Some(stem))
        .map(|d| d.name)
}

impl SweepOpts {
    /// The usage fragment for the campaign flags (append to
    /// [`FILTER_USAGE`]).
    pub const USAGE: &'static str = "[--faults N] [--epsilon E] [--threads N] [--seed N] \
         [--db PATH] [--sink PATH] [--prune-dead] [--prune-classes] [--oracle-audit R] \
         [--<domain>-faults: gpr|fpr|flag|text|cache|kernelctl|skip|storebuf|cachedata]";

    /// Parses the process arguments, accepting the filter flags and the
    /// campaign overrides.
    #[must_use]
    pub fn parse(usage: &'static str) -> SweepOpts {
        let mut p = Parser::new(usage);
        let mut opts = SweepOpts::default();
        while let Some(flag) = p.next_flag() {
            if opts.filter.accept(&mut p, &flag) {
                continue;
            }
            match flag.as_str() {
                "--faults" => opts.faults = Some(p.parsed(&flag)),
                "--epsilon" => opts.epsilon = Some(p.parsed(&flag)),
                "--threads" => opts.threads = Some(p.parsed(&flag)),
                "--seed" => opts.seed = Some(p.parsed(&flag)),
                "--db" => opts.db = Some(PathBuf::from(p.value(&flag))),
                "--sink" => opts.sink = Some(PathBuf::from(p.value(&flag))),
                "--prune-dead" => opts.prune_dead = true,
                "--prune-classes" => opts.prune_classes = true,
                "--oracle-audit" => opts.oracle_audit = Some(p.parsed(&flag)),
                other => match domain_flag(other) {
                    Some(name) => opts.domains.push(name),
                    None => p.unknown(other),
                },
            }
        }
        opts
    }

    /// [`crate::fleet_config`] with this command line's overrides
    /// applied on top.
    #[must_use]
    pub fn fleet_config(&self) -> FleetConfig {
        let mut config = crate::fleet_config();
        if let Some(v) = self.faults {
            config.campaign.faults = v;
        }
        if let Some(v) = self.epsilon {
            config.epsilon = v;
        }
        if let Some(v) = self.threads {
            config.campaign.threads = v;
        }
        if let Some(v) = self.seed {
            config.campaign.seed = v;
        }
        if self.prune_dead {
            config.campaign.prune_dead = true;
        }
        if self.prune_classes {
            config.campaign.prune_classes = true;
        }
        if let Some(v) = self.oracle_audit {
            config.campaign.oracle_audit = v;
        }
        if !self.domains.is_empty() {
            let mut space = fracas::inject::FaultSpace::none();
            for name in &self.domains {
                let domain = fracas::inject::domain_named(name).expect("parsed from the registry");
                (domain.enable)(&mut space);
            }
            config.campaign.space = space;
        }
        config
    }

    /// The database path: `--db`, else [`crate::db_path`].
    #[must_use]
    pub fn db_path(&self) -> PathBuf {
        self.db.clone().unwrap_or_else(crate::db_path)
    }

    /// The sink path: `--sink`, else the database path with a `.wal`
    /// suffix appended.
    #[must_use]
    pub fn sink_path(&self, db: &Path) -> PathBuf {
        self.sink
            .clone()
            .unwrap_or_else(|| crate::with_suffix(db, ".wal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_matches_every_scenario() {
        let filter = ScenarioFilter::default();
        assert!(Scenario::all().iter().all(|s| filter.matches(s)));
    }

    #[test]
    fn filter_fields_project_the_suite() {
        let filter = ScenarioFilter {
            isa: Some(IsaKind::Sira64),
            model: Some(Model::Serial),
            app: Some(App::Ep),
            cores: None,
        };
        let hits: Vec<Scenario> = Scenario::all()
            .into_iter()
            .filter(|s| filter.matches(s))
            .collect();
        assert!(!hits.is_empty());
        assert!(hits
            .iter()
            .all(|s| s.isa == IsaKind::Sira64 && s.model == Model::Serial && s.app == App::Ep));
    }

    #[test]
    fn sink_path_appends_wal_to_the_db_path() {
        let opts = SweepOpts::default();
        assert_eq!(
            opts.sink_path(Path::new("/tmp/x.jsonl")),
            PathBuf::from("/tmp/x.jsonl.wal")
        );
    }
}
