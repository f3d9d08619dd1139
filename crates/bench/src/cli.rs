//! Shared command-line plumbing for the `src/bin/*` binaries.
//!
//! Every table/figure/tool binary accepts the same scenario-selection
//! vocabulary (`--isa`, `--model`, `--app`, `--cores`), and the sweep
//! family adds the campaign knobs. This module keeps the parsing in one
//! place so the binaries stay single-screen `main`s:
//!
//! * [`Parser`] — a minimal flag walker with uniform `usage:` / bad
//!   value / unknown flag diagnostics (exit code 2).
//! * [`ScenarioFilter`] — the four selection flags and their projection
//!   of [`Scenario::all`].
//! * [`KNOBS`] — the one table of campaign knobs. Each row declares a
//!   knob's flag, its `FRACAS_*` environment variable and its harness
//!   default; [`KnobFlags::resolve`] takes every knob from the flag,
//!   else the variable, else the default, and rejects malformed values.
//! * [`SweepOpts`] — filter plus the resolved knobs: the
//!   [`FleetConfig`] and the database/sink paths.

use fracas::inject::FleetConfig;
use fracas::isa::IsaKind;
use fracas::npb::{App, Model, Scenario};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Walks `std::env::args`, producing flags and their values with
/// uniform error handling. `--help`/`-h` print the usage line and exit.
pub struct Parser {
    usage: String,
    args: std::vec::IntoIter<String>,
}

impl Parser {
    /// A parser over the process arguments; `usage` is the flag summary
    /// printed on any parse error.
    #[must_use]
    pub fn new(usage: impl Into<String>) -> Parser {
        Parser {
            usage: usage.into(),
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
        self.fail(&format!("unknown flag {flag}"))
    }

    /// Prints `message` and the usage line, and exits with status 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{message}");
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

/// One campaign knob: its command-line flag, the `FRACAS_*` variable it
/// falls back to, and the harness default after that.
pub struct Knob {
    /// The flag, e.g. `--faults`.
    pub flag: &'static str,
    /// The environment variable read when the flag is absent.
    pub env: &'static str,
    /// The value placeholder in the usage text; empty for a switch,
    /// whose flag alone means `1`.
    pub arg: &'static str,
    /// The value used when neither the flag nor the variable is set;
    /// `None` leaves the knob unset.
    pub default: Option<&'static str>,
    /// What the knob sets, for the usage text.
    pub help: &'static str,
    /// Applies a value; `None` rejects it as malformed.
    set: fn(&mut SweepOpts, &str) -> Option<()>,
}

/// Stores a parsed value; `None` (malformed) leaves `slot` alone and
/// rejects the value.
fn put<T>(slot: &mut T, value: Option<T>) -> Option<()> {
    *slot = value?;
    Some(())
}

/// A probability: a number in `[0, 1]` (NaN is outside).
fn unit(value: &str) -> Option<f64> {
    value.parse().ok().filter(|v| (0.0..=1.0).contains(v))
}

/// A switch value: `1` (on) or `0` (off).
fn switch(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// Every campaign knob of the sweep family, in usage order. This table
/// is the only place a knob's flag, variable and default are declared.
pub const KNOBS: [Knob; 9] = [
    Knob {
        flag: "--faults",
        env: "FRACAS_FAULTS",
        arg: "N",
        default: Some("60"),
        help: "injections per scenario (the paper used 8,000)",
        set: |o, v| put(&mut o.config.campaign.faults, v.parse().ok()),
    },
    Knob {
        flag: "--seed",
        env: "FRACAS_SEED",
        arg: "N",
        default: Some("1027237"),
        help: "campaign PRNG seed",
        set: |o, v| put(&mut o.config.campaign.seed, v.parse().ok()),
    },
    Knob {
        flag: "--threads",
        env: "FRACAS_THREADS",
        arg: "N",
        default: Some("0"),
        help: "worker threads (0 = one per CPU)",
        set: |o, v| put(&mut o.config.campaign.threads, v.parse().ok()),
    },
    Knob {
        flag: "--checkpoints",
        env: "FRACAS_CHECKPOINTS",
        arg: "N",
        default: Some("16"),
        help: "golden-run checkpoints (0 = every injection replays from boot)",
        set: |o, v| put(&mut o.config.campaign.checkpoints, v.parse().ok()),
    },
    Knob {
        flag: "--epsilon",
        env: "FRACAS_EPSILON",
        arg: "E",
        default: Some("0"),
        help: "early-stop Wilson half-width in [0, 1] (0 = off)",
        set: |o, v| put(&mut o.config.epsilon, unit(v)),
    },
    Knob {
        flag: "--prune-classes",
        env: "FRACAS_PRUNE_CLASSES",
        arg: "",
        default: Some("0"),
        help: "run one fault per equivalence class (same database)",
        set: |o, v| put(&mut o.config.campaign.prune_classes, switch(v)),
    },
    Knob {
        flag: "--oracle-audit",
        env: "FRACAS_ORACLE_AUDIT",
        arg: "R",
        default: Some("0"),
        help: "with --prune-classes, re-execute this share in [0, 1] of \
               synthesized records; a mismatch fails the sweep",
        set: |o, v| put(&mut o.config.campaign.oracle_audit, unit(v)),
    },
    Knob {
        flag: "--db",
        env: "FRACAS_DB",
        arg: "PATH",
        default: Some("fracas_campaigns.jsonl"),
        help: "campaign database",
        set: |o, v| put(&mut o.db, Some(Some(v.into()))),
    },
    Knob {
        flag: "--sink",
        env: "FRACAS_SINK",
        arg: "PATH",
        default: None,
        help: "in-flight record sink (default: the database path + .wal)",
        set: |o, v| put(&mut o.sink, Some(Some(v.into()))),
    },
];

/// The campaign half of the sweep usage: one line per [`KNOBS`] row,
/// then every fault-domain flag of the registry.
fn campaign_usage() -> String {
    let mut out =
        String::from("campaign knobs (a flag beats its variable, which beats the default):");
    for knob in &KNOBS {
        let flag = format!("{} {}", knob.flag, knob.arg);
        let default = knob
            .default
            .map_or(String::new(), |d| format!(" (default {d})"));
        let _ = write!(
            out,
            "\n  {flag:<18} {:<21} {}{default}",
            knob.env, knob.help
        );
    }
    out.push_str("\nfault domains (any of these replaces the register default; they combine):\n ");
    for stem in fracas::inject::domains().iter().filter_map(|d| d.flag) {
        let _ = write!(out, " --{stem}-faults");
    }
    out
}

/// The process environment as the resolver's lookup.
fn process_env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Campaign-knob values given on one command line (row of [`KNOBS`],
/// value), in order; [`KnobFlags::resolve`] completes them from the
/// environment and the defaults.
#[derive(Debug, Default)]
pub struct KnobFlags(Vec<(usize, String)>);

impl KnobFlags {
    /// Consumes `flag` (and its value) when it is a [`KNOBS`] flag;
    /// returns `false` to let the caller try its own flags.
    pub fn accept(&mut self, p: &mut Parser, flag: &str) -> bool {
        let Some(row) = KNOBS.iter().position(|k| k.flag == flag) else {
            return false;
        };
        let value = if KNOBS[row].arg.is_empty() {
            "1".to_string()
        } else {
            p.value(flag)
        };
        self.0.push((row, value));
        true
    }

    /// Resolves every knob: the last value its flag was given, else
    /// `env(variable)` (trimmed; empty counts as unset), else its
    /// default.
    ///
    /// # Errors
    ///
    /// `bad value "<v>" for <flag or variable>` when a value does not
    /// parse or is out of range, and an error when an audit rate is set
    /// without class pruning (there would be nothing to audit).
    pub fn resolve(&self, env: &dyn Fn(&str) -> Option<String>) -> Result<SweepOpts, String> {
        let mut opts = SweepOpts {
            filter: ScenarioFilter::default(),
            db: None,
            sink: None,
            config: FleetConfig {
                progress: true,
                ..FleetConfig::default()
            },
        };
        for (row, knob) in KNOBS.iter().enumerate() {
            let given = self.0.iter().rev().find(|(r, _)| *r == row);
            let value = match given {
                Some((_, v)) => Some((knob.flag, v.clone())),
                None => env(knob.env)
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .map(|v| (knob.env, v))
                    .or_else(|| knob.default.map(|d| ("default", d.to_string()))),
            };
            if let Some((source, value)) = value {
                (knob.set)(&mut opts, &value)
                    .ok_or_else(|| format!("bad value {value:?} for {source}"))?;
            }
        }
        let campaign = &opts.config.campaign;
        if campaign.oracle_audit > 0.0 && !campaign.prune_classes {
            return Err(format!(
                "an oracle-audit rate ({}) needs --prune-classes: without it nothing is audited",
                campaign.oracle_audit
            ));
        }
        Ok(opts)
    }

    /// [`KnobFlags::resolve`] against the process environment; an error
    /// exits through `p` (message, usage, status 2).
    #[must_use]
    pub fn resolve_or_exit(&self, p: &Parser) -> SweepOpts {
        self.resolve(&process_env).unwrap_or_else(|e| p.fail(&e))
    }
}

/// The full sweep-family command line: scenario selection plus the
/// resolved campaign knobs ([`KNOBS`]).
#[derive(Debug)]
pub struct SweepOpts {
    /// Scenario selection.
    pub filter: ScenarioFilter,
    /// `--db` / `FRACAS_DB`: the campaign database (always `Some` once
    /// resolved, since the knob has a default).
    pub db: Option<PathBuf>,
    /// `--sink` / `FRACAS_SINK`: the in-flight record sink; `None`
    /// means the database path with `.wal` appended.
    pub sink: Option<PathBuf>,
    config: FleetConfig,
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
    /// Parses the process arguments — the filter flags, every
    /// [`KNOBS`] flag and the `--<domain>-faults` flags — and resolves
    /// the knobs against the environment. `usage` is the command's
    /// synopsis; the campaign half (one line per [`KNOBS`] row, then the
    /// registry's domain flags) is appended.
    /// Exits with status 2 on a usage error or a malformed value.
    ///
    /// The domain flags compose: the first resets the fault space to
    /// empty and every one enables its domain (`--text-faults` alone is
    /// the decode-differential campaign axis; `--cache-faults
    /// --kernelctl-faults --skip-faults` is the uncore axis).
    #[must_use]
    pub fn parse(usage: &'static str) -> SweepOpts {
        let mut p = Parser::new(format!("{usage}\n{}", campaign_usage()));
        let mut filter = ScenarioFilter::default();
        let mut knobs = KnobFlags::default();
        let mut domains = Vec::new();
        while let Some(flag) = p.next_flag() {
            if filter.accept(&mut p, &flag) || knobs.accept(&mut p, &flag) {
                continue;
            }
            match domain_flag(&flag) {
                Some(name) => domains.push(name),
                None => p.unknown(&flag),
            }
        }
        let mut opts = knobs.resolve_or_exit(&p);
        opts.filter = filter;
        if !domains.is_empty() {
            let space = &mut opts.config.campaign.space;
            *space = fracas::inject::FaultSpace::none();
            for name in domains {
                let domain = fracas::inject::domain_named(name).expect("parsed from the registry");
                (domain.enable)(space);
            }
        }
        opts
    }

    /// The knobs from the environment and the defaults alone (binaries
    /// that take no campaign flags). Exits with status 2 on a malformed
    /// value.
    #[must_use]
    pub fn from_env() -> SweepOpts {
        KnobFlags::default()
            .resolve(&process_env)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(2)
            })
    }

    /// The resolved sweep configuration.
    #[must_use]
    pub fn fleet_config(&self) -> FleetConfig {
        self.config.clone()
    }

    /// The database path (the knob has a default, so it is always set).
    #[must_use]
    pub fn db_path(&self) -> PathBuf {
        self.db.clone().expect("the database knob has a default")
    }

    /// The sink path: `--sink` / `FRACAS_SINK`, else `db` with a `.wal`
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
    use fracas::inject::domain_named;

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

    /// A fake environment holding exactly `vars`.
    fn env(vars: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let vars: Vec<(String, String)> = vars
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        move |name| vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }

    /// Command-line knob values, as [`KnobFlags::accept`] collects them.
    fn flags(given: &[(&str, &str)]) -> KnobFlags {
        KnobFlags(
            given
                .iter()
                .map(|(flag, value)| {
                    let row = KNOBS.iter().position(|k| k.flag == *flag).expect("a knob");
                    (row, (*value).to_string())
                })
                .collect(),
        )
    }

    fn resolve(given: &[(&str, &str)], vars: &[(&str, &str)]) -> Result<SweepOpts, String> {
        flags(given).resolve(&env(vars))
    }

    #[test]
    fn defaults_are_the_library_defaults_but_sixty_faults() {
        let opts = resolve(&[], &[]).expect("defaults resolve");
        let (got, lib) = (opts.fleet_config(), FleetConfig::default());
        assert_eq!(got.campaign.faults, 60);
        assert_eq!(got.campaign.seed, lib.campaign.seed);
        assert_eq!(got.campaign.threads, lib.campaign.threads);
        assert_eq!(got.campaign.checkpoints, lib.campaign.checkpoints);
        assert_eq!(got.campaign.prune_classes, lib.campaign.prune_classes);
        assert_eq!(got.campaign.oracle_audit, lib.campaign.oracle_audit);
        assert_eq!(got.campaign.space, lib.campaign.space);
        assert_eq!(got.epsilon, lib.epsilon);
        assert!(got.progress);
        assert_eq!(opts.db_path(), PathBuf::from("fracas_campaigns.jsonl"));
        assert_eq!(
            opts.sink_path(&opts.db_path()),
            PathBuf::from("fracas_campaigns.jsonl.wal")
        );
    }

    /// Renders the setting one knob controls, so a precedence check can
    /// see which source won.
    fn shown(opts: &SweepOpts, flag: &str) -> String {
        let c = opts.fleet_config();
        match flag {
            "--faults" => c.campaign.faults.to_string(),
            "--seed" => c.campaign.seed.to_string(),
            "--threads" => c.campaign.threads.to_string(),
            "--checkpoints" => c.campaign.checkpoints.to_string(),
            "--epsilon" => c.epsilon.to_string(),
            "--prune-classes" => u8::from(c.campaign.prune_classes).to_string(),
            "--oracle-audit" => c.campaign.oracle_audit.to_string(),
            "--db" => opts.db_path().display().to_string(),
            "--sink" => opts.sink_path(&opts.db_path()).display().to_string(),
            other => panic!("no reader for {other}"),
        }
    }

    #[test]
    fn every_knob_prefers_its_flag_then_its_variable_then_its_default() {
        // (flag, flag value, variable value under the flag, variable
        // value alone, default as shown). A switch flag can only turn
        // its knob on, so it is checked against a variable saying off.
        let cases = [
            ("--faults", "7", "9", "9", "60"),
            ("--seed", "3", "4", "4", "1027237"),
            ("--threads", "2", "5", "5", "0"),
            ("--checkpoints", "4", "0", "0", "16"),
            ("--epsilon", "0.25", "0.5", "0.5", "0"),
            ("--prune-classes", "1", "0", "1", "0"),
            ("--oracle-audit", "0.25", "0.5", "0.5", "0"),
            (
                "--db",
                "/f.jsonl",
                "/e.jsonl",
                "/e.jsonl",
                "fracas_campaigns.jsonl",
            ),
            (
                "--sink",
                "/f.wal",
                "/e.wal",
                "/e.wal",
                "fracas_campaigns.jsonl.wal",
            ),
        ];
        assert_eq!(
            cases.map(|c| c.0),
            KNOBS.map(|k| k.flag),
            "one case per knob, in table order"
        );
        // The audit knob only resolves with class pruning on.
        let context = |flag: &str| {
            if flag == "--oracle-audit" {
                vec![("FRACAS_PRUNE_CLASSES", "1")]
            } else {
                Vec::new()
            }
        };
        let with = |flag: &str, var: (&'static str, &'static str)| {
            let mut vars = context(flag);
            vars.push(var);
            vars
        };
        // Numbers are compared as the settings print them.
        let norm = |v: &str| {
            v.parse::<f64>()
                .map_or_else(|_| v.to_string(), |f| f.to_string())
        };
        for (knob, (flag, flag_value, under_flag, env_value, default)) in KNOBS.iter().zip(cases) {
            let both = resolve(&[(flag, flag_value)], &with(flag, (knob.env, under_flag)));
            assert_eq!(
                shown(&both.expect("resolves"), flag),
                norm(flag_value),
                "{flag} beats {}",
                knob.env
            );
            let env_only = resolve(&[], &with(flag, (knob.env, env_value)));
            assert_eq!(
                shown(&env_only.expect("resolves"), flag),
                norm(env_value),
                "{} beats the default",
                knob.env
            );
            let neither = resolve(&[], &context(flag)).expect("resolves");
            assert_eq!(shown(&neither, flag), default, "{flag} default");
        }
    }

    #[test]
    fn the_last_flag_wins_and_empty_variables_are_unset() {
        let opts = resolve(
            &[("--faults", "5"), ("--faults", "6")],
            &[("FRACAS_SEED", " ")],
        )
        .expect("resolves");
        assert_eq!(opts.fleet_config().campaign.faults, 6);
        assert_eq!(opts.fleet_config().campaign.seed, 1_027_237);
        let trimmed = resolve(&[], &[("FRACAS_FAULTS", " 12\n")]).expect("resolves");
        assert_eq!(trimmed.fleet_config().campaign.faults, 12);
    }

    #[test]
    fn sweep_honours_the_sink_variable() {
        // The `sweep` binary's path: `opts.sink_path(&opts.db_path())`.
        let opts = resolve(
            &[],
            &[("FRACAS_DB", "/d/db.jsonl"), ("FRACAS_SINK", "/x/sink")],
        )
        .expect("resolves");
        assert_eq!(opts.db_path(), PathBuf::from("/d/db.jsonl"));
        assert_eq!(opts.sink_path(&opts.db_path()), PathBuf::from("/x/sink"));
        let derived = resolve(&[("--db", "/tmp/x.jsonl")], &[]).expect("resolves");
        assert_eq!(
            derived.sink_path(&derived.db_path()),
            PathBuf::from("/tmp/x.jsonl.wal")
        );
    }

    #[test]
    fn malformed_values_are_errors_naming_their_source() {
        let bad = |vars: &[(&str, &str)]| resolve(&[], vars).expect_err("rejected");
        assert_eq!(
            bad(&[("FRACAS_PRUNE_CLASSES", "true")]),
            r#"bad value "true" for FRACAS_PRUNE_CLASSES"#
        );
        assert_eq!(
            bad(&[("FRACAS_FAULTS", "2e1")]),
            r#"bad value "2e1" for FRACAS_FAULTS"#
        );
        assert_eq!(
            bad(&[("FRACAS_EPSILON", "nan")]),
            r#"bad value "nan" for FRACAS_EPSILON"#
        );
        assert_eq!(
            bad(&[
                ("FRACAS_PRUNE_CLASSES", "1"),
                ("FRACAS_ORACLE_AUDIT", "1.5")
            ]),
            r#"bad value "1.5" for FRACAS_ORACLE_AUDIT"#
        );
        assert_eq!(
            bad(&[
                ("FRACAS_PRUNE_CLASSES", "1"),
                ("FRACAS_ORACLE_AUDIT", "NaN")
            ]),
            r#"bad value "NaN" for FRACAS_ORACLE_AUDIT"#
        );
        assert_eq!(
            resolve(&[("--epsilon", "1.5")], &[]).expect_err("rejected"),
            r#"bad value "1.5" for --epsilon"#
        );
        assert_eq!(
            resolve(&[("--oracle-audit", "-0.1"), ("--prune-classes", "1")], &[])
                .expect_err("rejected"),
            r#"bad value "-0.1" for --oracle-audit"#
        );
        // A flag overrides a malformed variable, which is then never read.
        assert!(resolve(&[("--faults", "3")], &[("FRACAS_FAULTS", "2e1")]).is_ok());
    }

    #[test]
    fn an_audit_rate_without_class_pruning_is_an_error() {
        let err = resolve(&[("--oracle-audit", "0.05")], &[]).expect_err("rejected");
        assert!(err.contains("--prune-classes"), "{err}");
        assert!(resolve(&[], &[("FRACAS_ORACLE_AUDIT", "0.05")]).is_err());
        assert!(resolve(&[("--oracle-audit", "0.05"), ("--prune-classes", "1")], &[]).is_ok());
        assert!(resolve(&[("--oracle-audit", "0")], &[]).is_ok());
    }

    #[test]
    fn usage_names_every_knob_and_domain_flag() {
        let usage = campaign_usage();
        for knob in &KNOBS {
            assert!(usage.contains(knob.flag), "{} missing", knob.flag);
            assert!(usage.contains(knob.env), "{} missing", knob.env);
        }
        let domain_flags: Vec<&str> = fracas::inject::domains()
            .iter()
            .filter_map(|d| d.flag)
            .collect();
        assert!(!domain_flags.is_empty());
        for stem in domain_flags {
            let flag = format!("--{stem}-faults");
            assert!(usage.contains(&flag), "{flag} missing");
            assert_eq!(
                domain_flag(&flag).map(|n| domain_named(n).is_some()),
                Some(true)
            );
        }
    }
}
