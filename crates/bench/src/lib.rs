//! # fracas-bench — shared harness plumbing for the table/figure binaries
//!
//! Every `src/bin/*` target regenerates one of the paper's tables or
//! figures. They share a campaign database so the expensive injection
//! work runs once, and all of them drive the fleet orchestrator
//! ([`fracas::inject::run_fleet`]): one shared worker pool over every
//! missing scenario, a streaming record sink for crash-safe mid-campaign
//! resume, per-workload progress lines and optional statistical early
//! stopping.
//!
//! The campaign knobs — fault budget, seed, threads, checkpoints,
//! early-stop ε, class pruning, oracle audit, database and sink paths —
//! are declared once, in [`cli::KNOBS`]: each row names a flag, the
//! `FRACAS_*` variable it falls back to and the harness default
//! (`sweep --help` prints the table). [`ensure_db`] resolves them from
//! the environment; the `sweep` binary also takes the flags
//! ([`cli::SweepOpts`]). A malformed value is an error (exit 2), never
//! silently replaced by the default.

use fracas::inject::{CampaignResult, FleetConfig, Workload};
use fracas::mine::{parse_id, Database};
use fracas::npb::Scenario;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod cli;
pub mod reports;

/// Loads the shared database, sweeps any of `scenarios` not yet present
/// through the fleet orchestrator (one shared worker pool, record
/// sink, progress on stderr), appends the results and saves the file.
/// The configuration and both paths come from the environment
/// ([`cli::SweepOpts::from_env`]).
///
/// # Panics
///
/// Panics if a bundled scenario fails to build or the database file is
/// unreadable/corrupt — both indicate a broken installation rather than
/// user input.
pub fn ensure_db(scenarios: &[Scenario]) -> Database {
    let opts = cli::SweepOpts::from_env();
    let db = opts.db_path();
    run_sweep(scenarios, &opts.fleet_config(), &db, &opts.sink_path(&db))
}

/// The orchestrated sweep behind [`ensure_db`] with explicit paths and
/// configuration (the `sweep` binary's entry point): loads `db_path`,
/// fleet-runs the missing scenarios with crash-safe resume through
/// `sink`, saves the merged database (via a synced `<db_path>.tmp`
/// renamed over it) and only then removes the consumed sink.
///
/// # Panics
///
/// Panics, before any work is done, if the database file exists but
/// cannot be read or parsed (a missing file is an empty database); and
/// if a bundled scenario fails to build, the database cannot be saved,
/// or the sink file cannot be opened (see
/// [`fracas::inject::RecordSink::open`]).
pub fn run_sweep(
    scenarios: &[Scenario],
    config: &FleetConfig,
    db_path: &Path,
    sink: &Path,
) -> Database {
    let mut db = match std::fs::read_to_string(db_path) {
        Ok(text) => Database::from_json_lines(&text)
            .unwrap_or_else(|e| panic!("corrupt database {}: {e}", db_path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Database::new(),
        Err(e) => panic!("read database {}: {e}", db_path.display()),
    };
    let missing: Vec<&Scenario> = scenarios
        .iter()
        .filter(|s| {
            db.get(fracas::mine::Key {
                app: s.app,
                model: s.model,
                cores: s.cores,
                isa: s.isa,
            })
            .is_none()
        })
        .collect();
    if missing.is_empty() {
        return db;
    }
    eprintln!(
        "sweeping {} campaign(s) at {} faults each (cached: {}, ε = {}, sink: {})",
        missing.len(),
        config.campaign.faults,
        db.len(),
        config.epsilon,
        sink.display()
    );
    let start = Instant::now();
    let workloads: Vec<Workload> = missing
        .iter()
        .map(|s| Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id())))
        .collect();
    let results = fracas::inject::run_fleet_with_sink(&workloads, config, sink)
        .unwrap_or_else(|e| panic!("sink {}: {e}", sink.display()));
    // Oracle audits gate the save: a mismatch means the prune oracle
    // synthesized a wrong record, so persisting the database (or
    // consuming the sink) would cache corrupt results.
    // Class-collapse accounting: how much of each fault list actually
    // executed, and how many targets fell outside the oracle's model.
    for result in &results {
        if let Some(stats) = result.classes {
            let unmodeled = stats.unmodeled.breakdown();
            eprintln!(
                "  classes {}: {}/{} executed ({:.0}%, collapse {:.1}x; \
                 {} decided, {} live classes, {} members, {} singletons{})",
                result.id,
                stats.executed(),
                stats.faults,
                stats.executed_fraction() * 100.0,
                stats.collapse_factor(),
                stats.decided,
                stats.live_classes,
                stats.members,
                stats.singletons,
                if unmodeled.is_empty() {
                    String::new()
                } else {
                    format!("; unmodeled: {unmodeled}")
                },
            );
        }
    }
    let mut mismatches = 0usize;
    for report in results.iter().filter_map(|r| r.audit.as_ref()) {
        eprintln!("  oracle audit {}", report.summary());
        for entry in report.mismatches() {
            eprintln!(
                "    MISMATCH {} record {}: oracle {:?}, execution {:?}",
                report.id, entry.index, entry.oracle, entry.executed
            );
            mismatches += 1;
        }
    }
    assert!(
        mismatches == 0,
        "oracle audit found {mismatches} mismatch(es); database not saved"
    );
    let total = results.len();
    for (i, result) in results.into_iter().enumerate() {
        eprintln!(
            "  [{}/{total}] {}  (V {:.0}% O {:.0}% M {:.0}% U {:.0}% H {:.0}%{})",
            i + 1,
            result.id,
            result.tally.pct(fracas::inject::Outcome::Vanished),
            result.tally.pct(fracas::inject::Outcome::Ona),
            result.tally.pct(fracas::inject::Outcome::Omm),
            result.tally.pct(fracas::inject::Outcome::Ut),
            result.tally.pct(fracas::inject::Outcome::Hang),
            if result.tally.anomaly > 0 {
                format!(
                    " A {:.0}%",
                    result.tally.pct(fracas::inject::Outcome::Anomaly)
                )
            } else {
                String::new()
            },
        );
        db.push(result);
    }
    save_db(&db, db_path).unwrap_or_else(|e| panic!("write {}: {e}", db_path.display()));
    // The sink's records are now owned by the database.
    match std::fs::remove_file(sink) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            eprintln!("could not remove consumed sink {}: {e}", sink.display());
        }
        _ => {}
    }
    eprintln!(
        "sweep done in {:.1}s -> {}",
        start.elapsed().as_secs_f64(),
        db_path.display()
    );
    db
}

/// Writes `db` to `<db_path>.tmp`, syncs it and renames it over
/// `db_path`, so a kill at any instant leaves either the old database or
/// the new one, never a torn file.
fn save_db(db: &Database, db_path: &Path) -> std::io::Result<()> {
    let tmp = with_suffix(db_path, ".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(db.to_json_lines().as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, db_path)
}

/// `path` with `suffix` appended to its file name.
pub(crate) fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(suffix);
    PathBuf::from(p)
}

/// All scenarios of one ISA.
pub fn scenarios_for_isa(isa: fracas::isa::IsaKind) -> Vec<Scenario> {
    Scenario::all()
        .into_iter()
        .filter(|s| s.isa == isa)
        .collect()
}

/// The subset of campaigns in `db` whose ids parse (all of them, in a
/// correct database).
pub fn coverage(db: &Database) -> usize {
    db.iter().filter(|c| parse_id(&c.id).is_some()).count()
}

/// Convenience: a result's five percentages in display order.
pub fn pct_row(result: &CampaignResult) -> [f64; 5] {
    use fracas::inject::Outcome;
    [
        result.tally.pct(Outcome::Vanished),
        result.tally.pct(Outcome::Ona),
        result.tally.pct(Outcome::Omm),
        result.tally.pct(Outcome::Ut),
        result.tally.pct(Outcome::Hang),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas::inject::CampaignConfig;

    #[test]
    fn sweep_saves_whole_database_and_consumes_sink() {
        let dir = std::env::temp_dir().join(format!("fracas-bench-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let db = dir.join("db.jsonl");
        let (tmp, sink) = (with_suffix(&db, ".tmp"), with_suffix(&db, ".wal"));
        // A temp file left by a save killed mid-write is replaced whole.
        std::fs::write(&tmp, "torn").expect("write temp");
        let scenario = Scenario::new(
            fracas::npb::App::Is,
            fracas::npb::Model::Serial,
            1,
            fracas::isa::IsaKind::Sira64,
        )
        .expect("scenario exists");
        let config = FleetConfig {
            campaign: CampaignConfig {
                faults: 2,
                ..CampaignConfig::default()
            },
            ..FleetConfig::default()
        };
        let swept = run_sweep(&[scenario], &config, &db, &sink);
        let text = std::fs::read_to_string(&db).expect("database saved");
        assert_eq!(text, swept.to_json_lines());
        assert_eq!(Database::from_json_lines(&text).expect("parses").len(), 1);
        assert!(!tmp.exists(), "the temp file is renamed over the database");
        assert!(!sink.exists(), "the consumed sink is removed");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn unreadable_database_fails_before_any_work_and_keeps_its_bytes() {
        let dir = std::env::temp_dir().join(format!("fracas-bench-badutf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let db = dir.join("db.jsonl");
        let sink = with_suffix(&db, ".wal");
        let bytes = [0xff, 0xfe, b'{', 0x80, b'\n'];
        std::fs::write(&db, bytes).expect("write database");
        let scenario = Scenario::new(
            fracas::npb::App::Is,
            fracas::npb::Model::Serial,
            1,
            fracas::isa::IsaKind::Sira64,
        )
        .expect("scenario exists");
        let swept = std::panic::catch_unwind(|| {
            run_sweep(&[scenario], &FleetConfig::default(), &db, &sink)
        });
        let message = swept.expect_err("a non-UTF-8 database must not be replaced");
        let message = message
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(message.contains(&db.display().to_string()), "{message}");
        assert_eq!(std::fs::read(&db).expect("database kept"), bytes);
        assert!(!sink.exists(), "no work was started");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
