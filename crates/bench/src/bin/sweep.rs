//! The sweep command: runs every (optionally filtered) scenario on both
//! ISAs end-to-end through the fleet orchestrator — one shared worker
//! pool, streaming record sink with crash-safe resume, per-workload
//! progress and optional statistical early stopping.
//!
//! ```text
//! sweep [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N]
//!       [campaign knobs] [--<domain>-faults ...]
//! ```
//!
//! `sweep --help` lists the campaign knobs (`--faults`, `--seed`,
//! `--prune-classes`, `--db`, ...) with the `FRACAS_*` variable each
//! falls back to and its default, and the fault-domain flags
//! (`fracas_bench::cli::KNOBS` and the domain registry). Kill it at any
//! point and re-run with the same arguments: completed injections
//! replay from the sink and the final database is bit-identical to an
//! uninterrupted sweep.

use fracas_bench::cli::SweepOpts;

const USAGE: &str = "sweep [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N] \
     [campaign knobs] [--<domain>-faults ...]";

fn main() {
    let opts = SweepOpts::parse(USAGE);
    let scenarios = opts.filter.scenarios();
    let config = opts.fleet_config();
    let db_path = opts.db_path();
    let sink = opts.sink_path(&db_path);
    let db = fracas_bench::run_sweep(&scenarios, &config, &db_path, &sink);
    println!(
        "database covers {} campaign(s) -> {}",
        fracas_bench::coverage(&db),
        db_path.display()
    );
    println!(
        "{:<22} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Scenario", "n", "Vanish", "ONA", "OMM", "UT", "Hang", "Anomaly"
    );
    for s in &scenarios {
        let Some(c) = db.get(fracas::mine::Key {
            app: s.app,
            model: s.model,
            cores: s.cores,
            isa: s.isa,
        }) else {
            continue;
        };
        use fracas::inject::Outcome;
        println!(
            "{:<22} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            c.id,
            c.tally.total(),
            c.tally.pct(Outcome::Vanished),
            c.tally.pct(Outcome::Ona),
            c.tally.pct(Outcome::Omm),
            c.tally.pct(Outcome::Ut),
            c.tally.pct(Outcome::Hang),
            c.tally.pct(Outcome::Anomaly),
        );
    }
}
