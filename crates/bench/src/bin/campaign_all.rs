//! Runs (or resumes) the full 130-scenario fault-injection campaign and
//! writes the shared database every other target reads. Tune with the
//! `FRACAS_*` variables of `fracas_bench::cli::KNOBS` (`FRACAS_FAULTS`,
//! `FRACAS_SEED`, `FRACAS_THREADS`, `FRACAS_DB`, ...).

use fracas::npb::Scenario;
use fracas_bench::cli::SweepOpts;

fn main() {
    let db = fracas_bench::ensure_db(&Scenario::all());
    println!(
        "database covers {} campaigns -> {}",
        fracas_bench::coverage(&db),
        SweepOpts::from_env().db_path().display()
    );
}
