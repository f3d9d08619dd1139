//! One benchmark sweep through the production entry point.
//!
//! ```text
//! bench_sweep <sweep flags> --db PATH --sink PATH
//! ```
//!
//! Runs `fracas_bench::run_sweep` (and through it
//! `fracas_inject::run_fleet_with_sink`) once from an empty database and
//! sink, then prints one JSON line: the sweep's wall seconds (workload
//! build, golden jobs, injections, sink and database save), its scenario
//! ids and the planned faults per scenario. The database is left at
//! `--db` for the caller to check.

use fracas_sweepbench::Sweep;
use std::time::Instant;

const USAGE: &str = "bench_sweep [sweep flags] --db PATH --sink PATH";

fn main() {
    let sweep = Sweep::from_args(USAGE);
    let start = Instant::now();
    fracas_bench::run_sweep(&sweep.scenarios, &sweep.config, &sweep.db, &sweep.sink);
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "{{\"wall_s\":{wall_s},\"faults\":{},\"threads\":{},\"scenarios\":{}}}",
        sweep.config.campaign.faults,
        sweep.config.campaign.threads,
        sweep.ids_json()
    );
}
