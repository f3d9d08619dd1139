//! Checkpoint-and-restore speedup demonstration.
//!
//! Times the same injection list twice — resuming from golden-run
//! checkpoints versus replaying from boot — and verifies along the way
//! that both paths produce bit-identical reports. Run with:
//!
//! ```text
//! cargo run --release --example checkpoint_speedup
//! ```
//!
//! It runs the library's default campaign configuration
//! (`CampaignConfig::default()`).

use fracas::inject::{golden_run_with_checkpoints, inject_one, sample_faults};
use fracas::prelude::*;
use std::time::Instant;

fn main() {
    let config = CampaignConfig::default();

    // Pick the first candidate whose golden run is long enough that
    // boot-replay visibly hurts (>= 100k cycles).
    let candidates = [
        (App::Ep, Model::Serial, 1u32),
        (App::Cg, Model::Serial, 1),
        (App::Mg, Model::Serial, 1),
        (App::Is, Model::Omp, 2),
    ];
    let mut picked = None;
    for (app, model, cores) in candidates {
        let scenario = Scenario::new(app, model, cores, IsaKind::Sira64).expect("scenario");
        let workload = Workload::from_scenario(&scenario).expect("builds");
        let golden_start = Instant::now();
        let (golden, _, checkpoints) = golden_run_with_checkpoints(&workload, config.checkpoints);
        let golden_time = golden_start.elapsed();
        if golden.cycles >= 100_000 {
            picked = Some((workload, golden, checkpoints, golden_time));
            break;
        }
    }
    let (workload, golden, checkpoints, golden_time) =
        picked.expect("a candidate scenario reaches 100k golden cycles");

    let faults = sample_faults(
        workload.image.isa,
        workload.cores as u32,
        golden.cycles,
        config.faults,
        &config.space,
        config.seed,
    );
    let limits = Limits {
        max_cycles: ((golden.cycles as f64 * config.watchdog_factor) as u64)
            .max(golden.cycles + 100_000),
        max_steps: (golden.total_instructions() * 8).max(1_000_000),
    };

    println!(
        "scenario {}: golden {} cycles, {} checkpoints, {} faults",
        workload.id,
        golden.cycles,
        checkpoints.len(),
        faults.len()
    );
    println!(
        "golden run with checkpoint capture: {:.3} s",
        golden_time.as_secs_f64()
    );

    let start = Instant::now();
    let resumed: Vec<_> = faults
        .iter()
        .map(|f| inject_one(&workload, f, &checkpoints, &limits))
        .collect();
    let with_checkpoints = start.elapsed();

    let boot_only = CheckpointSet::empty();
    let start = Instant::now();
    let replayed: Vec<_> = faults
        .iter()
        .map(|f| inject_one(&workload, f, &boot_only, &limits))
        .collect();
    let boot_replay = start.elapsed();

    assert_eq!(
        resumed, replayed,
        "restore and boot-replay must be bit-identical"
    );

    let speedup = boot_replay.as_secs_f64() / with_checkpoints.as_secs_f64();
    println!(
        "boot-replay:        {:.3} s  ({:.1} ms/injection)",
        boot_replay.as_secs_f64(),
        boot_replay.as_secs_f64() * 1e3 / faults.len() as f64
    );
    println!(
        "checkpoint-resume:  {:.3} s  ({:.1} ms/injection)",
        with_checkpoints.as_secs_f64(),
        with_checkpoints.as_secs_f64() * 1e3 / faults.len() as f64
    );
    println!(
        "speedup:            {speedup:.2}x (all {} reports identical)",
        faults.len()
    );
}
