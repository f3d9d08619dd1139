//! Reconvergence-probe table: per fault domain, how often a fault's
//! state re-equals a golden checkpoint, and what probing for that
//! costs or saves.
//!
//! ```text
//! stats_reconverge [sweep flags: --isa ... --faults N --seed N --checkpoints N
//!                   --<domain>-faults ...]
//! ```
//!
//! Takes the sweep's command line and draws the same fault list and
//! checkpoint ladder for each selected scenario (the whole list:
//! `--prune-classes`, threads and paths are ignored). Every fault runs
//! twice on one thread, along `inject_one`'s path: once probing every
//! later rung with [`CheckpointSet::try_reconverge`] whatever the
//! registry says, once never probing. The two reports must be equal —
//! a mismatch exits 1. Per domain it prints:
//!
//! * `probed` — whether the registry probes the domain in production
//!   ([`Domain::ephemeral`](fracas::inject::Domain::ephemeral));
//! * `faults` executed, and `hits`, the faults that reconverged;
//! * `vanish-end` — Vanished runs that ran to the end without
//!   reconverging, and `@golden` those of them that also ended on the
//!   golden cycle count;
//! * `s probe` / `s no-probe` — serial injection seconds either way.

use fracas::inject::{
    campaign_faults, campaign_limits, classify, domain_of, golden_run_with_checkpoints,
    CheckpointSet, Fault, Outcome, Workload,
};
use fracas::kernel::{Kernel, Limits, RunReport};
use fracas_bench::cli::SweepOpts;
use std::collections::BTreeMap;
use std::time::Instant;

const USAGE: &str = "stats_reconverge [--isa sira32|sira64] [--model ser|omp|mpi] \
     [--app NAME] [--cores N]";

/// Per-domain totals.
#[derive(Default)]
struct Row {
    faults: u64,
    hits: u64,
    vanished_to_end: u64,
    at_golden_cycles: u64,
    probe_s: f64,
    no_probe_s: f64,
}

/// One injection along `inject_one`'s path, probing for reconvergence
/// when `probe` is set: the report, whether a probe hit, and the
/// seconds it took.
fn inject(
    workload: &Workload,
    fault: &Fault,
    checkpoints: &CheckpointSet,
    limits: &Limits,
    probe: bool,
) -> (RunReport, bool, f64) {
    let start = Instant::now();
    let resumed = checkpoints.nearest_before(fault.timing_core(), fault.cycle);
    let mut kernel = match resumed {
        Some((_, snap)) => Kernel::restore(snap),
        None => Kernel::boot(&workload.image, workload.cores, workload.spec),
    };
    let mut hit = None;
    if kernel
        .run_until_core_cycle(fault.timing_core(), fault.cycle, limits)
        .is_none()
    {
        fault.apply(&mut kernel);
        if probe {
            hit = checkpoints.try_reconverge(&mut kernel, resumed.map(|(i, _)| i), limits);
        }
        if hit.is_none() {
            kernel.run(limits);
        }
    }
    let reconverged = hit.is_some();
    let report = hit.unwrap_or_else(|| kernel.report());
    (report, reconverged, start.elapsed().as_secs_f64())
}

fn main() {
    let opts = SweepOpts::parse(USAGE);
    let campaign = opts.fleet_config().campaign;
    let scenarios = opts.filter.scenarios();
    eprintln!(
        "probing {} scenario(s), {} faults each (seed {}, {} checkpoints)...",
        scenarios.len(),
        campaign.faults,
        campaign.seed,
        campaign.checkpoints
    );
    let start = Instant::now();
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    let mut mismatches = 0;
    for s in &scenarios {
        let workload = Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id()));
        let (golden, _, checkpoints) = golden_run_with_checkpoints(&workload, campaign.checkpoints);
        let limits = campaign_limits(&golden, &campaign);
        for (i, fault) in campaign_faults(&workload, &campaign, golden.cycles)
            .iter()
            .enumerate()
        {
            // Alternate which variant runs first, so neither always
            // finds the other's pages warm.
            let run = |probe| inject(&workload, fault, &checkpoints, &limits, probe);
            let (on, off) = if i % 2 == 0 {
                (run(true), run(false))
            } else {
                let off = run(false);
                (run(true), off)
            };
            if on.0 != off.0 {
                eprintln!("MISMATCH {} fault {i}: {fault:?}", workload.id);
                mismatches += 1;
            }
            let row = rows.entry(domain_of(&fault.target).name).or_default();
            row.faults += 1;
            row.hits += u64::from(on.1);
            if !on.1 && classify(&golden, &on.0) == Outcome::Vanished {
                row.vanished_to_end += 1;
                row.at_golden_cycles += u64::from(on.0.cycles == golden.cycles);
            }
            row.probe_s += on.2;
            row.no_probe_s += off.2;
        }
    }
    println!(
        "{:<10} {:>6} {:>7} {:>7} {:>6} {:>10} {:>7} {:>9} {:>10}",
        "domain",
        "probed",
        "faults",
        "hits",
        "hit%",
        "vanish-end",
        "@golden",
        "s probe",
        "s no-probe"
    );
    for (name, r) in &rows {
        let probed = fracas::inject::domain_named(name).is_some_and(|d| d.ephemeral);
        #[allow(clippy::cast_precision_loss)]
        let hit_pct = 100.0 * r.hits as f64 / r.faults as f64;
        println!(
            "{:<10} {:>6} {:>7} {:>7} {:>5.1}% {:>10} {:>7} {:>9.2} {:>10.2}",
            name,
            if probed { "yes" } else { "no" },
            r.faults,
            r.hits,
            hit_pct,
            r.vanished_to_end,
            r.at_golden_cycles,
            r.probe_s,
            r.no_probe_s
        );
    }
    eprintln!("measured in {:.1}s", start.elapsed().as_secs_f64());
    if mismatches > 0 {
        eprintln!("{mismatches} fault(s) reported differently with and without probes");
        std::process::exit(1);
    }
}
