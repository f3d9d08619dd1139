//! Checkpoint-and-restore differential tests: resuming an injection
//! from a golden-run snapshot must be bit-identical to replaying from
//! boot, across all three programming models.

use fracas_inject::{
    campaign_faults, campaign_limits, golden_run_with_checkpoints, inject_one, run_campaign,
    sample_faults, CampaignConfig, CheckpointSet, FaultSpace, Workload,
};
use fracas_isa::IsaKind;
use fracas_kernel::{Kernel, Limits};
use fracas_npb::{App, Model, Scenario};

/// Compares checkpoint-resumed against boot-replayed injections for one
/// scenario, fault by fault, on the full `RunReport` (console, memory
/// and context hashes, cycles, per-core instruction counts, stats).
fn assert_bit_identical(app: App, model: Model, cores: u32, faults: usize) {
    let scenario = Scenario::new(app, model, cores, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (golden, _, checkpoints) = golden_run_with_checkpoints(&workload, 8);
    assert!(
        !checkpoints.is_empty(),
        "{}: no checkpoints captured",
        workload.id
    );

    let limits = Limits {
        max_cycles: golden.cycles * 4,
        max_steps: (golden.total_instructions() * 8).max(1_000_000),
    };
    let list = sample_faults(
        workload.image.isa,
        cores,
        golden.cycles,
        faults,
        &fracas_inject::FaultSpace::default(),
        0xC0FFEE,
    );
    let boot_only = CheckpointSet::empty();
    let mut resumed = 0;
    for fault in &list {
        let via_checkpoint = inject_one(&workload, fault, &checkpoints, &limits);
        let via_boot = inject_one(&workload, fault, &boot_only, &limits);
        assert_eq!(
            via_checkpoint, via_boot,
            "{}: fault {fault:?} diverged between restore and boot-replay",
            workload.id
        );
        if checkpoints
            .nearest_before(fault.timing_core(), fault.cycle)
            .is_some()
        {
            resumed += 1;
        }
    }
    // The comparison is only meaningful if checkpoints actually served.
    assert!(
        resumed > 0,
        "{}: no fault resumed from a checkpoint",
        workload.id
    );
}

/// Store-buffer and cache-data faults, probed for reconvergence at
/// every later rung: checkpointed `inject_one` must equal boot replay
/// fault by fault. The probe is also driven directly, so the test
/// counts its hits and fails if none landed (a vacuous pass).
fn assert_value_domains_bit_identical(app: App, model: Model, cores: u32, faults: usize) {
    let scenario = Scenario::new(app, model, cores, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (golden, _, checkpoints) = golden_run_with_checkpoints(&workload, 8);
    let mut space = FaultSpace::only("storebuf");
    space.cachedata = true;
    let config = CampaignConfig {
        faults,
        space,
        ..CampaignConfig::default()
    };
    let limits = campaign_limits(&golden, &config);
    let boot_only = CheckpointSet::empty();
    let mut hits = 0;
    for fault in campaign_faults(&workload, &config, golden.cycles) {
        assert!(fault.targets_ephemeral_state(), "{fault:?} is not probed");
        let via_checkpoint = inject_one(&workload, &fault, &checkpoints, &limits);
        let via_boot = inject_one(&workload, &fault, &boot_only, &limits);
        assert_eq!(
            via_checkpoint, via_boot,
            "{}: fault {fault:?} diverged between checkpoints and boot replay",
            workload.id
        );
        let resumed = checkpoints.nearest_before(fault.timing_core(), fault.cycle);
        let mut kernel = match resumed {
            Some((_, snap)) => Kernel::restore(snap),
            None => Kernel::boot(&workload.image, workload.cores, workload.spec),
        };
        if kernel
            .run_until_core_cycle(fault.timing_core(), fault.cycle, &limits)
            .is_none()
        {
            fault.apply(&mut kernel);
            let rung = resumed.map(|(i, _)| i);
            if let Some(report) = checkpoints.try_reconverge(&mut kernel, rung, &limits) {
                assert_eq!(report, via_boot, "{}: false hit for {fault:?}", workload.id);
                hits += 1;
            }
        }
    }
    assert!(
        hits > 0,
        "{}: no value-domain fault reconverged",
        workload.id
    );
}

#[test]
fn ep_serial_value_domain_probes_match_boot_replay() {
    assert_value_domains_bit_identical(App::Ep, Model::Serial, 1, 40);
}

#[test]
fn is_mpi_value_domain_probes_match_boot_replay() {
    assert_value_domains_bit_identical(App::Is, Model::Mpi, 2, 40);
}

/// Every rung of a captured ladder — all but the first built
/// incrementally from its predecessor's pages — must equal the complete
/// state of a fresh kernel booted and run to that rung's mark.
fn assert_rungs_match_fresh_runs(app: App, model: Model, cores: u32) {
    let scenario = Scenario::new(app, model, cores, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let (_, _, checkpoints) = golden_run_with_checkpoints(&workload, 8);
    assert!(
        checkpoints.len() >= 2,
        "{}: the ladder needs incremental rungs",
        workload.id
    );
    let limits = Limits::default();
    let mut fresh = Kernel::boot(&workload.image, workload.cores, workload.spec);
    for (rung, (mark, snap)) in checkpoints.rungs().enumerate() {
        assert!(
            fresh.run_until_machine_cycle(mark, &limits).is_none(),
            "{}: fresh run ended before mark {mark}",
            workload.id
        );
        assert!(
            fresh.state_matches(snap),
            "{}: rung {rung} (mark {mark}) differs from a fresh run",
            workload.id
        );
    }
}

#[test]
fn serial_ladder_rungs_match_fresh_runs() {
    assert_rungs_match_fresh_runs(App::Is, Model::Serial, 1);
}

#[test]
fn omp_ladder_rungs_match_fresh_runs() {
    assert_rungs_match_fresh_runs(App::Is, Model::Omp, 2);
}

#[test]
fn mpi_ladder_rungs_match_fresh_runs() {
    assert_rungs_match_fresh_runs(App::Is, Model::Mpi, 2);
}

#[test]
fn serial_restore_is_bit_identical() {
    assert_bit_identical(App::Is, Model::Serial, 1, 10);
}

#[test]
fn omp_restore_is_bit_identical() {
    assert_bit_identical(App::Is, Model::Omp, 2, 10);
}

#[test]
fn mpi_restore_is_bit_identical() {
    assert_bit_identical(App::Is, Model::Mpi, 2, 10);
}

#[test]
fn campaign_results_match_boot_replay_exactly() {
    let scenario = Scenario::new(App::Ep, Model::Serial, 1, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    let base = CampaignConfig {
        faults: 25,
        threads: 2,
        ..CampaignConfig::default()
    };
    let with_checkpoints = run_campaign(&workload, &base);
    let boot_replay = run_campaign(
        &workload,
        &CampaignConfig {
            checkpoints: 0,
            ..base
        },
    );
    assert_eq!(with_checkpoints, boot_replay);
}
