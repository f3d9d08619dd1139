//! Classification edge cases: the taxonomy's precedence rules at the
//! corners — error exits with correct output, empty golden output, and
//! harness panics versus guest hangs.

use fracas_inject::{
    classify, run_fleet_with, CampaignConfig, CampaignResult, FleetConfig, Injector, Outcome,
    RecordSink, Workload,
};
use fracas_isa::IsaKind;
use fracas_kernel::{RunOutcome, RunReport};
use fracas_npb::{App, Model, Scenario};

fn clean_report() -> RunReport {
    RunReport {
        outcome: RunOutcome::Exited { code: 0 },
        console: b"42\n".to_vec(),
        console_len: 3,
        console_hash: 0xabcd,
        mem_hash: 0x1111,
        ctx_hash: 0x2222,
        cycles: 5000,
        power_transitions: 0,
        per_core_instructions: vec![2500],
        core_stats: Vec::new(),
    }
}

/// An error indication outranks a byte-correct output: a run that
/// prints exactly the golden bytes but exits nonzero is UT, not
/// Vanished — the paper's classes key on the *error signal*, the
/// output comparison only applies to clean exits.
#[test]
fn correct_output_with_error_exit_is_ut() {
    let golden = clean_report();
    let mut faulty = golden.clone();
    faulty.outcome = RunOutcome::Exited { code: 7 };
    assert_eq!(classify(&golden, &faulty), Outcome::Ut);
}

/// A golden run that prints nothing still classifies exactly: silence
/// matched is Vanished, and any fault-induced output — extra bytes
/// where the reference had none — is an output mismatch, even when the
/// hashes collide (the length check breaks the tie).
#[test]
fn empty_golden_output_still_discriminates() {
    let mut golden = clean_report();
    golden.console = Vec::new();
    golden.console_len = 0;
    golden.console_hash = 0;

    assert_eq!(classify(&golden, &golden.clone()), Outcome::Vanished);

    let mut chatty = golden.clone();
    chatty.console = b"oops".to_vec();
    chatty.console_len = 4;
    chatty.console_hash = 0xdead;
    assert_eq!(classify(&golden, &chatty), Outcome::Omm);

    // Same hash, different length: still a mismatch.
    let mut truncated = golden.clone();
    truncated.console_len = 9;
    assert_eq!(classify(&golden, &truncated), Outcome::Omm);
}

fn small_workload() -> Workload {
    let scenario = Scenario::new(App::Is, Model::Serial, 1, IsaKind::Sira64).expect("exists");
    Workload::from_scenario(&scenario).expect("builds")
}

fn small_config() -> CampaignConfig {
    CampaignConfig {
        faults: 6,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// One workload's campaign driven by `injector` instead of `inject_one`.
fn campaign_with(
    workload: &Workload,
    config: &CampaignConfig,
    injector: &Injector,
) -> CampaignResult {
    let config = FleetConfig {
        campaign: config.clone(),
        ..FleetConfig::default()
    };
    run_fleet_with(
        std::slice::from_ref(workload),
        &config,
        &mut RecordSink::disabled(),
        injector,
    )
    .expect("a disabled sink never fails")
    .remove(0)
}

/// An injector that reports a watchdog expiry classifies as Hang — the
/// guest outcome — while an injector that *panics on the host* must be
/// recorded as Anomaly, never Hang: a harness defect outranks whatever
/// the guest might have done, and the campaign completes regardless.
#[test]
fn harness_panic_outranks_guest_hang() {
    let workload = small_workload();
    let config = small_config();

    let hung = campaign_with(&workload, &config, &|_, _, _, _| RunReport {
        outcome: RunOutcome::CycleLimit,
        console: Vec::new(),
        console_len: 0,
        console_hash: 0,
        mem_hash: 0,
        ctx_hash: 0,
        cycles: 99,
        power_transitions: 0,
        per_core_instructions: vec![99],
        core_stats: Vec::new(),
    });
    assert_eq!(hung.tally.hang, config.faults as u64);
    assert!(hung.records.iter().all(|r| r.outcome == Outcome::Hang));

    let anomalous = campaign_with(&workload, &config, &|_, _, _, _| {
        panic!("simulated worker defect")
    });
    assert_eq!(anomalous.tally.anomaly, config.faults as u64);
    for r in &anomalous.records {
        assert_eq!(r.outcome, Outcome::Anomaly);
        // Anomalies report no guest progress at all.
        assert_eq!((r.cycles, r.instructions), (0, 0));
        // And a harness defect is not a guest crash or mask.
        assert!(!r.outcome.is_masked());
    }
}
