//! Orchestrator test sweep: database invariance across pool shape,
//! thread count and checkpointing, deterministic crash-safe resume
//! through the record sink, statistical early stopping, and
//! per-injection panic isolation.

use fracas_inject::{
    inject_one, run_campaign, run_fleet, run_fleet_with, run_fleet_with_sink, CampaignConfig,
    Fault, FaultSpace, FaultTarget, FleetConfig, Outcome, RecordSink, Workload,
};
use fracas_isa::IsaKind;
use fracas_npb::{App, Model, Scenario};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn workload(app: App, model: Model, cores: u32, isa: IsaKind) -> Workload {
    let scenario = Scenario::new(app, model, cores, isa).expect("scenario exists");
    Workload::from_scenario(&scenario).expect("build")
}

/// The serial/OMP/MPI mini-sweep the differential suite runs on.
fn mini_workloads() -> Vec<Workload> {
    vec![
        workload(App::Is, Model::Serial, 1, IsaKind::Sira64),
        workload(App::Is, Model::Omp, 2, IsaKind::Sira64),
        workload(App::Cg, Model::Mpi, 2, IsaKind::Sira64),
    ]
}

fn mini_config(faults: usize) -> CampaignConfig {
    CampaignConfig {
        faults,
        ..CampaignConfig::default()
    }
}

/// The mini sweep's databases under `campaign`, as JSON.
fn mini_sweep(campaign: CampaignConfig) -> Vec<String> {
    let config = FleetConfig {
        campaign,
        ..FleetConfig::default()
    };
    run_fleet(&mini_workloads(), &config)
        .iter()
        .map(fracas_inject::CampaignResult::to_json)
        .collect()
}

#[test]
fn shared_pool_matches_per_workload_pools_byte_for_byte() {
    let workloads = mini_workloads();
    let config = mini_config(24);
    let shared = mini_sweep(config.clone());
    assert_eq!(shared.len(), workloads.len());
    for (w, pooled) in workloads.iter().zip(&shared) {
        // `run_campaign` is a pool of its own over one workload.
        let solo = run_campaign(w, &config);
        assert_eq!(
            *pooled,
            solo.to_json(),
            "the shared pool diverged from a per-workload pool on {}",
            w.id
        );
    }
}

#[test]
fn thread_count_does_not_change_the_sweep() {
    let one = mini_sweep(CampaignConfig {
        threads: 1,
        ..mini_config(24)
    });
    let three = mini_sweep(CampaignConfig {
        threads: 3,
        ..mini_config(24)
    });
    assert_eq!(one, three, "1 vs 3 worker threads diverged");
}

#[test]
fn boot_replay_matches_checkpointed_sweep() {
    let checkpointed = mini_sweep(mini_config(24));
    let boot_replay = mini_sweep(CampaignConfig {
        checkpoints: 0,
        ..mini_config(24)
    });
    assert_eq!(
        checkpointed, boot_replay,
        "checkpoint restore diverged from replay from boot"
    );
}

#[test]
fn early_stopped_tally_contains_full_campaign_proportions() {
    let workloads = vec![workload(App::Is, Model::Serial, 1, IsaKind::Sira64)];
    let full_config = FleetConfig {
        campaign: mini_config(220),
        ..FleetConfig::default()
    };
    let stop_config = FleetConfig {
        epsilon: 0.13,
        min_samples: 40,
        ..full_config.clone()
    };
    let full = &run_fleet(&workloads, &full_config)[0];
    let stopped = &run_fleet(&workloads, &stop_config)[0];
    assert_eq!(full.tally.total(), 220);
    assert!(
        stopped.tally.total() < full.tally.total(),
        "ε = 0.13 must stop early: {} vs {}",
        stopped.tally.total(),
        full.tally.total()
    );
    assert!(stopped.tally.total() >= 40, "min_samples respected");
    // The early-stopped records are a prefix of the full campaign's.
    for (a, b) in stopped.records.iter().zip(&full.records) {
        assert_eq!(a, b);
    }
    // Every converged interval actually covers the full-campaign
    // proportion — the statistical contract of the ε knob.
    for class in Outcome::ALL_WITH_ANOMALY {
        let p_stop = stopped.tally.pct(class) / 100.0;
        let p_full = full.tally.pct(class) / 100.0;
        let half = stopped.tally.wilson_half_width(class, FleetConfig::Z);
        assert!(half < stop_config.epsilon, "{class}: {half}");
        // Wilson intervals are centred slightly off p̂; comparing
        // against p̂ ± half-width keeps the check conservative.
        assert!(
            (p_stop - p_full).abs() <= half + 0.02,
            "{class}: stopped {p_stop:.3} vs full {p_full:.3} (half-width {half:.3})"
        );
    }
}

fn temp_sink(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("fracas-fleet-{tag}-{}.jsonl", std::process::id()));
    path
}

#[test]
fn sweep_resumes_bit_identically_from_truncated_sink() {
    let workloads = vec![
        workload(App::Is, Model::Serial, 1, IsaKind::Sira64),
        workload(App::Ep, Model::Serial, 1, IsaKind::Sira64),
    ];
    let config = FleetConfig {
        campaign: mini_config(20),
        ..FleetConfig::default()
    };
    let path = temp_sink("resume");
    let _ = std::fs::remove_file(&path);
    let full: Vec<String> = run_fleet_with_sink(&workloads, &config, &path)
        .expect("sink opens")
        .iter()
        .map(fracas_inject::CampaignResult::to_json)
        .collect();

    // Simulate a mid-sweep kill: keep the header and the first half of
    // the record lines, plus a torn (partially written) trailing line.
    let text = std::fs::read_to_string(&path).expect("sink readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 20, "sink holds header + 40 records");
    let mut truncated: String = lines[..lines.len() / 2]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    truncated.push_str(&lines[lines.len() / 2][..7]);
    std::fs::write(&path, truncated).expect("truncate sink");

    let resumed: Vec<String> = run_fleet_with_sink(&workloads, &config, &path)
        .expect("sink reopens")
        .iter()
        .map(fracas_inject::CampaignResult::to_json)
        .collect();
    assert_eq!(resumed, full, "resumed sweep must be bit-identical");

    // A second resume from the now-complete sink replays everything and
    // still reproduces the same databases.
    let replayed: Vec<String> = run_fleet_with_sink(&workloads, &config, &path)
        .expect("sink reopens")
        .iter()
        .map(fracas_inject::CampaignResult::to_json)
        .collect();
    assert_eq!(replayed, full);
    let _ = std::fs::remove_file(&path);
}

/// The sink's text cut inside line `line` (0 = header): every earlier
/// line intact, then the first 7 bytes of that line — a kill mid-write.
fn torn_at(text: &str, line: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut torn: String = lines[..line].iter().map(|l| format!("{l}\n")).collect();
    torn.push_str(&lines[line][..7]);
    torn
}

/// One record line of the sink, as the fleet writes it.
#[derive(serde::Deserialize)]
struct RecordLine {
    w: String,
    r: fracas_inject::InjectionRecord,
}

/// Resumes the sweep from the sink at `path`, returning the databases
/// and how many injections had to execute (the rest were replayed).
fn resume_counting(
    workloads: &[Workload],
    config: &FleetConfig,
    path: &std::path::Path,
) -> (Vec<String>, usize) {
    let executed = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&executed);
    let mut sink = RecordSink::open(path, &config.campaign).expect("sink opens");
    let results = run_fleet_with(
        workloads,
        config,
        &mut sink,
        &move |wl, fault, cps, limits| {
            counter.fetch_add(1, Ordering::Relaxed);
            inject_one(wl, fault, cps, limits)
        },
    )
    .expect("sink writes");
    let dbs = results
        .iter()
        .map(fracas_inject::CampaignResult::to_json)
        .collect();
    (dbs, executed.load(Ordering::Relaxed))
}

#[test]
fn repeated_torn_kills_replay_every_complete_record() {
    let workloads = vec![
        workload(App::Is, Model::Serial, 1, IsaKind::Sira64),
        workload(App::Ep, Model::Serial, 1, IsaKind::Sira64),
    ];
    let config = FleetConfig {
        campaign: mini_config(20),
        ..FleetConfig::default()
    };
    let records = 2 * 20;
    let path = temp_sink("double-kill");
    let _ = std::fs::remove_file(&path);
    let full: Vec<String> = run_fleet_with_sink(&workloads, &config, &path)
        .expect("sink opens")
        .iter()
        .map(fracas_inject::CampaignResult::to_json)
        .collect();
    let complete = std::fs::read_to_string(&path).expect("sink readable");
    assert_eq!(complete.lines().count(), 1 + records);

    // Kill, cut into the tail, resume; then kill and cut again further
    // on (the resumed sink's own appended lines), and resume once more.
    // Each resume must replay every complete record line — only the
    // torn one and those after it execute — and leave a sink of whole,
    // well-formed lines that reproduces the databases byte for byte.
    for line in [records / 3, 3 * records / 4] {
        let text = std::fs::read_to_string(&path).expect("sink readable");
        std::fs::write(&path, torn_at(&text, line)).expect("cut sink");
        let (resumed, executed) = resume_counting(&workloads, &config, &path);
        assert_eq!(resumed, full, "resumed databases must be bit-identical");
        assert_eq!(
            executed,
            records - (line - 1),
            "every complete record before line {line} must be replayed"
        );
        let sink = std::fs::read_to_string(&path).expect("sink readable");
        assert!(sink.ends_with('\n'));
        assert_eq!(sink.lines().count(), 1 + records, "one line per record");
        let mut seen = std::collections::HashSet::new();
        for (i, l) in sink.lines().enumerate().skip(1) {
            let parsed: RecordLine = serde_json::from_str(l)
                .unwrap_or_else(|e| panic!("malformed sink line {i} ({e}): {l}"));
            assert!(
                seen.insert((parsed.w, parsed.r.index)),
                "duplicate line {i}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn audit_report_survives_kill_and_resume_bit_identically() {
    let workloads = vec![
        workload(App::Ep, Model::Serial, 1, IsaKind::Sira64),
        workload(App::Is, Model::Serial, 1, IsaKind::Sira64),
    ];
    let config = FleetConfig {
        campaign: CampaignConfig {
            faults: 50,
            prune_classes: true,
            oracle_audit: 0.5,
            ..CampaignConfig::default()
        },
        ..FleetConfig::default()
    };
    let path = temp_sink("audit-resume");
    let _ = std::fs::remove_file(&path);
    let full = run_fleet_with_sink(&workloads, &config, &path).expect("sink opens");
    let full_reports: Vec<_> = full.iter().map(|r| r.audit.clone()).collect();
    for report in full_reports.iter().map(|r| r.as_ref().expect("audit on")) {
        assert!(
            !report.entries.is_empty(),
            "{}: rate 0.5 over a pruning scenario must audit something",
            report.id
        );
        assert_eq!(report.mismatch_count(), 0, "{}", report.summary());
        // Entries arrive index-sorted and deduplicated.
        for pair in report.entries.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }
    // Auditing never touches the record stream: the database equals an
    // unaudited pruned sweep's.
    let unaudited = run_fleet(
        &workloads,
        &FleetConfig {
            campaign: CampaignConfig {
                oracle_audit: 0.0,
                ..config.campaign.clone()
            },
            ..config.clone()
        },
    );
    for (a, b) in full.iter().zip(&unaudited) {
        assert_eq!(a.to_json(), b.to_json(), "{}: audit perturbed the db", a.id);
    }

    // Kill mid-sweep: keep the header and the first half of the lines
    // plus a torn tail, then resume. The resumed audit report must be
    // bit-identical to the uninterrupted run's — replayed entries come
    // from the sink, the rest are re-derived from the same seed.
    let text = std::fs::read_to_string(&path).expect("sink readable");
    let lines: Vec<&str> = text.lines().collect();
    let mut truncated: String = lines[..lines.len() / 2]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    truncated.push_str(&lines[lines.len() / 2][..7]);
    std::fs::write(&path, truncated).expect("truncate sink");
    let resumed = run_fleet_with_sink(&workloads, &config, &path).expect("sink reopens");
    for (a, b) in full.iter().zip(&resumed) {
        assert_eq!(a.to_json(), b.to_json(), "{}: records diverged", a.id);
    }
    let resumed_reports: Vec<_> = resumed.iter().map(|r| r.audit.clone()).collect();
    assert_eq!(
        resumed_reports, full_reports,
        "resumed audit report must be bit-identical"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sink_with_stale_fingerprint_is_set_aside() {
    let workloads = vec![workload(App::Is, Model::Serial, 1, IsaKind::Sira64)];
    let config = FleetConfig {
        campaign: mini_config(10),
        ..FleetConfig::default()
    };
    let path = temp_sink("stale");
    let mut stale = path.clone().into_os_string();
    stale.push(".stale");
    let stale = PathBuf::from(stale);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&stale);
    let full: Vec<String> = run_fleet_with_sink(&workloads, &config, &path)
        .expect("sink opens")
        .iter()
        .map(fracas_inject::CampaignResult::to_json)
        .collect();
    let old_bytes = std::fs::read(&path).expect("sink readable");
    // Re-running under a different seed must not trust the old records,
    // and must not destroy them either: they move to `<sink>.stale`.
    let reseeded = |seed| FleetConfig {
        campaign: CampaignConfig {
            seed,
            ..config.campaign.clone()
        },
        ..config.clone()
    };
    let other = run_fleet_with_sink(&workloads, &reseeded(config.campaign.seed + 1), &path)
        .expect("sink reopens");
    assert_eq!(other[0].tally.total(), 10);
    assert_eq!(other[0].tally.anomaly, 0);
    assert_ne!(other[0].to_json(), full[0]);
    assert_eq!(
        std::fs::read(&stale).expect("old sink set aside"),
        old_bytes
    );
    // A third configuration finds `.stale` taken: it refuses instead of
    // overwriting either file.
    let new_bytes = std::fs::read(&path).expect("sink readable");
    let err = RecordSink::open(&path, &reseeded(config.campaign.seed + 2).campaign)
        .err()
        .expect("an occupied .stale path must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    let message = err.to_string();
    assert!(message.contains(&path.display().to_string()), "{message}");
    assert!(message.contains(&stale.display().to_string()), "{message}");
    assert_eq!(std::fs::read(&path).expect("sink kept"), new_bytes);
    assert_eq!(std::fs::read(&stale).expect("stale kept"), old_bytes);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&stale);
}

#[test]
fn out_of_range_flip_coordinates_surface_as_anomaly_records() {
    // The checked-flip contract end to end: a fault whose coordinates
    // fall outside the modeled geometry makes the apply hook panic with
    // the `FlipError` description, and the worker's panic isolation
    // turns that into an Anomaly record instead of silently dropping
    // the flip (the old `flip_bit` behaviour).
    let w = workload(App::Is, Model::Serial, 1, IsaKind::Sira64);
    let config = CampaignConfig {
        faults: 8,
        threads: 2,
        ..CampaignConfig::default()
    };
    let clean = run_campaign(&w, &config);
    let bad = |target, i: usize| Fault {
        target,
        // Reuse a sampled cycle so the injection window is reachable
        // and the flip is actually attempted.
        cycle: clean.records[i].fault.cycle,
        width: 1,
    };
    let poisoned = [
        (
            clean.records[2].fault,
            bad(
                FaultTarget::CacheData {
                    core: 0,
                    unit: 1,
                    line: u32::MAX,
                    bit: 0,
                },
                2,
            ),
        ),
        (
            clean.records[5].fault,
            bad(
                FaultTarget::StoreBuf {
                    core: 0,
                    entry: 99,
                    bit: 0,
                },
                5,
            ),
        ),
    ];
    let fleet = FleetConfig {
        campaign: config,
        ..FleetConfig::default()
    };
    let result = run_fleet_with(
        std::slice::from_ref(&w),
        &fleet,
        &mut RecordSink::disabled(),
        &move |wl, fault, cps, limits| {
            let fault = poisoned
                .iter()
                .find(|(original, _)| original == fault)
                .map_or(*fault, |(_, bad)| *bad);
            inject_one(wl, &fault, cps, limits)
        },
    )
    .expect("a disabled sink never fails")
    .remove(0);
    assert_eq!(result.tally.anomaly, 2);
    assert_eq!(result.records[2].outcome, Outcome::Anomaly);
    assert_eq!(result.records[5].outcome, Outcome::Anomaly);
    for (i, (a, b)) in clean.records.iter().zip(&result.records).enumerate() {
        if i != 2 && i != 5 {
            assert_eq!(a, b, "record {i} must survive the sibling anomalies");
        }
    }
}

#[test]
fn value_domain_sweep_resumes_bit_identically() {
    // The kill/resume differential over the two value-bearing domains:
    // a store-buffer + cache-data sweep (class-pruned and audited, like
    // CI's smoke sweep) must replay bit-identically from a truncated
    // sink, with clean audit reports on both sides.
    let workloads = vec![workload(App::Is, Model::Serial, 1, IsaKind::Sira64)];
    let mut space = FaultSpace::none();
    space.storebuf = true;
    space.cachedata = true;
    let config = FleetConfig {
        campaign: CampaignConfig {
            faults: 30,
            space,
            prune_classes: true,
            oracle_audit: 0.5,
            ..CampaignConfig::default()
        },
        ..FleetConfig::default()
    };
    let path = temp_sink("value-resume");
    let _ = std::fs::remove_file(&path);
    let full = run_fleet_with_sink(&workloads, &config, &path).expect("sink opens");
    assert_eq!(full[0].tally.anomaly, 0);
    let report = full[0].audit.as_ref().expect("audit on");
    assert_eq!(report.mismatch_count(), 0, "{}", report.summary());

    let text = std::fs::read_to_string(&path).expect("sink readable");
    let lines: Vec<&str> = text.lines().collect();
    let mut truncated: String = lines[..lines.len() / 2]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    truncated.push_str(&lines[lines.len() / 2][..7]);
    std::fs::write(&path, truncated).expect("truncate sink");
    let resumed = run_fleet_with_sink(&workloads, &config, &path).expect("sink reopens");
    assert_eq!(
        resumed[0].to_json(),
        full[0].to_json(),
        "resumed value-domain sweep must be bit-identical"
    );
    assert_eq!(
        resumed[0].audit, full[0].audit,
        "resumed audit report must be bit-identical"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn panicking_injection_does_not_poison_the_fleet() {
    let workloads = mini_workloads();
    let config = FleetConfig {
        campaign: mini_config(10),
        ..FleetConfig::default()
    };
    let clean = run_fleet(&workloads, &config);
    let poison = clean[1].records[3].fault;
    let faulty = run_fleet_with(
        &workloads,
        &config,
        &mut RecordSink::disabled(),
        &move |wl, fault, cps, limits| {
            assert!(*fault != poison, "worker panics on the poisoned fault");
            inject_one(wl, fault, cps, limits)
        },
    )
    .expect("a disabled sink never fails");
    for (i, (a, b)) in clean.iter().zip(&faulty).enumerate() {
        if i == 1 {
            assert_eq!(b.tally.total(), 10, "{}", b.id);
            assert_eq!(b.tally.anomaly, 1, "{}", b.id);
            assert_eq!(b.records[3].outcome, Outcome::Anomaly);
            assert_eq!(
                b.records[3].cycles, 0,
                "a poisoned record reports no progress"
            );
            for (j, (x, y)) in a.records.iter().zip(&b.records).enumerate() {
                if j != 3 {
                    assert_eq!(x, y, "record {j} must survive the sibling panic");
                }
            }
        } else {
            assert_eq!(a.to_json(), b.to_json(), "workload {} polluted", a.id);
        }
    }
}
