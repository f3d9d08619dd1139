//! The traced, serial replay of one benchmark sweep.
//!
//! ```text
//! bench_trace <sweep flags> --db PATH --sink PATH
//! ```
//!
//! Calls the public functions of each layer in the order a one-thread
//! fleet does, with a span around every call:
//!
//! * per scenario: `build` (`Workload::from_scenario`), `golden`
//!   (`golden_only`: reference run and profile), `ladder`
//!   (`golden_run_with_checkpoints`), `trace` (`golden_trace`, class mode
//!   only) and `plan` (`campaign_faults`, plus `class_plan` in class mode);
//! * per executed injection, `inject_one` split into its public parts:
//!   `restore` (`CheckpointSet::nearest_before`, `Kernel::restore` or a
//!   fresh boot), `replay` (`run_until_core_cycle`), `flip`
//!   (`Fault::apply`), `reconverge` (`CheckpointSet::try_reconverge`),
//!   `postflip` (`Kernel::run` and the report) and `classify`, all
//!   children of one `inject` span that carries the fault index;
//! * `sink` (record lines appended per batch, as the fleet streams them)
//!   and `db` (assembling and saving the database).
//!
//! Every replayed injection's `RunReport` is compared with
//! `inject_one`'s once the traced part has ended, on one thread per CPU,
//! so the reference calls neither count in nor perturb the traced time.
//! The replayed database is written to `--db`, so the
//! caller can check it against the production sweep's. Spans go to
//! `<db>.spans.jsonl` as JSON lines when the run ends; the counters of each layer
//! are printed as one JSON line.

use fracas::inject::{
    campaign_faults, class_plan, classify, golden_only, golden_run_with_checkpoints, golden_trace,
    inject_one, CampaignResult, CheckpointSet, ClassPlan, Fault, InjectionRecord, Outcome,
    RecordSink, Workload,
};
use fracas::kernel::{Kernel, Limits, RunReport};
use fracas::mine::Database;
use fracas_sweepbench::{json_str, Sweep, Tracer};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

const USAGE: &str = "bench_trace [sweep flags] --db PATH --sink PATH";

/// Layer counters gathered at the span boundaries.
#[derive(Default)]
struct Counters {
    golden_instructions: u64,
    snapshots: u64,
    trace_events: u64,
    faults: u64,
    decided: u64,
    executed: u64,
    boot_fallbacks: u64,
    replay_cycles: u64,
    reconverge_attempts: u64,
    reconverge_hits: u64,
    postflip_instructions: u64,
    hangs: u64,
    sink_bytes: u64,
    db_bytes: u64,
}

/// A replayed injection, kept for the comparison with `inject_one`.
struct Replayed {
    scenario: usize,
    index: usize,
    fault: Fault,
    report: RunReport,
}

/// The watchdog limits a campaign derives from its golden run (the
/// fleet's own rule, which is crate-private).
fn campaign_limits(golden: &RunReport, watchdog_factor: f64) -> Limits {
    Limits {
        max_cycles: ((golden.cycles as f64 * watchdog_factor) as u64).max(golden.cycles + 100_000),
        max_steps: (golden.total_instructions() * 8).max(1_000_000),
    }
}

/// One executed injection, replaying `inject_one` phase by phase.
#[allow(clippy::too_many_arguments)]
fn replay_injection(
    t: &mut Tracer,
    c: &mut Counters,
    scenario: usize,
    index: usize,
    workload: &Workload,
    fault: &Fault,
    checkpoints: &CheckpointSet,
    limits: &Limits,
    golden: &RunReport,
) -> (RunReport, Outcome) {
    let inject = t.open("inject", scenario, index, None);
    let span = Some(inject);
    let (rung, mut kernel) = t.span("restore", scenario, index, span, || {
        match checkpoints.nearest_before(fault.timing_core(), fault.cycle) {
            Some((rung, snap)) => (Some(rung), Kernel::restore(snap)),
            None => (
                None,
                Kernel::boot(&workload.image, workload.cores, workload.spec),
            ),
        }
    });
    c.boot_fallbacks += u64::from(rung.is_none());
    let resumed_at = kernel.machine().max_cycles();
    let paused = t.span("replay", scenario, index, span, || {
        kernel.run_until_core_cycle(fault.timing_core(), fault.cycle, limits)
    });
    c.replay_cycles += kernel.machine().max_cycles() - resumed_at;
    let report = if paused.is_none() {
        t.span("flip", scenario, index, span, || fault.apply(&mut kernel));
        let mut reconverged = None;
        if fault.targets_ephemeral_state() {
            c.reconverge_attempts += 1;
            reconverged = t.span("reconverge", scenario, index, span, || {
                checkpoints.try_reconverge(&mut kernel, rung, limits)
            });
            c.reconverge_hits += u64::from(reconverged.is_some());
        }
        match reconverged {
            Some(report) => report,
            None => {
                let flipped_at = kernel.machine().total_instructions();
                let report = t.span("postflip", scenario, index, span, || {
                    kernel.run(limits);
                    kernel.report()
                });
                c.postflip_instructions += kernel.machine().total_instructions() - flipped_at;
                report
            }
        }
    } else {
        // The run ended before the fault cycle: the flip never lands.
        t.span("replay", scenario, index, span, || kernel.report())
    };
    let outcome = t.span("classify", scenario, index, span, || {
        classify(golden, &report)
    });
    t.close(inject);
    c.executed += 1;
    c.hangs += u64::from(outcome == Outcome::Hang);
    (report, outcome)
}

/// Appends one batch of records to the sink in the fleet's line format
/// (`{"w":<workload id>,"r":<record>}`), flushed as one write.
fn append_batch(file: &mut std::fs::File, id: &str, batch: &[InjectionRecord]) {
    let mut out = String::new();
    for r in batch {
        let record = serde_json::to_string(r).expect("records serialise");
        out.push_str(&format!("{{\"w\":{},\"r\":{record}}}\n", json_str(id)));
    }
    file.write_all(out.as_bytes()).expect("sink write");
    file.flush().expect("sink flush");
}

/// Re-runs every replayed injection through `inject_one` on one thread
/// per CPU and counts the reports that differ.
fn count_mismatches(
    workloads: &[Workload],
    ladders: &[(CheckpointSet, Limits)],
    replayed: &[Replayed],
) -> u64 {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let next = AtomicUsize::new(0);
    let mismatches = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(r) = replayed.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let (checkpoints, limits) = &ladders[r.scenario];
                    let workload = &workloads[r.scenario];
                    if inject_one(workload, &r.fault, checkpoints, limits) != r.report {
                        eprintln!(
                            "MISMATCH {} fault {}: replay differs from inject_one",
                            workload.id, r.index
                        );
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    mismatches.into_inner()
}

fn main() {
    let sweep = Sweep::from_args(USAGE);
    let mut spans_out = sweep.db.clone().into_os_string();
    spans_out.push(".spans.jsonl");
    let campaign = &sweep.config.campaign;
    let mut t = Tracer::new();
    let mut c = Counters::default();

    // run_sweep builds every workload before the fleet starts.
    let workloads: Vec<Workload> = sweep
        .scenarios
        .iter()
        .enumerate()
        .map(|(k, s)| {
            t.span("build", k, k, None, || {
                Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id()))
            })
        })
        .collect();
    let mut sink = t.span("sink", 0, 0, None, || {
        drop(RecordSink::open(&sweep.sink, campaign).expect("sink opens"));
        std::fs::OpenOptions::new()
            .append(true)
            .open(&sweep.sink)
            .expect("sink reopens")
    });

    let mut results: Vec<CampaignResult> = Vec::with_capacity(workloads.len());
    let mut ladders: Vec<(CheckpointSet, Limits)> = Vec::with_capacity(workloads.len());
    let mut replayed: Vec<Replayed> = Vec::new();
    for (k, workload) in workloads.iter().enumerate() {
        let mut result = t.span("golden", k, k, None, || {
            golden_only(workload, campaign.faults)
        });
        c.golden_instructions += result.golden.instructions;
        let (golden, _, checkpoints) = t.span("ladder", k, k, None, || {
            golden_run_with_checkpoints(workload, campaign.checkpoints)
        });
        c.snapshots += checkpoints.len() as u64;
        let trace = campaign.prune_classes.then(|| {
            let (_, trace) = t.span("trace", k, k, None, || golden_trace(workload));
            c.trace_events += trace.events.len() as u64;
            trace
        });
        let (faults, plan) = t.span("plan", k, k, None, || {
            let faults = campaign_faults(workload, campaign, golden.cycles);
            let plan: Option<ClassPlan> = trace.map(|trace| class_plan(workload, &trace, &faults));
            (faults, plan)
        });
        let limits = campaign_limits(&golden, campaign.watchdog_factor);
        c.faults += faults.len() as u64;

        let mut records: Vec<InjectionRecord> = Vec::with_capacity(faults.len());
        let batch = campaign.batch.max(1);
        for (i, fault) in faults.iter().enumerate() {
            // Class mode: decided faults take the golden run's figures,
            // members copy their representative (whose index is lower).
            let synthesized = plan.as_ref().and_then(|plan| {
                if let Some(outcome) = plan.decided[i] {
                    c.decided += 1;
                    return Some(InjectionRecord {
                        index: i as u32,
                        fault: *fault,
                        outcome,
                        cycles: golden.cycles,
                        instructions: golden.total_instructions(),
                        rep: None,
                    });
                }
                let rep = plan.rep[i] as usize;
                (rep != i).then(|| InjectionRecord {
                    index: i as u32,
                    fault: *fault,
                    rep: Some(rep as u32),
                    ..records[rep]
                })
            });
            let record = synthesized.unwrap_or_else(|| {
                let (report, outcome) = replay_injection(
                    &mut t,
                    &mut c,
                    k,
                    i,
                    workload,
                    fault,
                    &checkpoints,
                    &limits,
                    &golden,
                );
                let record = InjectionRecord {
                    index: i as u32,
                    fault: *fault,
                    outcome,
                    cycles: report.cycles,
                    instructions: report.total_instructions(),
                    rep: None,
                };
                replayed.push(Replayed {
                    scenario: k,
                    index: i,
                    fault: *fault,
                    report,
                });
                record
            });
            records.push(record);
            if records.len().is_multiple_of(batch) || records.len() == faults.len() {
                let from = (records.len() - 1) / batch * batch;
                t.span("sink", k, k, None, || {
                    append_batch(&mut sink, &workload.id, &records[from..]);
                });
            }
        }
        result.seed = campaign.seed;
        result.space_bits = workload.dims(campaign.space).total_bits();
        for r in &records {
            result.tally.record(r.outcome);
        }
        result.records = records;
        results.push(result);
        ladders.push((checkpoints, limits));
    }
    drop(sink);
    c.sink_bytes = std::fs::metadata(&sweep.sink).map_or(0, |m| m.len());

    t.span("db", 0, 0, None, || {
        let text = Database::from_campaigns(results).to_json_lines();
        std::fs::write(&sweep.db, &text).expect("database write");
        std::fs::remove_file(&sweep.sink).expect("sink removal");
        c.db_bytes = text.len() as u64;
    });
    let wall_s = t.now();
    std::fs::write(&spans_out, t.to_json_lines()).expect("spans write");
    let verify = Instant::now();
    let mismatches = count_mismatches(&workloads, &ladders, &replayed);
    let verify_s = verify.elapsed().as_secs_f64();

    println!(
        "{{\"wall_s\":{wall_s},\"verify_s\":{},\"mismatches\":{},\"faults\":{},\
         \"scenarios\":{},\"golden_instructions\":{},\"snapshots\":{},\"trace_events\":{},\
         \"planned_faults\":{},\"decided\":{},\"executed\":{},\"boot_fallbacks\":{},\
         \"replay_cycles\":{},\"reconverge_attempts\":{},\"reconverge_hits\":{},\
         \"postflip_instructions\":{},\"hangs\":{},\"sink_bytes\":{},\
         \"db_bytes\":{}}}",
        verify_s,
        mismatches,
        campaign.faults,
        sweep.ids_json(),
        c.golden_instructions,
        c.snapshots,
        c.trace_events,
        c.faults,
        c.decided,
        c.executed,
        c.boot_fallbacks,
        c.replay_cycles,
        c.reconverge_attempts,
        c.reconverge_hits,
        c.postflip_instructions,
        c.hangs,
        c.sink_bytes,
        c.db_bytes,
    );
}
