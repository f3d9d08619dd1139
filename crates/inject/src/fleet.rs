//! The fleet orchestrator: the one campaign executor.
//!
//! The paper's evaluation is a *sweep* — 64 scenario × ISA × core-count
//! configurations, 1,040,000 injections, on an HPC cluster. This module
//! makes the sweep the unit of execution, and
//! [`run_campaign`](crate::run_campaign) is a one-workload sweep, so
//! every database comes out of the same per-fault dispatch: oracle
//! verdicts, class representatives and members, sampled audits and
//! plain execution.
//!
//! * **Shared work pool.** All jobs of a sweep — golden runs (with their
//!   checkpoint ladders) and injection batches of *every* workload — are
//!   claimed from one pool by one set of worker threads. A worker that
//!   finishes workload A's batches steals workload B's instead of going
//!   idle, so the sweep's tail is a single workload's tail, not the sum
//!   of per-campaign tails.
//! * **Streaming record sink with crash-safe resume.** Completed
//!   injection records stream to an append-only JSONL file
//!   ([`RecordSink`]). On restart the sink is replayed: already-completed
//!   injection indices are skipped and only the remainder runs. Replayed
//!   and freshly computed records are indistinguishable because every
//!   injection is deterministic in (seed, index).
//! * **Statistical early stopping.** With `epsilon > 0` a workload stops
//!   once every outcome-class proportion's Wilson confidence half-width
//!   drops below ε ([`Tally::wilson_half_width`]). The check runs over
//!   the *committed prefix* of the record list (records 0..k with no
//!   holes), so the stopping index is a pure function of the fault list.
//!   The default ε = 0 disables stopping.
//! * **Invariance.** A workload's database depends only on the workload,
//!   the value-relevant campaign knobs (seed, fault budget, watchdog,
//!   fault space) and the early-stopping settings. It is byte-identical
//!   across thread counts, batch sizes, checkpoint settings, class pruning,
//!   pool shape (alone or alongside other workloads) and kill/resume
//!   boundaries.
//! * **Panic isolation.** A panicking injection job becomes an
//!   [`Outcome::Anomaly`] record; a panicking golden run marks only that
//!   workload as failed. Neither poisons the rest of the sweep.

use crate::audit::{audit_selected, AuditEntry, OracleAuditReport};
use crate::campaign::{
    campaign_faults, campaign_limits, campaign_seed, fnv, golden_run_traced, inject_one,
    CampaignConfig, CampaignResult, GoldenSummary, InjectionRecord, ProfileStats, Tally, Workload,
};
use crate::{classify, CheckpointSet, Fault, Outcome};
use fracas_kernel::{Limits, RunReport};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sweep-level configuration: the per-workload campaign parameters plus
/// the orchestrator's early-stopping and progress knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-workload campaign parameters (seed, fault budget, fault
    /// space, watchdog, checkpoints, worker threads, batch size).
    pub campaign: CampaignConfig,
    /// Early-stopping threshold on the widest per-class Wilson
    /// confidence half-width, as a proportion in `[0, 1]`. `0.0`
    /// (default) disables early stopping: every workload runs its whole
    /// fault list.
    pub epsilon: f64,
    /// Minimum committed injections before early stopping may trigger,
    /// so tiny prefixes with degenerate intervals cannot stop a
    /// campaign (default 50).
    pub min_samples: usize,
    /// Emit per-workload progress lines (injections/sec, ETA, running
    /// tally) to stderr.
    pub progress: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            campaign: CampaignConfig::default(),
            epsilon: 0.0,
            min_samples: 50,
            progress: false,
        }
    }
}

impl FleetConfig {
    /// Critical value of the early-stopping confidence interval
    /// (1.96 ≙ 95%).
    pub const Z: f64 = 1.96;
}

/// One line of the sink file: an injection record or an oracle-audit
/// entry, tagged with its workload id. An audited pruned fault emits
/// its audit line immediately *before* its record line in the same
/// flushed write, so a torn tail can lose the record but never a
/// record's audit entry — the resume invariant the audit report's
/// bit-identity rests on.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SinkLine {
    /// Workload id the line belongs to.
    w: String,
    /// A completed injection record.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    r: Option<InjectionRecord>,
    /// A completed oracle-audit entry.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    a: Option<AuditEntry>,
}

/// The sink-file header: a fingerprint of every campaign parameter that
/// influences record *values* (seed, fault budget, watchdog, fault
/// space) — plus the effective oracle-audit rate, which influences the
/// sink's audit lines. A sink whose fingerprint mismatches the current
/// sweep is moved aside to `<sink>.stale` instead of resumed.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SinkHeader {
    /// Configuration fingerprint (FNV over the value-relevant knobs).
    fp: u64,
}

fn config_fingerprint(config: &CampaignConfig) -> u64 {
    // `prune_classes` alone never changes a record, so toggling it keeps
    // the fingerprint (and a half-finished sink) valid. Auditing adds
    // entries the resumed report must replay, so the *effective* rate
    // (zero unless class pruning is on) is part of the key. The key text
    // is part of the sink format: earlier builds' sinks must keep
    // resuming (see `default_fingerprint_is_pinned`).
    let classes = config.audits();
    let audit = if classes {
        config.oracle_audit.to_bits()
    } else {
        0
    };
    let key = format!(
        "seed={};faults={};watchdog={};space={:?};audit={audit};classes={classes}",
        config.seed,
        config.faults,
        config.watchdog_factor.to_bits(),
        config.space,
    );
    fnv(key.as_bytes())
}

/// Append-only JSONL stream of completed injection records, giving a
/// sweep crash-safe resume: every finished batch is flushed to disk, and
/// a restarted sweep replays the file instead of re-running the work.
///
/// A line counts once its terminating newline is on disk. A torn
/// trailing line (the signature of a mid-write kill) is tolerated:
/// replay stops at the first line that is unterminated or does not
/// parse, and the file is cut back to the end of the replayed prefix
/// before anything is appended, so the next record starts on a line of
/// its own.
pub struct RecordSink {
    file: Option<Mutex<Box<dyn Write + Send>>>,
    preloaded: HashMap<String, Vec<InjectionRecord>>,
    preloaded_audits: HashMap<String, Vec<AuditEntry>>,
}

impl RecordSink {
    /// A sink that neither persists nor replays anything (plain
    /// in-memory sweeps).
    pub fn disabled() -> RecordSink {
        RecordSink {
            file: None,
            preloaded: HashMap::new(),
            preloaded_audits: HashMap::new(),
        }
    }

    /// Opens (or creates) the sink file at `path` for the given
    /// campaign configuration.
    ///
    /// An existing file whose header fingerprint matches `config` is
    /// replayed for resume, cut back to its last complete line and then
    /// appended to. A non-empty file that does not match (another seed,
    /// fault budget, watchdog or fault space, or no readable header) is
    /// never overwritten: it is renamed to `<path>.stale`, with one stderr
    /// line naming both fingerprints, and a fresh sink is started.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::AlreadyExists`] error naming both paths when
    /// a mismatching file must be set aside but `<path>.stale` already
    /// exists, and any I/O error from reading, cutting, renaming or
    /// creating the files.
    pub fn open(path: &Path, config: &CampaignConfig) -> std::io::Result<RecordSink> {
        let fingerprint = config_fingerprint(config);
        let mut preloaded: HashMap<String, Vec<InjectionRecord>> = HashMap::new();
        let mut preloaded_audits: HashMap<String, Vec<AuditEntry>> = HashMap::new();
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let mut lines = bytes.split_inclusive(|&b| b == b'\n').map_while(|line| {
            let text = std::str::from_utf8(line.strip_suffix(b"\n")?).ok()?;
            Some((line.len() as u64, text))
        });
        let header = lines
            .next()
            .and_then(|(len, l)| Some((len, serde_json::from_str::<SinkHeader>(l).ok()?.fp)));
        // Byte length of the replayed prefix, when the file is resumed.
        let resume_len = match header {
            Some((mut len, fp)) if fp == fingerprint => {
                for (line_len, line) in lines {
                    // A torn tail from a crash parses as an error: stop
                    // replaying there and re-run the remainder.
                    let Ok(parsed) = serde_json::from_str::<SinkLine>(line) else {
                        break;
                    };
                    if let Some(r) = parsed.r {
                        preloaded.entry(parsed.w.clone()).or_default().push(r);
                    }
                    if let Some(a) = parsed.a {
                        preloaded_audits.entry(parsed.w).or_default().push(a);
                    }
                    len += line_len;
                }
                Some(len)
            }
            _ => None,
        };
        let mut file = if let Some(len) = resume_len {
            let file = std::fs::OpenOptions::new().append(true).open(path)?;
            file.set_len(len)?;
            file
        } else {
            if !bytes.is_empty() {
                set_aside(path, header.map(|(_, fp)| fp), fingerprint)?;
            }
            let mut f = std::fs::File::create(path)?;
            writeln!(
                f,
                "{}",
                serde_json::to_string(&SinkHeader { fp: fingerprint })
                    .expect("SinkHeader serialises")
            )?;
            f
        };
        file.flush()?;
        Ok(RecordSink {
            file: Some(Mutex::new(Box::new(file))),
            preloaded,
            preloaded_audits,
        })
    }

    /// Records replayed from disk for one workload (resume input).
    fn preloaded(&self, id: &str) -> &[InjectionRecord] {
        self.preloaded.get(id).map_or(&[], Vec::as_slice)
    }

    /// Audit entries replayed from disk for one workload.
    fn preloaded_audits(&self, id: &str) -> &[AuditEntry] {
        self.preloaded_audits.get(id).map_or(&[], Vec::as_slice)
    }

    /// Appends freshly completed records (each optionally preceded by
    /// its audit entry, in the same write) and flushes, so a kill at
    /// any later instant cannot lose them — and can never keep a record
    /// while losing its audit entry.
    fn append(
        &self,
        id: &str,
        batch: &[(Option<AuditEntry>, InjectionRecord)],
    ) -> std::io::Result<()> {
        let Some(file) = &self.file else {
            return Ok(());
        };
        let mut out = String::new();
        let mut push = |line: &SinkLine| {
            out.push_str(&serde_json::to_string(line).expect("SinkLine serialises"));
            out.push('\n');
        };
        for (audit, r) in batch {
            if let Some(a) = audit {
                push(&SinkLine {
                    w: id.to_string(),
                    r: None,
                    a: Some(*a),
                });
            }
            push(&SinkLine {
                w: id.to_string(),
                r: Some(*r),
                a: None,
            });
        }
        let mut file = file.lock().expect("no poisoned sink lock");
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Renames a sink that belongs to another configuration (header
/// fingerprint `found`, `None` when unreadable) to `<path>.stale`, so
/// its completed records survive; refuses rather than overwrite an
/// earlier `.stale` file.
fn set_aside(path: &Path, found: Option<u64>, wanted: u64) -> std::io::Result<()> {
    let mut stale = path.as_os_str().to_owned();
    stale.push(".stale");
    let stale = PathBuf::from(stale);
    let found = found.map_or_else(|| "unreadable".to_string(), |fp| format!("{fp:016x}"));
    let mismatch = format!(
        "sink {} has fingerprint {found}, not this sweep's {wanted:016x}",
        path.display()
    );
    if stale.exists() {
        return Err(std::io::Error::new(
            ErrorKind::AlreadyExists,
            format!(
                "{mismatch}, and {} already exists; move one of them away",
                stale.display()
            ),
        ));
    }
    std::fs::rename(path, &stale)?;
    eprintln!("{mismatch}; moved it to {}", stale.display());
    Ok(())
}

/// Everything the golden job of one workload produces: the reference
/// report and profile, the checkpoint ladder, the sampled fault list and
/// the watchdog limits for the injection batches that follow.
struct GoldenJob {
    report: RunReport,
    profile: ProfileStats,
    checkpoints: Arc<CheckpointSet>,
    faults: Vec<Fault>,
    limits: Limits,
    /// The equivalence-class plan of the fault list
    /// ([`CampaignConfig::prune_classes`]); `None` when pruning is off.
    plan: Option<crate::ClassPlan>,
    /// One write-once slot per fault index holding the executed record
    /// of a class representative ([`CampaignConfig::prune_classes`]):
    /// whichever worker first needs a representative — for its own
    /// record or to synthesize a member's — executes it exactly once,
    /// so the class layer needs no scheduling of its own.
    cells: Vec<OnceLock<InjectionRecord>>,
    /// The per-workload campaign seed, from which
    /// [`audit_selected`] derives the audited subset of synthesized
    /// records.
    audit_seed: u64,
}

/// Record slots and the early-stopping prefix state of one workload
/// (everything that must mutate atomically together).
struct Slots {
    records: Vec<Option<InjectionRecord>>,
    /// Per-fault oracle-audit entries (`None` for unaudited indices);
    /// keyed by index so a resume's replayed entry and a re-run's fresh
    /// entry (identical by determinism) dedupe naturally.
    audits: Vec<Option<AuditEntry>>,
    /// Length of the hole-free prefix of `records`.
    committed: usize,
    /// Outcome tally over exactly that prefix — the early-stop input.
    prefix: Tally,
}

const NOT_STOPPED: usize = usize::MAX;

/// Shared per-workload state the worker pool operates on.
struct WorkloadState<'w> {
    workload: &'w Workload,
    golden_claimed: AtomicBool,
    /// `None` until the golden job ran; `Some(None)` if it panicked.
    golden: OnceLock<Option<GoldenJob>>,
    slots: Mutex<Slots>,
    next_batch: AtomicUsize,
    /// Committed index at which early stopping triggered
    /// ([`NOT_STOPPED`] otherwise). Monotone: written once.
    stop_at: AtomicUsize,
    /// Set when the golden job finishes (progress-rate reference).
    injections_started: OnceLock<Instant>,
    /// Injections executed by this process (excludes sink replays), so
    /// the progress rate reflects live work even on resume.
    injected: AtomicUsize,
    last_progress: Mutex<Instant>,
}

impl WorkloadState<'_> {
    fn new(workload: &Workload) -> WorkloadState<'_> {
        WorkloadState {
            workload,
            golden_claimed: AtomicBool::new(false),
            golden: OnceLock::new(),
            slots: Mutex::new(Slots {
                records: Vec::new(),
                audits: Vec::new(),
                committed: 0,
                prefix: Tally::default(),
            }),
            next_batch: AtomicUsize::new(0),
            stop_at: AtomicUsize::new(NOT_STOPPED),
            injections_started: OnceLock::new(),
            injected: AtomicUsize::new(0),
            last_progress: Mutex::new(Instant::now()),
        }
    }

    fn stop_at(&self) -> usize {
        self.stop_at.load(Ordering::Relaxed)
    }
}

/// Advances the committed prefix over newly filled slots, updating the
/// prefix tally and evaluating the early-stop predicate after *every*
/// committed record. Because the prefix is consumed strictly in index
/// order, the first index satisfying the predicate — and therefore the
/// entire early-stopped record set — is independent of thread count,
/// batch size and resume boundaries.
fn advance_commit(slots: &mut Slots, config: &FleetConfig, stop_at: &AtomicUsize) {
    while let Some(Some(record)) = slots.records.get(slots.committed) {
        slots.prefix.record(record.outcome);
        slots.committed += 1;
        if config.epsilon > 0.0
            && slots.committed >= config.min_samples.max(1)
            && stop_at.load(Ordering::Relaxed) == NOT_STOPPED
            && slots.prefix.max_wilson_half_width(FleetConfig::Z) < config.epsilon
        {
            stop_at.store(slots.committed, Ordering::Relaxed);
        }
    }
}

/// The injection primitive the fleet drives: produces the faulty
/// [`RunReport`] for one fault. Production code always uses
/// [`inject_one`]; tests substitute misbehaving injectors to exercise
/// the panic-isolation path.
pub type Injector = dyn Fn(&Workload, &Fault, &CheckpointSet, &Limits) -> RunReport + Sync;

/// Runs a sweep over `workloads` on one shared worker pool, returning
/// one [`CampaignResult`] per workload (input order). Each database is
/// the same whatever the thread count, batch size, checkpoint setting
/// or the other workloads in the sweep.
pub fn run_fleet(workloads: &[Workload], config: &FleetConfig) -> Vec<CampaignResult> {
    run_fleet_with(workloads, config, &mut RecordSink::disabled(), &inject_one)
        .expect("a disabled sink never fails")
}

/// [`run_fleet`] streaming records through (and resuming from) the sink
/// file at `path`. Kill the process at any point and re-invoke with the
/// same path and configuration: completed injections are replayed from
/// disk and the final databases are bit-identical to an uninterrupted
/// sweep.
///
/// # Errors
///
/// Returns any I/O error from opening or creating the sink file, and
/// the first error from writing records to it (see [`run_fleet_with`]).
pub fn run_fleet_with_sink(
    workloads: &[Workload],
    config: &FleetConfig,
    path: &Path,
) -> std::io::Result<Vec<CampaignResult>> {
    let mut sink = RecordSink::open(path, &config.campaign)?;
    run_fleet_with(workloads, config, &mut sink, &inject_one)
}

/// Resolves `threads: 0` to the host's available parallelism.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        threads
    }
}

/// The orchestrator core with an explicit injection primitive and sink
/// (exposed for the panic-isolation and differential test suites;
/// production entry points are [`run_fleet`] / [`run_fleet_with_sink`]).
///
/// # Errors
///
/// Returns the first error from writing records to `sink`. Workers stop
/// claiming jobs once a write failed, so a full disk fails the sweep
/// instead of silently ending its persistence.
pub fn run_fleet_with(
    workloads: &[Workload],
    config: &FleetConfig,
    sink: &mut RecordSink,
    injector: &Injector,
) -> std::io::Result<Vec<CampaignResult>> {
    let states: Vec<WorkloadState> = workloads.iter().map(WorkloadState::new).collect();
    let threads = resolve_threads(config.campaign.threads);
    let sweep_started = Instant::now();
    let sink_error: OnceLock<std::io::Error> = OnceLock::new();

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (states, sink, sink_error) = (&states, &*sink, &sink_error);
            scope.spawn(move || worker_loop(states, config, sink, sink_error, injector, worker));
        }
    });
    if let Some(e) = sink_error.into_inner() {
        return Err(e);
    }

    let elapsed = sweep_started.elapsed().as_secs_f64();
    let results: Vec<CampaignResult> = states
        .into_iter()
        .map(|state| finish_workload(state, config))
        .collect();
    if config.progress {
        let injections: u64 = results.iter().map(|r| r.tally.total()).sum();
        eprintln!(
            "sweep: {} workload(s), {injections} injections in {elapsed:.1}s ({:.1} inj/s)",
            results.len(),
            injections as f64 / elapsed.max(1e-9),
        );
    }
    Ok(results)
}

/// One worker of the shared pool: repeatedly claims the next available
/// job — a pending golden run or an injection batch of *any* workload —
/// until no workload can produce further work or a sink write failed
/// (the first failure is kept in `sink_error`).
fn worker_loop(
    states: &[WorkloadState],
    config: &FleetConfig,
    sink: &RecordSink,
    sink_error: &OnceLock<std::io::Error>,
    injector: &Injector,
    worker: usize,
) {
    let batch = config.campaign.batch.max(1);
    while sink_error.get().is_none() {
        let mut golden_in_flight = false;
        let mut claimed = false;
        for k in 0..states.len() {
            // Stagger each worker's scan start so they fan out across
            // workloads instead of contending on the first one.
            let state = &states[(k + worker) % states.len()];
            if state.golden.get().is_none() {
                if state.golden_claimed.swap(true, Ordering::AcqRel) {
                    // Another worker is booting this golden run; its
                    // batches will appear shortly.
                    golden_in_flight = true;
                    continue;
                }
                run_golden_job(state, config, sink);
                claimed = true;
                break;
            }
            let Some(Some(golden)) = state.golden.get() else {
                continue; // golden failed: nothing to inject
            };
            let stop_at = state.stop_at();
            let start = state.next_batch.fetch_add(batch, Ordering::Relaxed);
            if start >= golden.faults.len().min(stop_at) {
                continue;
            }
            if let Err(e) = run_injection_batch(state, golden, config, sink, injector, start, batch)
            {
                let _ = sink_error.set(e);
                return;
            }
            claimed = true;
            break;
        }
        if claimed {
            continue;
        }
        if !golden_in_flight {
            return; // no claimable work anywhere, none forthcoming
        }
        std::thread::yield_now();
    }
}

/// Executes one workload's golden job (reference run + checkpoint
/// ladder + fault sampling), isolating panics to this workload.
fn run_golden_job(state: &WorkloadState, config: &FleetConfig, sink: &RecordSink) {
    let campaign = &config.campaign;
    let job = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (report, profile_map, checkpoints, trace) =
            golden_run_traced(state.workload, campaign.checkpoints, campaign.prune_classes);
        let profile = ProfileStats::from_run(&report, &profile_map);
        let faults = campaign_faults(state.workload, campaign, report.cycles);
        let limits = campaign_limits(&report, campaign);
        let plan = trace.map(|trace| crate::classes::class_plan(state.workload, &trace, &faults));
        let cells = (0..faults.len()).map(|_| OnceLock::new()).collect();
        GoldenJob {
            report,
            profile,
            checkpoints: Arc::new(checkpoints),
            faults,
            limits,
            plan,
            cells,
            audit_seed: campaign_seed(&state.workload.id, campaign.seed),
        }
    }));
    let job = match job {
        Ok(job) => Some(job),
        Err(panic) => {
            eprintln!(
                "[{}] golden run panicked ({}); marking workload failed",
                state.workload.id,
                panic_message(panic.as_ref())
            );
            None
        }
    };
    if let Some(job) = &job {
        let preloaded = sink.preloaded(&state.workload.id);
        let mut slots = state.slots.lock().expect("no poisoned slots lock");
        slots.records = vec![None; job.faults.len()];
        slots.audits = vec![None; job.faults.len()];
        for record in preloaded {
            let i = record.index as usize;
            let mut record = *record;
            // The sink never persists the in-memory `rep` marker;
            // reconstruct it from the plan so resumed results match
            // fresh ones field-for-field, and seed the representative
            // cells so members never re-execute a replayed
            // representative.
            if let Some(classes) = &job.plan {
                if let Some(&rep) = classes.rep.get(i) {
                    if rep as usize == i {
                        let _ = job.cells[i].set(record);
                    } else {
                        record.rep = Some(rep);
                    }
                }
            }
            if let Some(slot) = slots.records.get_mut(i) {
                *slot = Some(record);
            }
        }
        for entry in sink.preloaded_audits(&state.workload.id) {
            if let Some(slot) = slots.audits.get_mut(entry.index as usize) {
                *slot = Some(*entry);
            }
        }
        advance_commit(&mut slots, config, &state.stop_at);
    }
    state
        .golden
        .set(job)
        .map_err(|_| ())
        .expect("golden set once");
    let _ = state.injections_started.set(Instant::now());
}

/// Synthesizes the record of a pruned injection: the fault provably
/// never diverges the run, so cycles and instructions are the golden
/// run's own. Byte-identical to what executing the fault would record.
fn pruned_record(
    golden: &RunReport,
    fault: &Fault,
    index: usize,
    outcome: Outcome,
) -> InjectionRecord {
    InjectionRecord {
        index: index as u32,
        fault: *fault,
        outcome,
        cycles: golden.cycles,
        instructions: golden.total_instructions(),
        rep: None,
    }
}

/// Runs one injection through `injector` with host-panic isolation: a
/// panicking worker yields an [`Outcome::Anomaly`] record (zero cycles
/// and instructions) instead of aborting the campaign and losing every
/// completed record.
fn inject_record(
    injector: &dyn Fn(&Fault) -> RunReport,
    golden: &RunReport,
    fault: &Fault,
    index: usize,
) -> InjectionRecord {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| injector(fault)));
    match caught {
        Ok(report) => InjectionRecord {
            index: index as u32,
            fault: *fault,
            outcome: classify(golden, &report),
            cycles: report.cycles,
            instructions: report.total_instructions(),
            rep: None,
        },
        Err(panic) => {
            eprintln!(
                "injection {index} panicked ({}); recording Anomaly",
                panic_message(panic.as_ref())
            );
            InjectionRecord {
                index: index as u32,
                fault: *fault,
                outcome: Outcome::Anomaly,
                cycles: 0,
                instructions: 0,
                rep: None,
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Executes one injection batch `[start, start + batch)`, skipping
/// indices already replayed from the sink, then commits the records,
/// streams the new ones to the sink and emits progress.
///
/// # Errors
///
/// Returns the error from writing the batch to the sink.
fn run_injection_batch(
    state: &WorkloadState,
    golden: &GoldenJob,
    config: &FleetConfig,
    sink: &RecordSink,
    injector: &Injector,
    start: usize,
    batch: usize,
) -> std::io::Result<()> {
    let campaign = &config.campaign;
    let end = (start + batch).min(golden.faults.len());
    let have: Vec<bool> = {
        let slots = state.slots.lock().expect("no poisoned slots lock");
        slots.records[start..end]
            .iter()
            .map(Option::is_some)
            .collect()
    };
    // Fresh records, each paired with its audit entry when the index is
    // an audited synthesized record. Replayed records keep their
    // replayed audit entries (the sink writes an audit line strictly
    // before its record line, so a surviving record implies a surviving
    // entry).
    let mut fresh: Vec<(Option<AuditEntry>, InjectionRecord)> = Vec::with_capacity(end - start);
    for (i, fault) in golden.faults[start..end].iter().enumerate() {
        if have[i] {
            continue;
        }
        let index = start + i;
        let one = |f: &Fault| injector(state.workload, f, &golden.checkpoints, &golden.limits);
        // The record, plus the outcome it claims without executing its
        // own fault (an oracle verdict or a class representative's).
        let (record, claim) = match golden.plan.as_ref() {
            None => (inject_record(&one, &golden.report, fault, index), None),
            Some(classes) => match classes.decided[index] {
                Some(outcome) => (
                    pruned_record(&golden.report, fault, index, outcome),
                    Some(outcome),
                ),
                // Execute the class representative (at most once, via
                // its cell) and synthesize members from it. The
                // representative's index never exceeds the member's, so
                // an early-stopped prefix always contains every
                // representative its members cite.
                None => {
                    let rep = classes.rep[index] as usize;
                    let rep_record = golden.cells[rep].get_or_init(|| {
                        inject_record(&one, &golden.report, &golden.faults[rep], rep)
                    });
                    if rep == index {
                        (*rep_record, None)
                    } else {
                        let member = crate::classes::member_record(rep_record, fault, index);
                        (member, Some(rep_record.outcome))
                    }
                }
            },
        };
        // Sampled audit: execute the synthesized record's fault for real
        // and diff its classified outcome against the claim — the
        // execution-validated backstop of the oracle and of interval
        // exactness. The synthesized record stays either way.
        let audit = claim
            .filter(|_| {
                campaign.audits() && audit_selected(golden.audit_seed, index, campaign.oracle_audit)
            })
            .map(|oracle| AuditEntry {
                index: index as u32,
                oracle,
                executed: inject_record(&one, &golden.report, fault, index).outcome,
            });
        fresh.push((audit, record));
    }
    let (committed, prefix) = {
        let mut slots = state.slots.lock().expect("no poisoned slots lock");
        for (audit, record) in &fresh {
            slots.records[record.index as usize] = Some(*record);
            if let Some(entry) = audit {
                slots.audits[entry.index as usize] = Some(*entry);
            }
        }
        advance_commit(&mut slots, config, &state.stop_at);
        (slots.committed, slots.prefix)
    };
    state.injected.fetch_add(fresh.len(), Ordering::Relaxed);
    sink.append(&state.workload.id, &fresh)?;
    if config.progress {
        emit_progress(state, golden, committed, prefix);
    }
    Ok(())
}

/// Prints a per-workload progress line (rate, ETA, running tally), at
/// most once a second per workload plus once at completion.
fn emit_progress(state: &WorkloadState, golden: &GoldenJob, committed: usize, prefix: Tally) {
    let goal = golden.faults.len().min(state.stop_at());
    let done = committed >= goal;
    {
        let mut last = state
            .last_progress
            .lock()
            .expect("no poisoned progress lock");
        if !done && last.elapsed().as_secs_f64() < 1.0 {
            return;
        }
        *last = Instant::now();
    }
    let elapsed = state
        .injections_started
        .get()
        .map_or(0.0, |t| t.elapsed().as_secs_f64());
    let rate = state.injected.load(Ordering::Relaxed) as f64 / elapsed.max(1e-9);
    let eta = (goal.saturating_sub(committed)) as f64 / rate.max(1e-9);
    eprintln!(
        "  [{}] {committed}/{goal} {rate:.1} inj/s ETA {eta:.1}s  V {} O {} M {} U {} H {} A {}{}",
        state.workload.id,
        prefix.vanished,
        prefix.ona,
        prefix.omm,
        prefix.ut,
        prefix.hang,
        prefix.anomaly,
        if done { "  done" } else { "" },
    );
}

/// Assembles one workload's final database after the pool drained:
/// truncates to the early-stop point when one was set, backfills any
/// hole left by a worker dying outside the isolated region as an
/// anomaly, and recomputes the tally from the surviving records.
fn finish_workload(state: WorkloadState, config: &FleetConfig) -> CampaignResult {
    let Some(Some(golden)) = state.golden.into_inner() else {
        return failed_result(state.workload, &config.campaign);
    };
    let stop_at = state.stop_at.load(Ordering::Relaxed);
    let slots = state.slots.into_inner().expect("no poisoned slots lock");
    let keep = golden.faults.len().min(stop_at);
    let records: Vec<InjectionRecord> = slots
        .records
        .into_iter()
        .take(keep)
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or(InjectionRecord {
                index: i as u32,
                fault: golden.faults[i],
                outcome: Outcome::Anomaly,
                cycles: 0,
                instructions: 0,
                rep: None,
            })
        })
        .collect();
    // The class statistics (and the decided count among them) cover the
    // kept range only — a pure function of the fault list, so they match
    // across thread counts and resumes even when some records were
    // replayed from disk.
    let classes = golden.plan.as_ref().map(|c| c.stats_prefix(keep));
    // Like the statistics, the report covers only the kept prefix, so an
    // early-stopped campaign's report matches across resumes even when
    // workers audited past the stop point before it was set.
    let audit = golden
        .plan
        .as_ref()
        .filter(|_| config.campaign.audits())
        .map(|plan| {
            let unmodeled = plan.stats().unmodeled;
            OracleAuditReport {
                id: state.workload.id.clone(),
                rate: config.campaign.oracle_audit,
                entries: slots.audits.iter().take(keep).flatten().copied().collect(),
                unmodeled: unmodeled.total(),
                buckets: unmodeled,
            }
        });
    let mut tally = Tally::default();
    for r in &records {
        tally.record(r.outcome);
    }
    CampaignResult {
        id: state.workload.id.clone(),
        faults: config.campaign.faults,
        seed: config.campaign.seed,
        golden: GoldenSummary {
            cycles: golden.report.cycles,
            instructions: golden.report.total_instructions(),
            per_core_instructions: golden.report.per_core_instructions.clone(),
        },
        space_bits: state.workload.dims(config.campaign.space).total_bits(),
        profile: golden.profile,
        tally,
        records,
        pruned: classes.map_or(0, |c| u64::from(c.decided)),
        audit,
        classes,
    }
}

/// The database of a workload whose golden run failed: zero reference
/// data, every requested injection tallied as an anomaly.
fn failed_result(workload: &Workload, config: &CampaignConfig) -> CampaignResult {
    CampaignResult {
        id: workload.id.clone(),
        faults: config.faults,
        seed: config.seed,
        golden: GoldenSummary {
            cycles: 0,
            instructions: 0,
            per_core_instructions: Vec::new(),
        },
        space_bits: 0,
        profile: ProfileStats::default(),
        tally: Tally {
            anomaly: config.faults as u64,
            ..Tally::default()
        },
        records: Vec::new(),
        pruned: 0,
        audit: None,
        classes: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_disables_early_stopping() {
        let c = FleetConfig::default();
        assert_eq!(c.epsilon, 0.0);
        assert_eq!(c.min_samples, 50);
    }

    #[test]
    fn fingerprint_tracks_value_relevant_knobs_only() {
        let base = CampaignConfig::default();
        let same = CampaignConfig {
            threads: 7,
            batch: 3,
            checkpoints: 0,
            ..base.clone()
        };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&same));
        let reseeded = CampaignConfig {
            seed: base.seed + 1,
            ..base.clone()
        };
        assert_ne!(config_fingerprint(&base), config_fingerprint(&reseeded));
        let resized = CampaignConfig {
            faults: base.faults + 1,
            ..base.clone()
        };
        assert_ne!(config_fingerprint(&base), config_fingerprint(&resized));
        // The audit rate only bites when auditing is effective (class
        // pruning on, rate > 0): a rate set without pruning keeps the
        // fingerprint, and so does class pruning without a rate — the
        // mode alone never changes a record. Under auditing the mode
        // decides which faults get audit lines, so the sink must not be
        // resumed across the toggle.
        let idle_audit = CampaignConfig {
            oracle_audit: 0.25,
            ..base.clone()
        };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&idle_audit));
        let classed = CampaignConfig {
            prune_classes: true,
            ..base.clone()
        };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&classed));
        let classed_audited = CampaignConfig {
            prune_classes: true,
            oracle_audit: 0.25,
            ..base.clone()
        };
        assert_ne!(
            config_fingerprint(&classed),
            config_fingerprint(&classed_audited)
        );
        let reaudited = CampaignConfig {
            oracle_audit: 0.5,
            ..classed_audited.clone()
        };
        assert_ne!(
            config_fingerprint(&classed_audited),
            config_fingerprint(&reaudited)
        );
    }

    #[test]
    fn default_fingerprint_is_pinned() {
        // Sinks written by earlier builds must keep resuming: the
        // default configuration's fingerprint is part of the file format.
        assert_eq!(
            config_fingerprint(&CampaignConfig::default()),
            0x085d_39d7_b183_9a87
        );
        // So must audited class-pruned sinks (the CI audit recipe's rate).
        let audited = CampaignConfig {
            prune_classes: true,
            oracle_audit: 0.05,
            ..CampaignConfig::default()
        };
        assert_eq!(config_fingerprint(&audited), 0xe426_33d2_bf20_094e);
    }

    /// A writer standing in for a full disk: every write fails.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("no space left on device"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_write_failure_fails_the_sweep() {
        let scenario = fracas_npb::Scenario::new(
            fracas_npb::App::Is,
            fracas_npb::Model::Serial,
            1,
            fracas_isa::IsaKind::Sira64,
        )
        .expect("scenario exists");
        let workload = Workload::from_scenario(&scenario).expect("build");
        let config = FleetConfig {
            campaign: CampaignConfig {
                faults: 4,
                ..CampaignConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut sink = RecordSink {
            file: Some(Mutex::new(Box::new(FullDisk))),
            ..RecordSink::disabled()
        };
        let err = run_fleet_with(&[workload], &config, &mut sink, &inject_one)
            .expect_err("a failed sink write must fail the sweep");
        assert_eq!(err.to_string(), "no space left on device");
    }

    #[test]
    fn advance_commit_is_prefix_deterministic() {
        let config = FleetConfig {
            epsilon: 0.9,
            min_samples: 3,
            ..FleetConfig::default()
        };
        let record = |i: u32| InjectionRecord {
            index: i,
            fault: Fault {
                target: crate::FaultTarget::Gpr {
                    core: 0,
                    reg: 0,
                    bit: 0,
                },
                cycle: 0,
                width: 1,
            },
            outcome: Outcome::Vanished,
            cycles: 1,
            instructions: 1,
            rep: None,
        };
        // Out-of-order arrival: the commit point only advances over the
        // hole-free prefix, and the stop index lands on the first
        // committed record satisfying the predicate.
        let stop_at = AtomicUsize::new(NOT_STOPPED);
        let mut slots = Slots {
            records: vec![None, None, None, None],
            audits: Vec::new(),
            committed: 0,
            prefix: Tally::default(),
        };
        slots.records[2] = Some(record(2));
        slots.records[3] = Some(record(3));
        advance_commit(&mut slots, &config, &stop_at);
        assert_eq!(slots.committed, 0);
        assert_eq!(stop_at.load(Ordering::Relaxed), NOT_STOPPED);
        slots.records[0] = Some(record(0));
        slots.records[1] = Some(record(1));
        advance_commit(&mut slots, &config, &stop_at);
        assert_eq!(slots.committed, 4);
        assert_eq!(stop_at.load(Ordering::Relaxed), 3);
    }
}
