//! Campaign orchestration: golden runs, parallel injection jobs and the
//! merged result database (workflow phases 1–4 of §3.2.3/§3.2.4).

use crate::{CheckpointSet, Fault, FaultSpace, Outcome};
use fracas_isa::Image;
use fracas_kernel::{BootSpec, Kernel, Limits, RunReport};
use fracas_npb::Scenario;
use fracas_rt::BuildError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A bootable workload: the unit a campaign runs against.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable identifier (the scenario id).
    pub id: String,
    /// The linked guest image.
    pub image: Arc<Image>,
    /// Core count of the processor model.
    pub cores: usize,
    /// Kernel boot configuration.
    pub spec: BootSpec,
}

impl Workload {
    /// Builds the workload for an NPB scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the guest program fails to build.
    pub fn from_scenario(scenario: &Scenario) -> Result<Workload, BuildError> {
        Workload::from_scenario_with(scenario, fracas_lang::OptLevel::O1)
    }

    /// Builds the workload at an explicit compiler optimisation level
    /// (the future-work compiler-flags axis; the id gains an `-o0`
    /// suffix so databases keep the variants apart).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the guest program fails to build.
    pub fn from_scenario_with(
        scenario: &Scenario,
        opt: fracas_lang::OptLevel,
    ) -> Result<Workload, BuildError> {
        let image = scenario.build_with(opt)?;
        let id = match opt {
            fracas_lang::OptLevel::O1 => scenario.id(),
            fracas_lang::OptLevel::O0 => format!("{}-o0", scenario.id()),
        };
        Ok(Workload {
            id,
            image: Arc::new(image),
            cores: scenario.cores as usize,
            spec: BootSpec {
                processes: scenario.processes(),
                omp_threads: scenario.omp_threads(),
                ..BootSpec::serial()
            },
        })
    }

    fn boot(&self) -> Kernel {
        Kernel::boot(&self.image, self.cores, self.spec)
    }

    /// The registry sampling-space dimensions of this workload's
    /// campaigns: processor model plus text size from the image, uncore
    /// capacities from the boot spec.
    pub fn dims(&self, space: FaultSpace) -> crate::domain::SpaceDims {
        crate::domain::SpaceDims::of(
            self.image.isa,
            self.cores as u32,
            self.image.text.len() as u32,
            &self.spec,
            space,
        )
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injections (the paper uses 8,000 per scenario).
    pub faults: usize,
    /// RNG seed (combined with the workload id per campaign).
    pub seed: u64,
    /// Hang watchdog as a multiple of the golden cycle count.
    pub watchdog_factor: f64,
    /// Host worker threads (0 = available parallelism).
    pub threads: usize,
    /// Injection-job batch size (phase three packs several injections
    /// per job to amortise scheduling, like the paper's HPC batching).
    pub batch: usize,
    /// Checkpoints captured during the golden run (between `checkpoints`
    /// and `2 * checkpoints` evenly spaced snapshots; 0 disables
    /// checkpointing and every injection replays from boot).
    pub checkpoints: usize,
    /// The sampled fault space.
    pub space: FaultSpace,
    /// Collapse the fault space into def→use interval equivalence
    /// classes (the `--prune-classes` mode): the golden run is
    /// additionally traced, faults the `fracas-analyze` oracle fully
    /// decides (the flipped bits provably die, or provably survive
    /// unread) synthesize their verdict with golden timing, and live
    /// faults sharing coordinates and a landing interval execute one
    /// representative whose record every member reuses. Synthesis is
    /// exact (see `fracas_analyze::intervals`), so databases stay
    /// byte-identical with the mode on or off, and the mode is excluded
    /// from orchestrator fingerprints except where auditing makes the
    /// sink's audit lines differ.
    pub prune_classes: bool,
    /// Oracle-audit sampling rate in `[0, 1]`: with
    /// [`CampaignConfig::prune_classes`] on, this fraction of the
    /// synthesized records (oracle-decided faults and non-representative
    /// class members) is *also* executed for real and the classified
    /// outcome diffed against the claimed one
    /// ([`crate::OracleAuditReport`]). The audited execution never
    /// replaces a synthesized record — databases stay byte-identical at
    /// any rate — it only feeds the report. `0.0` (default) disables
    /// auditing; without class pruning there is nothing to audit.
    pub oracle_audit: f64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            faults: 100,
            seed: 0xF_ACA5,
            watchdog_factor: 4.0,
            threads: 0,
            batch: 8,
            checkpoints: 16,
            space: FaultSpace::default(),
            prune_classes: false,
            oracle_audit: 0.0,
        }
    }
}

impl CampaignConfig {
    /// Whether this configuration audits anything: a nonzero sampling
    /// rate only matters when class pruning produces claims to audit.
    pub(crate) fn audits(&self) -> bool {
        self.prune_classes && self.oracle_audit > 0.0
    }
}

/// Golden-run reference data (phase one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenSummary {
    /// Machine wall-clock of the fault-free run.
    pub cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Per-core retired instructions (workload balance, §4.2.2).
    pub per_core_instructions: Vec<u64>,
}

/// Software/µarch profile of the golden run — the campaign's side of the
/// §3.4 data-mining inputs. The all-zero [`Default`] is the profile of a
/// workload whose golden run failed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Machine cycles.
    pub cycles: u64,
    /// Branch instructions.
    pub branches: u64,
    /// Function calls (`bl`/`blr`).
    pub calls: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Hardware FP instructions.
    pub fp_ops: u64,
    /// Supervisor calls.
    pub svcs: u64,
    /// Idle cycles over all cores.
    pub idle_cycles: u64,
    /// Kernel-service cycles over all cores.
    pub kernel_cycles: u64,
    /// Branch share of retired instructions (§4.1.3).
    pub branch_ratio: f64,
    /// Load+store share of retired instructions (Tables 3–4).
    pub mem_ratio: f64,
    /// Load/store ratio (`RD/WR` in Tables 3–4).
    pub rd_wr_ratio: f64,
    /// Per-core instruction imbalance (§4.2.2; MAD / mean).
    pub imbalance: f64,
    /// Fraction of attributed cycles spent in parallelization-API guest
    /// code (`omp_*`/`mpi_*`/workers) — the §4.2.2 vulnerability window.
    pub api_cycle_fraction: f64,
    /// Fraction of attributed cycles spent in the softfloat library.
    pub softfloat_cycle_fraction: f64,
    /// Core park/unpark events during the golden run (power-state
    /// transitions — a future-work statistic of the paper's 5).
    #[serde(default)]
    pub power_transitions: u64,
    /// The hottest guest functions by attributed cycles (top 12),
    /// feeding per-function vulnerability-window mining.
    #[serde(default)]
    pub top_functions: Vec<(String, u64)>,
}

impl ProfileStats {
    pub(crate) fn from_run(report: &RunReport, profile: &HashMap<String, u64>) -> ProfileStats {
        let total = report.total_stats();
        let attributed: u64 = profile.values().sum();
        let frac = |pred: &dyn Fn(&str) -> bool| -> f64 {
            if attributed == 0 {
                return 0.0;
            }
            let hit: u64 = profile
                .iter()
                .filter(|(name, _)| pred(name))
                .map(|(_, c)| *c)
                .sum();
            hit as f64 / attributed as f64
        };
        let mut top: Vec<(String, u64)> = profile.iter().map(|(n, c)| (n.clone(), *c)).collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top.truncate(12);
        ProfileStats {
            instructions: total.instructions,
            cycles: report.cycles,
            branches: total.branches,
            calls: total.calls,
            loads: total.loads,
            stores: total.stores,
            fp_ops: total.fp_ops,
            svcs: total.svcs,
            idle_cycles: total.idle_cycles,
            kernel_cycles: total.kernel_cycles,
            branch_ratio: total.branch_ratio(),
            mem_ratio: total.mem_ratio(),
            rd_wr_ratio: total.rd_wr_ratio(),
            imbalance: report.instruction_imbalance(),
            api_cycle_fraction: frac(&|n: &str| {
                n.starts_with("omp_") || n.starts_with("mpi_") || n.starts_with("__omp")
            }),
            softfloat_cycle_fraction: frac(&|n: &str| n.starts_with("__f64")),
            power_transitions: report.power_transitions,
            top_functions: top,
        }
    }
}

/// One injection's record in the database.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// Index within the campaign (also the fault-list index).
    pub index: u32,
    /// The injected fault.
    pub fault: Fault,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Faulty-run machine cycles.
    pub cycles: u64,
    /// Faulty-run retired instructions.
    pub instructions: u64,
    /// Index of the class representative this record was synthesized
    /// from ([`CampaignConfig::prune_classes`]); `None` for executed
    /// and verdict-synthesized records. A run-time marker for weighted
    /// tallies, deliberately *not* serialized: class synthesis is
    /// exact, so databases stay byte-identical with the mode on or off.
    #[serde(skip)]
    pub rep: Option<u32>,
}

/// Per-class injection counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tally {
    /// No trace left.
    pub vanished: u64,
    /// Architectural-state-only difference.
    pub ona: u64,
    /// Silent output/memory corruption.
    pub omm: u64,
    /// Abnormal termination.
    pub ut: u64,
    /// Watchdog or deadlock.
    pub hang: u64,
    /// Host-side injection-job failure (worker panic) — a harness
    /// anomaly, not a guest outcome. Absent from pre-orchestrator
    /// databases, hence the serde default.
    #[serde(default)]
    pub anomaly: u64,
}

impl Tally {
    /// Adds one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.record_weighted(outcome, 1);
    }

    /// Adds one outcome with a class weight (a representative standing
    /// for `weight` equivalent faults — see
    /// [`crate::classes::weighted_tally`]).
    pub fn record_weighted(&mut self, outcome: Outcome, weight: u64) {
        match outcome {
            Outcome::Vanished => self.vanished += weight,
            Outcome::Ona => self.ona += weight,
            Outcome::Omm => self.omm += weight,
            Outcome::Ut => self.ut += weight,
            Outcome::Hang => self.hang += weight,
            Outcome::Anomaly => self.anomaly += weight,
        }
    }

    /// Total injections.
    pub fn total(&self) -> u64 {
        self.vanished + self.ona + self.omm + self.ut + self.hang + self.anomaly
    }

    /// Count for one class.
    pub fn count(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::Vanished => self.vanished,
            Outcome::Ona => self.ona,
            Outcome::Omm => self.omm,
            Outcome::Ut => self.ut,
            Outcome::Hang => self.hang,
            Outcome::Anomaly => self.anomaly,
        }
    }

    /// Percentage (0–100) for one class.
    pub fn pct(&self, outcome: Outcome) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(outcome) as f64 * 100.0 / self.total() as f64
        }
    }

    /// The §4.2.2 masking rate: executions without any visible error.
    pub fn masking_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.vanished + self.ona) as f64 / self.total() as f64
        }
    }

    /// Half-width of the Wilson score interval for one class proportion
    /// at critical value `z` (e.g. 1.96 for 95% confidence), as a
    /// proportion in `[0, 1]`. Returns 1.0 for an empty tally, so "not
    /// yet converged" is the natural reading of a fresh campaign.
    ///
    /// The orchestrator's early stopping halts a workload once every
    /// class half-width drops below the configured ε.
    pub fn wilson_half_width(&self, outcome: Outcome, z: f64) -> f64 {
        let n = self.total();
        if n == 0 {
            return 1.0;
        }
        let n = n as f64;
        let p = self.count(outcome) as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()
    }

    /// The widest Wilson half-width over every class (including the
    /// harness [`Outcome::Anomaly`] class) — the quantity the ε knob is
    /// compared against.
    pub fn max_wilson_half_width(&self, z: f64) -> f64 {
        Outcome::ALL_WITH_ANOMALY
            .into_iter()
            .map(|o| self.wilson_half_width(o, z))
            .fold(0.0, f64::max)
    }
}

/// The merged database for one scenario's campaign (phase four).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Scenario id (e.g. `ft-mpi-4-sira64`).
    pub id: String,
    /// Injections requested.
    pub faults: usize,
    /// RNG seed used.
    pub seed: u64,
    /// Golden reference.
    pub golden: GoldenSummary,
    /// Size of the sampled fault space in bits, including instruction
    /// memory when [`FaultSpace::text`] is enabled (0 for golden-only
    /// results, where no space was sampled).
    #[serde(default)]
    pub space_bits: u64,
    /// Golden-run profile (data-mining inputs).
    pub profile: ProfileStats,
    /// Per-class counts.
    pub tally: Tally,
    /// Every injection's record.
    pub records: Vec<InjectionRecord>,
    /// Injections whose outcome the trace oracle proved without
    /// executing them (the decided faults of
    /// [`CampaignConfig::prune_classes`]). A run-time statistic,
    /// deliberately *not* serialized: pruning never changes a record, so
    /// databases stay byte-identical with the mode on or off.
    #[serde(skip)]
    pub pruned: u64,
    /// The oracle-audit report ([`CampaignConfig::oracle_audit`]):
    /// `None` unless auditing was enabled. Like [`CampaignResult::pruned`]
    /// a run-time statistic, not serialized — auditing never changes a
    /// record either.
    #[serde(skip)]
    pub audit: Option<crate::OracleAuditReport>,
    /// Equivalence-class collapse statistics
    /// ([`CampaignConfig::prune_classes`]): `None` unless class pruning
    /// was enabled. Run-time only, like [`CampaignResult::pruned`] —
    /// class synthesis never changes a record.
    #[serde(skip)]
    pub classes: Option<crate::ClassStats>,
}

impl CampaignResult {
    /// Serialises to JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serde serialisation fails, which cannot happen for
    /// this type.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("CampaignResult serialises")
    }

    /// Parses a JSON database.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error for malformed input.
    pub fn from_json(json: &str) -> Result<CampaignResult, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Runs the golden execution (phase one), returning the full report and
/// the per-function cycle profile.
pub fn golden_run(workload: &Workload) -> (RunReport, HashMap<String, u64>) {
    let (report, profile, _) = golden_run_with_checkpoints(workload, 0);
    (report, profile)
}

/// [`golden_run`] extended with checkpoint capture: the single reference
/// execution additionally records up to `2 * checkpoints` evenly spaced
/// kernel snapshots for [`inject_one`] to resume from.
pub fn golden_run_with_checkpoints(
    workload: &Workload,
    checkpoints: usize,
) -> (RunReport, HashMap<String, u64>, CheckpointSet) {
    let (report, profile, set, _) = golden_run_traced(workload, checkpoints, false);
    (report, profile, set)
}

/// [`golden_run`] extended with execution tracing: additionally returns
/// the committed-instruction / scheduler event trace of the reference
/// run, for offline analyses (static AVF, the `stats_avf` report).
pub fn golden_trace(workload: &Workload) -> (RunReport, fracas_cpu::ExecTrace) {
    let (report, _, _, trace) = golden_run_traced(workload, 0, true);
    (report, trace.expect("tracing was enabled"))
}

/// [`golden_run_with_checkpoints`] with optional execution tracing for
/// the [`CampaignConfig::prune_classes`] oracle. Tracing is a pure
/// observer (excluded from snapshots), so the report, profile and every
/// checkpoint are bit-identical whether `trace` is on or off.
pub(crate) fn golden_run_traced(
    workload: &Workload,
    checkpoints: usize,
    trace: bool,
) -> (
    RunReport,
    HashMap<String, u64>,
    CheckpointSet,
    Option<fracas_cpu::ExecTrace>,
) {
    let mut kernel = workload.boot();
    kernel.machine_mut().enable_profiling(&workload.image);
    if trace {
        kernel.machine_mut().enable_trace();
    }
    let (outcome, set) = CheckpointSet::capture(&mut kernel, checkpoints, &Limits::default());
    assert!(
        outcome.is_clean_exit(),
        "golden run of {} must be clean, got {outcome}",
        workload.id
    );
    let profile = kernel.machine().profile_report();
    let trace = kernel.machine_mut().take_trace();
    (kernel.report(), profile, set, trace)
}

/// Executes one injection: resumes from the latest checkpoint strictly
/// before the fault cycle (falling back to a fresh boot when none
/// qualifies), runs to the injection point, lands the flip and runs the
/// workload out. If the faulty run's state re-equals a golden
/// checkpoint shortly after injection ([`CheckpointSet::try_reconverge`]),
/// the remainder is pruned and the golden report returned directly.
/// With [`CheckpointSet::empty`] this is exactly the boot-and-replay
/// path; all paths produce bit-identical reports.
pub fn inject_one(
    workload: &Workload,
    fault: &Fault,
    checkpoints: &CheckpointSet,
    limits: &Limits,
) -> RunReport {
    let resumed_from = checkpoints.nearest_before(fault.timing_core(), fault.cycle);
    let mut kernel = match resumed_from {
        Some((_, snap)) => Kernel::restore(snap),
        None => workload.boot(),
    };
    let paused = kernel.run_until_core_cycle(fault.timing_core(), fault.cycle, limits);
    if paused.is_none() {
        fault.apply(&mut kernel);
        if fault.targets_ephemeral_state() {
            let rung = resumed_from.map(|(i, _)| i);
            if let Some(golden) = checkpoints.try_reconverge(&mut kernel, rung, limits) {
                return golden;
            }
        }
        kernel.run(limits);
    }
    kernel.report()
}

/// Runs only the golden phase and packages it as a zero-injection
/// [`CampaignResult`] (used by the Table 1 workload summary, where
/// `planned_faults` scales the projected campaign hours).
pub fn golden_only(workload: &Workload, planned_faults: usize) -> CampaignResult {
    let (golden, profile_map) = golden_run(workload);
    CampaignResult {
        id: workload.id.clone(),
        faults: planned_faults,
        seed: 0,
        golden: GoldenSummary {
            cycles: golden.cycles,
            instructions: golden.total_instructions(),
            per_core_instructions: golden.per_core_instructions.clone(),
        },
        space_bits: 0,
        profile: ProfileStats::from_run(&golden, &profile_map),
        tally: Tally::default(),
        records: Vec::new(),
        pruned: 0,
        audit: None,
        classes: None,
    }
}

/// Derives the per-workload fault-sampling seed from the base campaign
/// seed: campaigns across scenarios differ even with the same base seed.
pub(crate) fn campaign_seed(id: &str, base: u64) -> u64 {
    base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(fnv(id.as_bytes()))
}

/// Samples the fault list for a workload (phase two). Public so
/// differential suites can reconstruct a campaign's exact fault list
/// from its golden cycle count.
pub fn campaign_faults(
    workload: &Workload,
    config: &CampaignConfig,
    golden_cycles: u64,
) -> Vec<Fault> {
    crate::sample_space(
        &workload.dims(config.space),
        golden_cycles,
        config.faults,
        campaign_seed(&workload.id, config.seed),
    )
}

/// The faulty-run watchdog limits derived from the golden reference.
pub(crate) fn campaign_limits(golden: &RunReport, config: &CampaignConfig) -> Limits {
    Limits {
        max_cycles: ((golden.cycles as f64 * config.watchdog_factor) as u64)
            .max(golden.cycles + 100_000),
        max_steps: (golden.total_instructions() * 8).max(1_000_000),
    }
}

/// Runs a full campaign: golden run, fault sampling, parallel batched
/// injection, classification and merge. This is a one-workload sweep
/// through the fleet orchestrator ([`crate::run_fleet`]) with early
/// stopping off, so it shares the fleet's per-fault dispatch and is
/// byte-identical to that workload's database in any fleet sweep.
///
/// A golden run that does not exit cleanly does not panic: it yields
/// the fleet's failed-workload result (zero golden reference, no
/// records, every requested fault tallied as [`Outcome::Anomaly`]).
pub fn run_campaign(workload: &Workload, config: &CampaignConfig) -> CampaignResult {
    let config = crate::FleetConfig {
        campaign: config.clone(),
        ..crate::FleetConfig::default()
    };
    crate::run_fleet(std::slice::from_ref(workload), &config)
        .pop()
        .expect("one workload, one result")
}

/// 64-bit FNV-1a: the stable hash behind campaign seeds and sink
/// fingerprints.
pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_percentages() {
        let mut t = Tally::default();
        for o in [
            Outcome::Vanished,
            Outcome::Vanished,
            Outcome::Ut,
            Outcome::Hang,
        ] {
            t.record(o);
        }
        assert_eq!(t.total(), 4);
        assert!((t.pct(Outcome::Vanished) - 50.0).abs() < 1e-12);
        assert!((t.pct(Outcome::Ut) - 25.0).abs() < 1e-12);
        assert!((t.masking_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let result = CampaignResult {
            id: "test".into(),
            faults: 1,
            seed: 7,
            golden: GoldenSummary {
                cycles: 100,
                instructions: 50,
                per_core_instructions: vec![50],
            },
            space_bits: 2048,
            profile: ProfileStats {
                instructions: 50,
                cycles: 100,
                branches: 5,
                calls: 1,
                loads: 2,
                stores: 2,
                fp_ops: 0,
                svcs: 1,
                idle_cycles: 0,
                kernel_cycles: 10,
                branch_ratio: 0.1,
                mem_ratio: 0.08,
                rd_wr_ratio: 1.0,
                imbalance: 0.0,
                api_cycle_fraction: 0.05,
                softfloat_cycle_fraction: 0.0,
                power_transitions: 0,
                top_functions: Vec::new(),
            },
            tally: Tally {
                vanished: 1,
                ..Tally::default()
            },
            records: vec![InjectionRecord {
                index: 0,
                fault: Fault {
                    target: crate::FaultTarget::Gpr {
                        core: 0,
                        reg: 1,
                        bit: 2,
                    },
                    cycle: 42,
                    width: 1,
                },
                outcome: Outcome::Vanished,
                cycles: 101,
                instructions: 50,
                rep: None,
            }],
            pruned: 0,
            audit: None,
            classes: None,
        };
        let json = result.to_json();
        let back = CampaignResult::from_json(&json).unwrap();
        assert_eq!(back, result);
    }
}
