//! # fracas-inject — soft-error fault injection campaigns
//!
//! Implements the paper's §3.2 fault-injection framework over the FRACAS
//! machine:
//!
//! * **Fault model** (§3.2.1): single-bit upsets sampled uniformly over
//!   (core × architected-register bit) and uniformly in time across the
//!   application lifespan — OS boot is not simulated at all, so faults by
//!   construction land only during the workload, *including* its syscalls
//!   and parallelization-API guest code.
//! * **Outcome classification** (§3.2.2, Cho et al.): [`Outcome`] —
//!   Vanished / ONA / OMM / UT / Hang, decided by comparing console
//!   output, memory state, register context and instruction counts
//!   against the golden run.
//! * **Four-phase workflow** (§3.2.3): golden execution → fault-list
//!   generation → (parallel, batched) injection jobs → a single merged
//!   [`CampaignResult`] database.
//! * **Checkpoint-and-restore**: the golden run captures evenly spaced
//!   kernel snapshots ([`CheckpointSet`]); each injection resumes from
//!   the latest one strictly before its fault cycle instead of
//!   replaying from boot, bit-identically (gem5-style checkpointing).
//! * **Equivalence-class pruning**: with
//!   [`CampaignConfig::prune_classes`] the golden run is traced and the
//!   fault list collapsed ([`class_plan`]). Faults a trace-exact
//!   dead-value oracle (`fracas-analyze`) decides — the flipped bit is
//!   overwritten before it is read, or provably survives unread — are
//!   classified without executing them, and live faults sharing a
//!   def→use interval execute one representative per class. Both are
//!   byte-identical to the full campaign.
//! * **Sampled oracle auditing**: with [`CampaignConfig::oracle_audit`]
//!   a deterministic, seed-derived fraction of the synthesized records
//!   (decided faults and class members) is *also* executed for real and
//!   the classified outcome diffed against the claimed one
//!   ([`OracleAuditReport`]); a mismatch fails the sweep.
//! * **Distribution** (§3.2.4): one executor, the fleet orchestrator
//!   ([`run_fleet`]), claims the golden runs and injection batches of
//!   every workload in a sweep from one pool of host threads;
//!   [`run_campaign`] is a one-workload sweep. Records are index-sorted,
//!   so a database is deterministic for a given seed regardless of
//!   thread count, pool shape, checkpointing or kill/resume.
//!
//! ## Example
//!
//! One campaign, then the same workload inside a sweep: the shared pool
//! gives it the same database.
//!
//! ```no_run
//! use fracas_inject::{run_campaign, run_fleet, CampaignConfig, FleetConfig, Workload};
//! use fracas_npb::{App, Model, Scenario};
//! use fracas_isa::IsaKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let is = Scenario::new(App::Is, Model::Omp, 2, IsaKind::Sira64).unwrap();
//! let cg = Scenario::new(App::Cg, Model::Mpi, 2, IsaKind::Sira64).unwrap();
//! let (omp, mpi) = (Workload::from_scenario(&is)?, Workload::from_scenario(&cg)?);
//! let campaign = CampaignConfig { faults: 100, ..Default::default() };
//! let result = run_campaign(&omp, &campaign);
//! println!("{}: {:?}", result.id, result.tally);
//! let sweep = run_fleet(&[omp, mpi], &FleetConfig { campaign, ..Default::default() });
//! assert_eq!(sweep[0].to_json(), result.to_json());
//! # Ok(())
//! # }
//! ```

mod audit;
mod campaign;
mod checkpoint;
mod classes;
mod classify;
pub mod domain;
mod fault;
mod fleet;
mod prune;

pub use audit::{audit_selected, AuditEntry, OracleAuditReport};
pub use campaign::{
    campaign_faults, campaign_limits, golden_only, golden_run, golden_run_with_checkpoints,
    golden_trace, inject_one, run_campaign, CampaignConfig, CampaignResult, GoldenSummary,
    InjectionRecord, ProfileStats, Tally, Workload,
};
pub use checkpoint::CheckpointSet;
pub use classes::{class_plan, weighted_tally, ClassPlan, ClassStats};
pub use classify::{classify, Outcome};
pub use domain::{
    domain_named, domain_of, domains, Domain, OracleMap, Placement, PruneCap, SpaceDims,
};
pub use fault::{
    sample_faults, sample_faults_with_text, sample_space, Fault, FaultSpace, FaultTarget,
};
pub use fleet::{
    run_fleet, run_fleet_with, run_fleet_with_sink, FleetConfig, Injector, RecordSink,
};
pub use prune::{prune_target, Unmodeled, UnmodeledCounts};
