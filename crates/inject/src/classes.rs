//! `--prune-classes` campaign support: equivalence-class fault-space
//! collapse over the `fracas-analyze` interval fingerprints.
//!
//! [`class_plan`] partitions a campaign's sampled fault list into
//! equivalence classes keyed by [`Fingerprint`]: faults the oracle
//! fully decides collapse by verdict (each synthesizes its own
//! golden-timing record), and live faults sharing `(core, target, bit,
//! width)` coordinates *and* a landing interval collapse onto one
//! **representative** — the class's lowest fault index. The campaign
//! executes only representatives (and singletons: unmodeled targets,
//! cores the trace never saw); every other member synthesizes the
//! representative's outcome, cycles and instruction count under its own
//! fault coordinates.
//!
//! The soundness claim is *exactness*, not statistical
//! interchangeability: by the interval argument (see
//! `fracas_analyze::intervals`), a member's synthesized record is
//! byte-identical to what executing it would have produced, so a
//! class-pruned database equals the full campaign's record for record.
//! The claim is continuously machine-checked two ways:
//!
//! * the `class_differential` suite diffs full vs `--prune-classes`
//!   databases byte for byte;
//! * the sampled `--oracle-audit` layer extends to class members: a
//!   deterministic fraction of non-representative members is executed
//!   for real and the classified outcome diffed against the
//!   representative's — any divergence fails the sweep.

use crate::campaign::{InjectionRecord, Tally, Workload};
use crate::prune::{prune_decision, Decision, Unmodeled, UnmodeledCounts};
use crate::{Fault, FaultTarget, Outcome};
use fracas_analyze::{Fingerprint, PruneOracle, PruneTarget, PruneVerdict};
use fracas_cpu::ExecTrace;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// What the plan decided about one fault index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// Oracle-decided: synthesized from the verdict, never executed.
    Decided,
    /// Representative of a live class: executed once, record shared.
    Rep,
    /// Non-representative member of a live class: synthesized from the
    /// representative's record.
    Member,
    /// Executed for real with no class to share: an [`Unmodeled`]
    /// target, or a fault coordinate the oracle cannot fingerprint
    /// (`None`: a core outside the golden trace).
    Singleton(Option<Unmodeled>),
}

/// Aggregate collapse statistics of a [`ClassPlan`] (or a prefix of
/// one, for early-stopped campaigns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Faults covered.
    pub faults: u32,
    /// Oracle-decided faults (zero executions).
    pub decided: u32,
    /// Distinct live classes (one execution each).
    pub live_classes: u32,
    /// Live-class members synthesized from a representative.
    pub members: u32,
    /// Faults executed individually outside any class.
    pub singletons: u32,
    /// Breakdown of the singleton faults whose targets the oracle does
    /// not model at all.
    pub unmodeled: UnmodeledCounts,
}

impl ClassStats {
    /// Faults the campaign actually executes: one per live class plus
    /// every singleton.
    pub fn executed(&self) -> u32 {
        self.live_classes + self.singletons
    }

    /// Executed share of the fault list in `[0, 1]` (0 for an empty
    /// plan).
    pub fn executed_fraction(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            f64::from(self.executed()) / f64::from(self.faults)
        }
    }

    /// Faults represented per execution (∞-free: 0 when nothing runs).
    pub fn collapse_factor(&self) -> f64 {
        if self.executed() == 0 {
            0.0
        } else {
            f64::from(self.faults) / f64::from(self.executed())
        }
    }
}

/// The per-campaign equivalence-class plan: which faults synthesize
/// from a verdict, which execute as representatives, and which
/// synthesize from whom.
#[derive(Debug, Clone)]
pub struct ClassPlan {
    /// `decided[i]`: the oracle-proven outcome of fault `i` (synthesized
    /// with golden timing), or `None` when it belongs to a live class or
    /// runs as a singleton. The campaign's `pruned` count is the number
    /// of `Some` entries.
    pub decided: Vec<Option<Outcome>>,
    /// `rep[i]`: the representative index of fault `i`'s class.
    /// `rep[i] == i` for representatives, singletons and decided
    /// faults; `rep[i] < i` for members (the representative is always
    /// the class's first fault in index order).
    pub rep: Vec<u32>,
    classes: Vec<FaultClass>,
}

impl ClassPlan {
    /// Collapse statistics over the first `keep` faults (the committed
    /// prefix of an early-stopped campaign; pass `len()` for the whole
    /// plan). A prefix never orphans a member: representatives precede
    /// their members by construction.
    pub fn stats_prefix(&self, keep: usize) -> ClassStats {
        let keep = keep.min(self.classes.len());
        let mut stats = ClassStats {
            faults: keep as u32,
            ..ClassStats::default()
        };
        for class in &self.classes[..keep] {
            match class {
                FaultClass::Decided => stats.decided += 1,
                FaultClass::Rep => stats.live_classes += 1,
                FaultClass::Member => stats.members += 1,
                FaultClass::Singleton(reason) => {
                    stats.singletons += 1;
                    if let Some(reason) = reason {
                        stats.unmodeled.record(*reason);
                    }
                }
            }
        }
        stats
    }

    /// Collapse statistics over the whole plan.
    pub fn stats(&self) -> ClassStats {
        self.stats_prefix(self.classes.len())
    }

    /// Number of faults covered.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the plan covers no faults.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// The `(bit, width)` coordinates the class key carries: same register,
/// same bits, same upset width ⇒ same XOR mask when the flip lands.
fn bit_coords(fault: &Fault) -> (u32, u32) {
    let bit = match fault.target {
        FaultTarget::Gpr { bit, .. }
        | FaultTarget::Fpr { bit, .. }
        | FaultTarget::Mem { bit, .. }
        | FaultTarget::Text { bit, .. }
        | FaultTarget::CacheState { bit, .. }
        | FaultTarget::RunQueue { bit, .. }
        | FaultTarget::PagePerm { bit, .. }
        | FaultTarget::StoreBuf { bit, .. }
        | FaultTarget::CacheData { bit, .. } => bit,
        FaultTarget::Flag { which, .. } => which,
        // The skip latch is a single toggle: no bit coordinate.
        FaultTarget::InstrSkip { .. } => 0,
    };
    (bit, fault.width.max(1))
}

/// Builds the equivalence-class plan for one campaign's fault list
/// against its golden trace. Deterministic in the fault list alone
/// (like the verdict table), so the plan — and everything synthesized
/// from it — is identical across thread counts, batch sizes and
/// resumes.
pub fn class_plan(workload: &Workload, trace: &ExecTrace, faults: &[Fault]) -> ClassPlan {
    let image = &workload.image;
    let oracle = PruneOracle::new(image.isa, &image.text, image.text_base, trace);
    let mut decided: Vec<Option<Outcome>> = vec![None; faults.len()];
    let mut rep: Vec<u32> = (0..faults.len() as u32).collect();
    let mut classes: Vec<FaultClass> = Vec::with_capacity(faults.len());
    // The full fault coordinates ride alongside the fingerprint in the
    // key: the exactness theorem quantifies over one (core, target,
    // bit, width), so a context-hash collision between different
    // coordinates must never merge their classes.
    let mut first: HashMap<(usize, PruneTarget, u32, u32, Fingerprint), u32> = HashMap::new();
    for (i, fault) in faults.iter().enumerate() {
        let (core, target) = match prune_decision(&oracle, image.isa, fault) {
            Decision::Oracle(core, target) => (core, target),
            Decision::Verdict(outcome) => {
                // A static-only domain's provably-unapplied fault: the
                // proven golden-timing outcome.
                decided[i] = Some(outcome);
                classes.push(FaultClass::Decided);
                continue;
            }
            Decision::Unmodeled(reason) => {
                // Outside the model (including self-patched text words):
                // must execute alone — classing such a fault could merge
                // genuinely different outcomes.
                classes.push(FaultClass::Singleton(Some(reason)));
                continue;
            }
        };
        let (bit, width) = bit_coords(fault);
        match oracle.fingerprint(core, target, fault.cycle) {
            None => classes.push(FaultClass::Singleton(None)),
            Some(Fingerprint::Decided(verdict)) => {
                decided[i] = Some(match verdict {
                    PruneVerdict::Vanished => Outcome::Vanished,
                    PruneVerdict::SilentResidue => Outcome::Ona,
                });
                classes.push(FaultClass::Decided);
            }
            Some(fp) => match first.entry((core, target, bit, width, fp)) {
                Entry::Occupied(e) => {
                    rep[i] = *e.get();
                    classes.push(FaultClass::Member);
                }
                Entry::Vacant(e) => {
                    e.insert(i as u32);
                    classes.push(FaultClass::Rep);
                }
            },
        }
    }
    ClassPlan {
        decided,
        rep,
        classes,
    }
}

/// The record a class member synthesizes from its representative's
/// executed record: own index and fault coordinates, the
/// representative's outcome and timing — byte-identical to executing
/// the member, by the interval-exactness argument.
pub(crate) fn member_record(rep: &InjectionRecord, fault: &Fault, index: usize) -> InjectionRecord {
    InjectionRecord {
        index: index as u32,
        fault: *fault,
        outcome: rep.outcome,
        cycles: rep.cycles,
        instructions: rep.instructions,
        rep: Some(rep.index),
    }
}

/// The outcome tally computed from *executed* records only, each
/// representative weighted by its class size (members' synthesized
/// records are never consulted — their in-memory
/// [`InjectionRecord::rep`] marker routes their weight to the
/// representative instead). Equal to the plain tally over all records
/// exactly when class synthesis is exact, which is what the
/// differential suite asserts.
pub fn weighted_tally(records: &[InjectionRecord]) -> Tally {
    let mut extra: HashMap<u32, u64> = HashMap::new();
    for r in records {
        if let Some(rep) = r.rep {
            *extra.entry(rep).or_default() += 1;
        }
    }
    let mut tally = Tally::default();
    for r in records {
        if r.rep.is_none() {
            tally.record_weighted(r.outcome, 1 + extra.get(&r.index).copied().unwrap_or(0));
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u32, outcome: Outcome, rep: Option<u32>) -> InjectionRecord {
        InjectionRecord {
            index,
            fault: Fault {
                target: FaultTarget::Gpr {
                    core: 0,
                    reg: 1,
                    bit: 0,
                },
                cycle: 10,
                width: 1,
            },
            outcome,
            cycles: 1,
            instructions: 1,
            rep,
        }
    }

    #[test]
    fn weighted_tally_routes_member_weight_to_representatives() {
        let records = vec![
            record(0, Outcome::Ut, None),
            record(1, Outcome::Ut, Some(0)),
            record(2, Outcome::Ut, Some(0)),
            record(3, Outcome::Vanished, None),
        ];
        let t = weighted_tally(&records);
        assert_eq!(t.ut, 3);
        assert_eq!(t.vanished, 1);
        assert_eq!(t.total(), 4);
        // And it agrees with the plain tally over the same records.
        let mut plain = Tally::default();
        for r in &records {
            plain.record(r.outcome);
        }
        assert_eq!(t, plain);
    }

    #[test]
    fn stats_arithmetic() {
        let stats = ClassStats {
            faults: 10,
            decided: 5,
            live_classes: 2,
            members: 2,
            singletons: 1,
            unmodeled: UnmodeledCounts::default(),
        };
        assert_eq!(stats.executed(), 3);
        assert!((stats.executed_fraction() - 0.3).abs() < 1e-12);
        assert!((stats.collapse_factor() - 10.0 / 3.0).abs() < 1e-12);
    }
}
