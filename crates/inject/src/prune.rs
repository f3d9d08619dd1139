//! Mapping sampled faults onto the `fracas-analyze` oracle: the
//! per-fault decision the class planner ([`crate::class_plan`]) builds
//! its decided tier on.
//!
//! The contract this layer upholds is *byte-identity*: a pruned
//! campaign's record stream must equal the unpruned campaign's, record
//! for record. That works because a fault the oracle decides provably
//! never diverges the execution — the faulty run commits the golden
//! instruction stream on the golden schedule, so its cycle and
//! instruction counts are the golden run's and its classification is
//! exactly the verdict (`PruneVerdict::Vanished` → `Vanished`,
//! `PruneVerdict::SilentResidue` → ONA: same output, same memory,
//! same counts, different exit context hash). Faults the oracle
//! abstains on (and every memory fault — memory lifetimes outlive
//! register lifetimes and the trace carries no addresses) run through
//! the ordinary checkpoint-ladder injector. Text faults are decided by
//! the oracle's decode-differential layer (`fracas_analyze::textfault`)
//! since PR 8; only words the golden run itself overwrites remain
//! outside the model.
//!
//! What each fault domain lets the oracle decide is declared in its
//! registry entry ([`crate::domain::Domain::prune`]); this module
//! projects those capabilities into per-fault decisions. Domains with
//! only the static landing rule ([`crate::domain::PruneCap::StaticOnly`]
//! — the uncore and skip domains) prune *only* the provably-unapplied
//! case: a fault whose timing core never reaches its injection cycle is
//! never applied, so its run is the golden run and Vanished with golden
//! counts is exact. Every other fault of such a domain runs for real
//! and is tallied in its explicit [`Unmodeled`] bucket.

use crate::domain::{domain_of, PruneCap};
use crate::{Fault, Outcome};
use fracas_analyze::{PruneOracle, PruneTarget};
use fracas_isa::IsaKind;

/// Why a fault target is outside the oracle's model. Such faults always
/// run for real (and form singleton classes under `--prune-classes`);
/// the bucket exists so prune/audit accounting can *say so* instead of
/// silently falling through — historically SIRA-32 FPR faults pruned as
/// `None` indistinguishably from oracle abstentions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unmodeled {
    /// A SIRA-32 FP register: present in the machine (softfloat spills)
    /// but outside both the ISA's architected state and the exit
    /// context hash, so the oracle has no verdict path for it.
    Sira32Fpr,
    /// A data-memory bit: memory lifetimes outlive register lifetimes
    /// and the trace does not carry addresses.
    Mem,
    /// A text bit of a word the golden run itself overwrote
    /// (self-patching code): the digested image text is stale for that
    /// word, so the decode-differential layer abstains unconditionally.
    /// Every *other* text bit is fully modeled since PR 8; the bundled
    /// workloads never self-patch, so this bucket is empty for every
    /// real campaign.
    Text,
    /// A cache metadata bit: whether a corrupted tag/state/LRU word ever
    /// surfaces depends on the access stream and coherence traffic,
    /// which the register-interval trace does not carry.
    Cache,
    /// A kernel-control word (run-queue entry or page permission):
    /// scheduler and protection state live outside the traced
    /// architectural register file.
    KernelCtl,
    /// An applied instruction-skip: there is no flipped bit to trace, so
    /// the interval oracle has no fingerprint for the dropped
    /// instruction's effects.
    Skip,
    /// A store-buffer entry bit: whether a corrupted pending store ever
    /// surfaces depends on the forwarding window and the drain point,
    /// which the register-interval trace does not carry.
    StoreBuf,
    /// A cache-line data bit: whether the corrupted copy is ever served
    /// (versus silently evicted) depends on the access stream, which
    /// the register-interval trace does not carry.
    CacheData,
}

impl Unmodeled {
    /// Every reason, declaration order (for exhaustive accounting
    /// loops — [`UnmodeledCounts::merge`] folds over this so a newly
    /// added bucket cannot be silently dropped from aggregates).
    pub const ALL: [Unmodeled; 8] = [
        Unmodeled::Sira32Fpr,
        Unmodeled::Mem,
        Unmodeled::Text,
        Unmodeled::Cache,
        Unmodeled::KernelCtl,
        Unmodeled::Skip,
        Unmodeled::StoreBuf,
        Unmodeled::CacheData,
    ];

    /// Stable display name (audit reports, stats bins).
    pub fn name(self) -> &'static str {
        match self {
            Unmodeled::Sira32Fpr => "sira32-fpr",
            Unmodeled::Mem => "mem",
            Unmodeled::Text => "text",
            Unmodeled::Cache => "cache",
            Unmodeled::KernelCtl => "kernelctl",
            Unmodeled::Skip => "skip",
            Unmodeled::StoreBuf => "storebuf",
            Unmodeled::CacheData => "cachedata",
        }
    }
}

/// The oracle-facing view of a sampled fault: the struck core and the
/// architectural location, with the injector's wrapping rules
/// (`reg % gpr_count`, SIRA-32 register 15 = PC, multi-bit flag upsets
/// spreading over `(which + i) % 4`) applied. `Err` for targets the
/// oracle does not model — see [`Unmodeled`]. A projection of the
/// target domain's [`crate::domain::Domain::prune`] capability.
pub fn prune_target(isa: IsaKind, fault: &Fault) -> Result<(usize, PruneTarget), Unmodeled> {
    match domain_of(&fault.target).prune {
        PruneCap::Oracle(map) => map(isa, fault),
        PruneCap::StaticOnly(reason) | PruneCap::Unmodeled(reason) => Err(reason),
    }
}

/// What the prune layer concluded about one fault, before any verdict
/// lookup: synthesize a proven outcome, consult the interval oracle at
/// the mapped coordinates, or run for real in a named bucket.
pub(crate) enum Decision {
    /// The outcome is proven without consulting interval verdicts (a
    /// static-only domain's fault provably never applied: the run is
    /// the golden run).
    Verdict(Outcome),
    /// The fault maps onto the interval oracle at these coordinates.
    Oracle(usize, PruneTarget),
    /// The fault must run for real, tallied in this bucket.
    Unmodeled(Unmodeled),
}

/// Decides how one fault prunes, from its domain's registry capability:
/// oracle-mapped domains project through their coordinate map (with the
/// self-patched-text escape folded in), static-only domains prune the
/// provably-unapplied case via [`PruneOracle::applied`], and unmodeled
/// domains always run for real.
pub(crate) fn prune_decision(oracle: &PruneOracle, isa: IsaKind, fault: &Fault) -> Decision {
    match domain_of(&fault.target).prune {
        PruneCap::Oracle(map) => match map(isa, fault) {
            Ok((core, target)) => {
                if let PruneTarget::Text { word, .. } = target {
                    if oracle.text_patched(word) {
                        // Self-patched word: the one text case the
                        // decode-differential layer cannot model. Runs
                        // for real, counted separately from oracle
                        // abstentions.
                        return Decision::Unmodeled(Unmodeled::Text);
                    }
                }
                Decision::Oracle(core, target)
            }
            Err(reason) => Decision::Unmodeled(reason),
        },
        PruneCap::StaticOnly(reason) => {
            match oracle.applied(fault.timing_core(), fault.cycle) {
                // The timing core halts before the injection cycle: the
                // fault is never applied, the "faulty" run is the golden
                // run, and Vanished with golden counts is exact.
                Some(false) => Decision::Verdict(Outcome::Vanished),
                _ => Decision::Unmodeled(reason),
            }
        }
        PruneCap::Unmodeled(reason) => Decision::Unmodeled(reason),
    }
}

/// Per-campaign tallies of faults outside the oracle's model, keyed by
/// [`Unmodeled`] reason. Surfaced by the audit report and the stats
/// bins so "ran for real" and "could not even be considered" stay
/// distinguishable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UnmodeledCounts {
    /// SIRA-32 FP register faults.
    pub sira32_fpr: u32,
    /// Data-memory faults.
    pub mem: u32,
    /// Text faults.
    pub text: u32,
    /// Cache metadata faults (applied; unapplied ones prune statically).
    #[serde(default)]
    pub cache: u32,
    /// Kernel-control faults (applied).
    #[serde(default)]
    pub kernelctl: u32,
    /// Instruction-skip faults (applied).
    #[serde(default)]
    pub skip: u32,
    /// Store-buffer faults (applied).
    #[serde(default)]
    pub storebuf: u32,
    /// Cache-data faults (applied).
    #[serde(default)]
    pub cachedata: u32,
}

impl UnmodeledCounts {
    /// The one field-to-reason mapping; every accessor routes through
    /// it so a new bucket cannot be wired inconsistently.
    fn slot(&mut self, reason: Unmodeled) -> &mut u32 {
        match reason {
            Unmodeled::Sira32Fpr => &mut self.sira32_fpr,
            Unmodeled::Mem => &mut self.mem,
            Unmodeled::Text => &mut self.text,
            Unmodeled::Cache => &mut self.cache,
            Unmodeled::KernelCtl => &mut self.kernelctl,
            Unmodeled::Skip => &mut self.skip,
            Unmodeled::StoreBuf => &mut self.storebuf,
            Unmodeled::CacheData => &mut self.cachedata,
        }
    }

    /// Bumps the bucket for `reason`.
    pub fn record(&mut self, reason: Unmodeled) {
        *self.slot(reason) += 1;
    }

    /// Occurrences of `reason`.
    pub fn count(&self, reason: Unmodeled) -> u32 {
        match reason {
            Unmodeled::Sira32Fpr => self.sira32_fpr,
            Unmodeled::Mem => self.mem,
            Unmodeled::Text => self.text,
            Unmodeled::Cache => self.cache,
            Unmodeled::KernelCtl => self.kernelctl,
            Unmodeled::Skip => self.skip,
            Unmodeled::StoreBuf => self.storebuf,
            Unmodeled::CacheData => self.cachedata,
        }
    }

    /// Folds another tally into this one, bucket by bucket. The fold
    /// runs over [`Unmodeled::ALL`], so aggregation code (e.g. the
    /// mining crate's collapse summary) picks up new buckets the moment
    /// they exist instead of hand-summing a stale field list.
    pub fn merge(&mut self, other: &UnmodeledCounts) {
        for reason in Unmodeled::ALL {
            *self.slot(reason) += other.count(reason);
        }
    }

    /// Total faults outside the model.
    pub fn total(&self) -> u32 {
        self.sira32_fpr
            + self.mem
            + self.text
            + self.cache
            + self.kernelctl
            + self.skip
            + self.storebuf
            + self.cachedata
    }

    /// `"3 sira32-fpr + 2 mem"`-style breakdown (empty when zero).
    pub fn breakdown(&self) -> String {
        let mut parts = Vec::new();
        for u in Unmodeled::ALL {
            let n = self.count(u);
            if n > 0 {
                parts.push(format!("{n} {}", u.name()));
            }
        }
        parts.join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultTarget;

    #[test]
    fn register_indices_wrap_like_the_injector() {
        let f = |target| Fault {
            target,
            cycle: 0,
            width: 1,
        };
        // SIRA-32: reg 15 (and 31, which wraps onto it) is the PC.
        let pc = FaultTarget::Gpr {
            core: 1,
            reg: 31,
            bit: 0,
        };
        assert_eq!(
            prune_target(IsaKind::Sira32, &f(pc)),
            Ok((1, PruneTarget::Pc))
        );
        let r17 = FaultTarget::Gpr {
            core: 0,
            reg: 17,
            bit: 5,
        };
        assert_eq!(
            prune_target(IsaKind::Sira32, &f(r17)),
            Ok((0, PruneTarget::Gpr { reg: 1 }))
        );
        assert_eq!(
            prune_target(IsaKind::Sira64, &f(r17)),
            Ok((0, PruneTarget::Gpr { reg: 17 }))
        );
    }

    #[test]
    fn flag_upsets_spread_their_width() {
        // A width-2 upset at V (3) wraps onto N (0).
        let fault = Fault {
            target: FaultTarget::Flag { core: 0, which: 3 },
            cycle: 0,
            width: 2,
        };
        assert_eq!(
            prune_target(IsaKind::Sira64, &fault),
            Ok((
                0,
                PruneTarget::Flags {
                    mask: fracas_analyze::FLAG_V | fracas_analyze::FLAG_N
                }
            ))
        );
    }

    #[test]
    fn long_lived_and_unmodelled_targets_report_their_reason() {
        let f = |target| Fault {
            target,
            cycle: 0,
            width: 1,
        };
        assert_eq!(
            prune_target(IsaKind::Sira64, &f(FaultTarget::Mem { addr: 0, bit: 0 })),
            Err(Unmodeled::Mem)
        );
        // The SIRA-32 FPR regression: a machine-present but ISA-absent
        // register must land in an explicit bucket, not vanish into the
        // abstain path.
        let fpr = FaultTarget::Fpr {
            core: 0,
            reg: 2,
            bit: 0,
        };
        assert_eq!(
            prune_target(IsaKind::Sira32, &f(fpr)),
            Err(Unmodeled::Sira32Fpr)
        );
        assert_eq!(
            prune_target(IsaKind::Sira64, &f(fpr)),
            Ok((0, PruneTarget::Fpr { reg: 2 }))
        );
    }

    #[test]
    fn uncore_targets_land_in_their_own_buckets() {
        // Every new domain names its bucket: no silent `None` path.
        let f = |target| Fault {
            target,
            cycle: 0,
            width: 1,
        };
        let cache = FaultTarget::CacheState {
            core: 0,
            unit: 1,
            line: 3,
            bit: 33,
        };
        assert_eq!(
            prune_target(IsaKind::Sira64, &f(cache)),
            Err(Unmodeled::Cache)
        );
        assert_eq!(
            prune_target(
                IsaKind::Sira32,
                &f(FaultTarget::RunQueue { slot: 0, bit: 5 })
            ),
            Err(Unmodeled::KernelCtl)
        );
        assert_eq!(
            prune_target(
                IsaKind::Sira64,
                &f(FaultTarget::PagePerm {
                    pid: 1,
                    page: 2,
                    bit: 0
                })
            ),
            Err(Unmodeled::KernelCtl)
        );
        assert_eq!(
            prune_target(IsaKind::Sira64, &f(FaultTarget::InstrSkip { core: 1 })),
            Err(Unmodeled::Skip)
        );
        assert_eq!(
            prune_target(
                IsaKind::Sira64,
                &f(FaultTarget::StoreBuf {
                    core: 0,
                    entry: 2,
                    bit: 40
                })
            ),
            Err(Unmodeled::StoreBuf)
        );
        assert_eq!(
            prune_target(
                IsaKind::Sira32,
                &f(FaultTarget::CacheData {
                    core: 1,
                    unit: 1,
                    line: 0,
                    bit: 12
                })
            ),
            Err(Unmodeled::CacheData)
        );
    }

    #[test]
    fn text_targets_fold_their_width_into_one_mask() {
        // A text fault maps onto the decode-differential oracle: one
        // word, one XOR mask, timed against core 0. Multi-bit upsets
        // wrap within the word exactly like `Machine::flip_text`.
        let single = Fault {
            target: FaultTarget::Text { word: 7, bit: 3 },
            cycle: 0,
            width: 1,
        };
        assert_eq!(
            prune_target(IsaKind::Sira64, &single),
            Ok((
                0,
                PruneTarget::Text {
                    word: 7,
                    mask: 0b1000
                }
            ))
        );
        let wrapping = Fault {
            target: FaultTarget::Text { word: 2, bit: 31 },
            cycle: 0,
            width: 2,
        };
        assert_eq!(
            prune_target(IsaKind::Sira32, &wrapping),
            Ok((
                0,
                PruneTarget::Text {
                    word: 2,
                    mask: (1 << 31) | 1
                }
            ))
        );
    }

    #[test]
    fn unmodeled_counts_accumulate_and_describe_themselves() {
        let mut c = UnmodeledCounts::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.breakdown(), "");
        c.record(Unmodeled::Sira32Fpr);
        c.record(Unmodeled::Sira32Fpr);
        c.record(Unmodeled::Mem);
        c.record(Unmodeled::Skip);
        assert_eq!(c.total(), 4);
        assert_eq!(c.breakdown(), "2 sira32-fpr + 1 mem + 1 skip");
        assert_eq!(c.count(Unmodeled::Skip), 1);
        assert_eq!(c.count(Unmodeled::Cache), 0);
    }

    #[test]
    fn merge_folds_every_bucket() {
        // Fill every bucket with a distinct count so a dropped field
        // cannot cancel out.
        let mut a = UnmodeledCounts::default();
        let mut b = UnmodeledCounts::default();
        for (i, reason) in Unmodeled::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                a.record(reason);
            }
            b.record(reason);
        }
        a.merge(&b);
        for (i, reason) in Unmodeled::ALL.into_iter().enumerate() {
            assert_eq!(a.count(reason), i as u32 + 2, "{}", reason.name());
        }
        assert_eq!(a.total(), 44);
    }
}
