//! The single-bit-upset fault model.
//!
//! Every per-target behaviour here — sizing, sampling, timing,
//! ephemerality, application — is a projection of the fault-domain
//! registry in [`crate::domain`]; this module owns only the data types
//! and the uniform sampler's RNG discipline.

use crate::domain::{domain_of, domains, Placement, SpaceDims};
use fracas_isa::IsaKind;
use fracas_kernel::Kernel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Where a bit flip lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// An integer register bit (on SIRA-32, register 15 is the PC).
    Gpr {
        /// Core index.
        core: u32,
        /// Register index.
        reg: u32,
        /// Bit position.
        bit: u32,
    },
    /// A floating-point register bit (SIRA-64).
    Fpr {
        /// Core index.
        core: u32,
        /// Register index.
        reg: u32,
        /// Bit position.
        bit: u32,
    },
    /// One of the NZCV flags (0 = N, 1 = Z, 2 = C, 3 = V).
    Flag {
        /// Core index.
        core: u32,
        /// Flag selector.
        which: u32,
    },
    /// A physical-memory bit.
    Mem {
        /// Byte address.
        addr: u32,
        /// Bit within the byte (0–7).
        bit: u32,
    },
    /// An instruction-memory bit (within one encoded text word).
    Text {
        /// Instruction-word index.
        word: u32,
        /// Bit within the word (0–31).
        bit: u32,
    },
    /// A cache metadata bit: tag, MESI state or LRU stamp of one line.
    CacheState {
        /// Core index (0 for the shared L2).
        core: u32,
        /// Cache unit: 0 = L1I, 1 = L1D, 2 = L2.
        unit: u32,
        /// Line index within the unit.
        line: u32,
        /// Bit within the line's 40 metadata bits (0–31 tag, 32–33
        /// state, 34–39 LRU).
        bit: u32,
    },
    /// A scheduler run-queue entry bit (a thread id word in the kernel's
    /// ready queue).
    RunQueue {
        /// Queue slot index.
        slot: u32,
        /// Bit within the entry word (0–31).
        bit: u32,
    },
    /// A page-permission bit in one process's permission map.
    PagePerm {
        /// Process index.
        pid: u32,
        /// Page index within the process's map.
        page: u32,
        /// Permission bit: 0 = read, 1 = write, 2 = execute.
        bit: u32,
    },
    /// An issue-stage upset that drops exactly one dynamic instruction:
    /// the next instruction the core issues retires (PC advances, the
    /// cycle charge is paid) without any of its architectural effects.
    InstrSkip {
        /// Core index.
        core: u32,
    },
    /// A per-core store-buffer entry bit: the address, data or valid
    /// bit of one pending store (see `fracas_mem::StoreBuffer::flip`).
    StoreBuf {
        /// Core index.
        core: u32,
        /// Entry index within the buffer.
        entry: u32,
        /// Bit within the entry's 97 bits (0–31 address, 32–95 data,
        /// 96 valid).
        bit: u32,
    },
    /// A cache-line *data* bit: one bit of the 64-byte data copy a
    /// value-bearing line holds (L1D and L2 only; instruction lines are
    /// the text domain's territory).
    CacheData {
        /// Core index (0 for the shared L2).
        core: u32,
        /// Cache unit: 1 = L1D, 2 = L2.
        unit: u32,
        /// Line index within the unit.
        line: u32,
        /// Bit within the line's 512 data bits.
        bit: u32,
    },
}

fn default_width() -> u32 {
    1
}

/// A sampled fault: a target plus the injection time on the target
/// core's cycle clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Where the bit flips.
    pub target: FaultTarget,
    /// When (cycles on the target core's clock; core 0 for memory
    /// faults).
    pub cycle: u64,
    /// Number of *adjacent* bits upset starting at the target bit —
    /// 1 for the paper's SBU model; >1 models the single-word
    /// multiple-bit upsets of its ref. \[13\] (Johansson et al.).
    #[serde(default = "default_width")]
    pub width: u32,
}

impl Fault {
    /// The core whose clock times this fault (the registry's
    /// [`crate::domain::Domain::timing_core`] rule).
    pub fn timing_core(&self) -> usize {
        (domain_of(&self.target).timing_core)(&self.target)
    }

    /// True when the fault's domain is probed for golden reconvergence
    /// after injection (the registry's
    /// [`crate::domain::Domain::ephemeral`] flag, set by measurement):
    /// registers, flags, the skip latch, store-buffer entries and
    /// cache-line data, whose strikes the program routinely overwrites,
    /// drops or evicts unread. Memory, text, cache metadata and kernel
    /// control are not probed: their faults never, or almost never,
    /// reconverge, so a probe would only cost time.
    pub fn targets_ephemeral_state(&self) -> bool {
        domain_of(&self.target).ephemeral
    }

    /// Applies the upset (all `width` adjacent bits) to a paused
    /// kernel, through the target domain's registry hook. Adjacent bits
    /// wrap within the struck word, as in a real single-word MBU; each
    /// domain's wrap modulus is declared in its registry entry.
    pub fn apply(&self, kernel: &mut Kernel) {
        let domain = domain_of(&self.target);
        for i in 0..self.width.max(1) {
            (domain.apply)(kernel, self.target, i);
        }
    }
}

/// Which state elements the uniform sampler may hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpace {
    /// Integer registers (always part of the paper's model).
    pub gpr: bool,
    /// FP registers (SIRA-64 contributes 2048 more bits — §4.1.2).
    pub fpr: bool,
    /// NZCV flags.
    pub flags: bool,
    /// Data memory range `(base, len)`, if memory faults are enabled.
    pub mem: Option<(u32, u32)>,
    /// Instruction-memory faults (bit flips in encoded text words).
    pub text: bool,
    /// Cache metadata faults (L1/L2 tag, MESI state and LRU bits).
    #[serde(default)]
    pub cache: bool,
    /// Kernel-control faults (scheduler run-queue entries and
    /// per-process page-permission words).
    #[serde(default)]
    pub kernelctl: bool,
    /// Instruction-skip faults (one latch per core that drops the next
    /// issued dynamic instruction).
    #[serde(default)]
    pub skip: bool,
    /// Store-buffer faults (address/data/valid bits of pending stores).
    #[serde(default)]
    pub storebuf: bool,
    /// Cache-line data faults (the 64-byte data copies of L1D/L2 lines).
    #[serde(default)]
    pub cachedata: bool,
    /// Adjacent bits upset per fault (1 = SBU; >1 = single-word MBU,
    /// ref. \[13\] of the paper).
    #[serde(default = "default_width")]
    pub mbu_width: u32,
}

impl Default for FaultSpace {
    /// The paper's register-file campaign: GPRs plus (on SIRA-64) the FP
    /// registers; no flags, no memory, no uncore state.
    fn default() -> FaultSpace {
        FaultSpace {
            gpr: true,
            fpr: true,
            ..FaultSpace::none()
        }
    }
}

impl FaultSpace {
    /// The empty space: every domain disabled. Useful as a struct-update
    /// base for single-domain spaces.
    pub fn none() -> FaultSpace {
        FaultSpace {
            gpr: false,
            fpr: false,
            flags: false,
            mem: None,
            text: false,
            cache: false,
            kernelctl: false,
            skip: false,
            storebuf: false,
            cachedata: false,
            mbu_width: 1,
        }
    }

    /// The space with exactly one registry domain enabled, by
    /// [`crate::domain::Domain::name`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown name and on `"mem"`, which needs an address
    /// range rather than a boolean switch.
    pub fn only(name: &str) -> FaultSpace {
        let domain = crate::domain::domain_named(name)
            .unwrap_or_else(|| panic!("no fault domain named {name:?}"));
        assert!(
            domain.flag.is_some(),
            "domain {name:?} has no boolean switch (memory needs a range)"
        );
        let mut space = FaultSpace::none();
        (domain.enable)(&mut space);
        space
    }

    /// Total injectable bits for an ISA on `cores` cores, *excluding*
    /// instruction memory (whose size depends on the workload, not the
    /// processor model — see [`FaultSpace::total_bits_with_text`]).
    pub fn total_bits(&self, isa: IsaKind, cores: u32) -> u64 {
        SpaceDims::bare(isa, cores, *self, 0).total_bits()
    }

    /// Total injectable bits including the workload's instruction memory
    /// when [`FaultSpace::text`] is enabled — the exact space
    /// [`crate::sample_faults_with_text`] draws from. (Campaign
    /// reporting records the full [`SpaceDims::total_bits`], which also
    /// counts the uncore domains.)
    pub fn total_bits_with_text(&self, isa: IsaKind, cores: u32, text_words: u32) -> u64 {
        SpaceDims::bare(isa, cores, *self, text_words).total_bits()
    }
}

/// Samples `count` uniform faults over the space and the app lifespan
/// `[0, lifespan_cycles)` (phase two of the workflow). Deterministic in
/// `seed`. Instruction-memory faults require the word count and use
/// [`sample_faults_with_text`]; uncore domains require the full
/// [`SpaceDims`] and use [`sample_space`].
pub fn sample_faults(
    isa: IsaKind,
    cores: u32,
    lifespan_cycles: u64,
    count: usize,
    space: &FaultSpace,
    seed: u64,
) -> Vec<Fault> {
    sample_faults_with_text(isa, cores, lifespan_cycles, count, space, seed, 0)
}

/// [`sample_faults`] extended with the text-section size, so the
/// uniform space can include instruction-memory bits when
/// [`FaultSpace::text`] is set.
#[allow(clippy::too_many_arguments)]
pub fn sample_faults_with_text(
    isa: IsaKind,
    cores: u32,
    lifespan_cycles: u64,
    count: usize,
    space: &FaultSpace,
    seed: u64,
    text_words: u32,
) -> Vec<Fault> {
    sample_space(
        &SpaceDims::bare(isa, cores, *space, text_words),
        lifespan_cycles,
        count,
        seed,
    )
}

/// Samples `count` uniform faults over the full registry space
/// described by `dims` — the registry-driven sampler every legacy
/// entry point wraps. The space layout is the registry's: each
/// [`Placement::CoreBlock`] domain in registry order, repeated
/// core-major, then each [`Placement::Tail`] domain in registry order.
/// Disabled domains contribute zero bits, so the draw sequence (and
/// therefore every sampled fault) is bit-identical to the historical
/// hand-written sampler for any historical space.
pub fn sample_space(dims: &SpaceDims, lifespan_cycles: u64, count: usize, seed: u64) -> Vec<Fault> {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_core = dims.core_block_bits();
    let core_total = per_core * u64::from(dims.cores);
    let total = dims.total_bits();
    assert!(total > 0, "empty fault space");

    (0..count)
        .map(|_| {
            let cycle = rng.random_range(0..lifespan_cycles.max(1));
            let pick = rng.random_range(0..total);
            Fault {
                target: decode_offset(dims, per_core, core_total, pick),
                cycle,
                width: dims.space.mbu_width.max(1),
            }
        })
        .collect()
}

/// Decodes a uniform offset (`< dims.total_bits()`) into the registry
/// domain and concrete target it addresses.
fn decode_offset(dims: &SpaceDims, per_core: u64, core_total: u64, pick: u64) -> FaultTarget {
    if pick < core_total {
        let core = (pick / per_core) as u32;
        let mut within = pick % per_core;
        for domain in domains()
            .iter()
            .filter(|d| d.placement == Placement::CoreBlock)
        {
            let bits = (domain.bits)(dims);
            if within < bits {
                return (domain.make)(dims, core, within);
            }
            within -= bits;
        }
    } else {
        let mut within = pick - core_total;
        for domain in domains().iter().filter(|d| d.placement == Placement::Tail) {
            let bits = (domain.bits)(dims);
            if within < bits {
                return (domain.make)(dims, 0, within);
            }
            within -= bits;
        }
    }
    unreachable!("offset {pick} outside the {} -bit space", dims.total_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_sizes_match_paper_register_files() {
        let space = FaultSpace::default();
        assert_eq!(space.total_bits(IsaKind::Sira32, 1), 512);
        assert_eq!(space.total_bits(IsaKind::Sira64, 1), 4096);
        assert_eq!(space.total_bits(IsaKind::Sira32, 4), 2048);
        let gpr_only = FaultSpace {
            fpr: false,
            ..FaultSpace::default()
        };
        assert_eq!(gpr_only.total_bits(IsaKind::Sira64, 1), 2048);
    }

    #[test]
    fn text_bits_count_only_when_enabled() {
        let with_text = FaultSpace {
            text: true,
            ..FaultSpace::default()
        };
        assert_eq!(
            with_text.total_bits_with_text(IsaKind::Sira64, 2, 100),
            with_text.total_bits(IsaKind::Sira64, 2) + 100 * 32
        );
        // With text faults disabled the word count is irrelevant.
        let space = FaultSpace::default();
        assert_eq!(
            space.total_bits_with_text(IsaKind::Sira64, 2, 100),
            space.total_bits(IsaKind::Sira64, 2)
        );
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let space = FaultSpace::default();
        let a = sample_faults(IsaKind::Sira64, 2, 10_000, 200, &space, 42);
        let b = sample_faults(IsaKind::Sira64, 2, 10_000, 200, &space, 42);
        assert_eq!(a, b);
        let c = sample_faults(IsaKind::Sira64, 2, 10_000, 200, &space, 43);
        assert_ne!(a, c);
        for f in &a {
            assert!(f.cycle < 10_000);
            match f.target {
                FaultTarget::Gpr { core, reg, bit } => {
                    assert!(core < 2 && reg < 32 && bit < 64);
                }
                FaultTarget::Fpr { core, reg, bit } => {
                    assert!(core < 2 && reg < 32 && bit < 64);
                }
                other => panic!("unexpected target {other:?}"),
            }
        }
    }

    #[test]
    fn sira32_never_samples_fpr() {
        let space = FaultSpace::default();
        let faults = sample_faults(IsaKind::Sira32, 4, 1_000, 500, &space, 7);
        assert!(faults
            .iter()
            .all(|f| matches!(f.target, FaultTarget::Gpr { .. })));
        // All 16 registers eventually get hit.
        let mut regs: Vec<u32> = faults
            .iter()
            .map(|f| match f.target {
                FaultTarget::Gpr { reg, .. } => reg,
                _ => unreachable!(),
            })
            .collect();
        regs.sort_unstable();
        regs.dedup();
        assert!(regs.len() >= 14, "coverage too thin: {regs:?}");
        assert!(regs.iter().all(|&r| r < 16));
    }

    #[test]
    fn memory_faults_use_configured_range() {
        let space = FaultSpace {
            mem: Some((0x1000, 256)),
            ..FaultSpace::none()
        };
        let faults = sample_faults(IsaKind::Sira64, 1, 100, 100, &space, 1);
        for f in &faults {
            match f.target {
                FaultTarget::Mem { addr, bit } => {
                    assert!((0x1000..0x1100).contains(&addr));
                    assert!(bit < 8);
                }
                other => panic!("unexpected target {other:?}"),
            }
        }
    }

    #[test]
    fn flags_included_when_enabled() {
        let space = FaultSpace::only("flags");
        let faults = sample_faults(IsaKind::Sira64, 2, 100, 50, &space, 3);
        assert!(faults
            .iter()
            .all(|f| matches!(f.target, FaultTarget::Flag { which, .. } if which < 4)));
    }

    #[test]
    fn uncore_domains_sample_through_the_registry() {
        let mut space = FaultSpace::none();
        space.cache = true;
        space.kernelctl = true;
        space.skip = true;
        let dims = SpaceDims {
            isa: IsaKind::Sira64,
            cores: 2,
            space,
            text_words: 0,
            runq_slots: 6,
            procs: 3,
            pages_per_proc: 128,
            l1_lines: 512,
            l2_lines: 8192,
            sb_entries: 8,
        };
        let faults = sample_space(&dims, 5_000, 400, 11);
        let mut seen_cache = false;
        let mut seen_kctl = false;
        let mut seen_skip = false;
        for f in &faults {
            assert!(f.cycle < 5_000);
            match f.target {
                FaultTarget::CacheState {
                    core,
                    unit,
                    line,
                    bit,
                } => {
                    seen_cache = true;
                    assert!(unit <= 2 && bit < 40);
                    if unit == 2 {
                        assert!(core == 0 && line < 8192);
                    } else {
                        assert!(core < 2 && line < 512);
                    }
                }
                FaultTarget::RunQueue { slot, bit } => {
                    seen_kctl = true;
                    assert!(slot < 6 && bit < 32);
                }
                FaultTarget::PagePerm { pid, page, bit } => {
                    seen_kctl = true;
                    assert!(pid < 3 && page < 128 && bit < 3);
                }
                FaultTarget::InstrSkip { core } => {
                    seen_skip = true;
                    assert!(core < 2);
                }
                other => panic!("unexpected target {other:?}"),
            }
        }
        assert!(seen_cache, "cache dominates this space, must be hit");
        assert!(seen_kctl || seen_skip, "tiny domains can miss, not both");
    }

    #[test]
    fn only_constructs_single_domain_spaces() {
        assert_eq!(
            FaultSpace::only("text"),
            FaultSpace {
                text: true,
                ..FaultSpace::none()
            }
        );
        assert_eq!(
            FaultSpace::only("skip"),
            FaultSpace {
                skip: true,
                ..FaultSpace::none()
            }
        );
    }
}
