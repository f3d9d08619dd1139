//! Property-based tests (proptest) over the core data structures and
//! invariants: instruction encoding, condition codes, permission maps,
//! ALU semantics vs host arithmetic, softfloat vs host floats, and the
//! fault sampler.

use fracas_cpu::Machine;
use fracas_isa::{
    decode, encode, link, AluOp, Asm, Cond, FReg, Inst, InstKind, IsaKind, Reg, Width,
};
use fracas_mem::{AccessKind, PermissionMap, Perms, PAGE_SIZE};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg)
}

fn arb_freg() -> impl Strategy<Value = FReg> {
    (0u8..32).prop_map(FReg)
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (0usize..Cond::ALL.len()).prop_map(|i| Cond::ALL[i])
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    (0usize..AluOp::ALL.len()).prop_map(|i| AluOp::ALL[i])
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::Word), Just(Width::Byte), Just(Width::Half)]
}

fn arb_kind() -> impl Strategy<Value = InstKind> {
    prop_oneof![
        Just(InstKind::Nop),
        Just(InstKind::Halt),
        Just(InstKind::Ret),
        any::<u16>().prop_map(|imm| InstKind::Svc { imm }),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(op, rd, rn, rm)| InstKind::Alu { op, rd, rn, rm }),
        (arb_alu_op(), arb_reg(), arb_reg(), -1024i16..1024)
            .prop_map(|(op, rd, rn, imm)| InstKind::AluImm { op, rd, rn, imm }),
        (arb_reg(), arb_reg()).prop_map(|(rn, rm)| InstKind::Cmp { rn, rm }),
        (arb_reg(), -1024i16..1024).prop_map(|(rn, imm)| InstKind::CmpImm { rn, imm }),
        (arb_reg(), any::<u16>(), 0u8..4, any::<bool>()).prop_map(|(rd, imm, shift, keep)| {
            InstKind::MovImm {
                rd,
                imm,
                shift,
                keep,
            }
        }),
        (arb_width(), arb_reg(), arb_reg(), -1024i16..1024)
            .prop_map(|(width, rd, rn, off)| InstKind::Ld { width, rd, rn, off }),
        (arb_width(), arb_reg(), arb_reg(), -1024i16..1024)
            .prop_map(|(width, rd, rn, off)| InstKind::St { width, rd, rn, off }),
        (arb_width(), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(width, rd, rn, rm)| InstKind::LdR { width, rd, rn, rm }),
        (-(1i32 << 20)..(1 << 20)).prop_map(|off| InstKind::B { off }),
        (-(1i32 << 20)..(1 << 20)).prop_map(|off| InstKind::Bl { off }),
        arb_reg().prop_map(|rm| InstKind::Blr { rm }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rn, rm)| InstKind::AmoAdd { rd, rn, rm }),
        (arb_freg(), arb_reg(), -1024i16..1024).prop_map(|(fd, rn, off)| InstKind::FLd {
            fd,
            rn,
            off
        }),
        (arb_freg(), arb_freg(), arb_freg()).prop_map(|(fd, fa, fb)| InstKind::Fp {
            op: fracas_isa::FpOp::Fmul,
            fd,
            fa,
            fb
        }),
    ]
}

proptest! {
    /// Every representable instruction round-trips through the binary
    /// encoding.
    #[test]
    fn encode_decode_roundtrip(cond in arb_cond(), kind in arb_kind()) {
        let inst = Inst { cond, kind };
        let word = encode(&inst);
        let back = decode(word).expect("encoded instructions decode");
        prop_assert_eq!(back, inst);
    }

    /// Decoding never panics on arbitrary words, and anything it accepts
    /// re-encodes to the same word (the encoding is injective on the
    /// accepted set).
    #[test]
    fn decode_is_total_and_consistent(word in any::<u32>()) {
        if let Ok(inst) = decode(word) {
            // Operand padding bits may be nonzero in arbitrary words;
            // compare through a canonical re-encode/decode cycle instead
            // of raw equality.
            let canon = encode(&inst);
            let again = decode(canon).expect("canonical decodes");
            prop_assert_eq!(again, inst);
        }
    }

    /// A condition and its inverse never agree, for any flag state.
    #[test]
    fn cond_inverse_disagrees(bits in 0u8..16, idx in 1usize..Cond::ALL.len()) {
        let c = Cond::ALL[idx];
        let (n, z, cf, v) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
        prop_assert_ne!(c.holds(n, z, cf, v), c.invert().holds(n, z, cf, v));
    }

    /// Page permissions: an access is allowed iff every page it touches
    /// was mapped with a compatible grant.
    #[test]
    fn permission_map_is_page_consistent(
        start in 0u32..200u32,
        pages in 1u32..8,
        probe in 0u32..(1u32 << 20),
        len in 1u32..64,
    ) {
        let mut map = PermissionMap::new(1 << 20);
        let base = start * PAGE_SIZE;
        map.map_range(base, pages * PAGE_SIZE, Perms::RW);
        let ok = map.check(probe, len, AccessKind::Read).is_ok();
        let first = probe / PAGE_SIZE;
        let last = (u64::from(probe) + u64::from(len) - 1) / u64::from(PAGE_SIZE);
        let inside = first >= start && last < u64::from(start + pages);
        prop_assert_eq!(ok, inside);
    }

    /// Guest integer arithmetic agrees with host two's-complement
    /// semantics at both register widths.
    #[test]
    fn guest_alu_matches_host(a in any::<i32>(), b in any::<i32>(), op_idx in 0usize..8) {
        let ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And,
                   AluOp::Orr, AluOp::Eor, AluOp::Sdiv, AluOp::Srem];
        let op = ops[op_idx];
        if matches!(op, AluOp::Sdiv | AluOp::Srem) && b == 0 {
            return Ok(());
        }
        let host32 = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Orr => a | b,
            AluOp::Eor => a ^ b,
            AluOp::Sdiv => a.wrapping_div(b),
            AluOp::Srem => a.wrapping_rem(b),
            _ => unreachable!(),
        };
        let mut asm = Asm::new(IsaKind::Sira32);
        asm.global_fn("_start");
        asm.load_imm(Reg(1), a as u32 as u64);
        asm.load_imm(Reg(2), b as u32 as u64);
        asm.alu(op, Reg(0), Reg(1), Reg(2));
        asm.halt();
        let image = link(IsaKind::Sira32, &[asm.into_object()]).expect("link");
        let mut m = Machine::boot_flat(&image, 1);
        m.run_to_halt(100).expect("run");
        prop_assert_eq!(m.core(0).reg(Reg(0)) as u32, host32 as u32);
    }

    /// The softfloat add/mul agree with host f64 to float32-grade
    /// relative precision on moderate operands.
    #[test]
    fn softfloat_tracks_host(
        a in -1.0e6f64..1.0e6,
        b in -1.0e6f64..1.0e6,
        mul in any::<bool>(),
    ) {
        let sym = if mul { "__f64_mul" } else { "__f64_add" };
        let want = if mul { a * b } else { a + b };
        let mut asm = Asm::new(IsaKind::Sira32);
        asm.global_fn("_start");
        asm.load_imm(Reg(0), a.to_bits() & 0xffff_ffff);
        asm.load_imm(Reg(1), a.to_bits() >> 32);
        asm.load_imm(Reg(2), b.to_bits() & 0xffff_ffff);
        asm.load_imm(Reg(3), b.to_bits() >> 32);
        asm.bl_sym(sym);
        asm.halt();
        let image = link(IsaKind::Sira32, &[asm.into_object(), fracas_rt::softfloat()])
            .expect("link");
        let mut m = Machine::boot_flat(&image, 1);
        m.run_to_halt(100_000).expect("run");
        let got = f64::from_bits((m.core(0).reg(Reg(1)) << 32) | m.core(0).reg(Reg(0)));
        if want.abs() > 1e-9 {
            let rel = ((got - want) / want).abs();
            // Addition of near-cancelling operands loses relative
            // precision proportional to the cancellation magnitude.
            let scale = if mul { 1.0 } else {
                (a.abs() + b.abs()) / want.abs().max(1e-300)
            };
            prop_assert!(
                rel <= 3e-6 * scale.max(1.0),
                "{a} {sym} {b}: got {got:e}, want {want:e} (rel {rel:e})"
            );
        }
    }

    /// Fault sampling stays inside the declared space.
    #[test]
    fn fault_sampler_respects_space(seed in any::<u64>(), cores in 1u32..5) {
        let faults = fracas_inject::sample_faults(
            IsaKind::Sira64,
            cores,
            1_000,
            50,
            &fracas_inject::FaultSpace::default(),
            seed,
        );
        for f in faults {
            prop_assert!(f.cycle < 1_000);
            match f.target {
                fracas_inject::FaultTarget::Gpr { core, reg, bit }
                | fracas_inject::FaultTarget::Fpr { core, reg, bit } => {
                    prop_assert!(core < cores);
                    prop_assert!(reg < 32);
                    prop_assert!(bit < 64);
                }
                other => prop_assert!(false, "unexpected target {other:?}"),
            }
        }
    }

    /// Bit flips are involutions: applying the same fault twice restores
    /// the register file.
    #[test]
    fn flips_are_involutions(reg in 0u32..32, bit in 0u32..64, seed in any::<u64>()) {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.halt();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).expect("link");
        let mut m = Machine::boot_flat(&image, 1);
        m.core_mut(0).set_reg(Reg((reg % 32) as u8), seed);
        let before = m.core(0).context_hash();
        m.flip_gpr(0, reg, bit);
        let mid = m.core(0).context_hash();
        m.flip_gpr(0, reg, bit);
        prop_assert_eq!(m.core(0).context_hash(), before);
        prop_assert_ne!(mid, before);
    }
}

/// A booted 2-core, 3-process kernel plus the registry space dimensions
/// covering every fault domain — the shared fixture for the generic
/// registry property tests. Three processes on two cores leave a live
/// run-queue entry, so kernel-control flips hit occupied state too.
fn registry_fixture() -> (fracas_kernel::Kernel, fracas_inject::SpaceDims) {
    use fracas_inject::{FaultSpace, SpaceDims};
    let mut asm = Asm::new(IsaKind::Sira64);
    asm.global_fn("_start");
    asm.load_imm(Reg(1), 0xdead_beef);
    asm.halt();
    let image = link(IsaKind::Sira64, &[asm.into_object()]).expect("link");
    let spec = fracas_kernel::BootSpec {
        processes: 3,
        ..fracas_kernel::BootSpec::serial()
    };
    let kernel = fracas_kernel::Kernel::boot(&image, 2, spec);
    let space = FaultSpace {
        flags: true,
        mem: Some((0, 4096)),
        text: true,
        cache: true,
        kernelctl: true,
        skip: true,
        storebuf: true,
        cachedata: true,
        ..FaultSpace::default()
    };
    let dims = SpaceDims::of(IsaKind::Sira64, 2, image.text.len() as u32, &spec, space);
    (kernel, dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Fault::apply` is an involution for **every registered fault
    /// domain** and every MBU width: a second application restores the
    /// register contexts, flags, memory, text, cache metadata, scheduler
    /// state, page permissions and skip latches bit-exactly — checked
    /// through `Kernel::state_matches`, which compares all of them. The
    /// target is decoded from a uniform offset by the domain's own
    /// `make`, so every coordinate the sampler can produce is covered.
    #[test]
    fn fault_apply_is_involution_for_every_domain(
        domain_idx in 0usize..fracas_inject::domains().len(),
        core in 0u32..2,
        offset in any::<u64>(),
        cycle in any::<u64>(),
        width in 1u32..5,
    ) {
        let (mut kernel, dims) = registry_fixture();
        let domain = &fracas_inject::domains()[domain_idx];
        let bits = (domain.bits)(&dims);
        prop_assert!(bits > 0, "fixture must enable domain {}", domain.name);
        let target = (domain.make)(&dims, core, offset % bits);
        let fault = fracas_inject::Fault { target, cycle, width };
        let before = kernel.snapshot();
        fault.apply(&mut kernel);
        fault.apply(&mut kernel);
        prop_assert!(
            kernel.state_matches(&before),
            "fault {:?} (domain {}) is not an involution", fault, domain.name
        );
    }

    /// The registry's per-domain timing rules reproduce the historical
    /// hard-coded ones for the legacy domains (core-local targets time
    /// against their own core, memory and text against core 0), and its
    /// reconvergence-probe flags are the measured set: registers, flags,
    /// the skip latch, store-buffer entries and cache-line data are
    /// probed; memory, text, cache metadata and kernel control are not.
    #[test]
    fn registry_timing_and_ephemerality_match_legacy_rules(
        domain_idx in 0usize..fracas_inject::domains().len(),
        core in 0u32..2,
        offset in any::<u64>(),
    ) {
        use fracas_inject::FaultTarget;
        let (_, dims) = registry_fixture();
        let domain = &fracas_inject::domains()[domain_idx];
        let bits = (domain.bits)(&dims);
        prop_assert!(bits > 0);
        let target = (domain.make)(&dims, core, offset % bits);
        let fault = fracas_inject::Fault { target, cycle: 0, width: 1 };
        let legacy_timing = match target {
            FaultTarget::Gpr { core, .. }
            | FaultTarget::Fpr { core, .. }
            | FaultTarget::Flag { core, .. } => Some(core as usize),
            FaultTarget::Mem { .. } | FaultTarget::Text { .. } => Some(0),
            _ => None,
        };
        if let Some(timing) = legacy_timing {
            prop_assert_eq!(fault.timing_core(), timing);
        }
        let probed = match target {
            FaultTarget::Gpr { .. }
            | FaultTarget::Fpr { .. }
            | FaultTarget::Flag { .. }
            | FaultTarget::InstrSkip { .. }
            | FaultTarget::StoreBuf { .. }
            | FaultTarget::CacheData { .. } => true,
            FaultTarget::Mem { .. }
            | FaultTarget::Text { .. }
            | FaultTarget::CacheState { .. }
            | FaultTarget::RunQueue { .. }
            | FaultTarget::PagePerm { .. } => false,
        };
        prop_assert_eq!(
            fault.targets_ephemeral_state(), probed,
            "domain {} probe flag", domain.name
        );
    }
}

/// A width equal to a domain's declared wrap modulus upsets the whole
/// struck word exactly once — regardless of which bit the upset starts
/// at. That pins each registry `wrap_modulus` to the flip hooks' actual
/// wrapping arithmetic, domain by domain (including the historical
/// implicit flag wrap at 4, now declared).
#[test]
fn mbu_width_wraps_at_each_domains_declared_modulus() {
    use fracas_inject::{domain_of, Fault, FaultTarget};
    let cases = [
        // (same word, two different starting bits)
        (
            FaultTarget::Gpr {
                core: 0,
                reg: 1,
                bit: 0,
            },
            FaultTarget::Gpr {
                core: 0,
                reg: 1,
                bit: 17,
            },
        ),
        (
            FaultTarget::Fpr {
                core: 1,
                reg: 3,
                bit: 0,
            },
            FaultTarget::Fpr {
                core: 1,
                reg: 3,
                bit: 63,
            },
        ),
        (
            FaultTarget::Flag { core: 0, which: 0 },
            FaultTarget::Flag { core: 0, which: 3 },
        ),
        (
            FaultTarget::Mem { addr: 64, bit: 0 },
            FaultTarget::Mem { addr: 64, bit: 5 },
        ),
        (
            FaultTarget::Text { word: 0, bit: 0 },
            FaultTarget::Text { word: 0, bit: 31 },
        ),
        (
            FaultTarget::CacheState {
                core: 1,
                unit: 1,
                line: 7,
                bit: 0,
            },
            FaultTarget::CacheState {
                core: 1,
                unit: 1,
                line: 7,
                bit: 39,
            },
        ),
        (
            FaultTarget::RunQueue { slot: 0, bit: 0 },
            FaultTarget::RunQueue { slot: 0, bit: 30 },
        ),
        // Store-buffer MBUs wrap at the 97-bit entry: a full-width upset
        // from any starting bit flips the whole entry and never crosses
        // into its neighbour.
        (
            FaultTarget::StoreBuf {
                core: 1,
                entry: 2,
                bit: 0,
            },
            FaultTarget::StoreBuf {
                core: 1,
                entry: 2,
                bit: 42,
            },
        ),
        (
            FaultTarget::CacheData {
                core: 0,
                unit: 1,
                line: 3,
                bit: 0,
            },
            FaultTarget::CacheData {
                core: 0,
                unit: 1,
                line: 3,
                bit: 511,
            },
        ),
    ];
    for (a, b) in cases {
        let domain = domain_of(&a);
        let width = (domain.wrap_modulus)(IsaKind::Sira64);
        let (mut ka, _) = registry_fixture();
        let (mut kb, _) = registry_fixture();
        Fault {
            target: a,
            cycle: 0,
            width,
        }
        .apply(&mut ka);
        Fault {
            target: b,
            cycle: 0,
            width,
        }
        .apply(&mut kb);
        assert!(
            ka.state_matches(&kb.snapshot()),
            "domain {}: width {} starting at {:?} vs {:?} must flip the same full word",
            domain.name,
            width,
            a,
            b
        );
    }
    // The page-permission half of the kernel-control domain wraps at its
    // own 3-bit entry width (narrower than the domain's declared
    // run-queue modulus): width 3 upsets all of read/write/execute from
    // any starting bit.
    let (mut ka, _) = registry_fixture();
    let (mut kb, _) = registry_fixture();
    for (k, bit) in [(&mut ka, 0), (&mut kb, 2)] {
        Fault {
            target: FaultTarget::PagePerm {
                pid: 1,
                page: 0,
                bit,
            },
            cycle: 0,
            width: 3,
        }
        .apply(k);
    }
    assert!(ka.state_matches(&kb.snapshot()));
    // The skip latch's modulus is 1: every adjacent "bit" folds onto the
    // single toggle, so even widths cancel and odd widths arm it.
    let (mut k, _) = registry_fixture();
    let arm = |k: &mut fracas_kernel::Kernel, width| {
        Fault {
            target: FaultTarget::InstrSkip { core: 0 },
            cycle: 0,
            width,
        }
        .apply(k);
    };
    let idle = k.snapshot();
    arm(&mut k, 2);
    assert!(k.state_matches(&idle), "even skip widths cancel");
    arm(&mut k, 3);
    assert!(!k.state_matches(&idle), "odd skip widths arm the latch");
}

/// The registry's declared moduli themselves (so a silent registry edit
/// can't weaken the wrap test above).
#[test]
fn declared_wrap_moduli_match_the_word_widths() {
    let modulus = |name: &str, isa| {
        (fracas_inject::domain_named(name)
            .expect("registered")
            .wrap_modulus)(isa)
    };
    assert_eq!(modulus("gpr", IsaKind::Sira32), 32);
    assert_eq!(modulus("gpr", IsaKind::Sira64), 64);
    assert_eq!(modulus("fpr", IsaKind::Sira64), 64);
    assert_eq!(modulus("flags", IsaKind::Sira32), 4);
    assert_eq!(modulus("mem", IsaKind::Sira64), 8);
    assert_eq!(modulus("text", IsaKind::Sira32), 32);
    assert_eq!(modulus("cache", IsaKind::Sira64), 40);
    assert_eq!(modulus("kernelctl", IsaKind::Sira64), 32);
    assert_eq!(modulus("skip", IsaKind::Sira64), 1);
    assert_eq!(modulus("storebuf", IsaKind::Sira64), 97);
    assert_eq!(modulus("cachedata", IsaKind::Sira64), 512);
}
