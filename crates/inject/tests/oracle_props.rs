//! Property test: the prune oracle is *conservative* on randomized
//! mini-kernels with forced preemption.
//!
//! The oracle's contract is that a `Some` verdict is a proof: the real
//! injection, executed through the ordinary checkpoint-ladder path,
//! classifies to exactly that outcome. The NPB differential suite pins
//! this on the real scenarios but exercises only their (fixed) schedules;
//! this suite generates tiny lock/loop kernels with a randomly small
//! preemption quantum and more threads than cores, so faults land around
//! context switches, spill slots and scheduler boundaries — the paths
//! the taint walk is easiest to get wrong — and checks every decided
//! fault against a real execution.

mod common;

use common::build_workload;
use fracas_inject::{
    class_plan, classify, golden_run_with_checkpoints, golden_trace, inject_one, Fault,
    FaultTarget, Workload,
};
use fracas_isa::IsaKind;
use fracas_kernel::Limits;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One raw fault draw, mapped onto a concrete [`Fault`] once the golden
/// cycle count is known.
#[derive(Debug, Clone, Copy)]
struct RawFault {
    kind: u8,
    core: u32,
    reg: u32,
    bit: u32,
    width: u32,
    cycle_seed: u64,
}

fn raw_fault() -> impl Strategy<Value = RawFault> {
    (0u8..3, 0u32..2, 0u32..40, 0u32..64, 1u32..3, any::<u64>()).prop_map(
        |(kind, core, reg, bit, width, cycle_seed)| RawFault {
            kind,
            core,
            reg,
            bit,
            width,
            cycle_seed,
        },
    )
}

fn concrete(raw: RawFault, cores: usize, golden_cycles: u64) -> Fault {
    let core = raw.core % cores as u32;
    let target = match raw.kind {
        0 => FaultTarget::Gpr {
            core,
            reg: raw.reg,
            bit: raw.bit,
        },
        1 => FaultTarget::Fpr {
            core,
            reg: raw.reg,
            bit: raw.bit,
        },
        _ => FaultTarget::Flag {
            core,
            which: raw.reg % 4,
        },
    };
    // Bias the window past the end of the run too: landing on (or
    // after) the final tick is exactly the case the ep-omp-1-sira64
    // record-169 regression hit, where the injector's pause loop
    // observes `finished` before the clock predicate.
    let window = golden_cycles + golden_cycles / 8 + 16;
    Fault {
        target,
        cycle: raw.cycle_seed % window,
        width: raw.width,
    }
}

/// Checks every oracle-decided fault against a real execution and
/// returns how many faults were decided.
fn check_conservative(workload: &Workload, faults: &[Fault]) -> Result<usize, TestCaseError> {
    let (report, trace) = golden_trace(workload);
    let (report2, _, checkpoints) = golden_run_with_checkpoints(workload, 0);
    prop_assert_eq!(
        report.cycles,
        report2.cycles,
        "tracing must not perturb the golden run"
    );
    let limits = Limits {
        max_cycles: (report.cycles * 4).max(report.cycles + 100_000),
        max_steps: (report.total_instructions() * 8).max(1_000_000),
    };
    let plan = class_plan(workload, &trace, faults);
    let mut decided = 0;
    for (fault, verdict) in faults.iter().zip(&plan.decided) {
        let Some(claimed) = verdict else { continue };
        decided += 1;
        let faulty = inject_one(workload, fault, &checkpoints, &limits);
        let real = classify(&report, &faulty);
        prop_assert_eq!(
            real,
            *claimed,
            "{}: oracle claimed {:?} for {:?} but execution says {:?}",
            workload.id,
            claimed,
            fault,
            real
        );
    }
    Ok(decided)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn oracle_verdicts_match_execution_under_random_schedules(
        sira64 in any::<bool>(),
        cores in 1usize..3,
        workers in 1u16..4,
        iters in 20u64..121,
        locked in any::<bool>(),
        quantum in 60u64..401,
        raws in proptest::collection::vec(raw_fault(), 48..49),
    ) {
        let isa = if sira64 { IsaKind::Sira64 } else { IsaKind::Sira32 };
        let workload = build_workload(isa, cores, workers, iters, locked, quantum);
        let (report, _) = golden_trace(&workload);
        let faults: Vec<Fault> = raws
            .iter()
            .map(|&raw| concrete(raw, cores, report.cycles))
            .collect();
        check_conservative(&workload, &faults)?;
    }
}

/// Pins the property non-vacuous: on a fixed mini-kernel the oracle
/// actually decides a healthy share of a uniform fault batch, including
/// faults past the run's end.
#[test]
fn oracle_decides_faults_on_the_mini_kernel() {
    let workload = build_workload(IsaKind::Sira64, 1, 2, 60, true, 100);
    let (report, _) = golden_trace(&workload);
    let faults: Vec<Fault> = (0..64u64)
        .map(|i| {
            concrete(
                RawFault {
                    kind: (i % 3) as u8,
                    core: 0,
                    reg: (i * 7 % 40) as u32,
                    bit: (i * 13 % 64) as u32,
                    width: 1,
                    cycle_seed: i
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(0xD1B5_4A32_D192_ED03),
                },
                1,
                report.cycles,
            )
        })
        .collect();
    let decided = check_conservative(&workload, &faults).expect("conservative");
    assert!(decided >= 8, "only {decided}/64 faults decided");
}
