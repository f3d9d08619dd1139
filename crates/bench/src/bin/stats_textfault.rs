//! Text-fault decidability report: how much of the instruction-memory
//! fault space the decode-differential analysis settles statically, per
//! scenario, against the architectural-register baseline — all
//! plan-side (each scenario costs one traced golden run, zero
//! injections).
//!
//! ```text
//! stats_textfault [--isa ...] [--model ...] [--app NAME] [--cores N]
//!                 [--faults N] [--seed N]
//! ```
//!
//! Defaults to the paper's EP programming-model × ISA matrix (pass
//! `--app` to override). Three views per scenario:
//!
//! * **Sampled plan** — the `--prune-classes` class plan over a
//!   text-only fault sample: statically decided share, executed share,
//!   collapse factor; the same columns for a register sample of the
//!   same size ride alongside for comparison.
//! * **Static composition** — every (word, bit) flip of the whole text
//!   section classed by decode differential (`fracas::analyze::
//!   analyze_text`): the decode-equivalent share is provably Vanished
//!   at *any* cycle, before the trace is even consulted.
//! * **Reachability cross-check** — every word the golden trace fetched
//!   must be CFG-reachable (`fracas::analyze::cfg_reachable_words`);
//!   a violation means the static CFG under-approximates real control
//!   flow and aborts the report.

use fracas::analyze::{analyze_text, cfg_reachable_words, FlipClass, PruneOracle};
use fracas::inject::{campaign_faults, class_plan, golden_trace, FaultSpace, Workload};
use fracas::mine::CollapseSummary;
use fracas::npb::App;
use fracas_bench::cli::{KnobFlags, Parser, ScenarioFilter};
use std::time::Instant;

const USAGE: &str = "stats_textfault [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] \
     [--cores N] [--faults N] [--seed N]";

fn main() {
    let mut filter = ScenarioFilter::default();
    let mut knobs = KnobFlags::default();
    let mut p = Parser::new(USAGE);
    while let Some(flag) = p.next_flag() {
        if filter.accept(&mut p, &flag) {
            continue;
        }
        match flag.as_str() {
            "--faults" | "--seed" => {
                knobs.accept(&mut p, &flag);
            }
            other => p.unknown(other),
        }
    }
    if filter.app.is_none() {
        filter.app = Some(App::Ep);
    }
    let mut text_config = knobs.resolve_or_exit(&p).fleet_config().campaign;
    text_config.space = FaultSpace::only("text");
    let mut reg_config = text_config.clone();
    reg_config.space = FaultSpace::default();
    let scenarios = filter.scenarios();
    eprintln!(
        "text-fault planning {} scenario(s) at {} faults each (seed {})...",
        scenarios.len(),
        text_config.faults,
        text_config.seed
    );
    let start = Instant::now();
    println!(
        "{:<22} {:>6} | {:>5} {:>5} {:>7} {:>6} | {:>7} {:>6} | {:>6} {:>6} {:>6}",
        "scenario",
        "words",
        "flts",
        "dec",
        "exec%",
        "clps",
        "r-exe%",
        "r-clps",
        "equiv%",
        "ill%",
        "fetch%"
    );
    let mut text_total = CollapseSummary::default();
    let mut reg_total = CollapseSummary::default();
    for s in &scenarios {
        let workload = Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id()));
        let image = &workload.image;
        let (report, trace) = golden_trace(&workload);
        // One golden trace feeds both plans: the sampled spaces differ,
        // the oracle does not.
        let text_sampled = campaign_faults(&workload, &text_config, report.cycles);
        let text_stats = class_plan(&workload, &trace, &text_sampled).stats();
        let reg_sampled = campaign_faults(&workload, &reg_config, report.cycles);
        let reg_stats = class_plan(&workload, &trace, &reg_sampled).stats();
        // Static decode-differential composition over the whole text.
        let words: Vec<u32> = image.text.iter().map(fracas::isa::encode).collect();
        let composition = analyze_text(image.isa, &words);
        // Reachability cross-check: fetched ⊆ CFG-reachable.
        let oracle = PruneOracle::new(image.isa, &image.text, image.text_base, &trace);
        let reachable = cfg_reachable_words(image.isa, &image.text);
        let fetched: Vec<u32> = (0..words.len() as u32)
            .filter(|&w| oracle.text_fetched(w))
            .collect();
        let escaped: Vec<u32> = fetched
            .iter()
            .copied()
            .filter(|&w| !reachable[w as usize])
            .collect();
        assert!(
            escaped.is_empty(),
            "{}: golden trace fetched CFG-unreachable word(s) {escaped:?} — \
             the static CFG under-approximates real control flow",
            s.id()
        );
        #[allow(clippy::cast_precision_loss)]
        let fetched_pct = 100.0 * fetched.len() as f64 / words.len().max(1) as f64;
        println!(
            "{:<22} {:>6} | {:>5} {:>5} {:>6.1}% {:>5.1}x | {:>6.1}% {:>5.1}x | {:>5.1}% {:>5.1}% {:>5.1}%",
            s.id(),
            words.len(),
            text_stats.faults,
            text_stats.decided,
            text_stats.executed_fraction() * 100.0,
            text_stats.collapse_factor(),
            reg_stats.executed_fraction() * 100.0,
            reg_stats.collapse_factor(),
            composition.fraction(FlipClass::Equivalent) * 100.0,
            composition.fraction(FlipClass::Illegal) * 100.0,
            fetched_pct,
        );
        text_total.add(&text_stats);
        reg_total.add(&reg_stats);
    }
    println!(
        "{:<22} {:>6} | {:>5} {:>5} {:>6.1}% {:>5.1}x | {:>6.1}% {:>5.1}x |",
        "TOTAL",
        "",
        text_total.stats.faults,
        text_total.stats.decided,
        text_total.executed_fraction() * 100.0,
        text_total.collapse_factor(),
        reg_total.executed_fraction() * 100.0,
        reg_total.collapse_factor(),
    );
    println!(
        "text: {:.1}% statically decided, {} unmodeled (self-patched) of {} sampled",
        text_total.decided_fraction() * 100.0,
        text_total.stats.unmodeled.text,
        text_total.stats.faults,
    );
    eprintln!("planned in {:.1}s", start.elapsed().as_secs_f64());
}
