//! Extension: single-word multiple-bit upsets (the paper's ref. \[13\],
//! Johansson et al.) — outcome severity as the upset width grows from
//! the paper's SBU model to 2- and 4-bit adjacent upsets.
//!
//! Each upset width is one fleet sweep: both ISAs' workloads share the
//! orchestrator's worker pool instead of running back to back.

use fracas::inject::{run_fleet, FaultSpace, FleetConfig, Workload};
use fracas::npb::{App, Model, Scenario};
use fracas::prelude::*;

fn main() {
    let base = fracas_bench::cli::SweepOpts::from_env().fleet_config();
    println!(
        "MBU severity sweep ({} faults/run): adjacent-bit upset widths 1/2/4\n",
        base.campaign.faults
    );
    println!(
        "{:<22} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "Scenario", "Width", "Vanish", "ONA", "OMM", "UT", "Hang", "Masked%"
    );
    let workloads: Vec<Workload> = IsaKind::ALL
        .into_iter()
        .map(|isa| {
            let scenario = Scenario::new(App::Mg, Model::Serial, 1, isa).expect("serial exists");
            Workload::from_scenario(&scenario).unwrap_or_else(|e| panic!("{}: {e}", scenario.id()))
        })
        .collect();
    let mut rows = Vec::new();
    for width in [1u32, 2, 4] {
        let config = FleetConfig {
            campaign: CampaignConfig {
                space: FaultSpace {
                    mbu_width: width,
                    ..FaultSpace::default()
                },
                ..base.campaign.clone()
            },
            ..base.clone()
        };
        for result in run_fleet(&workloads, &config) {
            rows.push((result.id.clone(), width, result));
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    for (id, width, result) in rows {
        println!(
            "{:<22} {:>6} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1}",
            id,
            width,
            result.tally.pct(Outcome::Vanished),
            result.tally.pct(Outcome::Ona),
            result.tally.pct(Outcome::Omm),
            result.tally.pct(Outcome::Ut),
            result.tally.pct(Outcome::Hang),
            result.tally.masking_rate() * 100.0,
        );
    }
    println!(
        "\nWider upsets flip more live bits per strike, so the masked share should\n\
         fall (and UT rise) monotonically with width — the reason MBU-hardened\n\
         SRAM interleaving exists."
    );
}
