//! **E7 — Natural-resilience ablation** (paper §II-C): the paper credits
//! the ADS's masking of random transients to (a) high-frequency
//! recomputation, (b) Kalman-filter sensor fusion, and (c) PID output
//! smoothing. Ablating each mechanism should raise the hazard rate of
//! the *same* random transient campaign.
//!
//! ```text
//! cargo run --release -p drivefi-bench --bin exp_e7 [runs]
//! ```

use drivefi_ads::AdsConfig;
use drivefi_core::{random_space_campaign, RandomCampaignConfig};
use drivefi_fault::FaultSpace;
use drivefi_sim::SimConfig;
use drivefi_world::ScenarioSuite;

fn main() {
    let runs: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(600);
    let workers = drivefi_sim::default_workers();
    let suite = ScenarioSuite::paper_suite(2026);

    let configs: [(&str, AdsConfig); 4] = [
        ("full stack (paper baseline)", AdsConfig::default()),
        ("no Kalman fusion", AdsConfig { kalman_fusion: false, ..AdsConfig::default() }),
        ("no PID smoothing", AdsConfig { pid_smoothing: false, ..AdsConfig::default() }),
        ("planner at 1/8 rate", AdsConfig { planner_divisor: 8, ..AdsConfig::default() }),
    ];

    println!("E7: hazard rate of {runs} random single-scene corruptions per configuration");
    println!();
    println!("| configuration                | hazards | collisions | rate    |");
    println!("|------------------------------|---------|------------|---------|");
    let mut rates = Vec::new();
    for (name, ads) in configs {
        let sim = SimConfig { ads, ..SimConfig::default() };
        let cfg = RandomCampaignConfig { runs, seed: 0xE7, workers };
        let stats = random_space_campaign(&sim, &suite, &FaultSpace::default(), &cfg);
        println!(
            "| {name:28} | {:7} | {:10} | {:6.2}% |",
            stats.hazards,
            stats.collisions,
            100.0 * stats.hazard_rate()
        );
        rates.push((name, stats.hazard_rate()));
    }
    println!();
    let baseline = rates[0].1;
    let raised = rates[1..].iter().filter(|(_, r)| *r >= baseline).count();
    println!(
        "ablations with hazard rate >= full stack: {raised}/3 \
         (paper shape: every masking mechanism removed should weaken resilience)"
    );
}
