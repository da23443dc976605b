//! End-to-end Bayesian fault-injection campaign on a small suite.
//!
//! Walks the full DriveFI pipeline — golden runs, 3-TBN fit,
//! counterfactual mining, validation by real injection, random baseline —
//! and prints the paper-style accounting (mined faults, manifestation
//! rate, critical scenes, acceleration factor).
//!
//! ```text
//! cargo run --release --example bayesian_campaign
//! ```

use drivefi::core::{
    collect_golden_traces, random_space_campaign, validate_candidates, AccelerationReport,
    BayesianMiner, MinerConfig, RandomCampaignConfig,
};
use drivefi::fault::FaultSpace;
use drivefi::sim::SimConfig;
use drivefi::world::ScenarioSuite;
use std::time::Instant;

fn main() {
    let workers = drivefi::sim::default_workers();
    let suite = ScenarioSuite::generate(16, 2026);
    let sim = SimConfig::default();
    println!("suite: {} scenarios, {} scenes", suite.scenarios.len(), suite.scene_count());

    // 1. Golden runs + model fit + mining.
    let mine_start = Instant::now();
    let golden = collect_golden_traces(&sim, &suite, workers);
    let miner = BayesianMiner::fit(&golden, MinerConfig::default()).expect("model fits");
    let critical = miner.mine_parallel(&golden, workers);
    let mining_time = mine_start.elapsed();
    let pool = miner.candidate_count(&golden);
    println!("mining: |candidates| = {pool}, |F_crit| = {} in {mining_time:.1?}", critical.len());

    // 2. Validate the mined faults by real injection.
    let validation = validate_candidates(&sim, &suite, &critical, workers);
    println!(
        "validation: {}/{} manifested as hazards ({} collisions) across {} critical scenes",
        validation.manifested,
        validation.mined.len(),
        validation.collisions,
        validation.critical_scenes.len()
    );

    // 3. Random baseline at the same injection budget.
    let random_cfg = RandomCampaignConfig { runs: critical.len().max(100), seed: 7, workers };
    let random = random_space_campaign(&sim, &suite, &FaultSpace::default(), &random_cfg);
    println!(
        "random baseline: {} runs -> {} hazards, {} collisions (rate {:.2}%)",
        random.runs,
        random.hazards,
        random.collisions,
        100.0 * random.hazard_rate()
    );

    // 4. Acceleration accounting.
    let avg_sim = validation.wall_clock.div_f64(validation.mined.len().max(1) as f64);
    let report = AccelerationReport {
        candidate_pool: pool,
        avg_sim_time: avg_sim,
        mining_time,
        validation_time: validation.wall_clock,
        mined_faults: critical.len(),
    };
    println!("acceleration: {}", report.summary());

    // The paper's qualitative claims, asserted.
    assert!(validation.manifested > 0, "Bayesian FI must find manifesting faults");
    assert!(
        validation.precision() > random.hazard_rate(),
        "Bayesian precision must beat the random hazard rate"
    );
}
