//! The random fault-injection baseline (paper fault model *b*, random
//! selection), generalized to any [`FaultSpace`].

use drivefi_fault::{FaultSpace, FaultSpec};
use drivefi_sim::{default_workers, CampaignEngine, CampaignJob, RunningStats, SimConfig};
use drivefi_world::ScenarioSuite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a random output-corruption campaign.
#[derive(Debug, Clone, Copy)]
pub struct RandomCampaignConfig {
    /// Number of injection runs.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
}

impl Default for RandomCampaignConfig {
    fn default() -> Self {
        RandomCampaignConfig { runs: 500, seed: 0xBAD5EED, workers: default_workers() }
    }
}

/// Aggregate statistics of a random campaign.
#[derive(Debug, Clone, Default)]
pub struct RandomCampaignStats {
    /// Total runs.
    pub runs: usize,
    /// Runs ending safe.
    pub safe: usize,
    /// Runs with δ ≤ 0 but no collision.
    pub hazards: usize,
    /// Runs with a collision.
    pub collisions: usize,
    /// Runs in which the injector actually corrupted a live value.
    pub effective_injections: usize,
    /// The hazardous (scenario, scene, fault-target) triples, if any.
    pub hazard_details: Vec<(u32, u64, &'static str)>,
}

impl RandomCampaignStats {
    /// Fraction of runs that violated safety.
    pub fn hazard_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            (self.hazards + self.collisions) as f64 / self.runs as f64
        }
    }
}

/// The RNG stream of a random campaign: `config.runs` draws of
/// `(scenario index, fault spec)`, each pick one uniform scenario draw
/// followed by one [`FaultSpace::sample`]. Drawn up front so the stream
/// is a pure function of the seed, never of worker scheduling. This is
/// the single sampling path shared by the typed driver and the
/// plan-file runner — which is what makes a `kind = "random"` campaign
/// plan reproduce [`random_space_campaign`] number-for-number.
pub fn random_fault_picks(
    suite: &ScenarioSuite,
    space: &FaultSpace,
    config: &RandomCampaignConfig,
) -> Vec<(usize, FaultSpec)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.runs)
        .map(|_| {
            let index = rng.random_range(0..suite.scenarios.len());
            let scene_count = suite.scenarios[index].scene_count() as u64;
            (index, space.sample(scene_count, &mut rng))
        })
        .collect()
}

/// The per-job [`RecordMeta`](drivefi_store::RecordMeta) table for a
/// random campaign's picks, indexed by job index — what a
/// [`StoreSink`](drivefi_store::StoreSink) needs to turn engine results
/// into persisted [`CampaignRecord`](drivefi_store::CampaignRecord)s.
pub fn pick_record_metas(
    suite: &ScenarioSuite,
    picks: &[(usize, FaultSpec)],
) -> Vec<drivefi_store::RecordMeta> {
    picks
        .iter()
        .map(|&(index, spec)| {
            let scenario = &suite.scenarios[index];
            drivefi_store::RecordMeta {
                scenario_id: scenario.id,
                scenario_seed: scenario.seed,
                fault: Some(spec),
            }
        })
        .collect()
}

/// Runs `config.runs` random corruptions drawn uniformly from `space` ×
/// the suite — each run one scenario with one sampled [`FaultSpec`]
/// armed. With the default space this is the paper's baseline: uniform
/// `(scenario, scene, signal, min|max)` single-scene corruptions, which
/// over several weeks of cluster time never produced a single safety
/// hazard.
pub fn random_space_campaign(
    sim: &SimConfig,
    suite: &ScenarioSuite,
    space: &FaultSpace,
    config: &RandomCampaignConfig,
) -> RandomCampaignStats {
    let picks = random_fault_picks(suite, space, config);

    let engine = CampaignEngine::new(*sim).with_workers(config.workers);
    let mut running = RunningStats::new();
    let shared = suite.shared();
    let jobs = picks.iter().enumerate().map(|(id, &(index, spec))| CampaignJob {
        id: id as u64,
        scenario: std::sync::Arc::clone(&shared[index]),
        faults: vec![spec.compile()],
    });
    engine.run(jobs, &mut running);

    RandomCampaignStats {
        runs: running.runs,
        safe: running.safe,
        hazards: running.hazards,
        collisions: running.collisions,
        effective_injections: running.effective_injections,
        // BTreeSet iteration restores submission order, keeping the
        // details deterministic across worker counts.
        hazard_details: running
            .hazardous_indices
            .iter()
            .map(|&i| {
                let (index, spec) = picks[i as usize];
                (suite.scenarios[index].id, spec.window.scene, spec.kind.target_name())
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_fault::FaultKind;

    #[test]
    fn small_random_campaign_mostly_safe() {
        let suite = ScenarioSuite::generate(8, 42);
        let config = RandomCampaignConfig { runs: 60, seed: 1, workers: 8 };
        let stats =
            random_space_campaign(&SimConfig::default(), &suite, &FaultSpace::default(), &config);
        assert_eq!(stats.runs, 60);
        assert_eq!(stats.safe + stats.hazards + stats.collisions, 60);
        // The paper's headline: random injections essentially never
        // produce hazards.
        assert!(stats.hazard_rate() < 0.1, "hazard rate {}", stats.hazard_rate());
        assert!(stats.effective_injections > 30);
    }

    #[test]
    fn campaign_is_reproducible() {
        let suite = ScenarioSuite::generate(4, 42);
        let config = RandomCampaignConfig { runs: 20, seed: 9, workers: 4 };
        let space = FaultSpace::default();
        let a = random_space_campaign(&SimConfig::default(), &suite, &space, &config);
        let b = random_space_campaign(&SimConfig::default(), &suite, &space, &config);
        assert_eq!(a.safe, b.safe);
        assert_eq!(a.hazards, b.hazards);
    }

    #[test]
    fn module_fault_spaces_sample_and_run() {
        // A space of only module-level faults (hang / freeze / clear)
        // exercises the non-scalar half of the FaultSpace API end to end.
        let space = FaultSpace {
            scalars: drivefi_fault::CorruptionGrid::new(Vec::new(), Vec::new()),
            modules: vec![
                FaultKind::ClearWorldModel,
                FaultKind::FreezeWorldModel,
                FaultKind::ModuleHang { stage: drivefi_ads::Stage::Planning },
            ],
            first_scene: 20,
            tail_margin: 40,
            window_scenes: 4,
        };
        let suite = ScenarioSuite::generate(4, 42);
        let config = RandomCampaignConfig { runs: 12, seed: 5, workers: 4 };
        let stats = random_space_campaign(&SimConfig::default(), &suite, &space, &config);
        assert_eq!(stats.runs, 12);
        assert!(stats.effective_injections > 0, "module faults never landed");
        for (_, scene, target) in &stats.hazard_details {
            assert!(*scene >= 20);
            assert!(target.contains('.'));
        }
    }

    #[test]
    fn picks_are_a_pure_function_of_the_seed() {
        let suite = ScenarioSuite::generate(4, 42);
        let space = FaultSpace::default();
        let config = RandomCampaignConfig { runs: 30, seed: 77, workers: 2 };
        let a = random_fault_picks(&suite, &space, &config);
        let b = random_fault_picks(&suite, &space, &config);
        assert_eq!(a, b);
        for &(index, spec) in &a {
            let scene_count = suite.scenarios[index].scene_count() as u64;
            assert!(space.scene_range(scene_count).contains(&spec.window.scene));
        }
    }
}
