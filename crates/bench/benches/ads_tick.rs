//! ADS tick microbenchmark with a per-stage breakdown.
//!
//! Measures the full closed-loop base tick (sense → localize → perceive
//! → plan → control → dynamics → world) in ticks per second on the
//! scalar path, then prints and emits where the tick time goes using
//! the `drivefi_ads::profiler` stage accumulators. The breakdown rows
//! land on the `DRIVEFI_BENCH_JSON` channel under group
//! `ads_tick_profile` alongside the bench's own `ads_tick` rows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use drivefi_ads::profiler;
use drivefi_sim::{SimConfig, Simulation};
use drivefi_world::scenario::ScenarioConfig;
use std::hint::black_box;

const JOBS: u64 = 8;

fn scenarios() -> Vec<ScenarioConfig> {
    (0..JOBS)
        .map(|i| {
            let mut s = ScenarioConfig::lead_vehicle_cruise(i);
            s.duration = 4.0;
            s
        })
        .collect()
}

fn bench_ads_tick(c: &mut Criterion) {
    // This bench exists to attribute tick time: switch the stage
    // profiler on whatever the environment says.
    drivefi_obs::force_enabled(true);

    let mut group = c.benchmark_group("ads_tick");
    group.sample_size(10);

    let config = SimConfig::default();
    let scenarios = scenarios();
    let ticks =
        JOBS * scenarios[0].scene_count() as u64 * drivefi_sim::simulation::BASE_TICKS_PER_SCENE;
    group.throughput(Throughput::Elements(ticks));

    group.bench_function("full_tick", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for scenario in &scenarios {
                let mut sim = Simulation::new(config, black_box(scenario));
                acc ^= sim.run().scenes;
            }
            black_box(acc)
        })
    });

    group.finish();

    // Per-stage attribution across everything the measurement loop ran.
    let report = profiler::report();
    let total: u64 = report.iter().map(|r| r.total_ns).sum();
    if total > 0 {
        println!("\nads_tick stage breakdown (share of profiled time):");
        for row in report.iter().filter(|r| r.samples > 0) {
            println!(
                "  {:>12}  {:>6.1}%  {:>7} ns/probe",
                row.phase.name(),
                100.0 * row.total_ns as f64 / total as f64,
                row.mean_ns(),
            );
        }
    }
    profiler::emit_json("ads_tick_profile");
}

criterion_group!(benches, bench_ads_tick);
criterion_main!(benches);
