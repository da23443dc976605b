//! The traced campaign: the pipeline `run_plan` runs for a store-backed
//! plan, rebuilt from the same public calls, with a span around each
//! call into a layer.
//!
//! Spans are recorded from here, outside the program, and kept in
//! memory until the run ends. A span's *self time* is its duration minus
//! its children's; summed by layer name, the self times plus the time no
//! span covers (`trace.unaccounted_s`) add up to the traced wall clock.
//! The only nested spans are the store appends, which run inside the
//! engine call that streams results into the store.
//!
//! The rebuilt pipeline must write the same `report.toml`, `jobs.csv`
//! and `rounds.toml` bytes as `run_plan`; the caller checks that before
//! using any number from here.

use crate::Json;
use drivefi_core::{
    candidate_record_metas, candidate_specs, golden_record_metas, pick_record_metas,
    random_fault_picks, AcquisitionConfig, BayesianMiner, CandidateScorer, MinerConfig,
    RandomCampaignConfig,
};
use drivefi_fault::FaultSpec;
use drivefi_plan::{
    campaign_fingerprint, round_subdir, AdaptiveProgress, CampaignKind, CampaignPlan,
    ControlVerdict, PlanReport, RoundSummary, CONTROL_FILE, GOLDEN_SUBDIR, ROUNDS_FILE,
    SWEEP_SUBDIR, VALIDATE_SUBDIR,
};
use drivefi_sim::{
    CampaignEngine, CampaignJob, CampaignResult, CampaignSink, SimConfig, Simulation,
};
use drivefi_store::{
    open_store, open_store_with_traces, read_store, read_traces, CampaignRecord, RecordMeta,
    StoreSink,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: layer name, start and end in seconds since the run
/// began, and the index of the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// A [`StoreSink`] that times every append and notes when the first
/// hazardous result arrived, in seconds since the run began.
struct TimedSink<'a> {
    inner: StoreSink<'a>,
    t0: Instant,
    appends: Vec<(f64, f64)>,
    first_hazard: Option<f64>,
}

impl CampaignSink for TimedSink<'_> {
    fn accept(&mut self, index: u64, result: CampaignResult) {
        let start = self.t0.elapsed().as_secs_f64();
        if result.report.outcome.is_hazardous() && self.first_hazard.is_none() {
            self.first_hazard = Some(start);
        }
        self.inner.accept(index, result);
        self.appends.push((start, self.t0.elapsed().as_secs_f64()));
    }
}

/// One store-backed batch of jobs, as `pipeline.rs` builds it.
struct Stage {
    name: String,
    traces: bool,
    sim: SimConfig,
    metas: Vec<RecordMeta>,
    jobs: Vec<CampaignJob>,
}

/// Everything a traced run measured.
#[derive(Default)]
pub struct TracedRun {
    pub spans: Vec<Span>,
    pub wall_s: f64,
    pub injected: u64,
    /// Each injection stage that ran, with the records it persisted:
    /// what the single-worker baseline re-runs and must equal.
    injections: Vec<(Stage, Vec<CampaignRecord>)>,
    effective: u64,
    hazardous: u64,
    first_hazard_s: Option<f64>,
    records: u64,
    candidates: u64,
    mined: u64,
    rounds: u64,
    jobs_to_first_hazard: u64,
}

/// The run in progress.
struct Run<'a> {
    plan: &'a CampaignPlan,
    fingerprint: u64,
    workers: usize,
    batch: Option<usize>,
    tracer: Tracer,
    /// The root span, open until [`Run::finish`].
    whole: usize,
    out: TracedRun,
}

/// Runs `plan` through the traced pipeline into `root`.
pub fn run(plan: &CampaignPlan, root: &Path) -> Result<TracedRun, String> {
    let workers = crate::workers(plan);
    let mut run = Run::new(plan, workers);
    let sim = plan.sim.sim_config();
    let suite = run.tracer.time("world.suite_build", || plan.scenarios.build_suite());
    if crate::has_control_point(&plan.kind) {
        let scenario = suite.scenarios.first().ok_or("the plan's suite is empty")?;
        let control_sim = SimConfig { record_trace: false, ..sim };
        let verdict = run.tracer.time("plan.control", || {
            let report = Simulation::new(control_sim, scenario).run();
            let verdict = ControlVerdict {
                scenario_id: scenario.id,
                scenario_name: scenario.name.clone(),
                outcome: report.outcome.to_string(),
                survivable: report.outcome.is_safe(),
            };
            write(root, CONTROL_FILE, &verdict.to_toml()).map(|()| verdict)
        })?;
        if plan.control.assert_survivable && !verdict.survivable {
            return Err(format!(
                "control job refused: scenario {} ended in {}",
                verdict.scenario_id, verdict.outcome
            ));
        }
    }

    let shared = suite.shared();
    let job = |id: usize, scenario: usize, spec: Option<FaultSpec>| CampaignJob {
        id: id as u64,
        scenario: Arc::clone(&shared[scenario]),
        faults: spec.map(|s| s.compile()).into_iter().collect(),
    };
    let sweep = |name: &str, candidates: &[(u32, FaultSpec)]| Stage {
        name: name.into(),
        traces: false,
        sim,
        metas: candidate_record_metas(&suite, candidates),
        jobs: candidates
            .iter()
            .enumerate()
            .map(|(id, &(scenario, spec))| job(id, scenario as usize, Some(spec)))
            .collect(),
    };

    if let CampaignKind::Random { runs } = plan.kind {
        let config = RandomCampaignConfig { runs, seed: plan.seed, workers };
        let picks = random_fault_picks(&suite, &plan.faults, &config);
        let stage = Stage {
            name: "main".into(),
            traces: false,
            sim,
            metas: pick_record_metas(&suite, &picks),
            jobs: picks.iter().enumerate().map(|(id, &(i, spec))| job(id, i, Some(spec))).collect(),
        };
        let records = run.inject(stage, root)?;
        run.report(root, records)?;
        return Ok(run.finish());
    }
    let (scene_stride, subdir) = match plan.kind {
        CampaignKind::Mine { scene_stride } => (scene_stride, VALIDATE_SUBDIR),
        CampaignKind::Exhaustive { scene_stride } => (scene_stride, SWEEP_SUBDIR),
        CampaignKind::Adaptive { scene_stride, .. } => (scene_stride, ""),
        _ => return Err(format!("kind `{}` is not a benchmark workload", plan.kind.name())),
    };

    // Golden collection, traces persisted, with its own sub-store report.
    let golden_dir = root.join(GOLDEN_SUBDIR);
    let golden = Stage {
        name: GOLDEN_SUBDIR.into(),
        traces: true,
        sim: SimConfig { record_trace: true, stop_on_collision: false, ..sim },
        metas: golden_record_metas(&suite),
        jobs: (0..shared.len()).map(|i| job(i, i, None)).collect(),
    };
    let records = run.stage(&golden, &golden_dir, "sim.golden")?;
    run.report(&golden_dir, records)?;

    // The fit, from the persisted traces.
    let (_, traces) = run
        .tracer
        .time("store.trace_read", || read_traces(&golden_dir))
        .map_err(|e| e.to_string())?;
    let config = MinerConfig { scene_stride, ..MinerConfig::default() };
    let miner = run
        .tracer
        .time("miner.fit", || BayesianMiner::fit(&traces, config))
        .map_err(|e| e.to_string())?;

    if let CampaignKind::Adaptive { adaptive, .. } = plan.kind {
        let predictions = run.tracer.time("miner.forecast", || miner.predict_deltas(&traces));
        run.out.candidates = predictions.len() as u64;
        let candidates: Vec<(u32, FaultSpec)> =
            predictions.iter().map(|p| (p.scenario_id, p.fault_spec())).collect();
        let mut scorer = run
            .tracer
            .time("acq.fit", || CandidateScorer::new(&predictions, AcquisitionConfig::default()));
        let mut explored = vec![false; candidates.len()];
        let mut hazard_indices: Vec<usize> = Vec::new();
        let mut all: Vec<CampaignRecord> = Vec::new();
        let mut rounds: Vec<RoundSummary> = Vec::new();
        let (mut base, mut cumulative) = (0u64, 0u64);
        let (mut converged, mut exhausted) = (false, false);
        for round in 0..adaptive.max_rounds {
            let span = run.tracer.enter("acq.select");
            let picks = scorer.select(&explored, adaptive.batch);
            let top = picks.first().map(|&top| (scorer.score(top), scorer.posterior_means()));
            run.tracer.exit(span);
            let Some((top_score, means_before)) = top else {
                exhausted = true;
                break;
            };
            let batch: Vec<(u32, FaultSpec)> = picks.iter().map(|&i| candidates[i]).collect();
            let name = round_subdir(round);
            let records = run.inject(sweep(&name, &batch), &root.join(&name))?;

            let span = run.tracer.enter("acq.select");
            let mut hazards = 0u64;
            for record in &records {
                let index = picks[record.job as usize];
                let hazardous = record.outcome.is_hazardous();
                scorer.observe(index, hazardous);
                explored[index] = true;
                if hazardous {
                    hazards += 1;
                    hazard_indices.push(index);
                }
                all.push(CampaignRecord { job: record.job + base, ..*record });
            }
            let max_shift = means_before
                .iter()
                .zip(scorer.posterior_means())
                .map(|(before, after)| (before - after).abs())
                .fold(0.0, f64::max);
            run.tracer.exit(span);
            cumulative += hazards;
            rounds.push(RoundSummary {
                round,
                jobs: records.len() as u64,
                hazards,
                cumulative_hazards: cumulative,
                top_score,
                max_shift,
            });
            base += records.len() as u64;
            if max_shift <= adaptive.converge_eps {
                converged = true;
                break;
            }
        }
        let first = all.iter().find(|r| r.outcome.is_hazardous()).map(|r| r.job + 1);
        let progress = AdaptiveProgress {
            rounds,
            candidates: candidates.len() as u64,
            converged,
            exhausted,
            jobs_to_first_hazard: first,
            exhaustive_upper_bound: hazard_indices.iter().min().map(|&i| i as u64 + 1),
            random_estimate: (candidates.len() + 1) as f64 / (cumulative + 1) as f64,
        };
        run.out.rounds = progress.rounds.len() as u64;
        run.out.jobs_to_first_hazard = first.unwrap_or(0);
        run.report(root, all)?;
        run.tracer.time("plan.report", || write(root, ROUNDS_FILE, &progress.to_toml()))?;
        return Ok(run.finish());
    }

    let candidates: Vec<(u32, FaultSpec)> = if let CampaignKind::Mine { .. } = plan.kind {
        let mined = run.tracer.time("miner.forecast", || miner.mine(&traces));
        run.out.mined = mined.len() as u64;
        mined.iter().map(|c| (c.scenario_id, c.fault_spec())).collect()
    } else {
        run.tracer.time("miner.forecast", || candidate_specs(&miner, &traces))
    };
    let records = run.inject(sweep(subdir, &candidates), &root.join(subdir))?;
    run.report(root, records)?;
    let mut out = run.finish();
    // Counted after the wall clock stops: `mine` keeps only F_crit.
    out.candidates = miner.candidate_count(&traces) as u64;
    Ok(out)
}

impl<'a> Run<'a> {
    /// Starts the clock and opens the root span.
    fn new(plan: &'a CampaignPlan, workers: usize) -> Self {
        let mut tracer = Tracer::new();
        let whole = tracer.enter("run");
        Run {
            plan,
            fingerprint: campaign_fingerprint(plan),
            workers,
            batch: plan.sim.batch,
            tracer,
            whole,
            out: TracedRun::default(),
        }
    }

    /// Opens the stage's store, streams the engine's results into it,
    /// seals it and reads every record back — `Pipeline::run_stage`.
    fn stage(
        &mut self,
        stage: &Stage,
        dir: &Path,
        layer: &'static str,
    ) -> Result<Vec<CampaignRecord>, String> {
        let output = self.plan.output.as_ref().ok_or("the plan has no [output] store")?;
        let open = if stage.traces { open_store_with_traces } else { open_store };
        let total = stage.metas.len() as u64;
        let fingerprint = self.fingerprint;
        let (mut writer, state) = self
            .tracer
            .time("store.open", || {
                open(dir, fingerprint, total, output.shards, output.checkpoint_every)
            })
            .map_err(|e| e.to_string())?;
        let engine = engine(stage.sim, self.workers, self.batch);
        let mut sink = TimedSink {
            inner: StoreSink::new(&mut writer, &stage.metas),
            t0: self.tracer.t0,
            appends: Vec::with_capacity(stage.jobs.len()),
            first_hazard: None,
        };
        let jobs = stage.jobs.clone();
        let span = self.tracer.enter(layer);
        engine.run_skipping_budget(jobs, |id| state.is_done(id), None, &mut sink);
        self.tracer.exit(span);
        let TimedSink { inner, appends, first_hazard, .. } = sink;
        for (start, end) in appends {
            self.tracer.spans.push(Span { name: "store.append", start, end, parent: Some(span) });
        }
        if layer == "sim.sweep" && self.out.first_hazard_s.is_none() {
            self.out.first_hazard_s = first_hazard;
        }
        let finish = self.tracer.enter("store.finish");
        let sealed = inner.finish().and_then(|()| writer.finish());
        self.tracer.exit(finish);
        sealed.map_err(|e| e.to_string())?;
        let (_, records) =
            self.tracer.time("store.read", || read_store(dir)).map_err(|e| e.to_string())?;
        self.out.records += records.len() as u64;
        if records.len() as u64 != total {
            return Err(format!(
                "stage `{}` persisted {} of {total} jobs",
                stage.name,
                records.len()
            ));
        }
        Ok(records)
    }

    /// Runs an injection stage and keeps it for the single-worker
    /// baseline.
    fn inject(&mut self, stage: Stage, dir: &Path) -> Result<Vec<CampaignRecord>, String> {
        let records = self.stage(&stage, dir, "sim.sweep")?;
        self.out.injected += records.len() as u64;
        self.out.effective += records.iter().filter(|r| r.injections > 0).count() as u64;
        self.out.hazardous += records.iter().filter(|r| r.outcome.is_hazardous()).count() as u64;
        self.out.injections.push((stage, records.clone()));
        Ok(records)
    }

    /// Builds and saves a stage's report — `PlanReport::new` + `save`.
    fn report(&mut self, dir: &Path, records: Vec<CampaignRecord>) -> Result<(), String> {
        let plan = self.plan;
        let fingerprint = self.fingerprint;
        self.tracer
            .time("plan.report", || {
                let total = records.len() as u64;
                PlanReport::new(plan.name.clone(), plan.kind.name(), fingerprint, total, records)
                    .save(dir)
            })
            .map_err(|e| e.to_string())
    }

    fn finish(mut self) -> TracedRun {
        self.tracer.exit(self.whole);
        let root = &self.tracer.spans[self.whole];
        self.out.wall_s = root.end - root.start;
        self.out.spans = self.tracer.spans;
        self.out
    }
}

/// The engine `run_plan` builds for a stage: the plan's worker count and
/// optional `[sim] batch` width.
fn engine(sim: SimConfig, workers: usize, batch: Option<usize>) -> CampaignEngine {
    let engine = CampaignEngine::new(sim).with_workers(workers);
    match batch {
        Some(batch) => engine.with_batch(batch),
        None => engine,
    }
}

fn write(dir: &Path, file: &str, content: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Re-runs every injection stage of `traced` on one worker into `root`,
/// checks its records equal the multi-worker run's, and returns the
/// seconds its engine calls took (store appends included).
pub fn single_worker(plan: &CampaignPlan, traced: &TracedRun, root: &Path) -> Result<f64, String> {
    let mut one = Run::new(plan, 1);
    for (i, (stage, records)) in traced.injections.iter().enumerate() {
        if one.stage(stage, &root.join(format!("stage-{i:03}")), "sim.sweep")? != *records {
            return Err(format!("stage `{}`: one worker persisted different records", stage.name));
        }
    }
    Ok(one.finish().span_total("sim.sweep"))
}

/// Percentile `q` (0..=1) of sorted `values`, nearest rank.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl TracedRun {
    /// Self time per layer name, in first-seen order.
    fn layer_self_s(&self) -> Vec<(&'static str, f64)> {
        let mut self_s: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_s[parent] -= span.end - span.start;
            }
        }
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_s) {
            if span.parent.is_none() {
                continue; // The root span: its self time is the unaccounted rest.
            }
            match layers.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => layers.push((span.name, own)),
            }
        }
        layers
    }

    /// Total duration of every span named `name`, children included.
    fn span_total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    /// Every per-layer metric, as a JSON object of numbers.
    pub fn metrics(&self, untraced_s: f64, single_worker_s: f64) -> Json {
        let layers = self.layer_self_s();
        let layer = |name: &str| layers.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, s)| s);
        let busy: f64 = layers.iter().map(|(_, s)| s).sum();
        let mut appends: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == "store.append")
            .map(|s| (s.end - s.start) * 1e6)
            .collect();
        appends.sort_by(f64::total_cmp);
        // The highest percentile with ten samples beyond it (the
        // median when there are too few samples for one).
        let tail_q = (1.0 - 10.0 / appends.len() as f64).max(0.5);

        let injection_s = self.span_total("sim.sweep");
        let us_per_job = ratio(injection_s * 1e6, self.injected as f64);
        let forecast_s = layer("miner.forecast");
        let forecasting = forecast_s > 0.0 && self.candidates > 0;

        let mut json = Json::new();
        for name in [
            "world.suite_build",
            "plan.control",
            "plan.report",
            "sim.golden",
            "sim.sweep",
            "store.open",
            "store.append",
            "store.finish",
            "store.read",
            "store.trace_read",
            "miner.fit",
            "miner.forecast",
            "acq.fit",
            "acq.select",
        ] {
            json.num(&format!("{name}_s"), layer(name));
        }
        json.int("sim.jobs", self.injected)
            .num("sim.us_per_job", us_per_job)
            .num("sim.effective_ratio", ratio(self.effective as f64, self.injected as f64))
            .num("sim.hazard_yield", ratio(self.hazardous as f64, self.injected as f64))
            .num("sim.first_hazard_s", self.first_hazard_s.unwrap_or(0.0))
            .num("sim.scaling_2w", ratio(single_worker_s, injection_s))
            .num("store.append_p50_us", percentile(&appends, 0.5))
            .num("store.append_p99_us", percentile(&appends, 0.99))
            .num("store.append_tail_us", percentile(&appends, tail_q))
            .int("store.append_samples", appends.len() as u64)
            .int("store.records", self.records)
            .int("miner.candidates", self.candidates)
            .num(
                "miner.candidates_per_s",
                if forecasting { self.candidates as f64 / forecast_s } else { 0.0 },
            )
            .int("miner.mined", self.mined)
            .num(
                "miner.score_to_inject",
                if forecasting {
                    ratio(forecast_s / self.candidates as f64, us_per_job * 1e-6)
                } else {
                    0.0
                },
            )
            .int("acq.rounds", self.rounds)
            .int("acq.jobs_to_first_hazard", self.jobs_to_first_hazard)
            .num("trace.wall_s", self.wall_s)
            .num("trace.unaccounted_s", self.wall_s - busy)
            .num("trace.overhead", ratio(self.wall_s, untraced_s) - 1.0);
        json
    }
}
