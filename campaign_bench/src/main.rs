//! Worker binary of the end-to-end campaign benchmark. `run.py` turns a
//! workload seed into plan files and runs this binary once per measured
//! campaign, so each campaign's peak memory is its own process's.
//!
//! ```text
//! campaign-bench run   <plan.toml>
//! campaign-bench trace <plan.toml>
//! ```
//!
//! `run` times plan set-up (parse, validate and suite build, repeated
//! [`SETUP_REPS`] times) and one untraced `run_plan` into the plan's
//! `[output]` dir, then prints one JSON line of counts, times and output
//! digests.
//!
//! `trace` runs the plan untraced into its `[output]` dir, then through
//! the traced pipeline (see [`traced`]) into `<dir>.traced`, checks that
//! the two runs wrote the same report bytes, re-runs the injection stage
//! on one worker into `<dir>.1w`, and prints one JSON line of per-layer
//! metrics.
//!
//! Both modes refuse to run while `DRIVEFI_OBS` or `DRIVEFI_PROFILE` is
//! set: those switches change the program being measured.

mod traced;

use drivefi_plan::{
    parse_campaign_plan, run_plan, CampaignKind, CampaignPlan, PlanReport, PlanResult, JOBS_FILE,
    REPORT_FILE, ROUNDS_FILE,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The files whose bytes define a campaign's result.
const RESULT_FILES: [&str; 3] = [REPORT_FILE, JOBS_FILE, ROUNDS_FILE];

/// Set-up (parse, validate, suite build) repetitions per campaign.
const SETUP_REPS: usize = 100;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        _ if ["DRIVEFI_OBS", "DRIVEFI_PROFILE"].iter().any(|v| std::env::var_os(v).is_some()) => {
            Err("DRIVEFI_OBS / DRIVEFI_PROFILE is set: unset both to measure the program".into())
        }
        ["run", plan] => run(Path::new(plan)),
        ["trace", plan] => trace(Path::new(plan)),
        _ => Err("usage: campaign-bench run <plan.toml> | trace <plan.toml>".into()),
    };
    match out {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            std::process::exit(1);
        }
    }
}

/// `run` mode: set-up times plus one untraced `run_plan`.
fn run(plan_path: &Path) -> Result<String, String> {
    let src = read(plan_path)?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let plan = parse_campaign_plan(&src).map_err(|e| e.to_string())?;
        let suite = plan.scenarios.build_suite();
        setup_s.push(start.elapsed().as_secs_f64());
        setup = Some((plan, std::hint::black_box(suite)));
    }
    let (plan, suite) = setup.expect("at least one set-up repetition");
    let dir = output_dir(&plan)?;

    let start = Instant::now();
    let report = persisted(run_plan(&plan).map_err(|e| e.to_string())?)?;
    let wall_s = start.elapsed().as_secs_f64();

    // Jobs simulated in every stage: the control point, the golden
    // survey (one job per scenario), and the persisted injection jobs.
    let control = u64::from(has_control_point(&plan.kind));
    let golden = if plan.kind.is_staged() { suite.scenarios.len() as u64 } else { 0 };
    let mut json = Json::new();
    json.num("wall_s", wall_s)
        .arr("setup_s", &setup_s)
        .int("jobs", control + golden + report.jobs.len() as u64)
        .int("injected", report.jobs.len() as u64)
        .int("hazards", report.hazards() + report.collisions())
        .int("suite", suite.scenarios.len() as u64)
        .int("batch", batch_width(&plan) as u64)
        .int("workers", workers(&plan) as u64)
        .raw("digests", &digests(&dir)?);
    Ok(json.finish())
}

/// `trace` mode: untraced reference, traced re-run, byte comparison,
/// single-worker baseline.
fn trace(plan_path: &Path) -> Result<String, String> {
    let plan = parse_campaign_plan(&read(plan_path)?).map_err(|e| e.to_string())?;
    let dir = output_dir(&plan)?;

    let start = Instant::now();
    let reference = persisted(run_plan(&plan).map_err(|e| e.to_string())?)?;
    let untraced_s = start.elapsed().as_secs_f64();

    let traced_dir = suffixed(&dir, "traced");
    let run = traced::run(&plan, &traced_dir)?;
    let mut mismatched = Vec::new();
    for file in RESULT_FILES {
        if read_opt(&dir.join(file))? != read_opt(&traced_dir.join(file))? {
            mismatched.push(file);
        }
    }
    if !mismatched.is_empty() {
        return Err(format!(
            "the traced run wrote different {} than run_plan: it measured another program",
            mismatched.join(", ")
        ));
    }
    if run.injected != reference.jobs.len() as u64 {
        return Err("traced run injected a different job count than run_plan".into());
    }

    let single = traced::single_worker(&plan, &run, &suffixed(&dir, "1w"))?;
    let mut json = Json::new();
    json.int("spans", run.spans.len() as u64)
        .int("hazards", reference.hazards() + reference.collisions())
        .int("workers", workers(&plan) as u64)
        .int("batch", batch_width(&plan) as u64)
        .raw("digests", &digests(&dir)?)
        .raw("metrics", &run.metrics(untraced_s, single).finish());
    Ok(json.finish())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn read_opt(path: &Path) -> Result<Option<Vec<u8>>, String> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

fn output_dir(plan: &CampaignPlan) -> Result<PathBuf, String> {
    plan.output
        .as_ref()
        .map(|o| PathBuf::from(&o.dir))
        .ok_or_else(|| "the plan has no [output] store".into())
}

/// `dir` with `.suffix` appended to its last component.
fn suffixed(dir: &Path, suffix: &str) -> PathBuf {
    let mut name = dir.as_os_str().to_owned();
    name.push(format!(".{suffix}"));
    PathBuf::from(name)
}

fn persisted(result: PlanResult) -> Result<PlanReport, String> {
    match result {
        PlanResult::Persisted(report) if report.complete() => Ok(report),
        PlanResult::Persisted(report) => {
            Err(format!("only {} of {} jobs persisted", report.jobs.len(), report.total_jobs))
        }
        other => Err(format!("expected a persisted report, got {other:?}")),
    }
}

/// Whether `run_plan` runs the unfaulted control job for this kind.
fn has_control_point(kind: &CampaignKind) -> bool {
    matches!(
        kind,
        CampaignKind::Random { .. } | CampaignKind::Mine { .. } | CampaignKind::Adaptive { .. }
    )
}

fn workers(plan: &CampaignPlan) -> usize {
    plan.workers.unwrap_or_else(drivefi_sim::default_workers)
}

fn batch_width(plan: &CampaignPlan) -> usize {
    plan.sim.batch.unwrap_or(drivefi_sim::DEFAULT_BATCH)
}

/// `{"file": "hex digest", ...}` over the result files present in `dir`.
fn digests(dir: &Path) -> Result<String, String> {
    let mut json = Json::new();
    for file in RESULT_FILES {
        if let Some(bytes) = read_opt(&dir.join(file))? {
            json.str(file, &format!("{:016x}", drivefi_store::fingerprint64(&bytes)));
        }
    }
    Ok(json.finish())
}

/// A one-line JSON object writer for the few value shapes printed here.
pub(crate) struct Json(String);

impl Json {
    pub(crate) fn new() -> Self {
        Json(String::from("{"))
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{key}\": ");
        &mut self.0
    }

    pub(crate) fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(self.key(key), "{value:?}");
        self
    }

    pub(crate) fn int(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let _ = write!(self.key(key), "\"{value}\"");
        self
    }

    fn arr(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        let _ = write!(self.key(key), "[{}]", items.join(", "));
        self
    }

    fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    pub(crate) fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.0);
        out.push('}');
        out
    }
}
