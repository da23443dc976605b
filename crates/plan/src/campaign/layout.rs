//! The read side of a campaign's store layout: which stage stores a
//! plan's `[output]` dir holds, and which of them hold its final
//! records. The CLI, the serve daemon and the tests all read campaigns
//! through these two functions; the write path (`pipeline`, `adaptive`)
//! creates the same layout.
//!
//! ```text
//! random, golden     dir/                        (the store is the output dir)
//! mine               dir/golden/  dir/validate/
//! exhaustive         dir/golden/  dir/sweep/
//! adaptive           dir/golden/  dir/round-000/  dir/round-001/  …
//! ```

use super::{
    campaign_fingerprint, round_dirs, CampaignKind, CampaignPlan, GOLDEN_SUBDIR, SWEEP_SUBDIR,
    VALIDATE_SUBDIR,
};
use crate::report::PlanReport;
use crate::PlanError;
use drivefi_store::{read_store, MANIFEST_FILE};
use std::path::{Path, PathBuf};

/// Every stage store directory of the plan, golden first: `[dir]` for
/// single-stage kinds, `[golden, validate|sweep]` for mine and
/// exhaustive, and `golden` plus the `round-*` directories present on
/// disk for adaptive. A listed directory need not hold a store yet.
/// Empty for a plan without an `[output]` section.
pub fn stage_dirs(plan: &CampaignPlan) -> Vec<PathBuf> {
    let Some(output) = &plan.output else { return Vec::new() };
    let root = Path::new(&output.dir);
    let golden = root.join(GOLDEN_SUBDIR);
    match plan.kind {
        CampaignKind::Random { .. } | CampaignKind::Golden => vec![root.to_path_buf()],
        CampaignKind::Mine { .. } => vec![golden, root.join(VALIDATE_SUBDIR)],
        CampaignKind::Exhaustive { .. } => vec![golden, root.join(SWEEP_SUBDIR)],
        CampaignKind::Adaptive { .. } => std::iter::once(golden).chain(round_dirs(root)).collect(),
    }
}

/// A campaign's records as [`read_campaign`] found them on disk.
#[derive(Debug, Clone)]
pub struct CampaignRead {
    /// The campaign report over the final stores' records.
    pub report: PlanReport,
    /// The directory this report's `report.toml` belongs in: the output
    /// dir, or the golden stage on a golden fallback.
    pub report_dir: PathBuf,
    /// The first store read that holds fewer records than its jobs —
    /// `Some` exactly when the report is incomplete.
    pub short_store: Option<PathBuf>,
    /// True when no final store exists yet and the report covers the
    /// golden stage instead.
    pub golden_fallback: bool,
}

/// Reads the campaign's final records: the output dir for single-stage
/// kinds, the `validate/` or `sweep/` store for mine and exhaustive, and
/// every `round-*` store for adaptive, concatenated in round order with
/// each round's job ids shifted by the jobs of the rounds before it (the
/// numbering the acquisition loop reports). A staged campaign
/// interrupted before its first injection store exists falls back to its
/// golden stage. The report is byte-identical to the one the run itself
/// saved for the same stores.
///
/// # Errors
///
/// Returns a [`PlanError`] when the plan has no `[output]` section, no
/// store exists yet, a store is unreadable, or a store was created by a
/// different plan.
pub fn read_campaign(plan: &CampaignPlan) -> Result<CampaignRead, PlanError> {
    let Some(output) = &plan.output else {
        return Err(PlanError::new("the plan has no [output] store to read".into()));
    };
    let root = PathBuf::from(&output.dir);
    let mut stores = stage_dirs(plan);
    if plan.kind.is_staged() {
        stores.remove(0);
    }
    stores.retain(|dir| dir.join(MANIFEST_FILE).is_file());
    let golden = root.join(GOLDEN_SUBDIR);
    let golden_fallback =
        stores.is_empty() && plan.kind.is_staged() && golden.join(MANIFEST_FILE).is_file();
    let report_dir = if golden_fallback {
        stores.push(golden.clone());
        golden
    } else {
        root
    };
    if stores.is_empty() {
        return Err(PlanError::new(format!(
            "nothing to read: no campaign store under {}",
            report_dir.display()
        )));
    }

    let fingerprint = campaign_fingerprint(plan);
    let mut records = Vec::new();
    let mut total = 0u64;
    let mut short_store = None;
    for dir in stores {
        let (meta, stage_records) =
            read_store(&dir).map_err(|e| PlanError::new(format!("[output] store: {e}")))?;
        if meta.fingerprint != fingerprint {
            return Err(PlanError::new(format!(
                "store under {} was created by a different plan \
                 (fingerprint 0x{:016x}, plan is 0x{fingerprint:016x})",
                dir.display(),
                meta.fingerprint
            )));
        }
        if (stage_records.len() as u64) < meta.total_jobs && short_store.is_none() {
            short_store = Some(dir);
        }
        records.extend(stage_records.into_iter().map(|mut record| {
            record.job += total;
            record
        }));
        total += meta.total_jobs;
    }
    let report = PlanReport::new(plan.name.clone(), plan.kind.name(), fingerprint, total, records);
    Ok(CampaignRead { report, report_dir, short_store, golden_fallback })
}
