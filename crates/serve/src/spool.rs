//! The submission protocol: atomic renames in, atomic renames out.
//!
//! A serve root has two directories:
//!
//! ```text
//! root/spool/<id>.toml          submitted plans, waiting to be claimed
//! root/campaigns/<id>/plan.toml claimed plans, owned by the daemon
//! ```
//!
//! [`submit_plan`] validates the plan *client-side* (a typo'd plan
//! fails at submission, not minutes later inside the daemon's log),
//! canonicalizes it, writes it to a dot-prefixed temp file in the
//! spool, and renames it into place — so the daemon only ever sees
//! complete plan files. [`claim_submissions`] claims a spooled plan by
//! renaming it into a fresh campaign directory; rename is atomic and
//! fails for every process but one, so two daemons pointed at the same
//! root never both run one submission.
//!
//! Canonicalization matters for one selection kind: `source = "files"`
//! scenario specs are resolved relative to the *submitter's* plan
//! location, which stops existing once the plan moves into the spool.
//! Submission therefore inlines the loaded specs (`source = "inline"`),
//! which [`drivefi_plan::campaign_fingerprint`] already treats as the
//! same campaign identity.

use crate::ServeError;
use drivefi_plan::{emit_campaign_plan, CampaignPlan, ScenarioSelection};
use std::path::{Path, PathBuf};

/// Spool directory name under a serve root.
pub const SPOOL_DIR: &str = "spool";
/// Claimed-campaigns directory name under a serve root.
pub const CAMPAIGNS_DIR: &str = "campaigns";
/// Claimed plan file name inside a campaign directory.
pub const PLAN_FILE: &str = "plan.toml";

fn io_err(doing: &str, path: &Path, e: std::io::Error) -> ServeError {
    ServeError::new(format!("{doing} {}: {e}", path.display()))
}

/// A campaign id usable as a directory name: the plan name with every
/// run of non-`[a-z0-9_-]` characters collapsed to one `-`.
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            out.push(c);
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    let trimmed = out.trim_matches('-');
    if trimmed.is_empty() {
        "campaign".into()
    } else {
        trimmed.into()
    }
}

/// True when `id` is already taken, as a spooled submission or a
/// claimed campaign.
fn id_taken(root: &Path, id: &str) -> bool {
    root.join(SPOOL_DIR).join(format!("{id}.toml")).exists()
        || root.join(CAMPAIGNS_DIR).join(id).exists()
}

/// The first free id derived from `base`: `base`, then `base-2`,
/// `base-3`, …
fn free_id(root: &Path, base: &str) -> String {
    if !id_taken(root, base) {
        return base.to_string();
    }
    for n in 2.. {
        let id = format!("{base}-{n}");
        if !id_taken(root, &id) {
            return id;
        }
    }
    unreachable!("some suffix is always free")
}

/// Submits the plan at `plan_path` to the serve root: validates it,
/// canonicalizes `source = "files"` scenarios to inline specs, and
/// atomically places it in `root/spool/` under an id derived from the
/// plan's name. Returns the id.
///
/// # Errors
///
/// Returns a [`ServeError`] when the plan fails to parse or validate,
/// or on spool I/O failure.
pub fn submit_plan(root: &Path, plan_path: &Path) -> Result<String, ServeError> {
    let mut plan = CampaignPlan::load(plan_path)?;
    // The plan file is about to move; inline anything resolved relative
    // to its current location. Identity is unchanged: the fingerprint
    // already canonicalizes `files` to `inline`.
    if let ScenarioSelection::Files { specs, count, seed, .. } = &plan.scenarios {
        plan.scenarios =
            ScenarioSelection::Inline { specs: specs.clone(), count: *count, seed: *seed };
    }

    let spool = root.join(SPOOL_DIR);
    std::fs::create_dir_all(&spool).map_err(|e| io_err("creating", &spool, e))?;
    let id = free_id(root, &slug(&plan.name));

    // replace_file writes a dot-prefixed temp file first: the claim scan
    // skips dotfiles, so a half-written submission is never claimed.
    let dest = spool.join(format!("{id}.toml"));
    drivefi_store::replace_file(&dest, emit_campaign_plan(&plan).as_bytes())
        .map_err(|e| io_err("spooling", &dest, e))?;
    Ok(id)
}

/// Claims every complete submission in `root/spool/`, oldest id first:
/// each is renamed into a fresh `root/campaigns/<id>/plan.toml`.
/// Returns the claimed campaign directories.
///
/// A submission that vanishes mid-claim (another daemon won the rename)
/// is skipped, not an error.
///
/// # Errors
///
/// Returns a [`ServeError`] on directory I/O failure.
pub fn claim_submissions(root: &Path) -> Result<Vec<PathBuf>, ServeError> {
    let spool = root.join(SPOOL_DIR);
    let mut names: Vec<String> = match std::fs::read_dir(&spool) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| !n.starts_with('.') && n.ends_with(".toml"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("reading", &spool, e)),
    };
    names.sort();

    let mut claimed = Vec::new();
    for name in names {
        let stem = name.trim_end_matches(".toml");
        // The submitter reserved the id against campaigns/ at spool
        // time, but an identically-named plan may have been submitted
        // again after the first was claimed — re-derive a free dir.
        let mut id = stem.to_string();
        let campaigns = root.join(CAMPAIGNS_DIR);
        if campaigns.join(&id).exists() {
            for n in 2.. {
                let next = format!("{stem}-{n}");
                if !campaigns.join(&next).exists() {
                    id = next;
                    break;
                }
            }
        }
        let dir = campaigns.join(&id);
        std::fs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, e))?;
        match std::fs::rename(spool.join(&name), dir.join(PLAN_FILE)) {
            Ok(()) => claimed.push(dir),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Raced another daemon; it owns the plan now. Only
                // remove the directory we just made if the race left it
                // empty — never a claimed campaign.
                std::fs::remove_dir(&dir).ok();
            }
            Err(e) => return Err(io_err("claiming", &dir, e)),
        }
    }
    Ok(claimed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drivefi-spool-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_plan(dir: &Path, name: &str) -> PathBuf {
        let path = dir.join("submitted.toml");
        std::fs::write(
            &path,
            format!(
                "name = \"{name}\"\n\n[campaign]\nkind = \"random\"\nruns = 4\nseed = 9\n\n\
                 [scenarios]\nsource = \"paper\"\ncount = 2\nseed = 1\n"
            ),
        )
        .unwrap();
        path
    }

    #[test]
    fn submit_then_claim_round_trips_the_plan() {
        let root = temp_root("roundtrip");
        let plan_path = write_plan(&root, "My Campaign!");
        let original = CampaignPlan::load(&plan_path).unwrap();

        let id = submit_plan(&root, &plan_path).unwrap();
        assert_eq!(id, "my-campaign");
        assert!(root.join(SPOOL_DIR).join("my-campaign.toml").is_file());

        let claimed = claim_submissions(&root).unwrap();
        assert_eq!(claimed, vec![root.join(CAMPAIGNS_DIR).join("my-campaign")]);
        assert!(!root.join(SPOOL_DIR).join("my-campaign.toml").exists());

        let moved = CampaignPlan::load(claimed[0].join(PLAN_FILE)).unwrap();
        assert_eq!(moved, original);
        // Claiming again finds nothing.
        assert!(claim_submissions(&root).unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn duplicate_names_get_fresh_ids() {
        let root = temp_root("dup");
        let plan_path = write_plan(&root, "sweep");
        assert_eq!(submit_plan(&root, &plan_path).unwrap(), "sweep");
        assert_eq!(submit_plan(&root, &plan_path).unwrap(), "sweep-2");
        claim_submissions(&root).unwrap();
        // A third submission after both were claimed still avoids the
        // claimed campaign dirs.
        assert_eq!(submit_plan(&root, &plan_path).unwrap(), "sweep-3");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn invalid_plans_are_rejected_at_submission() {
        let root = temp_root("invalid");
        let path = root.join("bad.toml");
        std::fs::write(&path, "name = \"x\"\n[campaign]\nkind = \"sideways\"\n").unwrap();
        let err = submit_plan(&root, &path).unwrap_err();
        assert!(err.to_string().contains("sideways"), "got: {err}");
        // Nothing reached the spool.
        assert!(claim_submissions(&root).unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dotfiles_and_foreign_files_are_never_claimed() {
        let root = temp_root("dotfiles");
        let spool = root.join(SPOOL_DIR);
        std::fs::create_dir_all(&spool).unwrap();
        std::fs::write(spool.join(".half-written.tmp.1"), "name =").unwrap();
        std::fs::write(spool.join("notes.txt"), "not a plan").unwrap();
        assert!(claim_submissions(&root).unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }
}
