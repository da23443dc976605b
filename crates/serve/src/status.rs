//! Live per-campaign progress: `status.toml`, rewritten atomically
//! after every scheduling slice.
//!
//! The status file is deliberately *derived* state — everything in it
//! is recomputed from the campaign's store on the next slice, so a
//! stale or deleted status file costs nothing but a moment of blank
//! progress. The one exception is `state = "failed"`: the daemon
//! trusts a persisted failure across restarts (re-running a plan that
//! failed deterministically would fail it again forever); delete the
//! status file to retry a campaign after fixing the cause.

use crate::ServeError;
use drivefi_plan::toml::{emit_document, parse_document, Map, Toml};
use std::path::Path;

/// Status file name inside a campaign directory.
pub const STATUS_FILE: &str = "status.toml";

/// Where a campaign is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Claimed, no slice granted yet.
    Queued,
    /// Receiving scheduling slices.
    Running,
    /// Final report written and complete.
    Done,
    /// The plan errored; see the `error` field.
    Failed,
}

impl CampaignState {
    /// Stable state name, as written in status files.
    pub fn name(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Failed => "failed",
        }
    }

    fn parse(name: &str) -> Result<Self, ServeError> {
        match name {
            "queued" => Ok(CampaignState::Queued),
            "running" => Ok(CampaignState::Running),
            "done" => Ok(CampaignState::Done),
            "failed" => Ok(CampaignState::Failed),
            other => Err(ServeError::new(format!(
                "unknown campaign state `{other}` (queued, running, done, failed)"
            ))),
        }
    }
}

/// One campaign's live progress, as persisted in [`STATUS_FILE`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStatus {
    /// Plan name.
    pub name: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Campaign kind name (`"random"`, `"mine"`, …).
    pub kind: String,
    /// Stage the progress counters describe: `"main"` for single-stage
    /// kinds; `"golden"` then the last stage store's name for pipelines
    /// (`"validate"`, `"sweep"`, or the newest `"round-NNN"`).
    pub stage: String,
    /// Jobs persisted in the current stage's store.
    pub done: u64,
    /// Total jobs of the current stage.
    pub total: u64,
    /// Safe outcomes among `done`.
    pub safe: u64,
    /// Non-collision hazards among `done`.
    pub hazards: u64,
    /// Collisions among `done`.
    pub collisions: u64,
    /// Scheduling slices this campaign has been granted (across daemon
    /// restarts).
    pub slices: u64,
    /// Estimated seconds to stage completion at the observed rate, once
    /// one is observable.
    pub eta_seconds: Option<u64>,
    /// Observed completion rate in milli-jobs per second (integer so the
    /// TOML subset can carry it). Persisted so a restarted daemon shows
    /// a sane ETA from its very first slice instead of a blank one.
    pub rate_millijobs_per_s: Option<u64>,
    /// Unix milliseconds of the last status write — how `drivefi
    /// status` tells a live campaign from one whose daemon died.
    pub updated_ms: Option<u64>,
    /// What went wrong, when `state` is failed.
    pub error: Option<String>,
}

impl CampaignStatus {
    /// A freshly queued status for plan `name` of kind `kind`.
    pub fn queued(name: impl Into<String>, kind: impl Into<String>) -> Self {
        CampaignStatus {
            name: name.into(),
            state: CampaignState::Queued,
            kind: kind.into(),
            stage: "main".into(),
            done: 0,
            total: 0,
            safe: 0,
            hazards: 0,
            collisions: 0,
            slices: 0,
            eta_seconds: None,
            rate_millijobs_per_s: None,
            updated_ms: None,
            error: None,
        }
    }

    /// The status as a TOML document string.
    pub fn to_toml(&self) -> String {
        let mut root = Map::from([
            ("name".into(), Toml::Str(self.name.clone())),
            ("state".into(), Toml::Str(self.state.name().into())),
            ("kind".into(), Toml::Str(self.kind.clone())),
            ("stage".into(), Toml::Str(self.stage.clone())),
            ("done".into(), Toml::Int(self.done as i64)),
            ("total".into(), Toml::Int(self.total as i64)),
            ("safe".into(), Toml::Int(self.safe as i64)),
            ("hazards".into(), Toml::Int(self.hazards as i64)),
            ("collisions".into(), Toml::Int(self.collisions as i64)),
            ("slices".into(), Toml::Int(self.slices as i64)),
        ]);
        if let Some(eta) = self.eta_seconds {
            root.insert("eta_seconds".into(), Toml::Int(eta as i64));
        }
        if let Some(rate) = self.rate_millijobs_per_s {
            root.insert("rate_millijobs_per_s".into(), Toml::Int(rate as i64));
        }
        if let Some(updated) = self.updated_ms {
            root.insert("updated_ms".into(), Toml::Int(updated as i64));
        }
        if let Some(error) = &self.error {
            root.insert("error".into(), Toml::Str(error.clone()));
        }
        emit_document(&root)
    }

    /// Parses a status document produced by [`Self::to_toml`].
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on malformed TOML or a missing/mistyped
    /// field.
    pub fn parse(src: &str) -> Result<CampaignStatus, ServeError> {
        let doc = parse_document(src)?;
        let str_field = |key: &str| -> Result<String, ServeError> {
            match doc.get(key) {
                Some(Toml::Str(s)) => Ok(s.clone()),
                Some(other) => Err(ServeError::new(format!(
                    "`{key}`: expected string, got {}",
                    other.type_name()
                ))),
                None => Err(ServeError::new(format!("status is missing `{key}`"))),
            }
        };
        let int_field = |key: &str| -> Result<u64, ServeError> {
            match doc.get(key) {
                Some(Toml::Int(n)) if *n >= 0 => Ok(*n as u64),
                Some(other) => Err(ServeError::new(format!(
                    "`{key}`: expected a non-negative integer, got {}",
                    other.type_name()
                ))),
                None => Err(ServeError::new(format!("status is missing `{key}`"))),
            }
        };
        Ok(CampaignStatus {
            name: str_field("name")?,
            state: CampaignState::parse(&str_field("state")?)?,
            kind: str_field("kind")?,
            stage: str_field("stage")?,
            done: int_field("done")?,
            total: int_field("total")?,
            safe: int_field("safe")?,
            hazards: int_field("hazards")?,
            collisions: int_field("collisions")?,
            slices: int_field("slices")?,
            eta_seconds: match doc.get("eta_seconds") {
                None => None,
                Some(_) => Some(int_field("eta_seconds")?),
            },
            rate_millijobs_per_s: match doc.get("rate_millijobs_per_s") {
                None => None,
                Some(_) => Some(int_field("rate_millijobs_per_s")?),
            },
            updated_ms: match doc.get("updated_ms") {
                None => None,
                Some(_) => Some(int_field("updated_ms")?),
            },
            error: match doc.get("error") {
                None => None,
                Some(_) => Some(str_field("error")?),
            },
        })
    }

    /// Atomically writes the status into campaign directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on I/O failure.
    pub fn save(&self, dir: &Path) -> Result<(), ServeError> {
        let path = dir.join(STATUS_FILE);
        drivefi_store::replace_file(&path, self.to_toml().as_bytes())
            .map_err(|e| ServeError::new(format!("replacing {}: {e}", path.display())))
    }

    /// Loads the status from campaign directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the file is missing or malformed.
    pub fn load(dir: &Path) -> Result<CampaignStatus, ServeError> {
        let path = dir.join(STATUS_FILE);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| ServeError::new(format!("reading {}: {e}", path.display())))?;
        Self::parse(&src).map_err(|e| ServeError::new(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trips_through_toml() {
        let mut status = CampaignStatus::queued("tailgater sweep", "mine");
        status.state = CampaignState::Running;
        status.stage = "golden".into();
        status.done = 7;
        status.total = 24;
        status.safe = 5;
        status.hazards = 1;
        status.collisions = 1;
        status.slices = 3;
        status.eta_seconds = Some(42);
        status.rate_millijobs_per_s = Some(385);
        status.updated_ms = Some(1_700_000_000_123);
        assert_eq!(CampaignStatus::parse(&status.to_toml()).unwrap(), status);

        // Optional fields stay absent from the document when unset —
        // and a pre-observability document (no rate/updated fields)
        // still parses.
        let fresh = CampaignStatus::queued("x", "random");
        let doc = fresh.to_toml();
        assert!(!doc.contains("eta_seconds") && !doc.contains("error"), "doc:\n{doc}");
        assert!(
            !doc.contains("rate_millijobs_per_s") && !doc.contains("updated_ms"),
            "doc:\n{doc}"
        );
        assert_eq!(CampaignStatus::parse(&doc).unwrap(), fresh);

        let mut failed = fresh.clone();
        failed.state = CampaignState::Failed;
        failed.error = Some("store fingerprint mismatch".into());
        assert_eq!(CampaignStatus::parse(&failed.to_toml()).unwrap(), failed);
    }

    #[test]
    fn malformed_status_is_a_clear_error() {
        assert!(CampaignStatus::parse("state = \"running\"\n")
            .unwrap_err()
            .to_string()
            .contains("name"));
        let bad_state = "name = \"x\"\nstate = \"paused\"\nkind = \"random\"\nstage = \"main\"\n\
                         done = 0\ntotal = 0\nsafe = 0\nhazards = 0\ncollisions = 0\nslices = 0\n";
        assert!(CampaignStatus::parse(bad_state).unwrap_err().to_string().contains("paused"));
    }

    #[test]
    fn save_and_load_are_atomic_per_directory() {
        let dir = std::env::temp_dir().join(format!("drivefi-status-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let status = CampaignStatus::queued("atomic", "golden");
        status.save(&dir).unwrap();
        assert_eq!(CampaignStatus::load(&dir).unwrap(), status);
        // No temp litter left behind.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with('.'))
            .collect();
        assert!(litter.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
