//! The store lease: one lock file that keeps a store directory to one
//! live writer at a time.
//!
//! A writer claims `lease.lock` beside the manifest with
//! `O_CREAT | O_EXCL` (so exactly one claimant wins), recording its
//! owner id and pid:
//!
//! ```text
//! out/run1/
//!   manifest.toml
//!   shard-000.log
//!   lease.lock      # owner = pid-4242 / pid = 4242
//! ```
//!
//! The file's mtime is the lease heartbeat: the holder refreshes it at
//! every checkpoint. A lease is **stale** — and may be taken over — when
//! its holder's pid is dead, or when the heartbeat is older than the
//! takeover timeout (the fallback for platforms without `/proc`, and
//! the bound on how long a wedged-but-alive writer can squat on the
//! store). Takeover is race-free without fcntl locks: the claimant
//! atomically renames the stale lock to a private name (exactly one
//! renamer succeeds), deletes it, and claims fresh with `create_new`.
//!
//! A kill -9'd writer leaves its lock behind with a dead pid, so a
//! restarting daemon reclaims it instantly; a cleanly dropped
//! [`LeaseSet`] removes its lock on the way out.

use crate::StoreError;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Heartbeat age past which a lease may be taken over even when the
/// holder pid cannot be proven dead. Writers heartbeat at every
/// checkpoint, so this only bites a writer that has gone a long time
/// without persisting anything.
pub const DEFAULT_LEASE_TIMEOUT: Duration = Duration::from_secs(120);

/// The lock-file path guarding the store at `dir`.
pub fn lease_path(dir: &Path) -> PathBuf {
    dir.join("lease.lock")
}

/// A default lease owner id for this process.
pub fn default_owner() -> String {
    format!("pid-{}", std::process::id())
}

/// What a lease lock file says about its holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Holder's self-declared owner id.
    pub owner: String,
    /// Holder's pid at claim time.
    pub pid: u32,
}

impl LeaseInfo {
    fn emit(&self) -> String {
        format!("owner = {}\npid = {}\n", self.owner, self.pid)
    }

    fn parse(src: &str) -> Option<LeaseInfo> {
        let mut owner = None;
        let mut pid = None;
        for line in src.lines() {
            let (key, value) = line.split_once('=')?;
            match key.trim() {
                "owner" => owner = Some(value.trim().to_string()),
                "pid" => pid = value.trim().parse().ok(),
                _ => return None,
            }
        }
        Some(LeaseInfo { owner: owner?, pid: pid? })
    }
}

/// Whether the pid is a live process: `Some(alive)` when `/proc` can
/// answer, `None` on platforms without it (staleness then falls back to
/// the heartbeat timeout alone).
fn pid_alive(pid: u32) -> Option<bool> {
    if !Path::new("/proc").is_dir() {
        return None;
    }
    Some(Path::new(&format!("/proc/{pid}")).exists())
}

/// Externally observable state of a store's lease lock, for status
/// displays and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseState {
    /// No lock file — no writer holds the store.
    Unheld,
    /// Held by a live writer (pid alive, heartbeat current).
    Live {
        /// Holder description, e.g. `` `pid-4242` (pid 4242), heartbeat 3s ago ``.
        holder: String,
    },
    /// A lock left behind by a dead or timed-out writer.
    Stale {
        /// Holder description of the departed writer.
        holder: String,
    },
}

/// Reports the lease state of the store at `dir`, by the rules
/// acquisition uses: a lock whose holder pid is provably dead, or whose
/// heartbeat is older than `timeout`, is stale. A read-only probe:
/// unlike [`LeaseSet::acquire`] it never claims, steals, or touches the
/// lock.
pub fn probe_lease(dir: &Path, timeout: Duration) -> LeaseState {
    let path = lease_path(dir);
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LeaseState::Unheld,
        // Unreadable lock: treat as held and let the mtime decide below.
        Err(_) => String::new(),
    };
    let age = std::fs::metadata(&path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok());
    let info = LeaseInfo::parse(&src);
    // A holder whose pid is provably dead is stale immediately — this is
    // what makes kill -9 + restart reclaim the store without waiting out
    // the timeout. Otherwise the heartbeat decides.
    let dead = info.as_ref().is_some_and(|info| pid_alive(info.pid) == Some(false));
    let holder = info.map_or_else(
        || "an unreadable holder".to_string(),
        |info| format!("`{}` (pid {})", info.owner, info.pid),
    );
    let holder = match age {
        Some(age) => format!("{holder}, heartbeat {}s ago", age.as_secs()),
        None => holder,
    };
    if dead || age.is_some_and(|age| age > timeout) {
        LeaseState::Stale { holder }
    } else {
        LeaseState::Live { holder }
    }
}

/// The lease one writer holds over a store directory. Acquired by
/// [`LeaseSet::acquire`]; heartbeated at every checkpoint; released
/// (lock file removed) by [`LeaseSet::release`] or on drop.
#[derive(Debug)]
pub struct LeaseSet {
    dir: PathBuf,
    owner: String,
    released: bool,
}

impl LeaseSet {
    /// Claims the lease on the store at `dir`, taking over a stale lock
    /// (dead holder pid, or heartbeat older than `timeout`) and refusing
    /// a fresh one.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] naming the live holder when the store is
    /// already leased, or on I/O failure.
    pub fn acquire(dir: &Path, owner: &str, timeout: Duration) -> Result<LeaseSet, StoreError> {
        let path = lease_path(dir);
        let info = LeaseInfo { owner: owner.to_string(), pid: std::process::id() };
        // Bounded retries: each loop either claims, steals a stale lock,
        // or observes a fresh holder and fails. Two claimants racing the
        // same stale lock need one extra pass, never more.
        for _ in 0..8 {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    use std::io::Write;
                    file.write_all(info.emit().as_bytes())
                        .map_err(|e| io_err("writing", &path, e))?;
                    return Ok(LeaseSet {
                        dir: dir.to_path_buf(),
                        owner: info.owner,
                        released: false,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match probe_lease(dir, timeout) {
                        LeaseState::Live { holder } => {
                            return Err(StoreError::new(format!(
                                "{} is leased by {holder} — another writer is active",
                                dir.display()
                            )));
                        }
                        // The holder released while we looked: claim again.
                        LeaseState::Unheld => {}
                        LeaseState::Stale { .. } => {
                            // Atomic steal: exactly one claimant wins the
                            // rename; the losers loop and re-examine.
                            let grave = dir.join(format!("lease.stale.{}", std::process::id()));
                            if std::fs::rename(&path, &grave).is_ok() {
                                let prev = std::fs::read_to_string(&grave)
                                    .ok()
                                    .and_then(|src| LeaseInfo::parse(&src));
                                std::fs::remove_file(&grave)
                                    .map_err(|e| io_err("removing", &grave, e))?;
                                drivefi_obs::emit_event(
                                    dir,
                                    "lease_takeover",
                                    &[
                                        (
                                            "from",
                                            drivefi_obs::Field::Str(prev.map_or_else(
                                                || "unreadable".to_string(),
                                                |p| p.owner,
                                            )),
                                        ),
                                        ("to", drivefi_obs::Field::Str(info.owner.clone())),
                                    ],
                                );
                            }
                        }
                    }
                }
                Err(e) => return Err(io_err("claiming", &path, e)),
            }
        }
        Err(StoreError::new(format!("{}: lease claim kept losing takeover races", dir.display())))
    }

    /// Refreshes the lease's heartbeat mtime (rewriting the lock content
    /// in place — a concurrent prober that catches the file mid-write
    /// falls back to the just-refreshed mtime).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn heartbeat(&self) -> Result<(), StoreError> {
        let path = lease_path(&self.dir);
        let info = LeaseInfo { owner: self.owner.clone(), pid: std::process::id() };
        std::fs::write(&path, info.emit()).map_err(|e| io_err("heartbeating", &path, e))
    }

    /// Removes the lock file. Idempotent; also runs on drop (best-effort
    /// there).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure.
    pub fn release(&mut self) -> Result<(), StoreError> {
        if self.released {
            return Ok(());
        }
        self.released = true;
        let path = lease_path(&self.dir);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("releasing", &path, e)),
        }
    }
}

impl Drop for LeaseSet {
    fn drop(&mut self) {
        self.release().ok();
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::new(format!("{what} lease {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drivefi-lease-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Backdates the lock's mtime by an hour.
    fn expire(dir: &Path) {
        let file = std::fs::OpenOptions::new().write(true).open(lease_path(dir)).unwrap();
        let past = std::time::SystemTime::now() - Duration::from_secs(3600);
        file.set_times(std::fs::FileTimes::new().set_modified(past)).unwrap();
    }

    #[test]
    fn live_lease_refuses_a_second_writer_until_dropped() {
        let dir = temp_dir("live");
        let a = LeaseSet::acquire(&dir, "writer-a", DEFAULT_LEASE_TIMEOUT).unwrap();
        assert!(matches!(probe_lease(&dir, DEFAULT_LEASE_TIMEOUT), LeaseState::Live { .. }));
        let err =
            LeaseSet::acquire(&dir, "writer-b", DEFAULT_LEASE_TIMEOUT).expect_err("store is held");
        assert!(err.to_string().contains("leased by `writer-a`"), "got: {err}");
        // The refused claim left a's lock in place.
        let src = std::fs::read_to_string(lease_path(&dir)).unwrap();
        assert!(src.contains("writer-a"), "lock rewritten by a refused claim: {src}");
        drop(a);
        // Dropping released the lock: the store is claimable again.
        assert_eq!(probe_lease(&dir, DEFAULT_LEASE_TIMEOUT), LeaseState::Unheld);
        LeaseSet::acquire(&dir, "writer-b", DEFAULT_LEASE_TIMEOUT).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_pid_lease_is_taken_over_immediately() {
        let dir = temp_dir("deadpid");
        // No real pid can reach u32::MAX (Linux pid_max caps at 2^22),
        // so this holder is provably dead.
        let corpse = LeaseInfo { owner: "crashed".into(), pid: u32::MAX };
        std::fs::write(lease_path(&dir), corpse.emit()).unwrap();
        assert!(matches!(probe_lease(&dir, DEFAULT_LEASE_TIMEOUT), LeaseState::Stale { .. }));
        let set = LeaseSet::acquire(&dir, "heir", DEFAULT_LEASE_TIMEOUT).unwrap();
        let src = std::fs::read_to_string(lease_path(&dir)).unwrap();
        assert!(src.contains("heir"), "takeover rewrote the lock: {src}");
        drop(set);
        assert!(!lease_path(&dir).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_heartbeat_is_taken_over_and_fresh_one_is_not() {
        let dir = temp_dir("heartbeat");
        let holder = LeaseInfo { owner: "slow".into(), pid: std::process::id() };
        std::fs::write(lease_path(&dir), holder.emit()).unwrap();
        // Live pid + fresh mtime: refused.
        let err = LeaseSet::acquire(&dir, "eager", DEFAULT_LEASE_TIMEOUT).expect_err("fresh lease");
        assert!(err.to_string().contains("slow"), "got: {err}");
        // Live pid but expired heartbeat: the timeout bounds how long a
        // wedged writer can squat.
        expire(&dir);
        LeaseSet::acquire(&dir, "eager", Duration::from_secs(60)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_refreshes_the_lock() {
        let dir = temp_dir("refresh");
        let set = LeaseSet::acquire(&dir, "steady", DEFAULT_LEASE_TIMEOUT).unwrap();
        expire(&dir);
        set.heartbeat().unwrap();
        let age = std::fs::metadata(lease_path(&dir)).unwrap().modified().unwrap().elapsed();
        assert!(age.unwrap() < Duration::from_secs(60), "heartbeat did not refresh");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparsable_lock_is_governed_by_its_mtime() {
        let dir = temp_dir("garbage");
        std::fs::write(lease_path(&dir), "???").unwrap();
        // Recent garbage: held (conservative — might be a mid-write
        // heartbeat).
        let err = LeaseSet::acquire(&dir, "x", DEFAULT_LEASE_TIMEOUT)
            .expect_err("recent unreadable lock");
        assert!(err.to_string().contains("unreadable"), "got: {err}");
        // Old garbage: stale.
        expire(&dir);
        LeaseSet::acquire(&dir, "x", Duration::from_secs(60)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
