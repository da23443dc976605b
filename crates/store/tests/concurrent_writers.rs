//! Competing writers against one store: the store lease keeps each
//! store directory to one live writer. A lock left by a crashed
//! (dead-pid) or wedged (expired-heartbeat) writer never blocks the
//! next one, while a live writer's lease refuses every second open
//! until it is dropped.

use drivefi_sim::Outcome;
use drivefi_store::{lease_path, open_store, read_store, CampaignRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Duration;

const FINGERPRINT: u64 = 0xFEED_FACE_CAFE_0001;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drivefi-concurrent-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic record every writer produces for `job`.
fn record(job: u64) -> CampaignRecord {
    CampaignRecord {
        job,
        scenario_id: (job % 7) as u32,
        scenario_seed: job.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        fault: None,
        outcome: match job % 3 {
            0 => Outcome::Safe,
            1 => Outcome::Hazard { scene: job % 50 + 1 },
            _ => Outcome::Collision { scene: job % 50 + 2, actor: 1 },
        },
        injections: job % 5,
        scenes: 100,
        min_delta_lon: job as f64 * 0.25,
        min_delta_lat: 1.0 / (job + 1) as f64,
    }
}

/// Serial single-writer reference store over `total` jobs.
fn write_reference(dir: &Path, total: u64, shards: u32) {
    let (mut writer, _) = open_store(dir, FINGERPRINT, total, shards, 8).unwrap();
    for job in 0..total {
        writer.append(&record(job)).unwrap();
    }
    let meta = writer.finish().unwrap();
    assert!(meta.complete);
}

/// Randomized lease takeover: a stale lock (dead pid, or an expired
/// heartbeat) never blocks a new writer, while a live lease always
/// refuses a second open.
#[test]
fn stale_leases_are_taken_over_and_live_ones_refuse() {
    let mut rng = StdRng::seed_from_u64(0x1EA5E);
    for case in 0..8u32 {
        let dir = temp_dir(&format!("lease-{case}"));
        let shards = rng.random_range(1..=4u32);
        let total = 10 * u64::from(shards);
        write_reference(&dir, total, shards);

        // Plant a stale lock: a dead-pid lock (pid u32::MAX is unused on
        // any real system) or an expired-heartbeat lock from a live pid.
        let path = lease_path(&dir);
        if rng.random::<bool>() {
            std::fs::write(&path, "owner = crashed\npid = 4294967295\n").unwrap();
        } else {
            std::fs::write(&path, format!("owner = wedged\npid = {}\n", std::process::id()))
                .unwrap();
            let old = std::time::SystemTime::now() - Duration::from_secs(3600);
            let file = std::fs::File::options().write(true).open(&path).unwrap();
            file.set_times(std::fs::FileTimes::new().set_modified(old)).unwrap();
        }

        // Takeover: the next writer opens despite the lock.
        let (writer, state) = open_store(&dir, FINGERPRINT, total, shards, 8).unwrap();
        assert_eq!(state.records(), total);
        let holder = std::fs::read_to_string(&path).unwrap();
        assert!(holder.starts_with("owner = pid-"), "case {case}: lock not retaken: {holder}");

        // While that writer lives, a second open is refused.
        let err = open_store(&dir, FINGERPRINT, total, shards, 8).unwrap_err();
        assert!(err.to_string().contains("leased by `pid-"), "case {case}: {err}");
        drop(writer);

        // Drop released the lease: the next writer opens and completes
        // the store, its records untouched.
        assert!(!path.exists(), "case {case}");
        let (writer, _) = open_store(&dir, FINGERPRINT, total, shards, 8).unwrap();
        assert!(writer.finish().unwrap().complete, "case {case}");
        let (_, records) = read_store(&dir).unwrap();
        assert_eq!(records, (0..total).map(record).collect::<Vec<_>>(), "case {case}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
