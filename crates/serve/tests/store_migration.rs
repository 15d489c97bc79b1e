//! Disk-cache migration contract of the fabric store.
//!
//! Store entries are `bvl_snap` frames of a `RunResult`. The store must
//! cope with entries from interrupted or hostile writers, from other
//! format versions, and with the JSON files of the older entry format.
//! The contract is one-sided: anything that is not a complete
//! current-version frame is a **miss** (the point re-simulates), never an
//! error and never a panic. Pinned here:
//!
//! * a truncated frame → miss;
//! * a bit-flipped frame (checksum mismatch) → miss;
//! * a frame with another `SNAP_VERSION` → miss;
//! * a validly checksummed frame with duplicate stats paths (would panic
//!   `StatsSnapshot::from_entries` if forwarded) → miss;
//! * a leftover legacy `<key>.json` with no current entry → miss;
//! * and the fabric daemon re-simulates over such an entry instead of
//!   failing the submission or serving garbage.

use bvl_obs::StatsSnapshot;
use bvl_serve::{Client, Daemon, DaemonConfig, PointSpec, ResultStore, WorkloadSpec};
use bvl_sim::{RunResult, SimParams, SystemKind};
use bvl_snap::{SnapError, SNAP_VERSION};
use bvl_workloads::Scale;
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-migrate-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A result with two stats paths of equal length, so the second can be
/// rewritten into a duplicate of the first without moving any bytes.
fn probe_result() -> RunResult {
    RunResult {
        wall_ns: 123.5,
        uncore_cycles: 42,
        fetch_groups: 7,
        stats: StatsSnapshot::from_entries(vec![("sys.a".into(), 1), ("sys.b".into(), 2)]),
        ..RunResult::default()
    }
}

/// Recomputes the trailing FNV-1a checksum of a frame whose header or
/// payload was edited, so only the edit — not the checksum — can make
/// the frame unreadable.
fn reseal(mut blob: Vec<u8>) -> Vec<u8> {
    let body = blob.len() - 8;
    let sum = bvl_snap::fnv1a(&blob[..body]);
    blob[body..].copy_from_slice(&sum.to_le_bytes());
    blob
}

/// What the older JSON entry format wrote for a result.
const LEGACY_JSON: &str = r#"{
  "wall_ns": 123.5,
  "uncore_cycles": 42,
  "big": null,
  "littles": [],
  "lanes": [],
  "fetch_groups": 7,
  "mem": {"ifetch_reqs": 1, "data_reqs": 2, "l2_reqs": 3, "dve_reqs": 4, "vmu_reqs": 5, "coherence_msgs": 6, "line_migrations": 7},
  "runtime": null,
  "stats": [["sys.mem.data_reqs", 2]],
  "sampling": null
}"#;

fn plant(store: &ResultStore, key: &str, bytes: &[u8]) {
    let path = store.result_path(key);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, bytes).unwrap();
}

#[test]
fn legacy_and_corrupt_entries_decode_as_misses_not_errors() {
    let dir = scratch("entries");
    let store = ResultStore::new(&dir);
    let key = "probe";

    // Control: the store's own entry decodes. This pins the misses below
    // on the damage done to these very bytes.
    store.store(key, &probe_result());
    let good = fs::read(store.result_path(key)).expect("entry written");
    assert_eq!(store.load(key), Some(probe_result()));

    // Truncated frames, from empty to one byte short.
    for len in [0, 4, 8, 16, good.len() / 2, good.len() - 1] {
        plant(&store, key, &good[..len]);
        assert!(
            store.load(key).is_none(),
            "{len}-byte truncation must be a miss"
        );
    }

    // One flipped bit anywhere in the frame.
    for i in [0, 5, 12, good.len() / 2, good.len() - 1] {
        let mut flipped = good.clone();
        flipped[i] ^= 0x10;
        plant(&store, key, &flipped);
        assert!(
            store.load(key).is_none(),
            "bit flip at byte {i} must be a miss"
        );
    }

    // Another format version, with a valid checksum.
    let mut foreign = good.clone();
    foreign[4..8].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
    let foreign = reseal(foreign);
    assert!(matches!(
        bvl_snap::from_framed::<RunResult>(&foreign),
        Err(SnapError::VersionMismatch { .. })
    ));
    plant(&store, key, &foreign);
    assert!(
        store.load(key).is_none(),
        "foreign-version frame must be a miss"
    );

    // A validly checksummed frame whose stats hold one path twice.
    // Forwarding that into `StatsSnapshot::from_entries` would panic.
    let at = good
        .windows(5)
        .position(|w| w == b"sys.b")
        .expect("the second stats path is in the payload");
    let mut dup = good.clone();
    dup[at..at + 5].copy_from_slice(b"sys.a");
    let dup = reseal(dup);
    match bvl_snap::from_framed::<RunResult>(&dup) {
        Err(SnapError::Corrupt { what }) => assert!(what.contains("twice"), "{what}"),
        other => panic!("duplicate stats path decoded as {other:?}"),
    }
    plant(&store, key, &dup);
    assert!(
        store.load(key).is_none(),
        "duplicate stats paths must be a miss"
    );

    // A legacy JSON entry with no current entry beside it.
    fs::remove_file(store.result_path(key)).unwrap();
    fs::write(dir.join(format!("{key}.json")), LEGACY_JSON).unwrap();
    assert!(
        store.load(key).is_none(),
        "legacy JSON entry must be a miss"
    );

    // And a fresh write-back round-trips, proving the store itself is
    // healthy after all that.
    let result = RunResult::default();
    store.store(key, &result);
    assert_eq!(store.load(key), Some(result));

    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn fabric_daemon_resimulates_over_a_legacy_entry() {
    let dir = scratch("fabric");
    let spec = PointSpec {
        system: SystemKind::B1,
        workload_key: "vvadd@tiny".into(),
        workload: WorkloadSpec::Named {
            name: "vvadd".into(),
            scale: Scale::tiny(),
        },
        params: SimParams::default(),
    };
    let store = ResultStore::new(&dir);
    // The submitted point's key holds an entry of another format
    // version, next to a legacy JSON entry for the same key.
    store.store(&spec.key(), &probe_result());
    let mut foreign = fs::read(store.result_path(&spec.key())).unwrap();
    foreign[4..8].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
    plant(&store, &spec.key(), &reseal(foreign));
    fs::write(dir.join(format!("{}.json", spec.key())), LEGACY_JSON).unwrap();

    let daemon = Daemon::start(DaemonConfig::threads_only(1, &dir)).expect("daemon");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let served = client
        .run_points(std::slice::from_ref(&spec))
        .expect("served point");
    assert!(
        !served[0].cache_hit,
        "a legacy entry must not be served as a cache hit"
    );

    let s = daemon.stats();
    assert_eq!(s.disk_hits, 0, "legacy entry counted as a disk hit: {s:?}");
    assert_eq!(s.executed, 1, "the point must re-simulate: {s:?}");
    assert_eq!(
        s.failed, 0,
        "a legacy entry must never fail the point: {s:?}"
    );
    daemon.shutdown();

    // The re-simulation overwrote the foreign entry with the current
    // version, which now *does* load.
    let migrated = store.load(&spec.key());
    assert_eq!(migrated.as_ref(), Some(&served[0].result));

    fs::remove_dir_all(&dir).expect("cleanup");
}
