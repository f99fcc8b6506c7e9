//! Integration tests for the service-metrics layer: the grid driver's
//! registry accounting agrees with the store's own stats and never
//! perturbs results, and the atomic-write discipline for metric
//! artifacts leaves no torn or temporary files.

use cmpsim::core::store::ResultStore;
use cmpsim::{run_grid_resilient, GridCell, ResilienceOptions, SimLength, SystemConfig, Variant};
use cmpsim_harness::{metrics, Supervisor};
use std::sync::Arc;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cmpsim-metrics-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything registry-dependent lives in this one test: the registry is
/// process-global, so spreading assertions on counter deltas across
/// concurrently-running tests would race.
#[test]
fn grid_metrics_account_and_stay_inert() {
    let dir = temp_dir("grid");
    let base = SystemConfig::paper_default(2).with_seed(7);
    let len = SimLength { warmup: 1_000, measure: 4_000 };
    let specs = vec![
        cmpsim::workload("apsi").expect("known workload"),
        cmpsim::workload("mgrid").expect("known workload"),
    ];
    let variants = [Variant::Base, Variant::Prefetch];
    let cells = (specs.len() * variants.len()) as u64;
    let sweep = |store: &Arc<ResultStore>| -> Vec<GridCell> {
        let opts = ResilienceOptions {
            supervisor: Supervisor::with_threads(2),
            journal: None,
            store: Some(Arc::clone(store)),
        };
        run_grid_resilient(&specs, &base, &variants, len, &opts)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("grid resolves")
    };

    let before = metrics::global().snapshot();
    let cold_store: Arc<ResultStore> = ResultStore::open(&dir);
    let cold = sweep(&cold_store);
    let after_cold = metrics::global().snapshot();

    let d = |snap: &metrics::MetricsSnapshot, prev: &metrics::MetricsSnapshot, k: &str| {
        snap.counter(k).unwrap_or(0) - prev.counter(k).unwrap_or(0)
    };
    assert_eq!(d(&after_cold, &before, "grid_cells_computed"), cells);
    assert_eq!(d(&after_cold, &before, "grid_cells_cached"), 0);
    assert_eq!(d(&after_cold, &before, "store_published"), cells);
    assert_eq!(
        after_cold.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count)
            - before.histogram("grid_cell_compute_nanos").map_or(0, |h| h.count),
        cells,
        "the compute-latency histogram records exactly the computed cells"
    );

    // Warm pass through a fresh handle: all cache, and — the inertness
    // contract — bit-identical results to the cold pass.
    let warm_store: Arc<ResultStore> = ResultStore::open(&dir);
    let warm = sweep(&warm_store);
    let after_warm = metrics::global().snapshot();
    assert_eq!(d(&after_warm, &after_cold, "grid_cells_computed"), 0);
    assert_eq!(d(&after_warm, &after_cold, "grid_cells_cached"), cells);
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.workload, w.workload);
        assert_eq!(c.variant, w.variant);
        assert_eq!(c.result, w.result, "metrics recording must not perturb results");
    }

    // The registry agrees with the store's own counters for this handle.
    let stats = warm_store.stats();
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.hits, cells);
    assert!(warm_store.resident_bytes() > 0);
    assert_eq!(
        after_warm.gauge("store_resident_bytes"),
        Some(warm_store.resident_bytes()),
        "resident_bytes() refreshes the occupancy gauge"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `metrics::write_atomic` follows the store-header discipline: the
/// final file is complete, and no `.tmp` sibling survives.
#[test]
fn write_atomic_leaves_no_torn_artifacts() {
    let dir = temp_dir("atomic");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("metrics.prom");
    let body = "cmpsim_store_hits 42\ncmpsim_store_misses 7\n";
    metrics::write_atomic(&path, body).expect("atomic write");
    assert_eq!(std::fs::read_to_string(&path).expect("read back"), body);
    // Overwrite goes through the same tempfile + rename.
    metrics::write_atomic(&path, "cmpsim_store_hits 43\n").expect("atomic rewrite");
    assert_eq!(std::fs::read_to_string(&path).expect("read back"), "cmpsim_store_hits 43\n");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("list dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "tempfile survived: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flat-JSON snapshot line parses under the repo's own framing —
/// the exact contract the serve daemon's `{"metrics":1}` reply relies
/// on.
#[test]
fn snapshot_flat_json_roundtrips_through_repo_framing() {
    let snap = metrics::global().snapshot();
    let flat = snap.to_flat_json();
    let kvs = cmpsim::core::flatjson::parse_flat(&flat)
        .expect("snapshot line must be valid flat JSON");
    assert!(kvs.iter().any(|(k, v)| k == "metrics" && v.as_u64() == Some(1)));
}
