//! Golden-file tests for the figure JSON exports.
//!
//! Each test rebuilds a figure's rows on the tiny seeded benchmark
//! observation (`benchmark_dataset(30)` — 5 stations, deterministic
//! seed 42), serializes them with wall-clock values masked, and
//! compares byte-for-byte against the committed snapshot under
//! `tests/golden/`. Every modeled number is pinned exactly; only
//! host-timing cells are masked.
//!
//! Blessing: after an intentional change to the models or the export
//! format, regenerate the snapshots with
//!
//! ```text
//! IDG_BLESS=1 cargo test -p idg-bench --test golden
//! ```
//!
//! and commit the updated files with the change that motivated them.

use idg_bench::{
    bench_json, bench_row_value, benchmark_dataset, fig10_rows, fig12_rows, fig_json,
    fleet_bench_row, fleet_chaos_run, stream_bench_row, stream_degrid_bench_row, stream_degrid_run,
    stream_run, streamed_benchmark_dataset,
};
use idg_obs::validate_json;
use std::path::PathBuf;

/// Scale 30 → the 5-station miniature of the SKA1-low benchmark set.
const GOLDEN_SCALE: usize = 30;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the committed snapshot, or rewrite the
/// snapshot when `IDG_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    validate_json(actual).unwrap_or_else(|e| panic!("{name}: emitted JSON invalid: {e}"));
    let path = golden_path(name);
    if std::env::var_os("IDG_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             IDG_BLESS=1 cargo test -p idg-bench --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot; if the change is \
         intentional, re-bless with IDG_BLESS=1 cargo test -p idg-bench --test golden"
    );
}

#[test]
fn fig10_throughput_json_matches_golden_snapshot() {
    let ds = benchmark_dataset(GOLDEN_SCALE);
    let rows = fig10_rows(&ds);
    // the host row is a wall-clocked run: its masked cells prove the
    // wall-clock masking, the modeled rows pin the device models
    assert!(rows.iter().any(|r| r.wall_clock));
    assert!(rows.iter().filter(|r| !r.wall_clock).count() >= 3);
    check_golden(
        "fig10_throughput.json",
        &fig_json("fig10_throughput", &rows, true),
    );
}

#[test]
fn bench_pass_rows_json_matches_golden_snapshot() {
    // The one-shot BENCH_*.json `fleet` row is entirely modeled, so
    // all of its columns — including the degradation-step count its
    // injected OOM forces and the merged makespan, the one absolute pin
    // of the modeled fleet clock in the tree — are pinned exactly.
    let ds = benchmark_dataset(GOLDEN_SCALE);
    let fleet = fleet_chaos_run(&ds);
    for (pass, fleet_report) in [
        ("gridder", &fleet.gridding),
        ("degridder", &fleet.degridding),
    ] {
        let rows = vec![fleet_bench_row(GOLDEN_SCALE, fleet_report)];
        let masked = bench_json(pass, &rows, true);
        // the fleet row survives masking whole: its injected OOM must
        // register at least one ladder rung, and no rung may reach the
        // CPU-fallback floor (that would surface as failed jobs)
        let steps = bench_row_value(&masked, "fleet", GOLDEN_SCALE, "degradation_steps")
            .expect("fleet row carries degradation_steps");
        assert!(steps >= 1.0, "injected OOM took no ladder rung");
        assert!(bench_row_value(&masked, "fleet", GOLDEN_SCALE, "makespan_s").is_some());
        assert!(fleet_report.fallback_jobs.is_empty());
        check_golden(&format!("BENCH_{pass}.json"), &masked);
    }
}

#[test]
fn stream_bench_json_matches_golden_snapshot() {
    // The `stream` and `stream_degrid` rows are entirely modeled and
    // their backpressure metrics are closed forms of the configuration, so
    // every column is pinned exactly (their own snapshot file: the
    // one-shot BENCH_*.json goldens predate streaming and stay
    // untouched).
    let ds = streamed_benchmark_dataset(GOLDEN_SCALE);
    let report = stream_run(&ds);
    let degrid_report = stream_degrid_run(&ds);
    let rows = vec![
        stream_bench_row(GOLDEN_SCALE, &report),
        stream_degrid_bench_row(GOLDEN_SCALE, &degrid_report),
    ];
    let masked = bench_json("stream", &rows, true);
    for label in ["stream", "stream_degrid"] {
        let chunks = bench_row_value(&masked, label, GOLDEN_SCALE, "nr_chunks")
            .unwrap_or_else(|| panic!("{label} row carries nr_chunks"));
        assert!(chunks >= 2.0, "{label} bench must exercise chunking");
        let waits = bench_row_value(&masked, label, GOLDEN_SCALE, "backpressure_waits")
            .unwrap_or_else(|| panic!("{label} row carries backpressure_waits"));
        assert!(
            waits >= 1.0,
            "{label}: more chunks than max_inflight must report a backpressure wait"
        );
        assert!(bench_row_value(&masked, label, GOLDEN_SCALE, "makespan_s").is_some());
    }
    check_golden("BENCH_stream.json", &masked);
}

#[test]
fn fig12_sincos_mix_json_matches_golden_snapshot() {
    // host_iterations = 0: the wall-clock column is masked in the
    // snapshot, so there is no point burning time measuring it here
    let rows = fig12_rows(0);
    assert!(!rows.is_empty());
    check_golden(
        "fig12_sincos_mix.json",
        &fig_json("fig12_sincos_mix", &rows, true),
    );
}
