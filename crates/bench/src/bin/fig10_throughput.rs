//! Fig. 10: throughput for gridding and degridding (MVisibilities/s).
//!
//! Shape to reproduce: both GPUs an order of magnitude above the
//! HASWELL model, gridding slightly faster than degridding on PASCAL.
//!
//! The host row is a plain warmed `Proxy::grid`/`degrid` on the
//! optimized CPU kernels (wall clock); every other row is modeled.
//! Emits both the CSV table and the JSON export the golden-file suite
//! snapshots.

use idg_bench::{bench_scale, benchmark_dataset, fig10_rows, fig_json, write_csv, write_results};

fn main() {
    let scale = bench_scale();
    let ds = benchmark_dataset(scale);
    println!("Fig. 10: gridding/degridding throughput, scale {scale}\n");
    println!(
        "{:<22} {:>18} {:>18}",
        "backend", "gridding MVis/s", "degridding MVis/s"
    );

    let fig_rows = fig10_rows(&ds);
    let mut rows = Vec::new();
    let mut haswell = (0.0f64, 0.0f64);
    let mut pascal = (0.0f64, 0.0f64);
    for row in &fig_rows {
        let (g, d) = (row.values[0].1, row.values[1].1);
        println!("{:<22} {g:>18.2} {d:>18.2}", row.label);
        rows.push(format!("{},{g},{d}", row.label));
        if row.label.contains("HASWELL") {
            haswell = (g, d);
        }
        if row.label.contains("PASCAL") {
            pascal = (g, d);
        }
    }

    println!(
        "\nPASCAL/HASWELL: gridding {:.1}x, degridding {:.1}x (paper: ~an order of magnitude)",
        pascal.0 / haswell.0,
        pascal.1 / haswell.1
    );
    assert!(pascal.0 / haswell.0 > 4.0);
    assert!(pascal.1 / haswell.1 > 4.0);

    let path = write_csv(
        "fig10_throughput.csv",
        "backend,gridding_mvis_s,degridding_mvis_s",
        &rows,
    )
    .expect("csv");
    println!("wrote {}", path.display());
    let json = write_results(
        "fig10_throughput.json",
        &fig_json("fig10_throughput", &fig_rows, false),
    )
    .expect("json");
    println!("wrote {}", json.display());
}
