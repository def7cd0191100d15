//! Fig. 9: distribution of runtime for one full imaging cycle.
//!
//! One imaging cycle = gridding + degridding (each with its subgrid
//! FFTs and adder/splitter, plus transfers on the GPUs). The paper's
//! finding to reproduce: "For all architectures, runtime is dominated
//! by the gridder and degridder kernels (more than 93 %)", and the GPUs
//! complete the cycle almost an order of magnitude faster than HASWELL.

use idg_bench::{
    ascii_stacked_bars, bench_scale, benchmark_dataset, full_scale_runs, host_cpu_run, write_csv,
};

fn main() {
    let scale = bench_scale();
    let ds = benchmark_dataset(scale);
    println!(
        "Fig. 9: runtime distribution, scale {scale} ({} baselines × {} steps × {} channels)\n",
        ds.obs.nr_baselines(),
        ds.obs.nr_timesteps,
        ds.obs.nr_channels()
    );

    let mut runs = vec![host_cpu_run(&ds)];
    runs.extend(full_scale_runs(&ds));
    let mut bars = Vec::new();
    let mut rows = Vec::new();
    let mut haswell_total = 0.0;
    let mut pascal_total = 0.0;
    for run in &runs {
        let g = &run.gridding;
        let d = &run.degridding;
        // On the GPUs transfers overlap with kernels (triple buffering,
        // Fig. 7), so the cycle decomposes as kernels + fft + adder +
        // *exposed* transfer time (pipeline makespan minus compute).
        let compute = g.kernel_seconds
            + d.kernel_seconds
            + g.fft_seconds
            + d.fft_seconds
            + g.adder_seconds
            + d.adder_seconds;
        let total = g.total_seconds + d.total_seconds;
        let exposed_transfer = (total - compute).max(0.0);
        let segments = vec![
            ("gridder", g.kernel_seconds),
            ("degridder", d.kernel_seconds),
            ("fft", g.fft_seconds + d.fft_seconds),
            ("adder+splitter", g.adder_seconds + d.adder_seconds),
            ("exposed transfer", exposed_transfer),
        ];
        let kernel_share = (g.kernel_seconds + d.kernel_seconds) / total;
        rows.push(format!(
            "{},{},{},{},{},{},{:.4}",
            run.name,
            g.kernel_seconds,
            d.kernel_seconds,
            g.fft_seconds + d.fft_seconds,
            g.adder_seconds + d.adder_seconds,
            exposed_transfer,
            kernel_share
        ));
        if run.name.contains("HASWELL") {
            haswell_total = total;
        }
        if run.name.contains("PASCAL") {
            pascal_total = total;
        }
        bars.push((run.name.clone(), segments));
    }
    println!("{}", ascii_stacked_bars(&bars, "s"));

    // paper-shape checks
    for run in &runs {
        let g = &run.gridding;
        let d = &run.degridding;
        let total = g.total_seconds + d.total_seconds;
        let share = (g.kernel_seconds + d.kernel_seconds) / total;
        println!("{:<22} kernel share {:>5.1} %", run.name, 100.0 * share);
        if run.arch.is_some() {
            assert!(
                share > 0.80,
                "{}: gridder+degridder expected to dominate (paper: >93 % at \
                 full scale; overlap hides transfers), got {share}",
                run.name
            );
        }
    }
    let speedup = haswell_total / pascal_total;
    println!("\nPASCAL vs HASWELL cycle speedup: {speedup:.1}x (paper: ~an order of magnitude)");
    assert!(
        speedup > 4.0,
        "GPU should be much faster than the CPU model"
    );

    let path = write_csv(
        "fig09_runtime_distribution.csv",
        "backend,gridder_s,degridder_s,fft_s,adder_s,transfer_s,kernel_share",
        &rows,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}
