//! Ablation: sincos accuracy vs image fidelity.
//!
//! The paper's performance hinges on cheap sine/cosine evaluation —
//! SVML "medium accuracy (maximum of 4 ulps error)" on the CPU and the
//! CUDA fast-math path ("maximum error of 2 ulps … which is sufficient
//! for IDG") on the GPU. This ablation verifies the *sufficiency* claim
//! end-to-end: grid the same data with the libm, medium and fast sincos
//! paths and measure both the kernel time and the deviation of the
//! resulting dirty image from the f64 reference.

use idg::kernels::{
    add_subgrids, fft_subgrids, gridder_cpu, gridder_reference, FftNorm, KernelData, KernelTables,
    SubgridArray,
};
use idg::math::Accuracy;
use idg::telescope::{Dataset, IdentityATerm, Layout, SkyModel};
use idg::types::{Grid, Observation};
use idg_bench::write_csv;
use idg_fft::Direction;
use idg_imaging::dirty_image;
use std::time::Instant;

fn image_for(
    data: &KernelData<'_>,
    plan: &idg::Plan,
    obs: &Observation,
    accuracy: Option<Accuracy>,
) -> (idg_imaging::Image, f64) {
    let tables = KernelTables::for_observation(obs);
    let mut subgrids = SubgridArray::new(plan.nr_subgrids(), obs.subgrid_size);
    let start = Instant::now();
    match accuracy {
        None => gridder_reference(data, &plan.items, &mut subgrids),
        Some(acc) => gridder_cpu(data, &plan.items, &mut subgrids, acc, &tables),
    }
    .expect("gridder inputs are consistent");
    let kernel_s = start.elapsed().as_secs_f64();
    fft_subgrids(&mut subgrids, Direction::Forward, FftNorm::None);
    let mut grid = Grid::<f32>::new(obs.grid_size);
    add_subgrids(&mut grid, &plan.items, &subgrids, &tables)
        .expect("subgrid placement is consistent");
    (
        dirty_image(&grid, obs, plan.nr_gridded_visibilities()),
        kernel_s,
    )
}

fn main() {
    let obs = Observation::builder()
        .stations(8)
        .timesteps(64)
        .channels(8, 150e6, 1e6)
        .grid_size(256)
        .subgrid_size(24)
        .kernel_size(9)
        .aterm_interval(32)
        .image_size(0.05)
        .build()
        .expect("observation");
    let layout = Layout::uniform(obs.nr_stations, 1500.0, 77);
    let sky = SkyModel::random(&obs, 5, 0.5, 79);
    let ds = Dataset::simulate(obs.clone(), &layout, sky, &IdentityATerm);
    let taper = idg::math::spheroidal_2d(obs.subgrid_size);
    let data = KernelData {
        obs: &obs,
        uvw: &ds.uvw,
        visibilities: &ds.visibilities,
        aterms: &ds.aterms,
        taper: &taper,
    };
    let plan = idg::Plan::create(&obs, &ds.uvw).expect("plan");

    // the reference image; also the warm-up pass of the timed kernels
    let (reference, _) = image_for(&data, &plan, &obs, None);
    let peak = reference.peak().2.abs() as f64;

    println!(
        "Ablation: sincos accuracy vs image fidelity ({} visibilities)\n",
        ds.nr_visibilities()
    );
    println!(
        "{:<22} {:>12} {:>16} {:>18}",
        "sincos path", "kernel (s)", "max image err", "err / image peak"
    );

    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for (name, acc) in [
        ("libm (high)", Accuracy::High),
        ("medium (SVML-like)", Accuracy::Medium),
        ("fast (CUDA-like)", Accuracy::Fast),
    ] {
        let (image, kernel_s) = image_for(&data, &plan, &obs, Some(acc));
        let max_err = image
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .map(|(a, b)| (a - b).abs() as f64)
            .fold(0.0, f64::max);
        let rel = max_err / peak;
        println!("{name:<22} {kernel_s:>12.3} {max_err:>16.3e} {rel:>18.3e}");
        rows.push(format!("{name},{kernel_s},{max_err},{rel}"));
        errors.push(rel);
    }

    // the sufficiency claim: even the fast path perturbs the image by
    // a negligible fraction of the peak
    for (rel, name) in errors.iter().zip(["high", "medium", "fast"]) {
        assert!(
            *rel < 1e-3,
            "{name} sincos must not visibly perturb the image: {rel}"
        );
    }
    println!("\nall sincos paths stay below 0.1 % of the image peak — \"sufficient for IDG\".");

    let path = write_csv(
        "ablation_accuracy.csv",
        "path,kernel_s,max_image_err,err_over_peak",
        &rows,
    )
    .expect("csv");
    println!("wrote {}", path.display());
}
