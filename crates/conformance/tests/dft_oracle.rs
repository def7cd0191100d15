//! The direct-DFT measurement equation as an independent oracle of the
//! degrid pass.
//!
//! `idg_telescope::predict_visibilities` evaluates the paper's Eq. (1)
//! source by source in f64 — no gridding, no FFT, no taper, no subgrid
//! decomposition. A model grid built from the same point sources by
//! `idg_imaging::model_grid_from_image` and degridded by
//! `Proxy::degrid` must predict the same visibilities up to the
//! approximations IDG makes on purpose: the taper division, aliasing
//! of the subgrid kernel support and the f32 kernels. Every other suite
//! compares the pipeline with itself (streamed ≡ one-shot, optimized ≡
//! reference); this one compares it with the equation it implements.
//!
//! One table: the host back-ends × the three A-term kinds of
//! `idg_telescope` (identity, a drifting Gaussian beam, per-interval
//! station gains) on a 16-channel observation, plus one 1-channel row.
//! Each cell is the relative L2 error over every visibility and
//! polarisation, pinned at 1.5× the value it read when the table was
//! first taken (EXPERIMENTS.md "The host degridder rotates phasors").
//! `cargo test --release -p idg-conformance --test dft_oracle --
//! --nocapture` prints the table.

use idg::telescope::{
    ATermModel, Dataset, GaussianBeam, IdentityATerm, Layout, PointSource, SkyModel, StationGains,
};
use idg::types::{Observation, Visibility};
use idg::{Backend, Proxy};
use idg_imaging::{model_grid_from_image, Image};

/// A seeded observation: 5 stations, 32 timesteps in two A-term
/// intervals, `channels` evenly spaced channels from 150 MHz.
fn observation(channels: usize) -> Observation {
    Observation::builder()
        .stations(5)
        .timesteps(32)
        .channels(channels, 150e6, 0.5e6)
        .grid_size(256)
        .subgrid_size(24)
        .kernel_size(9)
        .aterm_interval(16)
        .image_size(0.05)
        .build()
        .unwrap()
}

/// The A-term kinds of the table, by name.
fn aterm_model(kind: &str, obs: &Observation) -> Box<dyn ATermModel> {
    match kind {
        "identity" => Box::new(IdentityATerm),
        "gaussian beam" => Box::new(GaussianBeam::new(obs, 0.8, 211)),
        "station gains" => Box::new(StationGains::random(
            obs.nr_stations,
            obs.nr_aterm_intervals(),
            223,
        )),
        other => unreachable!("no A-term kind {other}"),
    }
}

/// `sqrt(Σ|a − b|² / Σ|b|²)` over every visibility and polarisation.
fn rel_l2(a: &[Visibility<f32>], b: &[Visibility<f32>]) -> f64 {
    let (mut err, mut norm) = (0.0f64, 0.0f64);
    for (x, y) in a.iter().zip(b) {
        for (p, q) in x.pols.iter().zip(y.pols.iter()) {
            let (dr, di) = (f64::from(p.re - q.re), f64::from(p.im - q.im));
            err += dr * dr + di * di;
            norm += f64::from(q.re).powi(2) + f64::from(q.im).powi(2);
        }
    }
    (err / norm).sqrt()
}

/// One cell: degrid the model grid of three point sources on `backend`
/// and compare with the direct prediction under the same A-terms.
fn cell(backend: Backend, kind: &str, channels: usize) -> f64 {
    let obs = observation(channels);
    let model = aterm_model(kind, &obs);
    let layout = Layout::uniform(obs.nr_stations, 1000.0, 227);
    let ds = Dataset::simulate(obs.clone(), &layout, SkyModel::empty(), model.as_ref());

    let mut image = Image::new(obs.grid_size);
    let mut sources = Vec::new();
    for (x, y, flux) in [
        (150usize, 110usize, 1.5f32),
        (128, 128, 2.0),
        (96, 160, 0.75),
    ] {
        *image.at_mut(y, x) += flux;
        sources.push(PointSource {
            l: Image::pixel_to_lm(&obs, x),
            m: Image::pixel_to_lm(&obs, y),
            flux: f64::from(flux),
        });
    }
    let model_grid = model_grid_from_image(&image, &obs);
    let direct =
        idg::telescope::predict_visibilities(&obs, &ds.uvw, model.as_ref(), &SkyModel { sources });

    let proxy = Proxy::new(backend, obs.clone()).unwrap();
    let plan = proxy.plan(&ds.uvw).unwrap();
    assert_eq!(
        plan.nr_gridded_visibilities(),
        obs.nr_visibilities(),
        "the plan grids every visibility, so the error is over all of them"
    );
    let (predicted, _) = proxy
        .degrid(&plan, &model_grid, &ds.uvw, &ds.aterms)
        .unwrap();
    rel_l2(&predicted, &direct)
}

#[test]
fn degrid_matches_the_direct_measurement_equation() {
    // (back-end, A-term kind, channels, pin): each pin is 1.5× the
    // cell's first reading (EXPERIMENTS.md)
    let table: [(Backend, &str, usize, f64); 7] = [
        (Backend::CpuReference, "identity", 16, 1.34e-4),
        (Backend::CpuReference, "gaussian beam", 16, 2.55e-5),
        (Backend::CpuReference, "station gains", 16, 1.34e-4),
        (Backend::CpuOptimized, "identity", 16, 1.34e-4),
        (Backend::CpuOptimized, "gaussian beam", 16, 2.55e-5),
        (Backend::CpuOptimized, "station gains", 16, 1.34e-4),
        (Backend::CpuOptimized, "gaussian beam", 1, 2.02e-5),
    ];
    println!("back-end       A-term          channels  rel. L2 error    pin");
    let mut failures = Vec::new();
    for (backend, kind, channels, pin) in table {
        let err = cell(backend, kind, channels);
        println!(
            "{:<14} {kind:<15} {channels:>8}  {err:>13.4e}  {pin:>9.2e}",
            backend.label()
        );
        if err.is_nan() || err > pin {
            failures.push(format!(
                "{backend:?} × {kind} × {channels} ch: {err:.4e} > {pin:.2e}"
            ));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
