//! Adjoint-identity oracle between gridding and degridding.
//!
//! Van der Tol et al. define the degridder as the adjoint of the
//! gridder over the same subgrid decomposition. In this codebase the
//! scaling convention places the 1/Ñ² FFT normalization (Ñ = subgrid
//! size) in the adder's forward subgrid FFT and leaves the splitter's
//! inverse subgrid FFT unnormalized; since an unnormalized inverse DFT
//! is exactly the conjugate transpose of an unnormalized forward DFT,
//! the Ñ² factors cancel and the operators are an exact adjoint pair,
//! `Degrid = Gridᴴ`. The dot-product identity therefore reads
//!
//! ```text
//! ⟨Grid(v), g⟩  =  ⟨v, Degrid(g)⟩
//! ```
//!
//! for *any* visibility vector `v` and model grid `g`. This is an
//! oracle class the per-stage RMS checks cannot provide: it couples
//! the two pipeline directions against each other, so a scaling,
//! conjugation or indexing bug on either side breaks the identity
//! even when each side is self-consistently wrong.
//!
//! The suite verifies the identity on the standard conformance cases
//! and on seeded random observation shapes, through both the one-shot
//! entry points and the streamed duplex pipeline (CPU reference
//! back-end — the f64 gold standard the other back-ends are budgeted
//! against), with a per-case relative tolerance budget covering f32
//! kernel rounding — and, on the optimized CPU back-end, on the two
//! extreme work-item shapes the benchmark runs: there the oracle is the
//! optimized degridder, which shares no inner loop with the optimized
//! gridder.

use idg::telescope::{Dataset, GaussianBeam, IdentityATerm, Layout, SkyModel};
use idg::types::{Observation, Visibility};
use idg::{Backend, ChunkPolicy, Grid, Plan, Proxy, StreamConfig};
use idg_conformance::standard_cases;

/// Relative tolerance of the identity: both sides are f64-accumulated
/// dot products of f32 kernel outputs, so the defect is bounded by
/// f32 rounding amplified by cancellation in the sums.
const ADJOINT_BUDGET: f64 = 5e-3;

/// ⟨a, b⟩ = Σ aᵢ · conj(bᵢ) over all grid samples, in f64.
fn grid_inner(a: &Grid<f32>, b: &Grid<f32>) -> (f64, f64) {
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        let (xr, xi) = (x.re as f64, x.im as f64);
        let (yr, yi) = (y.re as f64, y.im as f64);
        re += xr * yr + xi * yi;
        im += xi * yr - xr * yi;
    }
    (re, im)
}

/// ⟨a, b⟩ = Σ aᵢ · conj(bᵢ) over all visibilities × 4 pols, in f64.
fn vis_inner(a: &[Visibility<f32>], b: &[Visibility<f32>]) -> (f64, f64) {
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (x, y) in a.iter().zip(b) {
        for (p, q) in x.pols.iter().zip(y.pols.iter()) {
            let (xr, xi) = (p.re as f64, p.im as f64);
            let (yr, yi) = (q.re as f64, q.im as f64);
            re += xr * yr + xi * yi;
            im += xi * yr - xr * yi;
        }
    }
    (re, im)
}

/// Check `⟨Grid(v), g⟩ ≈ ⟨v, Degrid(g)⟩` for one dataset, where
/// `grid_v = Grid(v)` doubles as the model grid `g` (any finite grid
/// works; this one is deterministic and carries energy on exactly the
/// uv cells the plan covers).
fn assert_adjoint_identity(name: &str, ds: &Dataset, streamed: Option<&StreamConfig>) {
    let proxy = Proxy::new(Backend::CpuReference, ds.obs.clone()).expect("proxy builds");
    let plan = proxy.plan(&ds.uvw).expect("plan builds");

    let (grid_v, predicted) = match streamed {
        None => one_shot_pair(&proxy, &plan, ds),
        Some(config) => {
            let (grid_v, _) = proxy
                .grid_streamed(config, &ds.uvw, &ds.visibilities, &ds.aterms)
                .expect("streamed gridding runs");
            let (predicted, report) = proxy
                .degrid_streamed(config, &grid_v, &ds.uvw, &ds.aterms)
                .expect("streamed degridding runs");
            assert_eq!(
                report.stream.expect("stream stats").failed_chunks,
                0,
                "{name}: streamed degrid must complete"
            );
            (grid_v, predicted)
        }
    };
    let mode = if streamed.is_some() {
        "streamed"
    } else {
        "one-shot"
    };
    assert_defect_in_budget(name, mode, ds, &grid_v, &predicted);
}

/// `(Grid(v), Degrid(Grid(v)))` through the one-shot entry points.
fn one_shot_pair(proxy: &Proxy, plan: &Plan, ds: &Dataset) -> (Grid<f32>, Vec<Visibility<f32>>) {
    let (grid_v, _) = proxy
        .grid(plan, &ds.uvw, &ds.visibilities, &ds.aterms)
        .expect("one-shot gridding runs");
    let (predicted, _) = proxy
        .degrid(plan, &grid_v, &ds.uvw, &ds.aterms)
        .expect("one-shot degridding runs");
    (grid_v, predicted)
}

/// lhs = ⟨Grid(v), g⟩ with g = `grid_v`; rhs = ⟨v, Degrid(g)⟩.
fn assert_defect_in_budget(
    name: &str,
    mode: &str,
    ds: &Dataset,
    grid_v: &Grid<f32>,
    predicted: &[Visibility<f32>],
) {
    let (lhs_re, lhs_im) = grid_inner(grid_v, grid_v);
    let (rhs_re, rhs_im) = vis_inner(&ds.visibilities, predicted);

    let scale = lhs_re.hypot(lhs_im);
    assert!(
        scale > 0.0,
        "{name}: degenerate case — the gridded energy is zero"
    );
    let defect = (lhs_re - rhs_re).hypot(lhs_im - rhs_im) / scale;
    println!(
        "{name:>14} / {mode:<8} ⟨G(v),g⟩ = {lhs_re:.6e}{lhs_im:+.6e}i   \
         ⟨v,G†(g)⟩ = {rhs_re:.6e}{rhs_im:+.6e}i   defect {defect:.3e}"
    );
    assert!(
        defect <= ADJOINT_BUDGET,
        "{name} ({mode}): adjoint identity defect {defect:.3e} exceeds budget {ADJOINT_BUDGET:.1e}"
    );
}

/// Seeded random observation shapes beyond the standard cases: the
/// shape parameters are drawn from a fixed-seed LCG, so the "random"
/// coverage is reproducible run to run.
fn random_shape_datasets() -> Vec<(String, Dataset)> {
    let mut state = 0x1DC0FFEE_u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut out = Vec::new();
    for shape in 0..3 {
        let stations = 4 + next(3) as usize;
        let timesteps = 12 + 4 * next(6) as usize;
        let channels = 2 + next(3) as usize;
        let subgrid = [12, 16, 20][next(3) as usize];
        let kernel = [5, 7][next(2) as usize];
        let aterm = [4, 8, 16][next(3) as usize];
        let obs = Observation::builder()
            .stations(stations)
            .timesteps(timesteps)
            .channels(channels, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(subgrid)
            .kernel_size(kernel)
            .aterm_interval(aterm)
            .image_size(0.04)
            .build()
            .expect("random shape builds");
        let layout = Layout::uniform(stations, 700.0 + 100.0 * next(4) as f64, 41 + shape);
        let sky = SkyModel::random(&obs, 3 + next(3) as usize, 0.7, 43 + shape);
        let beam = GaussianBeam::new(&obs, 0.7, 47 + shape);
        let ds = Dataset::simulate(obs, &layout, sky, &beam);
        out.push((
            format!("random-{shape} ({stations}st/{timesteps}ts/{channels}ch/sub{subgrid})"),
            ds,
        ));
    }
    out
}

#[test]
fn adjoint_identity_holds_on_every_standard_case() {
    for case in standard_cases().expect("standard cases build") {
        let ds = case.dataset();
        assert_adjoint_identity(case.name, &ds, None);
    }
}

#[test]
fn adjoint_identity_holds_on_streamed_passes() {
    for case in standard_cases().expect("standard cases build") {
        let ds = case.dataset();
        // two policies: per-interval chunks and a two-interval stride
        for policy in [
            ChunkPolicy::by_timesteps(ds.obs.aterm_interval),
            ChunkPolicy::by_timesteps(2 * ds.obs.aterm_interval),
        ] {
            let config = StreamConfig::new(policy, 2, 2);
            assert_adjoint_identity(case.name, &ds, Some(&config));
        }
    }
}

#[test]
fn adjoint_identity_holds_on_random_observation_shapes() {
    for (name, ds) in random_shape_datasets() {
        assert_adjoint_identity(&name, &ds, None);
        let config = StreamConfig::new(ChunkPolicy::by_timesteps(ds.obs.aterm_interval), 3, 2);
        assert_adjoint_identity(&name, &ds, Some(&config));
    }
}

/// The two ends of the work-item range, which the standard and random
/// cases (tens to a few hundred visibilities per item) sit between: the
/// 8-visibility items of `sparse_snapshot` (one channel, an A-term slot
/// every 8 steps) and the ≈ 1 200-visibility items of `ska_dense`
/// (every seventh item: a plan's items are independent, and a
/// visibility outside the plan contributes zero to both sides). On
/// `CpuOptimized` the two sides of the identity come from two different
/// inner loops — the gridder's lanes are pixels folding visibilities,
/// the degridder reduces over pixels per visibility — so neither can
/// hide the other's error.
#[test]
fn adjoint_identity_holds_on_the_extreme_item_shapes_of_the_optimized_kernels() {
    let obs = Observation::builder()
        .stations(10)
        .timesteps(32)
        .channels(1, 150e6, 1e6)
        .grid_size(512)
        .subgrid_size(24)
        .aterm_interval(8)
        .image_size(0.05)
        .build()
        .expect("sparse shape builds");
    let layout = Layout::uniform(10, 1500.0, 97);
    let sky = SkyModel::random(&obs, 8, 0.7, 101);
    let sparse = Dataset::simulate(obs, &layout, sky, &IdentityATerm);
    let dense = Dataset::representative(7, 42).expect("dense shape builds");
    for (name, ds, stride, vis_per_item) in [
        ("8 vis/item", sparse, 1, 8..=8),
        ("1200 vis/item", dense, 7, 1100..=1300),
    ] {
        let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).expect("proxy builds");
        let mut plan = proxy.plan(&ds.uvw).expect("plan builds");
        plan.items = plan.items.iter().step_by(stride).copied().collect();
        assert!(
            vis_per_item.contains(&(plan.nr_gridded_visibilities() / plan.items.len())),
            "{name}: not the shape this case is for"
        );
        let (grid_v, predicted) = one_shot_pair(&proxy, &plan, &ds);
        assert_defect_in_budget(name, "one-shot", &ds, &grid_v, &predicted);
    }
}
