//! # idg-plan — the execution plan
//!
//! Before any kernel runs, IDG decides where the subgrids sit on the grid
//! and which visibilities each one covers (Sec. V-A of the paper). The
//! partitioning is greedy: walking each baseline in time order, time steps
//! (each carrying all `C̃` channels) are accumulated into the current
//! subgrid for as long as the visibilities *and the support of their
//! A/W-projection convolution kernels* fit inside an `Ñ × Ñ` box; when
//! they no longer fit — or `T̃_max` is reached, or the A-term interval or
//! W-plane changes — the subgrid is finalized and a new one starts.
//!
//! The output is a list of [`WorkItem`]s (subgrid metadata). Grouping
//! `m ≤ n` work items yields the *work groups* in which the kernels
//! process them (Fig. 6).

#![deny(missing_docs)]

pub mod stats;

pub use stats::PlanStats;

use idg_types::{Baseline, IdgError, Observation, Uvw, SPEED_OF_LIGHT};

/// Metadata of one subgrid and the visibility block it covers — the
/// paper's *work item* (Fig. 6, level 3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// Index into the canonical baseline list.
    pub baseline_index: usize,
    /// The station pair.
    pub baseline: Baseline,
    /// First time step covered.
    pub time_offset: usize,
    /// Number of time steps covered (each with this item's channels).
    pub nr_timesteps: usize,
    /// First channel covered. Long baselines smear across frequency (uv
    /// scales with ν), so the planner may split the band into groups —
    /// the "C̃ channels that can be covered by an Ñ × Ñ subgrid" of
    /// Sec. V-A.
    pub channel_offset: usize,
    /// Number of channels covered (`C̃`).
    pub nr_channels: usize,
    /// A-term interval all covered time steps fall into.
    pub aterm_index: usize,
    /// Grid x-pixel of the subgrid's top-left corner.
    pub coord_x: usize,
    /// Grid y-pixel of the subgrid's top-left corner.
    pub coord_y: usize,
    /// W-plane index (0 when W-stacking is disabled).
    pub w_plane: i32,
}

impl WorkItem {
    /// Number of visibilities covered by this work item.
    #[inline]
    pub fn nr_visibilities(&self) -> usize {
        self.nr_timesteps * self.nr_channels
    }
}

/// The full execution plan for one observation.
#[derive(Clone, Debug)]
pub struct Plan {
    /// All work items, ordered by baseline then time.
    pub items: Vec<WorkItem>,
    /// Number of visibilities that could not be covered (uv outside the
    /// representable grid area); these are dropped, mirroring how real
    /// imagers flag out-of-range samples.
    pub skipped_visibilities: usize,
    subgrid_size: usize,
    grid_size: usize,
}

/// Bounding box accumulator in fractional pixel coordinates.
#[derive(Copy, Clone, Debug)]
struct BBox {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

impl BBox {
    fn empty() -> Self {
        Self {
            min_x: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            min_y: f64::INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    fn include(&mut self, x: f64, y: f64) {
        self.min_x = self.min_x.min(x);
        self.max_x = self.max_x.max(x);
        self.min_y = self.min_y.min(y);
        self.max_y = self.max_y.max(y);
    }

    fn merged(&self, other: &BBox) -> BBox {
        BBox {
            min_x: self.min_x.min(other.min_x),
            max_x: self.max_x.max(other.max_x),
            min_y: self.min_y.min(other.min_y),
            max_y: self.max_y.max(other.max_y),
        }
    }
}

/// Per-baseline uv extents over a *whole* observation: the maximum
/// `hypot(u, v)` baseline length (meters) seen at any time step.
///
/// The planner's channel-group split depends on this maximum — a
/// baseline's frequency smear budget is a function of its longest uv
/// excursion — so chunked (windowed) planning must evaluate it over
/// the full observation, not per chunk, or the streamed plan would
/// group channels differently from the one-shot plan and break the
/// bit-identity contract. Compute the extents once, then hand the
/// same value to every [`Plan::create_windowed`] call.
#[derive(Clone, Debug)]
pub struct UvExtents {
    max_len_m: Vec<f64>,
}

impl UvExtents {
    /// Scan the full uvw buffer (`[baseline-major][timestep]` layout,
    /// meters) and record each baseline's maximum uv length.
    pub fn compute(obs: &Observation, uvw: &[Uvw]) -> Result<UvExtents, IdgError> {
        let nr_time = obs.nr_timesteps;
        let expected = obs.nr_baselines() * nr_time;
        if uvw.len() != expected {
            return Err(IdgError::ShapeMismatch {
                what: "uvw",
                expected,
                actual: uvw.len(),
            });
        }
        let max_len_m = (0..obs.nr_baselines())
            .map(|bl_idx| {
                (0..nr_time)
                    .map(|t| uvw[bl_idx * nr_time + t])
                    .map(|u| (u.u as f64).hypot(u.v as f64))
                    .fold(0.0f64, f64::max)
            })
            .collect();
        Ok(UvExtents { max_len_m })
    }

    /// Maximum uv length of one baseline, meters.
    pub fn max_len_m(&self, baseline_index: usize) -> f64 {
        self.max_len_m[baseline_index]
    }

    /// Number of baselines covered.
    pub fn nr_baselines(&self) -> usize {
        self.max_len_m.len()
    }
}

impl Plan {
    /// Build the execution plan for `obs` given uvw coordinates in
    /// `[baseline-major][timestep]` layout, meters.
    pub fn create(obs: &Observation, uvw: &[Uvw]) -> Result<Plan, IdgError> {
        let extents = UvExtents::compute(obs, uvw)?;
        Self::create_windowed(obs, uvw, &extents, 0..obs.nr_timesteps)
    }

    /// Build the plan for one time window `[window.start, window.end)`
    /// of the observation — the chunk-local planning entry point of
    /// the streaming front-end (`idg-stream`).
    ///
    /// `uvw` is still the *full* buffer (work items carry global time
    /// offsets), and `extents` must come from [`UvExtents::compute`]
    /// over the full observation so channel groups match the one-shot
    /// plan. When the window boundaries are aligned to
    /// `aterm_interval` multiples, the concatenation of the windowed
    /// plans (sorted by baseline, channel group, time) is *exactly*
    /// the one-shot plan: the accumulation loop never crosses an
    /// A-term boundary, so a window starting on one reproduces the
    /// same greedy decisions the full run makes there.
    pub fn create_windowed(
        obs: &Observation,
        uvw: &[Uvw],
        extents: &UvExtents,
        window: std::ops::Range<usize>,
    ) -> Result<Plan, IdgError> {
        let _span = idg_obs::wall_span("plan", "stage", None);
        let nr_time = obs.nr_timesteps;
        let expected = obs.nr_baselines() * nr_time;
        if uvw.len() != expected {
            return Err(IdgError::ShapeMismatch {
                what: "uvw",
                expected,
                actual: uvw.len(),
            });
        }
        if extents.nr_baselines() != obs.nr_baselines() {
            return Err(IdgError::ShapeMismatch {
                what: "uv extents",
                expected: obs.nr_baselines(),
                actual: extents.nr_baselines(),
            });
        }
        if window.start > window.end || window.end > nr_time {
            return Err(IdgError::InvalidParameter(format!(
                "plan window {}..{} outside observation 0..{nr_time}",
                window.start, window.end
            )));
        }

        let baselines = obs.baselines();
        let nr_chan = obs.nr_channels();
        let subgrid = obs.subgrid_size;
        let grid = obs.grid_size;
        let kernel = obs.kernel_size;
        let max_t = obs.max_timesteps_per_subgrid;
        // pixels per wavelength along u and v
        let f_min = obs
            .frequencies
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let f_max = obs.frequencies.iter().copied().fold(0.0f64, f64::max);

        let mut items = Vec::new();
        let mut skipped = 0usize;

        // Per-timestep bounding box for a channel group: evaluating the
        // pixel position at the group's two extreme frequencies suffices
        // because the mapping is linear in frequency.
        let timestep_bbox = |uvw_m: Uvw, f_lo: f64, f_hi: f64| -> BBox {
            let mut bb = BBox::empty();
            for f in [f_lo, f_hi] {
                let scale = f / SPEED_OF_LIGHT;
                let x = obs.uv_to_pixel(uvw_m.u as f64 * scale);
                let y = obs.uv_to_pixel(uvw_m.v as f64 * scale);
                bb.include(x, y);
            }
            bb
        };

        // Integer subgrid origin containing the kernel-padded interval
        // `[min − K/2, max + K/2]` along one axis: the largest
        // admissible origin is `⌊min − K/2⌋`, the smallest is
        // `⌈max + K/2 − Ñ⌉`. A float span test (`max − min + K ≤ Ñ`)
        // alone is NOT sufficient — with an odd kernel the padded box
        // has half-integer ends, so a box that fills the subgrid
        // exactly admits no integer origin and its kernel support
        // would be clipped at the subgrid border.
        let place_axis = |lo_px: f64, hi_px: f64| -> Option<i64> {
            // Absorbs the f32 uvw → f64 pixel conversion noise
            // (≈ |px − G/2| · 2⁻²⁴, up to ~1e-4 px on large grids)
            // while staying far below the half-pixel clipping this
            // placement exists to prevent.
            const EPS: f64 = 1e-3;
            let margin = kernel as f64 / 2.0;
            let lo = (hi_px + margin - subgrid as f64 - EPS).ceil() as i64;
            let hi = (lo_px - margin + EPS).floor() as i64;
            if lo > hi {
                return None;
            }
            // center the subgrid on the covered interval, within bounds
            let ideal = (0.5 * (lo_px + hi_px)).round() as i64 - subgrid as i64 / 2;
            Some(ideal.clamp(lo, hi))
        };
        let place_box = |bb: &BBox| -> Option<(i64, i64)> {
            Some((
                place_axis(bb.min_x, bb.max_x)?,
                place_axis(bb.min_y, bb.max_y)?,
            ))
        };

        let w_plane_of = |uvw_m: Uvw| -> i32 {
            if obs.w_step > 0.0 {
                // w at the band center, in wavelengths
                let w_lambda = uvw_m.w as f64 * (0.5 * (f_min + f_max)) / SPEED_OF_LIGHT;
                (w_lambda / obs.w_step).round() as i32
            } else {
                0
            }
        };

        for (bl_idx, bl) in baselines.iter().enumerate() {
            // Long baselines smear across frequency (the uv position
            // scales with ν): split the band into groups whose smear
            // uses at most half the post-kernel subgrid budget, leaving
            // the rest for time accumulation (Sec. V-A: "having C̃
            // channels that can be covered by an Ñ × Ñ subgrid"). The
            // maximum comes from the whole-observation extents so every
            // window of the same observation groups channels alike.
            let max_len_m = extents.max_len_m(bl_idx);
            let budget_px = (subgrid - kernel) as f64 / 2.0;
            // smear over Δf: max_len·Δf/c·image_size pixels
            let df_budget = if max_len_m > 0.0 {
                budget_px * SPEED_OF_LIGHT / (max_len_m * obs.image_size)
            } else {
                f64::INFINITY
            };
            let mut channel_groups: Vec<(usize, usize)> = Vec::new();
            let mut c0 = 0usize;
            while c0 < nr_chan {
                let mut c1 = c0 + 1;
                while c1 < nr_chan && obs.frequencies[c1] - obs.frequencies[c0] <= df_budget {
                    c1 += 1;
                }
                channel_groups.push((c0, c1 - c0));
                c0 = c1;
            }

            for &(chan_offset, chan_count) in &channel_groups {
                let f_lo = obs.frequencies[chan_offset];
                let f_hi = obs.frequencies[chan_offset + chan_count - 1];
                let mut t = window.start;
                while t < window.end {
                    let t0 = t;
                    let aterm = obs.aterm_index(t0);
                    let wp = w_plane_of(uvw[bl_idx * nr_time + t0]);
                    let mut bbox = timestep_bbox(uvw[bl_idx * nr_time + t0], f_lo, f_hi);

                    // A single time step that cannot fit is unrepresentable.
                    if place_box(&bbox).is_none() {
                        skipped += chan_count;
                        t += 1;
                        continue;
                    }

                    let mut t_end = t0 + 1;
                    while t_end < window.end
                        && t_end - t0 < max_t
                        && obs.aterm_index(t_end) == aterm
                        && w_plane_of(uvw[bl_idx * nr_time + t_end]) == wp
                    {
                        let cand =
                            bbox.merged(&timestep_bbox(uvw[bl_idx * nr_time + t_end], f_lo, f_hi));
                        if place_box(&cand).is_none() {
                            break;
                        }
                        bbox = cand;
                        t_end += 1;
                    }

                    // the accumulation loop only admits placeable
                    // boxes, so None here is a planner bug — surface
                    // it as a typed error rather than tearing down the
                    // whole process mid-observation
                    let Some((coord_x, coord_y)) = place_box(&bbox) else {
                        return Err(IdgError::Internal(
                            "planner invariant violated: accumulated bounding box became \
                             unplaceable"
                                .into(),
                        ));
                    };

                    if coord_x < 0
                        || coord_y < 0
                        || coord_x + subgrid as i64 > grid as i64
                        || coord_y + subgrid as i64 > grid as i64
                    {
                        skipped += (t_end - t0) * chan_count;
                    } else {
                        items.push(WorkItem {
                            baseline_index: bl_idx,
                            baseline: *bl,
                            time_offset: t0,
                            nr_timesteps: t_end - t0,
                            channel_offset: chan_offset,
                            nr_channels: chan_count,
                            aterm_index: aterm,
                            coord_x: coord_x as usize,
                            coord_y: coord_y as usize,
                            w_plane: wp,
                        });
                    }
                    t = t_end;
                }
            }
        }

        idg_obs::add_planned_items(items.len() as u64);
        idg_obs::add_skipped_visibilities(skipped as u64);
        Ok(Plan {
            items,
            skipped_visibilities: skipped,
            subgrid_size: subgrid,
            grid_size: grid,
        })
    }

    /// Number of subgrids (work items).
    pub fn nr_subgrids(&self) -> usize {
        self.items.len()
    }

    /// Number of visibilities covered by the plan.
    pub fn nr_gridded_visibilities(&self) -> usize {
        self.items.iter().map(|i| i.nr_visibilities()).sum()
    }

    /// Subgrid edge length the plan was built for.
    pub fn subgrid_size(&self) -> usize {
        self.subgrid_size
    }

    /// Grid edge length the plan was built for.
    pub fn grid_size(&self) -> usize {
        self.grid_size
    }

    /// Split the work into groups of at most `m` work items (Fig. 6,
    /// level 2) — the unit in which kernels are launched and buffers are
    /// transferred to the (simulated) device.
    pub fn work_groups(&self, m: usize) -> impl Iterator<Item = &[WorkItem]> {
        assert!(m > 0, "work group size must be positive");
        self.items.chunks(m)
    }

    /// Summary statistics (subgrid occupancy, per-baseline counts …).
    pub fn stats(&self) -> PlanStats {
        PlanStats::from_plan(self)
    }

    /// The sorted list of W-plane indices in use (a single `0` when
    /// W-stacking is disabled).
    pub fn w_planes(&self) -> Vec<i32> {
        let mut planes: Vec<i32> = self.items.iter().map(|i| i.w_plane).collect();
        planes.sort_unstable();
        planes.dedup();
        planes
    }

    /// The sub-plan containing only the work items of one W-plane —
    /// W-stacking grids each plane separately and merges in the image
    /// domain (Sec. III / VI-E).
    pub fn subset_for_w_plane(&self, w_plane: i32) -> Plan {
        Plan {
            items: self
                .items
                .iter()
                .filter(|i| i.w_plane == w_plane)
                .copied()
                .collect(),
            skipped_visibilities: 0,
            subgrid_size: self.subgrid_size,
            grid_size: self.grid_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_telescope::{Layout, UvwGenerator};

    fn obs_small() -> Observation {
        Observation::builder()
            .stations(8)
            .timesteps(64)
            .channels(4, 150e6, 2e6)
            .grid_size(512)
            .subgrid_size(24)
            .kernel_size(9)
            .aterm_interval(16)
            .max_timesteps_per_subgrid(32)
            .build()
            .unwrap()
    }

    fn uvw_for(obs: &Observation, radius: f64, seed: u64) -> Vec<Uvw> {
        let layout = Layout::uniform(obs.nr_stations, radius, seed);
        UvwGenerator::representative(&layout, obs.integration_time).generate(obs)
    }

    #[test]
    fn covers_all_visibilities_when_in_range() {
        let obs = obs_small();
        let uvw = uvw_for(&obs, 2_000.0, 1);
        let plan = Plan::create(&obs, &uvw).unwrap();
        assert_eq!(plan.skipped_visibilities, 0);
        assert_eq!(
            plan.nr_gridded_visibilities(),
            obs.nr_visibilities(),
            "greedy cover must account for every visibility"
        );
    }

    #[test]
    fn items_partition_time_and_channels_per_baseline() {
        let obs = obs_small();
        let uvw = uvw_for(&obs, 2_000.0, 2);
        let plan = Plan::create(&obs, &uvw).unwrap();
        for bl_idx in 0..obs.nr_baselines() {
            // channel groups tile the band
            let mut groups: Vec<(usize, usize)> = plan
                .items
                .iter()
                .filter(|i| i.baseline_index == bl_idx)
                .map(|i| (i.channel_offset, i.nr_channels))
                .collect();
            groups.sort();
            groups.dedup();
            let mut c = 0usize;
            for &(c0, nc) in &groups {
                assert_eq!(c0, c, "channel gap in baseline {bl_idx}");
                c += nc;
            }
            assert_eq!(c, obs.nr_channels());

            // within each channel group, time is partitioned
            for &(c0, _) in &groups {
                let mut t = 0usize;
                for item in plan
                    .items
                    .iter()
                    .filter(|i| i.baseline_index == bl_idx && i.channel_offset == c0)
                {
                    assert_eq!(item.time_offset, t, "gap or overlap in baseline {bl_idx}");
                    t += item.nr_timesteps;
                }
                assert_eq!(t, obs.nr_timesteps);
            }
        }
    }

    #[test]
    fn subgrids_fit_within_grid() {
        let obs = obs_small();
        let uvw = uvw_for(&obs, 3_000.0, 3);
        let plan = Plan::create(&obs, &uvw).unwrap();
        for item in &plan.items {
            assert!(item.coord_x + obs.subgrid_size <= obs.grid_size);
            assert!(item.coord_y + obs.subgrid_size <= obs.grid_size);
        }
    }

    #[test]
    fn visibilities_fall_inside_their_subgrid() {
        // The defining invariant: every covered visibility, at every
        // channel, plus kernel margin, lies inside its subgrid box.
        let obs = obs_small();
        let uvw = uvw_for(&obs, 2_500.0, 4);
        let plan = Plan::create(&obs, &uvw).unwrap();
        let margin = obs.kernel_size as f64 / 2.0;
        for item in &plan.items {
            for dt in 0..item.nr_timesteps {
                let t = item.time_offset + dt;
                let uvw_m = uvw[item.baseline_index * obs.nr_timesteps + t];
                for f in
                    &obs.frequencies[item.channel_offset..item.channel_offset + item.nr_channels]
                {
                    let scale = f / SPEED_OF_LIGHT;
                    let x = obs.uv_to_pixel(uvw_m.u as f64 * scale);
                    let y = obs.uv_to_pixel(uvw_m.v as f64 * scale);
                    assert!(
                        x - margin >= item.coord_x as f64 - 1e-6
                            && x + margin <= (item.coord_x + obs.subgrid_size) as f64 + 1e-6,
                        "x={x} outside [{}, {}] margin {margin}",
                        item.coord_x,
                        item.coord_x + obs.subgrid_size
                    );
                    assert!(
                        y - margin >= item.coord_y as f64 - 1e-6
                            && y + margin <= (item.coord_y + obs.subgrid_size) as f64 + 1e-6
                    );
                }
            }
        }
    }

    #[test]
    fn respects_max_timesteps() {
        let obs = obs_small();
        let uvw = uvw_for(&obs, 500.0, 5); // short baselines: everything fits
        let plan = Plan::create(&obs, &uvw).unwrap();
        for item in &plan.items {
            assert!(item.nr_timesteps <= obs.max_timesteps_per_subgrid);
        }
    }

    #[test]
    fn respects_aterm_boundaries() {
        let obs = obs_small();
        let uvw = uvw_for(&obs, 500.0, 6);
        let plan = Plan::create(&obs, &uvw).unwrap();
        for item in &plan.items {
            let first = obs.aterm_index(item.time_offset);
            let last = obs.aterm_index(item.time_offset + item.nr_timesteps - 1);
            assert_eq!(first, last, "work item spans A-term intervals");
            assert_eq!(item.aterm_index, first);
        }
    }

    #[test]
    fn out_of_range_visibilities_are_skipped() {
        // A huge layout at this FoV pushes uv beyond the grid.
        let obs = obs_small();
        let uvw = uvw_for(&obs, 500_000.0, 7);
        let plan = Plan::create(&obs, &uvw).unwrap();
        assert!(plan.skipped_visibilities > 0);
        assert_eq!(
            plan.nr_gridded_visibilities() + plan.skipped_visibilities,
            obs.nr_visibilities()
        );
    }

    #[test]
    fn work_groups_chunk_items() {
        let obs = obs_small();
        let uvw = uvw_for(&obs, 2_000.0, 8);
        let plan = Plan::create(&obs, &uvw).unwrap();
        let m = 7;
        let groups: Vec<_> = plan.work_groups(m).collect();
        assert_eq!(
            groups.iter().map(|g| g.len()).sum::<usize>(),
            plan.nr_subgrids()
        );
        for g in &groups[..groups.len() - 1] {
            assert_eq!(g.len(), m);
        }
        assert!(groups.last().unwrap().len() <= m);
    }

    #[test]
    fn wstacking_splits_on_w_plane() {
        let obs = Observation::builder()
            .stations(6)
            .timesteps(64)
            .channels(4, 150e6, 2e6)
            .grid_size(512)
            .subgrid_size(24)
            .aterm_interval(64)
            .w_step(20.0)
            .build()
            .unwrap();
        let uvw = uvw_for(&obs, 3_000.0, 9);
        let plan = Plan::create(&obs, &uvw).unwrap();
        let f_mid = 0.5 * (obs.frequencies[0] + obs.frequencies[obs.nr_channels() - 1]);
        for item in &plan.items {
            for dt in 0..item.nr_timesteps {
                let t = item.time_offset + dt;
                let w_l = uvw[item.baseline_index * obs.nr_timesteps + t].w as f64 * f_mid
                    / SPEED_OF_LIGHT;
                assert_eq!((w_l / obs.w_step).round() as i32, item.w_plane);
            }
        }
        // with w-stacking enabled there should be more than one plane in use
        let planes: std::collections::HashSet<i32> = plan.items.iter().map(|i| i.w_plane).collect();
        assert!(planes.len() > 1, "expected multiple w-planes");
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let obs = obs_small();
        let uvw = vec![Uvw::default(); 3];
        assert!(matches!(
            Plan::create(&obs, &uvw),
            Err(IdgError::ShapeMismatch { what: "uvw", .. })
        ));
    }

    /// Build the uvw buffer (1 baseline) whose visibilities sit at the
    /// given fractional pixel positions at the observation's single
    /// frequency.
    fn uvw_at_pixels(obs: &Observation, pixels: &[(f64, f64)]) -> Vec<Uvw> {
        assert_eq!(obs.nr_channels(), 1, "pixel placement needs one channel");
        assert_eq!(pixels.len(), obs.nr_timesteps);
        let scale = obs.frequencies[0] / SPEED_OF_LIGHT;
        pixels
            .iter()
            .map(|&(x, y)| Uvw {
                u: (obs.pixel_to_uv(x) / scale) as f32,
                v: (obs.pixel_to_uv(y) / scale) as f32,
                w: 0.0,
            })
            .collect()
    }

    fn obs_single_channel(timesteps: usize) -> Observation {
        Observation::builder()
            .stations(2)
            .timesteps(timesteps)
            .channels(1, 150e6, 2e6)
            .grid_size(128)
            .subgrid_size(16)
            .kernel_size(5)
            .aterm_interval(timesteps)
            .image_size(0.04)
            .build()
            .unwrap()
    }

    /// Strict containment: every covered visibility's kernel-padded
    /// position lies inside its subgrid with NO tolerance.
    fn assert_strict_containment(obs: &Observation, uvw: &[Uvw], plan: &Plan) {
        let margin = obs.kernel_size as f64 / 2.0;
        for item in &plan.items {
            for dt in 0..item.nr_timesteps {
                let t = item.time_offset + dt;
                let uvw_m = uvw[item.baseline_index * obs.nr_timesteps + t];
                for f in
                    &obs.frequencies[item.channel_offset..item.channel_offset + item.nr_channels]
                {
                    let scale = f / SPEED_OF_LIGHT;
                    let x = obs.uv_to_pixel(uvw_m.u as f64 * scale);
                    let y = obs.uv_to_pixel(uvw_m.v as f64 * scale);
                    assert!(
                        x - margin >= item.coord_x as f64
                            && x + margin <= (item.coord_x + obs.subgrid_size) as f64,
                        "kernel support [{}, {}] clipped by subgrid [{}, {}]",
                        x - margin,
                        x + margin,
                        item.coord_x,
                        item.coord_x + obs.subgrid_size
                    );
                    assert!(
                        y - margin >= item.coord_y as f64
                            && y + margin <= (item.coord_y + obs.subgrid_size) as f64
                    );
                }
            }
        }
    }

    #[test]
    fn bbox_exactly_filling_the_subgrid_never_leaks_kernel_support() {
        // Regression: two visibilities 10.9 px apart nearly fill the
        // subgrid (span + kernel = 15.9 < Ñ = 16), yet the padded box
        // [57.5, 73.4] fits no *integer* origin: coord 57 clips the
        // right kernel edge (73.4 > 73), coord 58 the left (57.5 <
        // 58). The old float span test accepted the pair as one work
        // item and the rounded centering clipped the kernel support by
        // 0.4 px at the subgrid border.
        let obs = obs_single_channel(2);
        let uvw = uvw_at_pixels(&obs, &[(60.0, 64.0), (70.9, 64.0)]);
        let plan = Plan::create(&obs, &uvw).unwrap();
        assert_eq!(plan.skipped_visibilities, 0);
        assert_eq!(plan.nr_gridded_visibilities(), obs.nr_visibilities());
        assert_strict_containment(&obs, &uvw, &plan);
        // the exactly-full box is unplaceable on integer coords, so the
        // planner must have split the pair
        assert_eq!(plan.nr_subgrids(), 2);
    }

    #[test]
    fn integer_aligned_full_bbox_is_one_item() {
        // The companion case: with an even kernel the padded box
        // [58, 74] has integer ends and fills the subgrid exactly —
        // one work item at origin 58 is admissible and the planner
        // must find it rather than split.
        let mut obs = obs_single_channel(2);
        obs.kernel_size = 4;
        let uvw = uvw_at_pixels(&obs, &[(60.0, 64.0), (72.0, 64.0)]);
        let plan = Plan::create(&obs, &uvw).unwrap();
        assert_eq!(plan.skipped_visibilities, 0);
        assert_eq!(plan.nr_subgrids(), 1);
        assert_eq!(plan.items[0].coord_x, 58);
        assert_strict_containment(&obs, &uvw, &plan);
    }

    #[test]
    fn visibility_on_the_grid_edge_is_covered_or_skipped_never_clipped() {
        // March a visibility toward the grid border: each position is
        // either covered with full kernel support or counted as
        // skipped — no silent clipping at the grid boundary.
        let obs = obs_single_channel(1);
        for x in [120.0, 125.0, 125.5, 126.0, 127.0, 127.9] {
            let uvw = uvw_at_pixels(&obs, &[(x, 64.0)]);
            let plan = Plan::create(&obs, &uvw).unwrap();
            assert_eq!(
                plan.nr_gridded_visibilities() + plan.skipped_visibilities,
                obs.nr_visibilities(),
                "x={x}"
            );
            assert_strict_containment(&obs, &uvw, &plan);
        }
        // well inside: covered; outside the placeable range: skipped
        let inside = Plan::create(&obs, &uvw_at_pixels(&obs, &[(120.0, 64.0)])).unwrap();
        assert_eq!(inside.skipped_visibilities, 0);
        let outside = Plan::create(&obs, &uvw_at_pixels(&obs, &[(127.9, 64.0)])).unwrap();
        assert_eq!(outside.skipped_visibilities, 1);
    }

    #[test]
    fn w_zero_observation_stays_on_a_single_plane() {
        // w = 0 exactly (snapshot of a coplanar east-west array) must
        // not split items across w-planes even with w-stacking enabled.
        let mut obs = obs_single_channel(4);
        obs.w_step = 25.0;
        let uvw = uvw_at_pixels(
            &obs,
            &[(60.0, 64.0), (61.0, 64.0), (62.0, 64.0), (63.0, 64.0)],
        );
        assert!(uvw.iter().all(|u| u.w == 0.0));
        let plan = Plan::create(&obs, &uvw).unwrap();
        assert_eq!(plan.skipped_visibilities, 0);
        assert_eq!(plan.nr_subgrids(), 1, "w = 0 must not fragment the plan");
        assert_eq!(plan.items[0].w_plane, 0);
        assert_eq!(plan.stats().nr_w_planes, 1);
    }

    #[test]
    fn single_timestep_observation_plans_cleanly() {
        let obs = Observation::builder()
            .stations(8)
            .timesteps(1)
            .channels(4, 150e6, 2e6)
            .grid_size(512)
            .subgrid_size(24)
            .kernel_size(9)
            .aterm_interval(1)
            .build()
            .unwrap();
        let uvw = uvw_for(&obs, 2_000.0, 11);
        let plan = Plan::create(&obs, &uvw).unwrap();
        assert_eq!(plan.skipped_visibilities, 0);
        assert_eq!(plan.nr_gridded_visibilities(), obs.nr_visibilities());
        assert_eq!(plan.nr_subgrids(), obs.nr_baselines());
        for item in &plan.items {
            assert_eq!(item.nr_timesteps, 1);
            assert_eq!(item.time_offset, 0);
        }
    }

    #[test]
    fn single_channel_observation_plans_cleanly() {
        let obs = Observation::builder()
            .stations(8)
            .timesteps(64)
            .channels(1, 150e6, 2e6)
            .grid_size(512)
            .subgrid_size(24)
            .kernel_size(9)
            .aterm_interval(16)
            .build()
            .unwrap();
        let uvw = uvw_for(&obs, 2_000.0, 12);
        let plan = Plan::create(&obs, &uvw).unwrap();
        assert_eq!(plan.skipped_visibilities, 0);
        assert_eq!(plan.nr_gridded_visibilities(), obs.nr_visibilities());
        for item in &plan.items {
            assert_eq!(item.channel_offset, 0);
            assert_eq!(item.nr_channels, 1);
        }
        assert_strict_containment(&obs, &uvw, &plan);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // vec![0..64] IS one window
    fn windowed_plans_concatenate_to_the_one_shot_plan() {
        // The streaming contract at the planner level: windows cut on
        // A-term boundaries, planned against the shared uv extents,
        // reproduce the one-shot plan exactly once re-sorted into the
        // one-shot (baseline, channel group, time) order.
        let obs = obs_small(); // 64 time steps, aterm_interval 16
        let uvw = uvw_for(&obs, 2_000.0, 14);
        let one_shot = Plan::create(&obs, &uvw).unwrap();
        let extents = UvExtents::compute(&obs, &uvw).unwrap();
        for windows in [
            vec![0..16, 16..32, 32..48, 48..64],
            vec![0..32, 32..64],
            vec![0..48, 48..64],
            vec![0..64],
        ] {
            let mut items = Vec::new();
            let mut skipped = 0usize;
            for w in windows {
                let p = Plan::create_windowed(&obs, &uvw, &extents, w).unwrap();
                skipped += p.skipped_visibilities;
                items.extend(p.items);
            }
            items.sort_by_key(|i| (i.baseline_index, i.channel_offset, i.time_offset));
            assert_eq!(items, one_shot.items);
            assert_eq!(skipped, one_shot.skipped_visibilities);
        }
    }

    #[test]
    fn windowed_plan_rejects_bad_windows_and_foreign_extents() {
        let obs = obs_small();
        let uvw = uvw_for(&obs, 2_000.0, 15);
        let extents = UvExtents::compute(&obs, &uvw).unwrap();
        assert!(matches!(
            Plan::create_windowed(&obs, &uvw, &extents, 0..obs.nr_timesteps + 1),
            Err(IdgError::InvalidParameter(_))
        ));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 8..4;
        assert!(matches!(
            Plan::create_windowed(&obs, &uvw, &extents, reversed),
            Err(IdgError::InvalidParameter(_))
        ));
        let foreign = UvExtents {
            max_len_m: vec![1.0; 3],
        };
        assert!(matches!(
            Plan::create_windowed(&obs, &uvw, &foreign, 0..obs.nr_timesteps),
            Err(IdgError::ShapeMismatch {
                what: "uv extents",
                ..
            })
        ));
    }

    #[test]
    fn longer_baselines_make_more_subgrids() {
        // Faster uv motion ⇒ fewer time steps fit per subgrid.
        let obs = obs_small();
        let short = Plan::create(&obs, &uvw_for(&obs, 300.0, 10)).unwrap();
        let long = Plan::create(&obs, &uvw_for(&obs, 4_000.0, 10)).unwrap();
        assert!(
            long.nr_subgrids() >= short.nr_subgrids(),
            "long: {}, short: {}",
            long.nr_subgrids(),
            short.nr_subgrids()
        );
    }
}
#[cfg(test)]
mod channel_split_tests {
    use super::*;
    use idg_telescope::{Layout, UvwGenerator};

    #[test]
    fn long_baselines_split_the_band_into_channel_groups() {
        // A wide fractional bandwidth on long baselines smears uv over
        // more pixels than a subgrid holds: the planner must split the
        // band, and every resulting item must still fit.
        let obs = Observation::builder()
            .stations(4)
            .timesteps(16)
            .channels(16, 130e6, 3e6) // 35 % fractional bandwidth
            .grid_size(1024)
            .subgrid_size(24)
            .kernel_size(9)
            .image_size(0.05)
            .build()
            .unwrap();
        let layout = Layout::uniform(4, 8_000.0, 13);
        let uvw = UvwGenerator::representative(&layout, 1.0).generate(&obs);
        let plan = Plan::create(&obs, &uvw).unwrap();

        assert_eq!(plan.skipped_visibilities, 0, "everything representable");
        assert_eq!(plan.nr_gridded_visibilities(), obs.nr_visibilities());
        assert!(
            plan.items.iter().any(|i| i.nr_channels < obs.nr_channels()),
            "long baselines must have split channel groups"
        );
        // short-spacing items may still carry the whole band
        let max_group = plan.items.iter().map(|i| i.nr_channels).max().unwrap();
        assert!(
            max_group >= 2,
            "groups are not degenerate singles everywhere"
        );
    }
}
