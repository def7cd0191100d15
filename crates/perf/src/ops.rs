//! Operation and data-movement counting.
//!
//! The paper defines an *operation* as one of `{+, −, ×, sin(), cos()}`
//! and observes that Algorithms 1 and 2 execute **17 real-valued FMAs
//! per sincos-pair evaluation** (1 in the phase computation, 16 in the
//! four-polarization complex accumulation). One (visibility, pixel) pair
//! therefore costs `17·2 + 2 = 36 ops`. Operational intensity is
//! ops / bytes moved, with byte counts itemized per memory level so the
//! same counts back both Fig. 11 (device memory) and Fig. 13 (shared
//! memory).
//!
//! [`gridder_item_counts`] and [`degridder_item_counts`] are that model:
//! what the paper's kernels, the device models and the reference kernels
//! execute, and what every modeled figure is computed from. The host
//! degridder executes less: across evenly spaced channels it rotates
//! phasors instead of evaluating them, so its measured tally follows its
//! own closed form, [`cpu_degridder_item_counts`] — fewer sincos pairs, a
//! ρ above 17 — and `Proxy` reports that form for `CpuOptimized` degrid
//! passes. Which model a report carries thus depends on the back-end.

use idg_plan::WorkItem;

/// FMAs per sincos pair in the gridder/degridder inner loop
/// (Algorithm 1's caption).
const FMAS_PER_SINCOS: u64 = 17;

/// Bytes of one 4-polarization complex-f32 visibility.
const BYTES_PER_VISIBILITY: u64 = 4 * 8;

/// Bytes of one uvw coordinate (3 × f32).
const BYTES_PER_UVW: u64 = 12;

/// Bytes of one complex-f32 subgrid pixel (4 polarizations).
const BYTES_PER_SUBGRID_PIXEL: u64 = 4 * 8;

/// Bytes of one sampled A-term entry (2×2 complex f32).
const BYTES_PER_ATERM: u64 = 4 * 8;

/// Operation and byte counters of one kernel execution.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Real-valued fused multiply-add instructions.
    pub fmas: u64,
    /// sin+cos pair evaluations.
    pub sincos_pairs: u64,
    /// Bytes moved from/to device (main) memory.
    pub dram_bytes: u64,
    /// Bytes moved through shared memory / L1.
    pub shared_bytes: u64,
    /// Visibilities processed.
    pub visibilities: u64,
}

impl OpCounts {
    /// Total operations under the paper's definition
    /// (FMA = 2 ops, sincos pair = 2 ops).
    pub fn total_ops(&self) -> u64 {
        2 * self.fmas + 2 * self.sincos_pairs
    }

    /// Floating-point operations only (excludes sin/cos) — the basis of
    /// the GFlops/W numbers in Fig. 15.
    pub fn flops(&self) -> u64 {
        2 * self.fmas
    }

    /// ρ = #FMAs / #sincos — 17 for the IDG kernels.
    pub fn rho(&self) -> f64 {
        if self.sincos_pairs == 0 {
            f64::INFINITY
        } else {
            self.fmas as f64 / self.sincos_pairs as f64
        }
    }

    /// Operational intensity w.r.t. device memory (Fig. 11 x-axis).
    pub fn intensity_dram(&self) -> f64 {
        self.total_ops() as f64 / self.dram_bytes as f64
    }

    /// Operational intensity w.r.t. shared memory (Fig. 13 x-axis).
    pub fn intensity_shared(&self) -> f64 {
        self.total_ops() as f64 / self.shared_bytes as f64
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &OpCounts) {
        self.fmas += other.fmas;
        self.sincos_pairs += other.sincos_pairs;
        self.dram_bytes += other.dram_bytes;
        self.shared_bytes += other.shared_bytes;
        self.visibilities += other.visibilities;
    }
}

/// Count one work item of the gridder.
///
/// Inner loop: `T̃·C̃·Ñ²` (visibility, pixel) pairs at 17 FMAs + 1
/// sincos each. Device traffic: visibilities + uvw in, subgrid out,
/// A-terms of both stations in. Shared traffic (GPU staging pattern,
/// Sec. V-C b): every pair re-reads the visibility (32 B) and the uvw
/// (12 B) from the staged shared buffers.
pub fn gridder_item_counts(item: &WorkItem, subgrid_size: usize) -> OpCounts {
    let pairs = (item.nr_visibilities() * subgrid_size * subgrid_size) as u64;
    let vis = item.nr_visibilities() as u64;
    let n2 = (subgrid_size * subgrid_size) as u64;
    OpCounts {
        fmas: pairs * FMAS_PER_SINCOS,
        sincos_pairs: pairs,
        dram_bytes: vis * BYTES_PER_VISIBILITY
            + item.nr_timesteps as u64 * BYTES_PER_UVW
            + n2 * BYTES_PER_SUBGRID_PIXEL // subgrid store
            + 2 * n2 * BYTES_PER_ATERM, // A-terms of both stations
        shared_bytes: pairs * (BYTES_PER_VISIBILITY + BYTES_PER_UVW),
        visibilities: vis,
    }
}

/// Count one work item of the degridder.
///
/// Same pair count; device traffic reverses (subgrid in, visibilities
/// out); shared traffic re-reads the staged *pixels* per pair
/// (32 B pixel + 16 B of l/m/n/φ₀ geometry + 12 B uvw), per the
/// dual-role mapping of Sec. V-C c — the extra geometry traffic is why
/// the degridder sits at a lower shared-memory intensity than the
/// gridder in Fig. 13 (and at 55 % vs 74 % of peak in Fig. 11).
pub fn degridder_item_counts(item: &WorkItem, subgrid_size: usize) -> OpCounts {
    let pairs = (item.nr_visibilities() * subgrid_size * subgrid_size) as u64;
    let vis = item.nr_visibilities() as u64;
    let n2 = (subgrid_size * subgrid_size) as u64;
    OpCounts {
        fmas: pairs * FMAS_PER_SINCOS,
        sincos_pairs: pairs,
        dram_bytes: vis * BYTES_PER_VISIBILITY
            + item.nr_timesteps as u64 * BYTES_PER_UVW
            + n2 * BYTES_PER_SUBGRID_PIXEL // subgrid load
            + 2 * n2 * BYTES_PER_ATERM,
        shared_bytes: pairs * (BYTES_PER_SUBGRID_PIXEL + 16 + BYTES_PER_UVW),
        visibilities: vis,
    }
}

/// Channels between the host degridder's direct sincos anchors: the
/// private `REANCHOR` of `idg_kernels::cpu`, mirrored here. The property
/// test that holds [`cpu_degridder_item_counts`] to the kernel's measured
/// tally (`tests/props.rs`) fails if the two differ.
const CPU_REANCHOR: usize = 32;

/// The host degridder's even-spacing tolerance (`idg_kernels::cpu`'s
/// `SPACING_TOLERANCE`, mirrored like [`CPU_REANCHOR`]): channel `c` is on
/// the grid when `|ν_c − (ν_0 + c·Δν)| ≤ 1e-9·ν_c`, `Δν` the mean step.
fn evenly_spaced(frequencies: &[f64]) -> bool {
    let (Some(&first), Some(&last)) = (frequencies.first(), frequencies.last()) else {
        return false;
    };
    let step = (last - first) / (frequencies.len().max(2) - 1) as f64;
    let on_grid = |(c, f): (usize, &f64)| (f - (first + c as f64 * step)).abs() <= 1e-9 * f.abs();
    frequencies.iter().enumerate().all(on_grid)
}

/// Count one work item of the *host* degridder, `idg_kernels::degridder_cpu`,
/// in an observation with channel frequencies `frequencies` — what its
/// measured tally reads, as [`degridder_item_counts`] is for the paper's
/// kernels and the device models.
///
/// An item of at least three channels in an evenly spaced observation
/// rotates its phasors across channels. Per (timestep, pixel) it
/// evaluates one sincos per anchor channel (every 32nd, from the first)
/// and one for the rotation `e^{−iδ·index}`, instead of one per channel.
/// FMAs per (timestep, pixel): 1 per anchor phase, 1 for the rotation
/// phase, 4 per rotated channel (a complex multiply) and 16 per channel
/// for the reduction, so ρ = FMAs / sincos grows with the channel count.
/// Bytes and visibilities are the paper model's. Any other item takes a
/// sincos per channel and counts exactly as [`degridder_item_counts`].
pub fn cpu_degridder_item_counts(
    item: &WorkItem,
    subgrid_size: usize,
    frequencies: &[f64],
) -> OpCounts {
    let paper = degridder_item_counts(item, subgrid_size);
    let channels = item.nr_channels;
    if channels < 3 || !evenly_spaced(frequencies) {
        return paper;
    }
    let planes = (item.nr_timesteps * subgrid_size * subgrid_size) as u64;
    let anchors = channels.div_ceil(CPU_REANCHOR) as u64;
    let (channels, rotated) = (channels as u64, channels as u64 - anchors);
    OpCounts {
        sincos_pairs: planes * (anchors + 1),
        fmas: planes * (anchors + 1 + 4 * rotated + 16 * channels),
        ..paper
    }
}

/// Aggregate gridder counts over a whole plan.
pub fn gridder_counts(items: &[WorkItem], subgrid_size: usize) -> OpCounts {
    let mut total = OpCounts::default();
    for item in items {
        total.add(&gridder_item_counts(item, subgrid_size));
    }
    total
}

/// Aggregate degridder counts over a whole plan.
pub fn degridder_counts(items: &[WorkItem], subgrid_size: usize) -> OpCounts {
    let mut total = OpCounts::default();
    for item in items {
        total.add(&degridder_item_counts(item, subgrid_size));
    }
    total
}

/// Aggregate host degridder counts over a whole plan
/// ([`cpu_degridder_item_counts`]).
pub fn cpu_degridder_counts(
    items: &[WorkItem],
    subgrid_size: usize,
    frequencies: &[f64],
) -> OpCounts {
    let mut total = OpCounts::default();
    for item in items {
        total.add(&cpu_degridder_item_counts(item, subgrid_size, frequencies));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use idg_types::Baseline;

    fn item_ch(nr_timesteps: usize, nr_channels: usize) -> WorkItem {
        WorkItem {
            baseline_index: 0,
            baseline: Baseline::new(0, 1),
            time_offset: 0,
            nr_timesteps,
            channel_offset: 0,
            nr_channels,
            aterm_index: 0,
            coord_x: 0,
            coord_y: 0,
            w_plane: 0,
        }
    }

    #[test]
    fn rho_is_17_for_idg_kernels() {
        let c = gridder_item_counts(&item_ch(16, 8), 24);
        assert_eq!(c.rho(), 17.0);
        let d = degridder_item_counts(&item_ch(16, 8), 24);
        assert_eq!(d.rho(), 17.0);
    }

    #[test]
    fn pair_counts() {
        let c = gridder_item_counts(&item_ch(10, 16), 24);
        let pairs = 10 * 16 * 24 * 24;
        assert_eq!(c.sincos_pairs, pairs as u64);
        assert_eq!(c.fmas, 17 * pairs as u64);
        assert_eq!(c.total_ops(), 36 * pairs as u64);
        assert_eq!(c.visibilities, 160);
    }

    #[test]
    fn flops_exclude_sincos() {
        let c = gridder_item_counts(&item_ch(1, 1), 8);
        assert_eq!(c.flops(), 2 * c.fmas);
        assert!(c.flops() < c.total_ops());
    }

    #[test]
    fn kernels_are_compute_bound_in_dram_intensity() {
        // Sec. VI-B: "On all architectures, both kernels are compute
        // bound" — the benchmark configuration's OI must exceed every
        // machine balance point (peak_ops / mem_bw ≈ 29 for PASCAL).
        let c = gridder_item_counts(&item_ch(128, 16), 24);
        assert!(
            c.intensity_dram() > 100.0,
            "gridder OI_dram = {}",
            c.intensity_dram()
        );
        let d = degridder_item_counts(&item_ch(128, 16), 24);
        assert!(d.intensity_dram() > 100.0);
    }

    #[test]
    fn shared_intensity_is_order_one() {
        // Fig. 13: the kernels sit near OI ≈ 1 op/byte w.r.t. shared
        // memory (36 ops per 44 staged bytes).
        let c = gridder_item_counts(&item_ch(64, 16), 24);
        let oi = c.intensity_shared();
        assert!((0.5..2.0).contains(&oi), "OI_shared = {oi}");
    }

    #[test]
    fn aggregation_sums_items() {
        let items = vec![item_ch(4, 4), item_ch(8, 4), item_ch(12, 4)];
        let total = gridder_counts(&items, 16);
        let manual: u64 = [4u64, 8, 12]
            .iter()
            .map(|t| t * 4 * 16 * 16 * FMAS_PER_SINCOS)
            .sum();
        assert_eq!(total.fmas, manual);
        assert_eq!(total.visibilities, (4 + 8 + 12) * 4);
    }

    #[test]
    fn host_degridder_rotates_evenly_spaced_channels() {
        let even: Vec<f64> = (0..40).map(|c| 150e6 + c as f64 * 1e6).collect();
        let (item, paper) = (item_ch(10, 16), degridder_item_counts(&item_ch(10, 16), 24));
        let host = cpu_degridder_item_counts(&item, 24, &even);
        // two sincos per (timestep, pixel), ρ = (2 + 4·15 + 16·16) / 2
        assert_eq!(host.sincos_pairs, 10 * 24 * 24 * 2);
        assert_eq!(host.rho(), 159.0);
        let bytes = |c: OpCounts| (c.dram_bytes, c.shared_bytes, c.visibilities);
        assert_eq!(bytes(host), bytes(paper));
        // 40 channels: anchors at 0 and 32
        let wide = cpu_degridder_item_counts(&item_ch(1, 40), 24, &even);
        assert_eq!(wide.sincos_pairs, 24 * 24 * 3);

        // a sincos per channel: off the even grid, or under 3 channels
        let mut uneven = even.clone();
        uneven[5] += 1e3;
        assert_eq!(cpu_degridder_item_counts(&item, 24, &uneven), paper);
        let two = item_ch(10, 2);
        let paper_two = degridder_item_counts(&two, 24);
        assert_eq!(cpu_degridder_item_counts(&two, 24, &even), paper_two);
    }

    #[test]
    fn rho_infinite_without_sincos() {
        let c = OpCounts {
            fmas: 10,
            ..Default::default()
        };
        assert!(c.rho().is_infinite());
    }
}
