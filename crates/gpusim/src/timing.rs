//! Kernel and transfer timing model.
//!
//! A kernel's modeled duration is its most-binding ceiling:
//!
//! `t = max(t_fma, t_sincos, t_dram, t_shared) / scheduling_efficiency`
//!
//! where the first two terms follow the architecture's sincos model
//! (Sec. VI-C: concurrent SFU queue on PASCAL; ALU slots on FIJI) and
//! the last two are the bandwidth ceilings of the Fig. 11 / Fig. 13
//! rooflines. Transfers ride the PCI-e bus at its modeled bandwidth.

use crate::device::Device;
use idg_perf::mix::modeled_kernel_seconds;
use idg_perf::OpCounts;

/// Modeled execution time of a kernel described by `counts` on `device`
/// (delegates to the shared timing formula in `idg-perf`).
pub fn kernel_time(device: &Device, counts: &OpCounts) -> f64 {
    modeled_kernel_seconds(&device.arch, counts, device.scheduling_efficiency)
}

/// Modeled PCI-e transfer time for `bytes` (either direction).
pub fn transfer_time(device: &Device, bytes: u64) -> f64 {
    let bw = device.arch.pcie_bw_gbps.unwrap_or(12.0) * 1e9;
    // ~2 µs DMA setup latency per transfer
    2e-6 + bytes as f64 / bw
}

/// Modeled duration of the batched subgrid FFTs: `4·count` planes of
/// `n × n` at `5·N·log₂N` flops per 1-D transform, executed at a
/// conservative fraction of peak (vendor FFT libraries reach roughly a
/// third of peak on these sizes).
pub fn subgrid_fft_time(device: &Device, nr_subgrids: usize, n: usize) -> f64 {
    let n_f = n as f64;
    let flops_per_plane = 2.0 * n_f * 5.0 * n_f * n_f.log2(); // rows+cols
    let total = 4.0 * nr_subgrids as f64 * flops_per_plane;
    let rate = device.arch.peak_tops() * 1e12 / 3.0;
    total / rate
}

/// Modeled duration of the GPU adder/splitter: device-memory bound over
/// subgrid reads plus atomic grid updates (Sec. V-C e).
pub fn adder_time(device: &Device, nr_subgrids: usize, n: usize) -> f64 {
    let bytes = nr_subgrids as u64 * (4 * n * n) as u64 * 8 * 2; // read + RMW
    bytes as f64 / (device.arch.mem_bw_gbps * 1e9) / device.scheduling_efficiency
}

/// Effective host memory bandwidth of the host-side adder (option (2)
/// of Sec. V-C e): subgrids stream back over PCI-e and the host memory
/// system performs the add, parallel over row bands.
pub const HOST_ADDER_BW: f64 = 40e9;

/// Modeled duration of the host-side adder over `nr_subgrids` subgrids
/// of `n × n`: twice their bytes (subgrid read + grid read-modify-write,
/// as [`adder_time`] counts them) at [`HOST_ADDER_BW`], charged to each
/// gridding job of a device pass whose grid does not fit on the device.
pub fn host_adder_time(nr_subgrids: usize, n: usize) -> f64 {
    let subgrid_bytes = (nr_subgrids * 4 * n * n * 8) as u64;
    2.0 * subgrid_bytes as f64 / HOST_ADDER_BW
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use idg_perf::gridder_counts;
    use idg_plan::WorkItem;
    use idg_types::Baseline;

    fn items(count: usize, timesteps: usize) -> Vec<WorkItem> {
        (0..count)
            .map(|i| WorkItem {
                baseline_index: i,
                baseline: Baseline::new(0, 1),
                time_offset: 0,
                nr_timesteps: timesteps,
                channel_offset: 0,
                nr_channels: 16,
                aterm_index: 0,
                coord_x: 0,
                coord_y: 0,
                w_plane: 0,
            })
            .collect()
    }

    #[test]
    fn pascal_gridder_lands_near_paper_fraction() {
        // Fig. 11: PASCAL gridder at 74 % of peak. Our model: the
        // shared-memory ceiling (OI ≈ 0.82 ops/B) times the scheduling
        // efficiency.
        let device = Device::pascal();
        let work = items(64, 128);
        let counts = gridder_counts(&work, 24);
        let t = kernel_time(&device, &counts);
        let achieved = counts.total_ops() as f64 / t;
        let fraction = achieved / (device.arch.peak_tops() * 1e12);
        assert!(
            (0.6..0.85).contains(&fraction),
            "PASCAL modeled gridder fraction {fraction}"
        );
    }

    #[test]
    fn fiji_is_sincos_limited() {
        let device = Device::fiji();
        let work = items(64, 128);
        let counts = gridder_counts(&work, 24);
        let t = kernel_time(&device, &counts);
        let achieved = counts.total_ops() as f64 / t;
        let fraction = achieved / (device.arch.peak_tops() * 1e12);
        assert!(
            (0.3..0.55).contains(&fraction),
            "FIJI modeled gridder fraction {fraction}"
        );
    }

    #[test]
    fn pascal_beats_fiji_in_efficiency_but_both_are_fast() {
        let work = items(32, 64);
        let counts = gridder_counts(&work, 24);
        let tp = kernel_time(&Device::pascal(), &counts);
        let tf = kernel_time(&Device::fiji(), &counts);
        let fp = counts.total_ops() as f64 / tp / (9.22e12);
        let ff = counts.total_ops() as f64 / tf / (8.60e12);
        assert!(fp > ff, "PASCAL more efficient: {fp} vs {ff}");
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let d = Device::pascal();
        let t1 = transfer_time(&d, 12_000_000);
        let t2 = transfer_time(&d, 24_000_000);
        assert!(t2 > t1);
        // 12 MB at 12 GB/s ≈ 1 ms + latency
        assert!((t1 - 0.001).abs() < 2e-4);
    }

    #[test]
    fn kernel_time_is_additive_in_work() {
        let d = Device::pascal();
        let c1 = gridder_counts(&items(10, 64), 24);
        let c2 = gridder_counts(&items(20, 64), 24);
        let t1 = kernel_time(&d, &c1);
        let t2 = kernel_time(&d, &c2);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fft_and_adder_are_fast_relative_to_gridder() {
        // Fig. 9: "runtime is dominated by the gridder and degridder
        // kernels (more than 93 %)".
        let d = Device::pascal();
        let work = items(256, 128);
        let counts = gridder_counts(&work, 24);
        let t_grid = kernel_time(&d, &counts);
        let t_fft = subgrid_fft_time(&d, 256, 24);
        let t_add = adder_time(&d, 256, 24);
        assert!(
            (t_fft + t_add) < 0.07 * t_grid,
            "fft {t_fft} + adder {t_add} vs gridder {t_grid}"
        );
    }
}
