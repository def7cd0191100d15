//! Energy model — Figs. 14 and 15.
//!
//! The paper measures energy with RAPL (LIKWID) on the CPU and
//! PowerSensor on the GPUs. We model the same quantities from Table I's
//! TDP figures: a kernel running for `t` seconds at utilization `u`
//! consumes `t · (P_idle + u·(TDP − P_idle))` joules on the device, plus
//! host package+DRAM power while a GPU kernel runs (Fig. 14 stacks the
//! host contribution on top of the device bars).

use crate::arch::{ArchKind, Architecture};
use crate::ops::OpCounts;

/// Energy model parameters for one architecture.
#[derive(Clone, Debug)]
pub struct EnergyModel {
    /// The device.
    pub arch: Architecture,
    /// Idle power as a fraction of TDP (device held at base clocks).
    pub idle_fraction: f64,
    /// Host package + DRAM power while driving a GPU, W (0 for CPUs —
    /// there the package *is* the device).
    pub host_power_w: f64,
}

impl EnergyModel {
    /// Default model: 15 % idle fraction; 60 W of host package+DRAM
    /// activity while a GPU computes (the paper measures host power
    /// separately for FIJI/PASCAL, Sec. VI-D).
    pub fn new(arch: Architecture) -> Self {
        let host_power_w = match arch.kind {
            ArchKind::Cpu => 0.0,
            ArchKind::Gpu => 60.0,
        };
        Self {
            arch,
            idle_fraction: 0.15,
            host_power_w,
        }
    }

    /// Device power at utilization `u ∈ [0, 1]`, W.
    fn device_power(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let idle = self.idle_fraction * self.arch.tdp_w;
        idle + u * (self.arch.tdp_w - idle)
    }

    /// Device energy of a kernel running `seconds` at `utilization`, J.
    pub fn device_energy(&self, seconds: f64, utilization: f64) -> f64 {
        seconds * self.device_power(utilization)
    }

    /// Host energy accrued while the device runs for `seconds`, J.
    pub fn host_energy(&self, seconds: f64) -> f64 {
        seconds * self.host_power_w
    }

    /// Energy efficiency in GFlops/W for a kernel described by `counts`
    /// running `seconds` at `utilization` — the Fig. 15 metric (flops
    /// exclude the sin/cos evaluations).
    pub fn gflops_per_watt(&self, counts: &OpCounts, seconds: f64, utilization: f64) -> f64 {
        let gflops = counts.flops() as f64 / seconds / 1e9;
        gflops / self.device_power(utilization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{attainable_ops_per_sec, IDG_RHO};

    fn busy_counts(ops_per_sec: f64, seconds: f64) -> OpCounts {
        // an IDG-shaped workload achieving ops_per_sec for `seconds`
        let total_ops = ops_per_sec * seconds;
        let groups = total_ops / 36.0;
        OpCounts {
            fmas: (groups * 17.0) as u64,
            sincos_pairs: groups as u64,
            dram_bytes: 1,
            shared_bytes: 1,
            visibilities: 0,
        }
    }

    #[test]
    fn power_interpolates_between_idle_and_tdp() {
        let m = EnergyModel::new(Architecture::pascal());
        assert!((m.device_power(0.0) - 27.0).abs() < 1e-9); // 15% of 180
        assert!((m.device_power(1.0) - 180.0).abs() < 1e-9);
        let half = m.device_power(0.5);
        assert!(half > 27.0 && half < 180.0);
        // clamped outside [0,1]
        assert_eq!(m.device_power(2.0), 180.0);
    }

    #[test]
    fn cpu_has_no_separate_host_power() {
        let m = EnergyModel::new(Architecture::haswell());
        assert_eq!(m.host_energy(10.0), 0.0);
        let g = EnergyModel::new(Architecture::pascal());
        assert!(g.host_energy(10.0) > 0.0);
    }

    #[test]
    fn fig15_shape_pascal_vs_haswell() {
        // PASCAL gridder at the modeled ρ=17 rate and full utilization
        // should land in the tens of GFlops/W; HASWELL in the ~1-2 range —
        // the order-of-magnitude gap of Fig. 15.
        let pascal = Architecture::pascal();
        let rate_p = attainable_ops_per_sec(&pascal, IDG_RHO);
        let m_p = EnergyModel::new(pascal);
        let eff_p = m_p.gflops_per_watt(&busy_counts(rate_p, 1.0), 1.0, 1.0);
        assert!((20.0..60.0).contains(&eff_p), "PASCAL {eff_p} GFlops/W");

        let haswell = Architecture::haswell();
        let rate_h = attainable_ops_per_sec(&haswell, IDG_RHO);
        let m_h = EnergyModel::new(haswell);
        let eff_h = m_h.gflops_per_watt(&busy_counts(rate_h, 1.0), 1.0, 1.0);
        assert!((0.5..4.0).contains(&eff_h), "HASWELL {eff_h} GFlops/W");

        assert!(
            eff_p / eff_h > 8.0,
            "order-of-magnitude gap: {eff_p} vs {eff_h}"
        );
    }

    #[test]
    fn fiji_sits_between() {
        let fiji = Architecture::fiji();
        let rate = attainable_ops_per_sec(&fiji, IDG_RHO);
        let m = EnergyModel::new(fiji);
        let eff = m.gflops_per_watt(&busy_counts(rate, 1.0), 1.0, 1.0);
        assert!((5.0..25.0).contains(&eff), "FIJI {eff} GFlops/W");
    }
}
