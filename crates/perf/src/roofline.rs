//! The modified roofline model — Figs. 11 and 13.
//!
//! A classic roofline bounds attainable performance by
//! `min(peak, OI × bandwidth)`. The paper's *modification* adds a second
//! compute ceiling derived from the instruction mix: with ρ = 17 FMAs
//! per sincos, architectures that evaluate sincos in software cannot
//! reach the FMA peak regardless of OI (the dashed lines of Fig. 11).
//! Fig. 13 re-plots the same kernels against the *shared-memory*
//! bandwidth, revealing that the GPU kernels sit at that bound.

use crate::arch::Architecture;
use crate::mix::{attainable_ops_per_sec, IDG_RHO};
use crate::ops::OpCounts;

/// Which memory level the roofline is drawn against.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemoryLevel {
    /// Device / main memory (Fig. 11).
    Dram,
    /// Shared memory / L1 (Fig. 13).
    Shared,
}

/// A measured or modeled kernel placed on a roofline.
#[derive(Clone, Debug)]
pub struct RooflinePoint {
    /// Kernel label ("gridder", "degridder").
    pub name: String,
    /// Operational intensity (ops / byte) at the chosen memory level.
    pub intensity: f64,
    /// Achieved performance, TOps/s.
    pub achieved_tops: f64,
}

impl RooflinePoint {
    /// Build a point from op counts and an execution time.
    pub fn from_counts(name: &str, counts: &OpCounts, seconds: f64, level: MemoryLevel) -> Self {
        let intensity = match level {
            MemoryLevel::Dram => counts.intensity_dram(),
            MemoryLevel::Shared => counts.intensity_shared(),
        };
        Self {
            name: name.to_string(),
            intensity,
            achieved_tops: counts.total_ops() as f64 / seconds / 1e12,
        }
    }
}

/// A roofline for one architecture and memory level.
#[derive(Clone, Debug)]
pub struct Roofline {
    /// The architecture.
    pub arch: Architecture,
    /// Memory level the bandwidth ceiling refers to.
    pub level: MemoryLevel,
    /// Kernels placed on the plot.
    pub points: Vec<RooflinePoint>,
}

impl Roofline {
    /// Create an empty roofline.
    pub fn new(arch: Architecture, level: MemoryLevel) -> Self {
        Self {
            arch,
            level,
            points: Vec::new(),
        }
    }

    /// Bandwidth of the selected memory level, GB/s.
    fn bandwidth_gbps(&self) -> f64 {
        match self.level {
            MemoryLevel::Dram => self.arch.mem_bw_gbps,
            MemoryLevel::Shared => self.arch.shared_bw_gbps,
        }
    }

    /// The hardware ceiling at operational intensity `oi`:
    /// `min(peak, oi × bandwidth)`, TOps/s.
    pub fn hardware_ceiling(&self, oi: f64) -> f64 {
        let bw_tops = oi * self.bandwidth_gbps() * 1e9 / 1e12;
        bw_tops.min(self.arch.peak_tops())
    }

    /// The paper's *modified* ceiling: hardware ceiling additionally
    /// clipped by the ρ = 17 instruction-mix bound (the dashed line).
    fn mix_ceiling(&self, oi: f64) -> f64 {
        let mix = attainable_ops_per_sec(&self.arch, IDG_RHO) / 1e12;
        self.hardware_ceiling(oi).min(mix)
    }

    /// The ridge point: the OI where the bandwidth ceiling meets peak.
    pub fn ridge_intensity(&self) -> f64 {
        self.arch.peak_tops() * 1e12 / (self.bandwidth_gbps() * 1e9)
    }

    /// Add a kernel point.
    pub fn push(&mut self, point: RooflinePoint) {
        self.points.push(point);
    }

    /// Fraction of the *modified* ceiling a point achieves — "close to
    /// optimal, given the limitations of hardware *and* the supporting
    /// mathematical library" means this is near 1.
    pub fn efficiency(&self, point: &RooflinePoint) -> f64 {
        point.achieved_tops / self.mix_ceiling(point.intensity)
    }

    /// Fraction of the raw hardware ceiling (Fig. 11's solid line).
    pub fn hardware_efficiency(&self, point: &RooflinePoint) -> f64 {
        point.achieved_tops / self.hardware_ceiling(point.intensity)
    }

    /// Render a text summary (one line per point).
    pub fn render(&self) -> String {
        let mut out = format!(
            "roofline [{}] ({:?}): peak {:.2} TOps/s, bw {:.0} GB/s, ridge OI {:.1}, mix ceiling {:.2} TOps/s\n",
            self.arch.nickname,
            self.level,
            self.arch.peak_tops(),
            self.bandwidth_gbps(),
            self.ridge_intensity(),
            attainable_ops_per_sec(&self.arch, IDG_RHO) / 1e12,
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:<12} OI {:>8.2} ops/B  achieved {:>6.3} TOps/s  ({:>5.1}% of hw, {:>5.1}% of mix ceiling)\n",
                p.name,
                p.intensity,
                p.achieved_tops,
                100.0 * self.hardware_efficiency(p),
                100.0 * self.efficiency(p),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;

    #[test]
    fn ceiling_shapes() {
        let r = Roofline::new(Architecture::pascal(), MemoryLevel::Dram);
        // memory-bound region grows linearly
        assert!(r.hardware_ceiling(0.1) < r.hardware_ceiling(1.0));
        // compute-bound region is flat at peak
        assert_eq!(r.hardware_ceiling(1e6), 9.22);
        // ridge where they meet
        let ridge = r.ridge_intensity();
        assert!((r.hardware_ceiling(ridge) - 9.22).abs() < 1e-9);
        assert!((ridge - 9.22e12 / 320e9).abs() < 1e-3);
    }

    #[test]
    fn mix_ceiling_clips_haswell_but_not_pascal() {
        let h = Roofline::new(Architecture::haswell(), MemoryLevel::Dram);
        assert!(h.mix_ceiling(1e6) < 0.6 * h.arch.peak_tops());

        let p = Roofline::new(Architecture::pascal(), MemoryLevel::Dram);
        assert!(p.mix_ceiling(1e6) > 0.85 * p.arch.peak_tops());
    }

    #[test]
    fn efficiency_of_point_on_the_ceiling_is_one() {
        let mut r = Roofline::new(Architecture::fiji(), MemoryLevel::Dram);
        let oi = 200.0;
        let pt = RooflinePoint {
            name: "gridder".into(),
            intensity: oi,
            achieved_tops: r.mix_ceiling(oi),
        };
        r.push(pt.clone());
        assert!((r.efficiency(&pt) - 1.0).abs() < 1e-12);
        assert!(r.hardware_efficiency(&pt) <= 1.0);
    }

    #[test]
    fn shared_level_uses_shared_bandwidth() {
        let r = Roofline::new(Architecture::pascal(), MemoryLevel::Shared);
        assert_eq!(r.bandwidth_gbps(), 9200.0);
        // at OI ≈ 0.8 ops/B the shared roofline bounds well below peak
        assert!(r.hardware_ceiling(0.8) < 9.22);
    }

    #[test]
    fn from_counts_computes_intensity_and_rate() {
        let counts = OpCounts {
            fmas: 1700,
            sincos_pairs: 100,
            dram_bytes: 36,
            shared_bytes: 3600,
            visibilities: 10,
        };
        let p = RooflinePoint::from_counts("k", &counts, 1e-9, MemoryLevel::Dram);
        assert!((p.intensity - counts.intensity_dram()).abs() < 1e-12);
        // 3600 ops in 1 ns = 3.6 TOps/s
        assert!((p.achieved_tops - 3.6).abs() < 1e-9);
        let q = RooflinePoint::from_counts("k", &counts, 1e-9, MemoryLevel::Shared);
        assert!(q.intensity < p.intensity);
    }

    #[test]
    fn render_contains_points() {
        let mut r = Roofline::new(Architecture::haswell(), MemoryLevel::Dram);
        r.push(RooflinePoint {
            name: "gridder".into(),
            intensity: 100.0,
            achieved_tops: 0.4,
        });
        let text = r.render();
        assert!(text.contains("HASWELL"));
        assert!(text.contains("gridder"));
    }
}
