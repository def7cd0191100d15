//! The FMA/sincos instruction-mix throughput model — Fig. 12.
//!
//! For a workload executing ρ FMAs per sincos pair, the attainable
//! operation rate depends on where the sincos is evaluated:
//!
//! * **software library** (HASWELL): the pair occupies the FMA pipes for
//!   `s` FMA-equivalent slots ⇒ rate = `(2ρ+2)/(ρ+s) × fma_rate`;
//! * **ALU at 1/d rate** (FIJI): the pair costs `2d` ALU slots ⇒
//!   rate = `(2ρ+2)/(ρ+2d) × fma_rate`;
//! * **hardware SFU** (PASCAL): sincos issues to a separate queue with
//!   throughput `f × fma_rate` per evaluation, so the two pipes overlap:
//!   time = `max(ρ, 2/f) / fma_rate` per group (2 SFU ops per pair) ⇒
//!   rate = `(2ρ+2)/max(ρ, 2/f) × fma_rate`, capped at the architecture
//!   peak.
//!
//! The dashed "new upper bound" ceilings of Fig. 11 are these curves at
//! ρ = 17.

use crate::arch::{Architecture, SincosUnit};

/// The ρ of the IDG gridder/degridder kernels (Algorithm 1's caption).
pub const IDG_RHO: f64 = 17.0;

/// Attainable operation rate (Ops/s, paper definition) for a workload of
/// ρ FMAs per sincos pair on `arch`.
pub fn attainable_ops_per_sec(arch: &Architecture, rho: f64) -> f64 {
    assert!(rho >= 0.0);
    let fma_rate = arch.fma_rate();
    let ops_per_group = 2.0 * rho + 2.0;
    let rate = match arch.sincos {
        SincosUnit::SoftwareLibrary { fma_equivalents } => {
            ops_per_group / (rho + fma_equivalents) * fma_rate
        }
        SincosUnit::Alu {
            slots_per_evaluation,
        } => ops_per_group / (rho + 2.0 * slots_per_evaluation) * fma_rate,
        SincosUnit::HardwareSfu {
            throughput_fraction,
        } => {
            let sfu_slots = 2.0 / throughput_fraction; // two evaluations
            ops_per_group / rho.max(sfu_slots) * fma_rate
        }
    };
    rate.min(arch.peak_tops() * 1e12)
}

/// Modeled execution time of a kernel described by `counts` on `arch`:
/// the most-binding of the FMA-pipe, sincos, device-memory and
/// shared-memory ceilings, divided by a scheduling-efficiency factor
/// (occupancy, barriers, tails). This is the single timing formula
/// behind every modeled architecture row in the figures; `idg-gpusim`
/// wraps it for its device model.
pub fn modeled_kernel_seconds(
    arch: &Architecture,
    counts: &crate::ops::OpCounts,
    scheduling_efficiency: f64,
) -> f64 {
    let fma_rate = arch.fma_rate();
    let (t_fma, t_sincos) = match arch.sincos {
        SincosUnit::HardwareSfu {
            throughput_fraction,
        } => {
            let t_fma = counts.fmas as f64 / fma_rate;
            let sfu_rate = fma_rate * throughput_fraction;
            (t_fma, (2 * counts.sincos_pairs) as f64 / sfu_rate)
        }
        SincosUnit::Alu {
            slots_per_evaluation,
        } => {
            let slots =
                counts.fmas as f64 + 2.0 * slots_per_evaluation * counts.sincos_pairs as f64;
            (slots / fma_rate, 0.0)
        }
        SincosUnit::SoftwareLibrary { fma_equivalents } => {
            let slots = counts.fmas as f64 + fma_equivalents * counts.sincos_pairs as f64;
            (slots / fma_rate, 0.0)
        }
    };
    let t_dram = counts.dram_bytes as f64 / (arch.mem_bw_gbps * 1e9);
    let t_shared = counts.shared_bytes as f64 / (arch.shared_bw_gbps * 1e9);
    t_fma.max(t_sincos).max(t_dram).max(t_shared) / scheduling_efficiency
}

/// The ρ values the paper sweeps (powers of two plus the IDG point).
pub fn standard_rhos() -> Vec<f64> {
    vec![
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, IDG_RHO, 32.0, 64.0, 128.0, 256.0,
    ]
}

/// Measure the host CPU's real mix curve with the `idg-math` microkernel
/// (wall-clock). Returns Ops/s.
pub fn measure_host_mix(rho: u32, iterations: u64) -> f64 {
    use idg_math::mix::mix_kernel;
    use idg_math::Accuracy;
    let start = std::time::Instant::now();
    let result = mix_kernel(rho, iterations, Accuracy::Medium);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(result.checksum.is_finite());
    result.total_ops as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;

    #[test]
    fn pure_fma_reaches_peak() {
        // ρ → ∞ approaches the FMA peak on every architecture.
        for a in Architecture::all() {
            let r = attainable_ops_per_sec(&a, 1e6);
            assert!(
                (r / (a.peak_tops() * 1e12) - 1.0).abs() < 1e-3,
                "{} at huge rho: {r}",
                a.nickname
            );
        }
    }

    #[test]
    fn pascal_stays_high_at_low_rho() {
        // "the performance of PASCAL stays high when ρ decreases" —
        // at ρ = 8 the SFU pipe fully hides the sincos latency.
        let p = Architecture::pascal();
        let at_8 = attainable_ops_per_sec(&p, 8.0);
        assert!(at_8 / (p.peak_tops() * 1e12) > 0.9, "{at_8}");
    }

    #[test]
    fn fiji_and_haswell_degrade_at_low_rho() {
        // "a more significant performance degradation is observed for
        // small values of ρ" on FIJI (and similarly HASWELL).
        for a in [Architecture::fiji(), Architecture::haswell()] {
            let lo = attainable_ops_per_sec(&a, 1.0);
            let hi = attainable_ops_per_sec(&a, 256.0);
            assert!(lo < 0.5 * hi, "{}: {lo} vs {hi}", a.nickname);
        }
    }

    #[test]
    fn idg_rho_ceilings_reproduce_fig11_dashed_lines() {
        // At ρ = 17: PASCAL close to peak; HASWELL and FIJI far below —
        // the dashed ceilings of Fig. 11.
        let p = Architecture::pascal();
        let frac_p = attainable_ops_per_sec(&p, IDG_RHO) / (p.peak_tops() * 1e12);
        assert!(frac_p > 0.85, "PASCAL ceiling fraction {frac_p}");

        let h = Architecture::haswell();
        let frac_h = attainable_ops_per_sec(&h, IDG_RHO) / (h.peak_tops() * 1e12);
        assert!(
            (0.1..0.35).contains(&frac_h),
            "HASWELL ceiling fraction {frac_h}"
        );

        let f = Architecture::fiji();
        let frac_f = attainable_ops_per_sec(&f, IDG_RHO) / (f.peak_tops() * 1e12);
        assert!(
            (0.35..0.65).contains(&frac_f),
            "FIJI ceiling fraction {frac_f}"
        );

        // ordering: PASCAL > FIJI > HASWELL in ceiling fraction
        assert!(frac_p > frac_f && frac_f > frac_h);
    }

    #[test]
    fn curve_is_monotone_in_rho() {
        for a in Architecture::all() {
            let mut prev = 0.0;
            for rho in [0.0, 1.0, 2.0, 4.0, 8.0, 17.0, 64.0, 256.0] {
                let frac = attainable_ops_per_sec(&a, rho) / (a.peak_tops() * 1e12);
                assert!(
                    frac >= prev - 1e-9,
                    "{} non-monotone at rho={rho}",
                    a.nickname
                );
                prev = frac;
            }
        }
    }

    #[test]
    fn host_measurement_is_positive() {
        let rate = measure_host_mix(17, 200_000);
        assert!(rate > 1e6, "host mix rate {rate} ops/s");
    }
}
