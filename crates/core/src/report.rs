//! Per-pass execution reports.
//!
//! One [`ExecutionReport`] is produced per gridding/degridding pass,
//! carrying exactly the quantities the paper's evaluation section plots:
//! per-stage times (Fig. 9), visibility throughput (Fig. 10), operation
//! counts and intensities (Figs. 11–13) and energy (Figs. 14–15).

use crate::stream::StreamStats;
use idg_gpusim::{DeviceReport, JobFailure};
use idg_obs::MetricsSnapshot;
use idg_perf::OpCounts;

/// Aggregated multi-device statistics of a fleet pass.
///
/// Present on [`ExecutionReport`] only when the pass ran on a
/// [`idg_gpusim::FleetExecutor`] (see [`crate::Proxy::with_fleet`]);
/// `None` for CPU and single-device passes. The merged makespan is
/// the report's `total_seconds`; retries are aggregated into the
/// report's `nr_retries`.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// Number of member devices the pass was partitioned across.
    pub nr_devices: usize,
    /// Dispatches that did not land on the job's preferred device
    /// (breaker refusals, dead devices, post-failure re-queues).
    pub redispatched_jobs: usize,
    /// Degradation-ladder rungs taken across the fleet.
    pub degradation_steps: usize,
    /// Circuit-breaker trips summed over devices.
    pub breaker_trips: u64,
    /// Per-device breakdown (completion counts, retries, final
    /// degradation rung, pipeline makespan, liveness).
    pub per_device: Vec<DeviceReport>,
}

/// Timing and accounting of one gridding or degridding pass.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Back-end label ("cpu-optimized", "gpu-pascal", …).
    pub backend: String,
    /// "gridding" or "degridding".
    pub pass: &'static str,
    /// True when the times/energies are modeled (GPU device model)
    /// rather than wall-clock measured.
    pub modeled: bool,
    /// Main (gridder/degridder) kernel time, s.
    pub kernel_seconds: f64,
    /// Subgrid FFT time, s.
    pub fft_seconds: f64,
    /// Adder or splitter time, s.
    pub adder_seconds: f64,
    /// Host↔device transfer time, s (0 for CPU back-ends).
    pub transfer_seconds: f64,
    /// End-to-end pass time (with overlap for modeled back-ends), s.
    pub total_seconds: f64,
    /// Operation/byte counters of the main kernel.
    pub counts: OpCounts,
    /// Work items the pass launched (one kernel invocation each);
    /// summed over the chunk passes of a stream.
    pub launched_items: usize,
    /// Jobs the items were cut into, work groups of
    /// [`crate::Proxy::work_group_size`] items on every back-end. A
    /// stream cuts each chunk plan into its own, so they sum per chunk.
    pub launched_jobs: usize,
    /// Modeled device energy, J (modeled back-ends only).
    pub device_energy_j: Option<f64>,
    /// Modeled host energy while driving the device, J.
    pub host_energy_j: Option<f64>,
    /// Re-enqueued device attempts after transient faults (GPU
    /// back-ends with fault injection; 0 otherwise).
    pub nr_retries: usize,
    /// Modeled backoff delay inserted before retries, s.
    pub backoff_seconds: f64,
    /// Device jobs that failed persistently and were re-executed on
    /// the CPU reference backend (graceful degradation). Empty when the
    /// pass ran entirely on its selected back-end.
    pub fallback_jobs: Vec<JobFailure>,
    /// Multi-device aggregation when the pass ran on a fleet;
    /// `None` for CPU and single-device passes.
    pub fleet: Option<FleetStats>,
    /// Measured counter snapshot of the pass, present when it ran under
    /// an observability session ([`crate::Proxy::grid_observed`] /
    /// [`crate::Proxy::degrid_observed`]); `None` for plain passes, so
    /// existing consumers are unaffected.
    pub metrics: Option<MetricsSnapshot>,
    /// Chunked-ingestion summary when the pass was streamed
    /// ([`crate::Proxy::grid_streamed`] or
    /// [`crate::Proxy::degrid_streamed`]): the chunk count and the
    /// configuration's closed forms. `None` for one-shot passes.
    pub stream: Option<StreamStats>,
}

impl ExecutionReport {
    /// Visibility throughput of the whole pass, MVisibilities/s —
    /// the Fig. 10 metric, computed from [`Self::effective_counts`]
    /// (measured counters when the pass was observed). 0 when the pass
    /// measured no elapsed time (empty plans and sub-tick passes must
    /// not report NaN/∞ rates).
    pub fn mvis_per_sec(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        self.effective_counts().visibilities as f64 / self.total_seconds / 1e6
    }

    /// Achieved main-kernel rate, TOps/s (paper operation definition) —
    /// the Fig. 11 y-axis, from [`Self::effective_counts`]. 0 when no
    /// kernel time was measured.
    pub fn kernel_tops(&self) -> f64 {
        if self.kernel_seconds <= 0.0 {
            return 0.0;
        }
        self.effective_counts().total_ops() as f64 / self.kernel_seconds / 1e12
    }

    /// Fraction of the pass spent in the main kernel — Fig. 9's
    /// ">93 %" observation. 0 when no stage measured any time.
    pub fn kernel_fraction(&self) -> f64 {
        let serial = self.serial_seconds();
        if serial <= 0.0 {
            return 0.0;
        }
        self.kernel_seconds / serial
    }

    /// Sum of all stage times (no overlap) — the Fig. 9 stacking basis.
    pub fn serial_seconds(&self) -> f64 {
        self.kernel_seconds + self.fft_seconds + self.adder_seconds + self.transfer_seconds
    }

    /// The pass's main-kernel operation counts, preferring *measured*
    /// counters (incremented at the kernel call sites during an
    /// observed run) over the analytic model. Falls back to the
    /// analytic [`ExecutionReport::counts`] when the pass was not
    /// observed — the two are asserted equal on fault-free observed
    /// runs, so consumers may use this unconditionally.
    pub fn effective_counts(&self) -> OpCounts {
        match &self.metrics {
            Some(m) => {
                let k = m.pass_kernel();
                OpCounts {
                    fmas: k.fmas,
                    sincos_pairs: k.sincos_pairs,
                    dram_bytes: k.dram_bytes,
                    shared_bytes: k.shared_bytes,
                    visibilities: k.visibilities,
                }
            }
            None => self.counts,
        }
    }
}

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] {} ({})",
            self.backend,
            self.pass,
            if self.modeled { "modeled" } else { "measured" }
        )?;
        writeln!(
            f,
            "  kernel {:>9.4} s   fft {:>9.4} s   adder/splitter {:>9.4} s   transfer {:>9.4} s",
            self.kernel_seconds, self.fft_seconds, self.adder_seconds, self.transfer_seconds
        )?;
        writeln!(
            f,
            "  total  {:>9.4} s   {:>8.2} MVis/s   kernel {:>6.3} TOps/s   kernel share {:>5.1} %",
            self.total_seconds,
            self.mvis_per_sec(),
            self.kernel_tops(),
            100.0 * self.kernel_fraction()
        )?;
        if let (Some(d), Some(h)) = (self.device_energy_j, self.host_energy_j) {
            writeln!(f, "  energy {d:>9.2} J device + {h:>7.2} J host")?;
        }
        if self.nr_retries > 0 || !self.fallback_jobs.is_empty() {
            writeln!(
                f,
                "  faults {} retried attempts ({:.4} s backoff), {} jobs re-executed on the CPU",
                self.nr_retries,
                self.backoff_seconds,
                self.fallback_jobs.len()
            )?;
        }
        if let Some(s) = &self.stream {
            writeln!(
                f,
                "  stream {} ({} chunks, workers {}, window {}), peak inflight {}, {} backpressure waits",
                self.pass,
                s.nr_chunks,
                s.nr_workers,
                s.max_inflight,
                s.inflight_max,
                s.backpressure_waits
            )?;
        }
        if let Some(fleet) = &self.fleet {
            writeln!(
                f,
                "  fleet  {} devices, {} redispatched jobs, {} degradation steps, {} breaker trips",
                fleet.nr_devices,
                fleet.redispatched_jobs,
                fleet.degradation_steps,
                fleet.breaker_trips
            )?;
            for d in &fleet.per_device {
                writeln!(
                    f,
                    "    {:<8} {:>3} jobs   {:>3} retries   rung {}   {:>9.4} s{}",
                    d.nickname,
                    d.jobs_completed,
                    d.nr_retries,
                    d.degradation_level,
                    d.makespan,
                    if d.alive { "" } else { "   (dead)" }
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            backend: "test".into(),
            pass: "gridding",
            modeled: true,
            kernel_seconds: 0.95,
            fft_seconds: 0.02,
            adder_seconds: 0.02,
            transfer_seconds: 0.01,
            total_seconds: 0.97,
            counts: OpCounts {
                fmas: 17_000_000,
                sincos_pairs: 1_000_000,
                dram_bytes: 1_000_000,
                shared_bytes: 44_000_000,
                visibilities: 10_000,
            },
            launched_items: 16,
            launched_jobs: 1,
            device_energy_j: Some(100.0),
            host_energy_j: Some(20.0),
            nr_retries: 0,
            backoff_seconds: 0.0,
            fallback_jobs: Vec::new(),
            fleet: None,
            metrics: None,
            stream: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.serial_seconds() - 1.0).abs() < 1e-12);
        assert!((r.kernel_fraction() - 0.95).abs() < 1e-12);
        assert!((r.mvis_per_sec() - 10_000.0 / 0.97 / 1e6).abs() < 1e-9);
        let tops = 36_000_000.0 / 0.95 / 1e12;
        assert!((r.kernel_tops() - tops).abs() < 1e-15);
    }

    #[test]
    fn zero_duration_pass_reports_zero_rates_not_nan() {
        // A pass can measure 0 s: empty plans, or stages faster than
        // the clock tick. The derived rates must stay finite (a NaN
        // here poisons every aggregated benchmark table downstream).
        let r = ExecutionReport {
            kernel_seconds: 0.0,
            fft_seconds: 0.0,
            adder_seconds: 0.0,
            transfer_seconds: 0.0,
            total_seconds: 0.0,
            ..report()
        };
        assert_eq!(r.mvis_per_sec(), 0.0);
        assert_eq!(r.kernel_tops(), 0.0);
        assert_eq!(r.kernel_fraction(), 0.0);
        assert!(r.to_string().contains("0.00 MVis/s"));
    }

    #[test]
    fn effective_counts_prefer_the_measured_snapshot() {
        let mut r = report();
        assert_eq!(r.effective_counts(), r.counts, "unobserved: analytic");
        let mut snap = MetricsSnapshot::new("gridding");
        snap.gridder.fmas = 34;
        snap.gridder.sincos_pairs = 2;
        snap.gridder.visibilities = 1;
        r.metrics = Some(snap);
        let eff = r.effective_counts();
        assert_eq!(eff.fmas, 34);
        assert_eq!(eff.sincos_pairs, 2);
        assert_eq!(eff.visibilities, 1);
    }

    #[test]
    fn display_reports_recovery_cost_only_when_present() {
        assert!(!report().to_string().contains("faults"));
        let r = ExecutionReport {
            nr_retries: 2,
            backoff_seconds: 0.003,
            ..report()
        };
        assert!(r.to_string().contains("2 retried attempts"));
    }

    #[test]
    fn display_reports_fleet_stats_only_for_fleet_passes() {
        assert!(!report().to_string().contains("fleet"));
        let r = ExecutionReport {
            fleet: Some(FleetStats {
                nr_devices: 4,
                redispatched_jobs: 3,
                degradation_steps: 1,
                breaker_trips: 2,
                per_device: vec![DeviceReport {
                    nickname: "PASCAL",
                    jobs_completed: 15,
                    nr_retries: 6,
                    breaker_trips: 2,
                    degradation_level: 1,
                    makespan: 0.5,
                    alive: false,
                }],
            }),
            ..report()
        };
        let text = r.to_string();
        assert!(text.contains("4 devices"));
        assert!(text.contains("2 breaker trips"));
        assert!(text.contains("(dead)"));
    }

    #[test]
    fn display_reports_stream_stats_only_for_streamed_passes() {
        assert!(!report().to_string().contains("stream"));
        let r = ExecutionReport {
            pass: "degridding",
            stream: Some(StreamStats {
                nr_chunks: 4,
                nr_workers: 2,
                max_inflight: 2,
                inflight_max: 2,
                backpressure_waits: 2,
                failed_chunks: 0,
            }),
            ..report()
        };
        let text = r.to_string();
        assert!(text.contains("stream degridding"));
        assert!(text.contains("4 chunks, workers 2, window 2)"));
        assert!(text.contains("2 backpressure waits"));
    }

    #[test]
    fn display_includes_key_fields() {
        let text = report().to_string();
        assert!(text.contains("gridding"));
        assert!(text.contains("modeled"));
        assert!(text.contains("MVis/s"));
        assert!(text.contains("energy"));
    }
}
