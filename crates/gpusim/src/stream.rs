//! CUDA-stream pipeline simulation — the triple-buffering of Fig. 7.
//!
//! The paper overlaps PCI-e transfers with kernel execution using three
//! host threads, three buffer sets and three CUDA streams (one per
//! engine: host-to-device copies, kernel execution, device-to-host
//! copies). This module reproduces that schedule as a discrete-event
//! simulation: each engine serializes its own operations, operations of
//! one job are chained HtoD → kernel → DtoH, and a job may only start
//! its HtoD once its buffer set (job index mod #buffers) has been
//! released by the previous occupant — exactly the dashed-arrow
//! constraint in Fig. 7.
//!
//! The simulator also models *faulted* schedules: an attempt of a job
//! may fault at any engine ([`OpStatus::Faulted`]), which truncates the
//! attempt's chain there, and a retry of the same job can be submitted
//! with a `not_before` release time so backoff delays show up in the
//! makespan. Every operation records which attempt it belongs to, so
//! the Fig. 7 timeline doubles as the fault/retry audit trail.

/// The three hardware engines of the pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Host-to-device copy engine.
    HtoD,
    /// Kernel execution engine.
    Compute,
    /// Device-to-host copy engine.
    DtoH,
}

/// Completion status of one scheduled operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpStatus {
    /// The operation completed normally.
    Completed,
    /// The operation faulted (injected device fault); later phases of
    /// the same attempt were not scheduled.
    Faulted,
}

/// One scheduled operation in the timeline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Which engine executed the operation.
    pub engine: Engine,
    /// Job (work group) index.
    pub job: usize,
    /// Which attempt of the job this operation belongs to (0 = first
    /// execution, 1 = first retry, …).
    pub attempt: u32,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Whether the operation completed or faulted.
    pub status: OpStatus,
}

/// A fault point inside one attempt: the operation on `engine` runs for
/// its nominal duration plus `extra_seconds` (watchdog stall time, 0
/// for instant faults), is recorded as [`OpStatus::Faulted`], and the
/// rest of the attempt's chain is not scheduled.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultPoint {
    /// Engine whose operation faults.
    pub engine: Engine,
    /// Extra modeled seconds the faulted operation holds its engine.
    pub extra_seconds: f64,
}

/// Outcome of submitting one attempt.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AttemptOutcome {
    /// Time the attempt's last scheduled operation finished.
    pub end: f64,
    /// Whether the whole HtoD → kernel → DtoH chain completed.
    pub completed: bool,
}

/// The pipeline simulator.
#[derive(Clone, Debug)]
pub struct PipelineSim {
    nr_buffers: usize,
    htod_free: f64,
    compute_free: f64,
    dtoh_free: f64,
    /// When each buffer set becomes reusable.
    buffer_free: Vec<f64>,
    /// Completed operations.
    pub timeline: Vec<TraceEntry>,
    next_job: usize,
}

impl PipelineSim {
    /// Create a pipeline with `nr_buffers` buffer sets (3 in the
    /// paper). A degenerate request of 0 buffers is clamped to 1 — a
    /// bufferless pipeline cannot schedule anything, and clamping keeps
    /// the zero-configuration path total rather than panicking.
    pub fn new(nr_buffers: usize) -> Self {
        let nr_buffers = nr_buffers.max(1);
        Self {
            nr_buffers,
            htod_free: 0.0,
            compute_free: 0.0,
            dtoh_free: 0.0,
            buffer_free: vec![0.0; nr_buffers],
            timeline: Vec::new(),
            next_job: 0,
        }
    }

    /// Number of buffer sets in the pipeline.
    pub fn nr_buffers(&self) -> usize {
        self.nr_buffers
    }

    /// Shrink (or grow) the buffer-set count mid-run — the mechanism
    /// behind the OOM degradation ladder's "reduce `nr_buffers`" rung.
    ///
    /// The new buffer sets all become reusable at the latest release
    /// time of the old ones: a conservative barrier, since reshaping
    /// the buffer pool on real hardware requires the in-flight jobs to
    /// drain first. Requests of 0 are clamped to 1 as in [`Self::new`].
    pub fn set_nr_buffers(&mut self, nr_buffers: usize) {
        let nr_buffers = nr_buffers.max(1);
        if nr_buffers == self.nr_buffers {
            return;
        }
        let barrier = self.buffer_free.iter().copied().fold(0.0, f64::max);
        self.nr_buffers = nr_buffers;
        self.buffer_free = vec![barrier; nr_buffers];
    }

    /// Submit one job (work group) with the given phase durations;
    /// returns the job's completion time. Zero-duration phases are
    /// scheduled but keep their engines free.
    pub fn submit(&mut self, t_htod: f64, t_kernel: f64, t_dtoh: f64) -> f64 {
        let job = self.next_job;
        self.submit_attempt(job, 0, 0.0, t_htod, t_kernel, t_dtoh, None)
            .end
    }

    /// Submit one attempt of `job`, optionally faulting mid-chain.
    ///
    /// `not_before` delays the attempt's HtoD start (retry backoff);
    /// `fault` truncates the chain at the faulting engine. The job's
    /// buffer set is released when the attempt's last operation ends —
    /// faulted attempts release their buffer at the fault, so a retry
    /// (or the next job) can claim it.
    #[allow(clippy::too_many_arguments)] // mirrors the three-phase chain + scheduling controls
    pub fn submit_attempt(
        &mut self,
        job: usize,
        attempt: u32,
        not_before: f64,
        t_htod: f64,
        t_kernel: f64,
        t_dtoh: f64,
        fault: Option<FaultPoint>,
    ) -> AttemptOutcome {
        self.next_job = self.next_job.max(job + 1);
        let buffer = job % self.nr_buffers;
        let fault_on = |engine: Engine| fault.filter(|f| f.engine == engine);

        // HtoD may start when the copy engine AND the buffer are free.
        let h_start = self.htod_free.max(self.buffer_free[buffer]).max(not_before);
        let end;
        let completed;
        if let Some(f) = fault_on(Engine::HtoD) {
            end = h_start + t_htod + f.extra_seconds;
            self.htod_free = end;
            self.push(Engine::HtoD, job, attempt, h_start, end, OpStatus::Faulted);
            completed = false;
        } else {
            let h_end = h_start + t_htod;
            self.htod_free = h_end;
            self.push(
                Engine::HtoD,
                job,
                attempt,
                h_start,
                h_end,
                OpStatus::Completed,
            );

            // Kernel waits for its input and the compute engine.
            let k_start = self.compute_free.max(h_end);
            if let Some(f) = fault_on(Engine::Compute) {
                end = k_start + t_kernel + f.extra_seconds;
                self.compute_free = end;
                self.push(
                    Engine::Compute,
                    job,
                    attempt,
                    k_start,
                    end,
                    OpStatus::Faulted,
                );
                completed = false;
            } else {
                let k_end = k_start + t_kernel;
                self.compute_free = k_end;
                self.push(
                    Engine::Compute,
                    job,
                    attempt,
                    k_start,
                    k_end,
                    OpStatus::Completed,
                );

                // DtoH waits for the kernel and the copy-back engine.
                let d_start = self.dtoh_free.max(k_end);
                if let Some(f) = fault_on(Engine::DtoH) {
                    end = d_start + t_dtoh + f.extra_seconds;
                    self.dtoh_free = end;
                    self.push(Engine::DtoH, job, attempt, d_start, end, OpStatus::Faulted);
                    completed = false;
                } else {
                    end = d_start + t_dtoh;
                    self.dtoh_free = end;
                    self.push(
                        Engine::DtoH,
                        job,
                        attempt,
                        d_start,
                        end,
                        OpStatus::Completed,
                    );
                    completed = true;
                }
            }
        }

        // Buffer is reusable once the attempt's last operation ended.
        self.buffer_free[buffer] = end;
        AttemptOutcome { end, completed }
    }

    fn push(
        &mut self,
        engine: Engine,
        job: usize,
        attempt: u32,
        start: f64,
        end: f64,
        status: OpStatus,
    ) {
        self.timeline.push(TraceEntry {
            engine,
            job,
            attempt,
            start,
            end,
            status,
        });
    }

    /// Total makespan so far (0 for an empty schedule).
    pub fn makespan(&self) -> f64 {
        self.timeline.iter().map(|t| t.end).fold(0.0, f64::max)
    }

    /// Sum of kernel (compute-engine) busy time.
    pub fn compute_busy(&self) -> f64 {
        self.timeline
            .iter()
            .filter(|t| t.engine == Engine::Compute)
            .map(|t| t.end - t.start)
            .sum()
    }

    /// The time everything would take without any overlap (serial sum).
    pub fn serial_time(&self) -> f64 {
        self.timeline.iter().map(|t| t.end - t.start).sum()
    }

    /// Render the Fig. 7-style timeline as ASCII (one row per engine;
    /// faulted operations render as `x`).
    pub fn render(&self, width: usize) -> String {
        let makespan = self.makespan().max(1e-12);
        let mut rows = [vec![b'.'; width], vec![b'.'; width], vec![b'.'; width]];
        for t in &self.timeline {
            let row = match t.engine {
                Engine::HtoD => 0,
                Engine::Compute => 1,
                Engine::DtoH => 2,
            };
            let a = ((t.start / makespan) * width as f64) as usize;
            let b = (((t.end / makespan) * width as f64) as usize).min(width);
            let glyph = match t.status {
                OpStatus::Completed => b"0123456789"[t.job % 10],
                OpStatus::Faulted => b'x',
            };
            for cell in &mut rows[row][a..b] {
                *cell = glyph;
            }
        }
        format!(
            "HtoD    |{}|\ncompute |{}|\nDtoH    |{}|",
            String::from_utf8_lossy(&rows[0]),
            String::from_utf8_lossy(&rows[1]),
            String::from_utf8_lossy(&rows[2]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_is_serial() {
        let mut sim = PipelineSim::new(3);
        let end = sim.submit(1.0, 2.0, 0.5);
        assert!((end - 3.5).abs() < 1e-12);
        assert!((sim.makespan() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn steady_state_hides_transfers_behind_kernels() {
        // With kernels longer than transfers, the pipeline throughput is
        // kernel-bound: N jobs ≈ first HtoD + N kernels + last DtoH.
        let mut sim = PipelineSim::new(3);
        let n = 20;
        for _ in 0..n {
            sim.submit(0.3, 1.0, 0.3);
        }
        let expect = 0.3 + n as f64 * 1.0 + 0.3;
        assert!(
            (sim.makespan() - expect).abs() < 1e-9,
            "makespan {} vs {}",
            sim.makespan(),
            expect
        );
        // significant overlap achieved versus serial execution
        assert!(sim.makespan() < 0.7 * sim.serial_time());
    }

    #[test]
    fn transfer_bound_pipeline() {
        // When transfers dominate, the copy engine is the bottleneck.
        let mut sim = PipelineSim::new(3);
        for _ in 0..10 {
            sim.submit(2.0, 0.5, 0.1);
        }
        assert!((sim.makespan() - (10.0 * 2.0 + 0.5 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn single_buffer_forces_serialization() {
        // One buffer set = no overlap at all between consecutive jobs.
        let mut sim = PipelineSim::new(1);
        for _ in 0..5 {
            sim.submit(1.0, 1.0, 1.0);
        }
        assert!((sim.makespan() - 15.0).abs() < 1e-9);
        // three buffers overlap the same workload
        let mut sim3 = PipelineSim::new(3);
        for _ in 0..5 {
            sim3.submit(1.0, 1.0, 1.0);
        }
        assert!(
            sim3.makespan() < 8.0,
            "triple buffering helps: {}",
            sim3.makespan()
        );
    }

    #[test]
    fn engines_never_overlap_themselves() {
        let mut sim = PipelineSim::new(3);
        for i in 0..8 {
            sim.submit(0.5 + 0.1 * i as f64, 1.0, 0.4);
        }
        for engine in [Engine::HtoD, Engine::Compute, Engine::DtoH] {
            let mut spans: Vec<(f64, f64)> = sim
                .timeline
                .iter()
                .filter(|t| t.engine == engine)
                .map(|t| (t.start, t.end))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-12, "{engine:?} overlaps itself");
            }
        }
    }

    #[test]
    fn job_phases_are_ordered() {
        let mut sim = PipelineSim::new(3);
        for _ in 0..6 {
            sim.submit(0.2, 0.7, 0.3);
        }
        for job in 0..6 {
            let ops: Vec<&TraceEntry> = sim.timeline.iter().filter(|t| t.job == job).collect();
            assert_eq!(ops.len(), 3);
            assert!(ops[0].end <= ops[1].start + 1e-12);
            assert!(ops[1].end <= ops[2].start + 1e-12);
        }
    }

    #[test]
    fn render_produces_three_rows() {
        let mut sim = PipelineSim::new(3);
        sim.submit(1.0, 1.0, 1.0);
        sim.submit(1.0, 1.0, 1.0);
        let text = sim.render(60);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("compute"));
        assert!(text.contains('0') && text.contains('1'));
    }

    #[test]
    fn zero_jobs_is_a_valid_empty_schedule() {
        // Edge case: an empty plan submits nothing. The schedule must
        // stay well-defined — zero makespan, zero busy time, an empty
        // timeline and a renderable (blank) Fig. 7 chart — not NaN or
        // a panic.
        let sim = PipelineSim::new(3);
        assert_eq!(sim.makespan(), 0.0);
        assert_eq!(sim.compute_busy(), 0.0);
        assert_eq!(sim.serial_time(), 0.0);
        assert!(sim.timeline.is_empty());
        let text = sim.render(40);
        assert_eq!(text.lines().count(), 3);
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn zero_buffers_clamps_to_one_instead_of_panicking() {
        let mut sim = PipelineSim::new(0);
        assert_eq!(sim.nr_buffers(), 1);
        // behaves exactly like an explicit single-buffer pipeline
        for _ in 0..3 {
            sim.submit(1.0, 1.0, 1.0);
        }
        assert!((sim.makespan() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn single_buffer_zero_job_combinations_are_valid() {
        // nr_buffers == 1 with zero jobs: valid empty timeline.
        let sim = PipelineSim::new(1);
        assert_eq!(sim.makespan(), 0.0);
        assert!(sim.timeline.is_empty());
        // …and with a single zero-duration job: degenerate but finite.
        let mut sim = PipelineSim::new(1);
        let end = sim.submit(0.0, 0.0, 0.0);
        assert_eq!(end, 0.0);
        assert_eq!(sim.timeline.len(), 3);
        assert!(sim.makespan().is_finite());
    }

    #[test]
    fn faulted_htod_truncates_the_chain_and_frees_the_buffer() {
        let mut sim = PipelineSim::new(3);
        let out = sim.submit_attempt(
            0,
            0,
            0.0,
            1.0,
            2.0,
            0.5,
            Some(FaultPoint {
                engine: Engine::HtoD,
                extra_seconds: 0.0,
            }),
        );
        assert!(!out.completed);
        assert!((out.end - 1.0).abs() < 1e-12);
        assert_eq!(sim.timeline.len(), 1, "kernel/DtoH not scheduled");
        assert_eq!(sim.timeline[0].status, OpStatus::Faulted);

        // the retry reuses the same buffer as soon as the fault ended
        let retry = sim.submit_attempt(0, 1, 0.0, 1.0, 2.0, 0.5, None);
        assert!(retry.completed);
        assert!((retry.end - (1.0 + 1.0 + 2.0 + 0.5)).abs() < 1e-12);
        let attempts: Vec<u32> = sim.timeline.iter().map(|t| t.attempt).collect();
        assert_eq!(attempts, vec![0, 1, 1, 1]);
    }

    #[test]
    fn stalled_kernel_holds_the_compute_engine_for_the_watchdog_time() {
        let mut sim = PipelineSim::new(3);
        let out = sim.submit_attempt(
            0,
            0,
            0.0,
            0.5,
            1.0,
            0.5,
            Some(FaultPoint {
                engine: Engine::Compute,
                extra_seconds: 3.0,
            }),
        );
        assert!(!out.completed);
        // HtoD 0.5, kernel runs 1.0 then stalls 3.0 to the watchdog
        assert!((out.end - 4.5).abs() < 1e-12);
        // the next job's kernel cannot start before the stall cleared
        sim.submit_attempt(1, 0, 0.0, 0.5, 1.0, 0.0, None);
        let k1 = sim
            .timeline
            .iter()
            .find(|t| t.job == 1 && t.engine == Engine::Compute)
            .unwrap();
        assert!(k1.start >= 4.5 - 1e-12);
    }

    #[test]
    fn not_before_delays_the_retry_start() {
        let mut sim = PipelineSim::new(3);
        sim.submit_attempt(0, 0, 0.0, 0.1, 0.1, 0.1, None);
        let out = sim.submit_attempt(1, 0, 5.0, 0.1, 0.1, 0.1, None);
        let htod = sim
            .timeline
            .iter()
            .find(|t| t.job == 1 && t.engine == Engine::HtoD)
            .unwrap();
        assert!((htod.start - 5.0).abs() < 1e-12, "backoff delays HtoD");
        assert!((out.end - 5.3).abs() < 1e-12);
    }

    #[test]
    fn render_marks_faulted_ops() {
        let mut sim = PipelineSim::new(3);
        sim.submit_attempt(
            0,
            0,
            0.0,
            1.0,
            1.0,
            1.0,
            Some(FaultPoint {
                engine: Engine::Compute,
                extra_seconds: 0.0,
            }),
        );
        sim.submit_attempt(0, 1, 0.0, 1.0, 1.0, 1.0, None);
        let text = sim.render(60);
        assert!(text.contains('x'), "faulted op rendered: {text}");
    }

    #[test]
    fn shrinking_buffers_drains_before_reuse() {
        let mut sim = PipelineSim::new(3);
        // Three jobs occupy all three buffer sets.
        for j in 0..3 {
            sim.submit_attempt(j, 0, 0.0, 1.0, 1.0, 1.0, None);
        }
        let drained = sim.buffer_free.iter().copied().fold(0.0, f64::max);
        sim.set_nr_buffers(1);
        assert_eq!(sim.nr_buffers(), 1);
        // The single surviving buffer set only becomes reusable once
        // every old occupant has released — the next HtoD waits.
        let out = sim.submit_attempt(3, 0, 0.0, 1.0, 1.0, 1.0, None);
        let htod = sim
            .timeline
            .iter()
            .find(|t| t.job == 3 && t.engine == Engine::HtoD)
            .unwrap();
        assert!(htod.start >= drained - 1e-12, "buffer pool drains first");
        assert!(out.completed);
        // Zero clamps to one, same-size is a no-op.
        sim.set_nr_buffers(0);
        assert_eq!(sim.nr_buffers(), 1);
    }
}
