//! Per-stage counter registers and the flat [`MetricsSnapshot`].
//!
//! Every field is an integer: a snapshot of the same run is therefore
//! byte-identical across repetitions regardless of thread scheduling
//! (the increments commute) — the property the determinism suite pins.

/// Which compute kernel a tally belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum KernelStage {
    /// The gridder (visibilities → subgrid pixels).
    Gridder,
    /// The degridder (subgrid pixels → visibilities).
    Degridder,
}

/// Operation counters measured at a kernel's real call sites.
///
/// Field meanings mirror `perf::ops::OpCounts` so the two can be
/// compared by exact integer equality; the difference is provenance —
/// these are incremented beside the actual `sincos` / accumulate /
/// staging loops with the loop's actual trip counts.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Number of kernel invocations (work items processed).
    pub invocations: u64,
    /// Visibilities processed (gridded or degridded).
    pub visibilities: u64,
    /// Evaluated (sin, cos) pairs.
    pub sincos_pairs: u64,
    /// Fused multiply-add operations.
    pub fmas: u64,
    /// Bytes moved through (modeled) DRAM: visibility, uvw, subgrid
    /// and A-term staging traffic.
    pub dram_bytes: u64,
    /// Bytes served from (modeled) shared memory / L1.
    pub shared_bytes: u64,
}

impl KernelCounters {
    /// Accumulate another tally into this one (plain u64 addition —
    /// commutative and associative).
    pub fn add(&mut self, other: &KernelCounters) {
        self.invocations += other.invocations;
        self.visibilities += other.visibilities;
        self.sincos_pairs += other.sincos_pairs;
        self.fmas += other.fmas;
        self.dram_bytes += other.dram_bytes;
        self.shared_bytes += other.shared_bytes;
    }

    fn json_fields(&self, out: &mut String, indent: &str) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{indent}\"invocations\": {},\n\
             {indent}\"visibilities\": {},\n\
             {indent}\"sincos_pairs\": {},\n\
             {indent}\"fmas\": {},\n\
             {indent}\"dram_bytes\": {},\n\
             {indent}\"shared_bytes\": {}\n",
            self.invocations,
            self.visibilities,
            self.sincos_pairs,
            self.fmas,
            self.dram_bytes,
            self.shared_bytes,
        );
    }
}

impl<'a> std::iter::Sum<&'a KernelCounters> for KernelCounters {
    /// Reduce per-work-item tallies to one launch tally.
    fn sum<I: Iterator<Item = &'a KernelCounters>>(tallies: I) -> KernelCounters {
        let mut total = KernelCounters::default();
        for tally in tallies {
            total.add(tally);
        }
        total
    }
}

/// Flat, all-integer snapshot of every counter a session collected.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Pass label the session was begun with.
    pub pass: String,
    /// Measured gridder kernel counters.
    pub gridder: KernelCounters,
    /// Measured degridder kernel counters.
    pub degridder: KernelCounters,
    /// Subgrids through the forward FFT (gridding direction).
    pub subgrids_fft: u64,
    /// Subgrids through the inverse FFT (degridding direction).
    pub subgrids_ifft: u64,
    /// Subgrids accumulated onto the master grid by the adder.
    pub subgrids_added: u64,
    /// Subgrids extracted from the master grid by the splitter.
    pub subgrids_split: u64,
    /// Work items emitted by the planner.
    pub planned_items: u64,
    /// Visibilities the planner dropped as unrepresentable.
    pub skipped_visibilities: u64,
    /// Device operations that were retried after transient faults.
    pub nr_retries: u64,
    /// Jobs re-executed on the CPU fallback path.
    pub fallback_jobs: u64,
    /// Job outcomes recorded by per-device health trackers.
    pub health_outcomes: u64,
    /// Circuit-breaker trips (`Closed → Open` transitions).
    pub breaker_trips: u64,
    /// Degradation-ladder steps taken by fleet devices after OOM.
    pub degradation_steps: u64,
    /// Jobs re-dispatched from a tripped device to a healthy peer.
    pub redispatched_jobs: u64,
    /// Chunks run by streamed passes.
    pub chunks_ingested: u64,
}

impl MetricsSnapshot {
    /// Fresh all-zero snapshot for the given pass label.
    pub fn new(pass: &str) -> Self {
        MetricsSnapshot {
            pass: pass.to_string(),
            ..MetricsSnapshot::default()
        }
    }

    /// Mutable access to one kernel's counters by stage.
    pub fn kernel_mut(&mut self, stage: KernelStage) -> &mut KernelCounters {
        match stage {
            KernelStage::Gridder => &mut self.gridder,
            KernelStage::Degridder => &mut self.degridder,
        }
    }

    /// The counters of the kernel that drives the given pass
    /// (`"gridding"` → gridder, `"degridding"` → degridder).
    pub fn pass_kernel(&self) -> &KernelCounters {
        if self.pass.starts_with("degrid") {
            &self.degridder
        } else {
            &self.gridder
        }
    }

    /// Serialize as a stable, human-diffable JSON object.
    ///
    /// Hand-rolled (the workspace is offline, no serde): all values are
    /// integers or a quoted pass label, so the output is byte-stable.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"pass\": \"{}\",\n", escape_json(&self.pass));
        out.push_str("  \"gridder\": {\n");
        self.gridder.json_fields(&mut out, "    ");
        out.push_str("  },\n  \"degridder\": {\n");
        self.degridder.json_fields(&mut out, "    ");
        let _ = write!(
            out,
            "  }},\n\
             \x20 \"subgrids_fft\": {},\n\
             \x20 \"subgrids_ifft\": {},\n\
             \x20 \"subgrids_added\": {},\n\
             \x20 \"subgrids_split\": {},\n\
             \x20 \"planned_items\": {},\n\
             \x20 \"skipped_visibilities\": {},\n\
             \x20 \"nr_retries\": {},\n\
             \x20 \"fallback_jobs\": {},\n\
             \x20 \"health_outcomes\": {},\n\
             \x20 \"breaker_trips\": {},\n\
             \x20 \"degradation_steps\": {},\n\
             \x20 \"redispatched_jobs\": {},\n\
             \x20 \"chunks_ingested\": {}\n}}\n",
            self.subgrids_fft,
            self.subgrids_ifft,
            self.subgrids_added,
            self.subgrids_split,
            self.planned_items,
            self.skipped_visibilities,
            self.nr_retries,
            self.fallback_jobs,
            self.health_outcomes,
            self.breaker_trips,
            self.degradation_steps,
            self.redispatched_jobs,
            self.chunks_ingested,
        );
        out
    }
}

/// Escape a string for inclusion inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_plain_sum() {
        let mut a = KernelCounters {
            invocations: 1,
            visibilities: 2,
            sincos_pairs: 3,
            fmas: 4,
            dram_bytes: 5,
            shared_bytes: 6,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.sincos_pairs, 6);
        assert_eq!(a.shared_bytes, 12);
    }

    #[test]
    fn snapshot_json_parses_and_is_stable() {
        let mut m = MetricsSnapshot::new("gridding");
        m.gridder.sincos_pairs = 42;
        m.nr_retries = 1;
        m.breaker_trips = 5;
        m.degradation_steps = 7;
        m.chunks_ingested = 9;
        let j1 = m.to_json();
        let j2 = m.to_json();
        assert_eq!(j1, j2);
        crate::chrome::validate_json(&j1).expect("snapshot JSON must be valid");
        assert!(j1.contains("\"sincos_pairs\": 42"));
        assert!(j1.contains("\"nr_retries\": 1"));
        assert!(j1.contains("\"breaker_trips\": 5"));
        assert!(j1.contains("\"degradation_steps\": 7"));
        assert!(j1.contains("\"chunks_ingested\": 9"));
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
