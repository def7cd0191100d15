//! Observability layer for the IDG pipeline: structured spans and
//! self-validating operation counters.
//!
//! A [`Session`] is a collector of records, and "observed" is a
//! property of the thread that began it, not a mode of the process.
//! [`Session::begin`] makes the new collector the calling thread's
//! *current* one, owned by a thread-local; [`Session::finish`] (or
//! dropping the session) puts back the one that was current before.
//! The recording sites (`add_*`, [`wall_span`], [`modeled_span`]) are
//! free functions that borrow the calling thread's current collector —
//! no lock, nothing shared — and return after that one thread-local
//! read when it has none. So:
//!
//! - **who records into a session**: the thread that began it, nothing
//!   else. A pass running unobserved, or under another session, on
//!   another thread cannot add to it; sessions nest, run concurrently
//!   and never wait for one another. Every pass records on its calling
//!   thread — a streamed pass runs its chunks there too — so no record
//!   ever crosses a thread boundary.
//! - **what a kernel does inside a parallel region**: it does not
//!   record there — rayon workers have no current collector. It tallies
//!   [`KernelCounters`] per work item beside its real loops, reduces
//!   them, and calls [`add_kernel`] once per launch on the calling
//!   thread (a dropped call fails `Proxy::validate_measured` on every
//!   clean observed pass).
//!
//! Observability only *reads* loop trip counts; it never changes what
//! the numerical pipeline computes or in which order.
//!
//! A session accumulates:
//!
//! - **spans** — hierarchical intervals (`pass` → `job` → `stage` →
//!   `kernel`) carrying either wall-clock time (CPU back-ends, measured
//!   with [`std::time::Instant`]) or modeled time (GPU back-ends,
//!   replayed from the pipeline simulator's deterministic timeline);
//! - **counters** — per-stage integer registers (sincos pairs, FMAs,
//!   DRAM/shared bytes, visibilities, subgrids, retries, fallback
//!   jobs) incremented *at the kernel call sites with the actual loop
//!   lengths*, so they measure what the kernels really did rather than
//!   what an analytic model predicts they should have done.
//!
//! [`Session::finish`] returns a [`Trace`] bundling the spans with a
//! flat [`MetricsSnapshot`]. The snapshot is what `idg` cross-validates
//! against the analytic `perf::ops` model (exact integer equality on
//! fault-free runs), and [`chrome::chrome_trace_json`] exports the
//! spans as a Chrome `trace_event` timeline for `chrome://tracing`.

#![deny(missing_docs)]

pub mod chrome;
pub mod counters;
pub mod span;

pub use chrome::{chrome_trace_json, normalized_events, validate_json};
pub use counters::{KernelCounters, KernelStage, MetricsSnapshot};
pub use span::{Clock, Span};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// What a session records.
struct Collector {
    start: Instant,
    spans: Vec<Span>,
    metrics: MetricsSnapshot,
}

/// A finished observability session: the spans recorded while it was
/// active plus the flat counter snapshot.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Label of the pass that was traced (e.g. `"gridding"`).
    pub pass: String,
    /// All recorded spans in recording order, the closing `pass` span
    /// last. [`normalized_events`] imposes an order independent of the
    /// wall clock.
    pub spans: Vec<Span>,
    /// Flat per-stage counter snapshot.
    pub metrics: MetricsSnapshot,
}

thread_local! {
    /// The collector this thread records into, if any. Owned by the
    /// thread: no other thread can reach it.
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Whether the calling thread records into a session — the check every
/// recording site performs first: one thread-local read, no lock.
#[inline]
pub fn is_active() -> bool {
    CURRENT.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

/// An observability session: its collector is the current one of the
/// thread that began it for as long as the session lives. Dropping it
/// without calling [`Session::finish`] puts the thread's previous
/// collector back and discards the collected data. Sessions on one
/// thread nest: end them in reverse order of beginning. Not `Send`: it
/// ends on the thread that began it.
pub struct Session {
    /// The collector this session displaced, put back when it ends;
    /// `None` once it has ended.
    previous: Option<Option<Collector>>,
    _this_thread: PhantomData<*const ()>,
}

impl Session {
    /// Begin recording under the given pass label on the calling
    /// thread. Never blocks: sessions on other threads, and an outer
    /// session on this one, are unaffected.
    pub fn begin(pass: &str) -> Session {
        let collector = Collector {
            start: Instant::now(),
            spans: Vec::new(),
            metrics: MetricsSnapshot::new(pass),
        };
        Session {
            previous: Some(CURRENT.with(|c| c.replace(Some(collector)))),
            _this_thread: PhantomData,
        }
    }

    /// Put the displaced collector back, once, and return the one this
    /// session recorded into.
    fn end(&mut self) -> Option<Collector> {
        let previous = self.previous.take()?;
        CURRENT.try_with(|c| c.replace(previous)).ok().flatten()
    }

    /// Stop recording on this thread (the previous collector becomes
    /// current again) and return everything that was collected, plus a
    /// closing `pass`-category wall span covering the whole session.
    pub fn finish(mut self) -> Trace {
        let Some(Collector {
            start,
            mut spans,
            metrics,
        }) = self.end()
        else {
            // only a session ended out of nesting order finds none
            return Trace {
                pass: String::new(),
                spans: Vec::new(),
                metrics: MetricsSnapshot::default(),
            };
        };
        spans.push(Span {
            name: metrics.pass.clone(),
            cat: "pass".to_string(),
            job: None,
            lane: 0,
            clock: Clock::Wall,
            start_us: 0,
            dur_us: start.elapsed().as_micros() as u64,
        });
        Trace {
            pass: metrics.pass.clone(),
            spans,
            metrics,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.end();
    }
}

fn with_collector(f: impl FnOnce(&mut Collector)) {
    let _ = CURRENT.try_with(|c| {
        if let Some(collector) = c.borrow_mut().as_mut() {
            f(collector);
        }
    });
}

/// Merge a kernel launch's tally (accumulated at the kernel's real
/// call sites, reduced over its work items) into the current session's
/// counters. No-op without one. Call it on the launching thread, after
/// any parallel region: the region's workers have no current collector.
pub fn add_kernel(stage: KernelStage, tally: &KernelCounters) {
    with_collector(|c| c.metrics.kernel_mut(stage).add(tally));
}

/// Record `n` subgrids pushed through the forward subgrid FFT.
pub fn add_subgrids_fft(n: u64) {
    with_collector(|c| c.metrics.subgrids_fft += n);
}

/// Record `n` subgrids pushed through the inverse subgrid FFT.
pub fn add_subgrids_ifft(n: u64) {
    with_collector(|c| c.metrics.subgrids_ifft += n);
}

/// Record `n` subgrids added onto the master grid.
pub fn add_subgrids_added(n: u64) {
    with_collector(|c| c.metrics.subgrids_added += n);
}

/// Record `n` subgrids extracted from the master grid by the splitter.
pub fn add_subgrids_split(n: u64) {
    with_collector(|c| c.metrics.subgrids_split += n);
}

/// Record `n` work items emitted by the planner.
pub fn add_planned_items(n: u64) {
    with_collector(|c| c.metrics.planned_items += n);
}

/// Record `n` visibilities the planner skipped (outside the grid).
pub fn add_skipped_visibilities(n: u64) {
    with_collector(|c| c.metrics.skipped_visibilities += n);
}

/// Record `n` retried device operations.
pub fn add_retries(n: u64) {
    with_collector(|c| c.metrics.nr_retries += n);
}

/// Record `n` jobs that fell back to the CPU reference path.
pub fn add_fallback_jobs(n: u64) {
    with_collector(|c| c.metrics.fallback_jobs += n);
}

/// Record `n` job outcomes observed by per-device health trackers.
pub fn add_health_outcomes(n: u64) {
    with_collector(|c| c.metrics.health_outcomes += n);
}

/// Record `n` circuit-breaker trips (`Closed → Open` transitions).
pub fn add_breaker_trips(n: u64) {
    with_collector(|c| c.metrics.breaker_trips += n);
}

/// Record `n` degradation-ladder steps taken after device OOM.
pub fn add_degradation_steps(n: u64) {
    with_collector(|c| c.metrics.degradation_steps += n);
}

/// Record `n` jobs re-dispatched from a tripped device to a peer.
pub fn add_redispatched_jobs(n: u64) {
    with_collector(|c| c.metrics.redispatched_jobs += n);
}

/// Record `n` chunks run by the streaming scheduler.
pub fn add_chunks_ingested(n: u64) {
    with_collector(|c| c.metrics.chunks_ingested += n);
}

/// Record a scheduler run's `max(0, nr_chunks − max_inflight)` (see
/// `idg_stream::StreamStats::backpressure_waits`).
pub fn add_backpressure_waits(n: u64) {
    with_collector(|c| c.metrics.backpressure_waits += n);
}

/// Record a scheduler run's `min(max_inflight, nr_chunks)` (see
/// `idg_stream::StreamStats::inflight_max`; max-merged: the snapshot
/// keeps the largest seen in the session).
pub fn record_passes_inflight(n: u64) {
    with_collector(|c| c.metrics.passes_inflight_max = c.metrics.passes_inflight_max.max(n));
}

/// Record a span with *modeled* time (seconds on the device model's
/// clock, converted to integer microseconds — fully deterministic).
/// Both *endpoints* are rounded (rather than start and duration
/// independently) so that nesting in model time survives the integer
/// conversion: a span contained in another stays contained in µs.
pub fn modeled_span(name: &str, cat: &str, job: Option<u32>, lane: u32, start_s: f64, dur_s: f64) {
    let start_us = (start_s * 1e6).round().max(0.0) as u64;
    let end_us = ((start_s + dur_s) * 1e6).round().max(0.0) as u64;
    with_collector(|c| {
        c.spans.push(Span {
            name: name.to_string(),
            cat: cat.to_string(),
            job,
            lane,
            clock: Clock::Modeled,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
        });
    });
}

/// Start a wall-clock span; the span is recorded when the returned
/// guard is dropped, into the session current on the dropping thread.
/// Returns a no-op guard when the calling thread records into none.
pub fn wall_span(name: &'static str, cat: &'static str, job: Option<u32>) -> WallSpanGuard {
    WallSpanGuard {
        name,
        cat,
        job,
        begun: is_active().then(Instant::now),
    }
}

/// Guard recording a wall-clock span on drop (see [`wall_span`]).
#[must_use = "the span measures until the guard is dropped"]
pub struct WallSpanGuard {
    name: &'static str,
    cat: &'static str,
    job: Option<u32>,
    begun: Option<Instant>,
}

impl Drop for WallSpanGuard {
    fn drop(&mut self) {
        let Some(begun) = self.begun else {
            return;
        };
        with_collector(|c| {
            c.spans.push(Span {
                name: self.name.to_string(),
                cat: self.cat.to_string(),
                job: self.job,
                lane: 0,
                clock: Clock::Wall,
                start_us: begun.duration_since(c.start).as_micros() as u64,
                dur_us: begun.elapsed().as_micros() as u64,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_noops() {
        assert!(!is_active());
        add_retries(3);
        add_kernel(KernelStage::Gridder, &KernelCounters::default());
        modeled_span("x", "stage", None, 0, 0.0, 1.0);
        let _g = wall_span("y", "stage", None);
        // No session ⇒ nothing observable happened; beginning a fresh
        // session must see pristine counters.
        let s = Session::begin("check");
        let t = s.finish();
        assert_eq!(t.metrics.nr_retries, 0);
        assert_eq!(t.spans.len(), 1); // just the pass span
    }

    #[test]
    fn session_collects_counters_and_spans() {
        let s = Session::begin("gridding");
        let tally = KernelCounters {
            sincos_pairs: 10,
            fmas: 170,
            ..KernelCounters::default()
        };
        add_kernel(KernelStage::Gridder, &tally);
        add_kernel(KernelStage::Gridder, &tally);
        add_subgrids_fft(4);
        modeled_span("compute", "stage", Some(2), 1, 0.5, 0.25);
        drop(wall_span("gridder", "stage", Some(0)));
        let t = s.finish();
        assert_eq!(t.metrics.gridder.sincos_pairs, 20);
        assert_eq!(t.metrics.gridder.fmas, 340);
        assert_eq!(t.metrics.subgrids_fft, 4);
        let modeled: Vec<_> = t
            .spans
            .iter()
            .filter(|s| s.clock == Clock::Modeled)
            .collect();
        assert_eq!(modeled.len(), 1);
        assert_eq!(modeled[0].start_us, 500_000);
        assert_eq!(modeled[0].dur_us, 250_000);
        assert_eq!(t.spans.last().map(|s| s.cat.as_str()), Some("pass"));
        assert!(!is_active());
    }

    #[test]
    fn dropped_session_deactivates() {
        let s = Session::begin("abandoned");
        assert!(is_active());
        drop(s);
        assert!(!is_active());
        let t = Session::begin("next").finish();
        assert_eq!(t.pass, "next");
    }

    #[test]
    fn nested_sessions_restore_the_outer_recorder_on_finish_and_on_drop() {
        let outer = Session::begin("outer");
        add_retries(1);
        let inner = Session::begin("inner");
        add_retries(10);
        let inner = inner.finish();
        add_retries(100);
        let abandoned = Session::begin("abandoned");
        add_retries(1_000);
        drop(abandoned);
        add_retries(10_000);
        drop(wall_span("outer-span", "stage", None));
        let outer = outer.finish();
        assert_eq!(
            (inner.pass.as_str(), inner.metrics.nr_retries),
            ("inner", 10)
        );
        assert_eq!(inner.spans.len(), 1);
        assert_eq!(outer.metrics.nr_retries, 10_101);
        assert_eq!(outer.spans.len(), 2);
        assert!(!is_active());
    }

    #[test]
    fn only_the_thread_that_began_the_session_records_into_it() {
        let session = Session::begin("scoped");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(!is_active());
                add_retries(1);
                drop(wall_span("stray", "stage", None));
            });
        });
        add_retries(10);
        drop(wall_span("caller", "stage", None));
        let t = session.finish();
        assert_eq!(t.metrics.nr_retries, 10);
        let names: Vec<_> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["caller", "scoped"]);
    }
}
