//! Exhaustive schedule exploration of the stream scheduler (DESIGN.md
//! §13): every interleaving up to the bound must deliver each chunk's
//! result exactly once, report the closed-form configuration stats,
//! keep a failed chunk in its own slot, and never deadlock.
//!
//! Compiled only under `RUSTFLAGS="--cfg idg_model_check"`, where the
//! `idg-sync` facade routes the scheduler's mutexes and scope through
//! the `idg-mc` cooperative scheduler; in normal builds this file is
//! an empty test binary.

#![cfg(idg_model_check)]

use idg_mc::{Config, Explorer};
use idg_stream::{Chunk, CommitLedger, StreamScheduler};
use idg_types::IdgError;

fn chunks(n: usize) -> Vec<Chunk> {
    (0..n)
        .map(|index| Chunk {
            index,
            time_range: index..index + 1,
        })
        .collect()
}

fn explorer(cfg: Config) -> Explorer {
    Explorer::new(cfg).expect("valid config")
}

/// Drive one scheduler shape under the model and assert the full
/// contract: exactly-once ordered delivery plus the closed-form
/// stats (`backpressure_waits = max(0, n − cap)`, `inflight_max =
/// min(cap, n)`).
fn assert_schedule_contract(workers: usize, cap: usize, n: usize) {
    let report = explorer(Config::default()).explore(move || {
        let sched = StreamScheduler::new(workers, cap).expect("valid scheduler");
        let cs = chunks(n);
        let run = sched
            .run_stream(&cs, |c| Ok(c.index * 10))
            .expect("stream runs");
        assert_eq!(run.results.len(), n, "one slot per chunk");
        for (i, r) in run.results.iter().enumerate() {
            assert_eq!(
                *r.as_ref().expect("chunk pass succeeded"),
                i * 10,
                "slot {i} must hold chunk {i}'s result"
            );
        }
        assert_eq!(
            run.stats.backpressure_waits,
            n.saturating_sub(cap) as u64,
            "window-constrained admissions are closed-form"
        );
        assert_eq!(
            run.stats.inflight_max,
            cap.min(n),
            "pre-filled window pins the in-flight peak"
        );
        assert_eq!(run.stats.completed_chunks, n);
        assert_eq!(run.stats.failed_chunks, 0);
    });
    assert!(
        report.proved(),
        "scheduler (workers={workers}, cap={cap}, n={n}) must prove under the bound: {report:?}"
    );
}

#[test]
fn exactly_once_and_metrics_single_worker() {
    assert_schedule_contract(1, 1, 2);
}

#[test]
fn exactly_once_and_metrics_two_workers() {
    assert_schedule_contract(2, 2, 3);
}

#[test]
fn exactly_once_and_metrics_backpressured() {
    // cap < workers: a single lane runs all three chunks.
    assert_schedule_contract(2, 1, 3);
}

#[test]
fn exactly_once_and_metrics_more_workers_than_window() {
    // the window, not the worker count, sets the lanes: two, not three
    assert_schedule_contract(3, 2, 4);
}

#[test]
fn failed_chunk_does_not_abort_the_stream() {
    let report = explorer(Config::default()).explore(|| {
        let sched = StreamScheduler::new(2, 2).expect("valid scheduler");
        let cs = chunks(3);
        let run = sched
            .run_stream(&cs, |c| {
                if c.index == 1 {
                    Err(IdgError::Internal("injected".into()))
                } else {
                    Ok(c.index)
                }
            })
            .expect("stream runs");
        assert!(run.results[0].is_ok() && run.results[2].is_ok());
        assert!(run.results[1].is_err(), "failure stays in its own slot");
        assert_eq!(run.stats.completed_chunks, 2);
        assert_eq!(run.stats.failed_chunks, 1);
    });
    assert!(report.proved(), "report: {report:?}");
}

/// The streamed-degrid commit discipline: each visibility chunk is
/// committed into the shared ledger exactly once, under **every**
/// interleaving at the preemption bound. The ledger is the same
/// plain-data `CommitLedger` the proxy's degrid aggregation loop uses
/// (single-threaded there; shared behind an `idg_sync` mutex here so
/// the workers themselves commit, which is the harder discipline).
#[test]
fn degrid_chunk_commit_is_exactly_once_under_every_interleaving() {
    let report = explorer(Config::default()).explore(|| {
        let sched = StreamScheduler::new(2, 2).expect("valid scheduler");
        let cs = chunks(3);
        let ledger = idg_sync::Mutex::new(CommitLedger::new(3));
        let run = sched
            .run_stream(&cs, |c| {
                ledger.lock().commit(c.index)?;
                Ok(c.index)
            })
            .expect("stream runs");
        assert_eq!(run.stats.completed_chunks, 3);
        assert_eq!(run.stats.failed_chunks, 0);
        ledger
            .into_inner()
            .finish()
            .expect("every visibility chunk committed exactly once");
    });
    assert!(
        report.proved(),
        "degrid commit discipline must prove under the bound: {report:?}"
    );
}

/// Deeper-bound variant: preemption bound raised from the default 2
/// to 4 over the two-lane shape (the schedule tree grows
/// superexponentially with the bound — fully unbounded exploration of
/// this model does not terminate in practical time).
#[test]
fn exactly_once_deeper_preemption_bound() {
    let cfg = Config {
        preemption_bound: Some(4),
        max_schedules: 5_000_000,
        max_steps: 50_000,
        ..Config::default()
    };
    let report = explorer(cfg).explore(|| {
        let sched = StreamScheduler::new(2, 2).expect("valid scheduler");
        let cs = chunks(3);
        let run = sched.run_stream(&cs, |c| Ok(c.index)).expect("stream runs");
        for (i, r) in run.results.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("pass succeeded"), i);
        }
    });
    assert!(report.proved(), "report: {report:?}");
}
