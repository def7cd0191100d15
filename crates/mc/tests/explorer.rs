//! Model-checker self-tests: the explorer proves correct protocols,
//! catches seeded concurrency bugs with the right failure
//! classification, and replays failing schedules byte-identically.

use idg_mc::{sync::Condvar, sync::Mutex, thread, Config, Explorer, FailureKind};

fn explorer(cfg: Config) -> Explorer {
    Explorer::new(cfg).expect("valid config")
}

#[test]
fn config_rejects_zero_bounds() {
    assert!(Explorer::new(Config {
        max_schedules: 0,
        ..Config::default()
    })
    .is_err());
    assert!(Explorer::new(Config {
        max_steps: 0,
        ..Config::default()
    })
    .is_err());
}

#[test]
fn sequential_body_is_one_schedule() {
    let report = explorer(Config::default()).explore(|| {
        let m = Mutex::new(7u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
    });
    assert!(report.proved(), "report: {report:?}");
    assert_eq!(report.schedules, 1);
}

#[test]
fn counter_increments_exactly_once_per_thread() {
    let report = explorer(Config::default()).explore(|| {
        let n = Mutex::new(0u32);
        thread::scope(|s| {
            s.spawn(|| *n.lock() += 1);
            s.spawn(|| *n.lock() += 1);
        });
        assert_eq!(*n.lock(), 2);
    });
    assert!(report.proved(), "report: {report:?}");
    assert!(
        report.schedules > 1,
        "two racing threads must yield multiple interleavings, got {}",
        report.schedules
    );
}

#[test]
fn ab_ba_lock_order_is_caught_as_deadlock() {
    let report = explorer(Config::default()).explore(|| {
        let a = Mutex::new(());
        let b = Mutex::new(());
        thread::scope(|s| {
            s.spawn(|| {
                let _ga = a.lock();
                let _gb = b.lock();
            });
            s.spawn(|| {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        });
    });
    let failure = report.failure.expect("AB-BA ordering must deadlock");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.message.contains("blocked acquiring lock"),
        "message should describe the blocked threads: {}",
        failure.message
    );
}

#[test]
fn notify_before_wait_is_caught_as_lost_wakeup() {
    // A bare wait with no predicate: on schedules where the notifier
    // runs first, the signal hits no waiter and the waiter parks
    // forever.
    let report = explorer(Config::default()).explore(|| {
        let m = Mutex::new(());
        let cv = Condvar::new();
        thread::scope(|s| {
            s.spawn(|| {
                let g = m.lock();
                let _g = cv.wait(g);
            });
            s.spawn(|| {
                let _g = m.lock();
                cv.notify_all();
            });
        });
    });
    let failure = report.failure.expect("bare wait must lose a wakeup");
    assert_eq!(failure.kind, FailureKind::LostWakeup);
    assert!(
        failure.message.contains("parked on condvar"),
        "message should name the parked thread: {}",
        failure.message
    );
}

#[test]
fn if_guarded_wait_is_caught_by_spurious_wakeups() {
    // The `if`-instead-of-`while` bug: a spurious wakeup resumes the
    // waiter without the predicate holding and the assertion fires.
    // Nothing bans this shape statically any more (lint L6(a) went in
    // PR 23 with the facade's condvar, and `clippy.toml` bans
    // `std::sync::Condvar` outright); this is the dynamic proof that a
    // returning `wait_while` must keep the re-check in its type.
    let cfg = Config {
        spurious_wakeups: 1,
        ..Config::default()
    };
    let report = explorer(cfg).explore(|| {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        thread::scope(|s| {
            s.spawn(|| {
                let mut g = m.lock();
                if !*g {
                    g = cv.wait(g);
                }
                assert!(*g, "woke with the predicate still false");
            });
            s.spawn(|| {
                let mut g = m.lock();
                *g = true;
                cv.notify_all();
            });
        });
    });
    let failure = report.failure.expect("if-guarded wait must be caught");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("predicate still false"),
        "the waiter's assertion should be the reported failure: {}",
        failure.message
    );
}

#[test]
fn while_guarded_wait_survives_spurious_wakeups() {
    let cfg = Config {
        spurious_wakeups: 1,
        ..Config::default()
    };
    let report = explorer(cfg).explore(|| {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        thread::scope(|s| {
            s.spawn(|| {
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
                assert!(*g);
            });
            s.spawn(|| {
                let mut g = m.lock();
                *g = true;
                cv.notify_all();
            });
        });
    });
    assert!(report.proved(), "report: {report:?}");
}

#[test]
fn failing_schedule_replays_byte_identically() {
    let body = || {
        let a = Mutex::new(());
        let b = Mutex::new(());
        thread::scope(|s| {
            s.spawn(|| {
                let _ga = a.lock();
                let _gb = b.lock();
            });
            s.spawn(|| {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        });
    };
    let ex = explorer(Config::default());
    let first = ex.explore(body).failure.expect("must deadlock");
    let replayed = ex
        .replay(&first.schedule, body)
        .expect("recorded schedule must parse")
        .failure
        .expect("replay must reproduce the failure");
    assert_eq!(first, replayed, "replay must be byte-identical");
}

#[test]
fn schedule_strings_round_trip() {
    for trace in [vec![], vec![0], vec![3, 0, 1, 2]] {
        let s = idg_mc::format_schedule(&trace);
        assert_eq!(idg_mc::parse_schedule(&s).expect("round trip"), trace);
    }
    assert!(idg_mc::parse_schedule("1.x.2").is_err());
}

#[test]
fn max_schedules_bounds_the_search() {
    let cfg = Config {
        max_schedules: 3,
        ..Config::default()
    };
    let report = explorer(cfg).explore(|| {
        let n = Mutex::new(0u32);
        thread::scope(|s| {
            s.spawn(|| *n.lock() += 1);
            s.spawn(|| *n.lock() += 1);
            s.spawn(|| *n.lock() += 1);
        });
    });
    assert!(!report.complete, "3 schedules cannot exhaust 3 threads");
    assert_eq!(report.schedules, 3);
    assert!(report.failure.is_none());
}

#[test]
fn runaway_execution_hits_the_step_limit() {
    let cfg = Config {
        max_steps: 64,
        ..Config::default()
    };
    let report = explorer(cfg).explore(|| {
        let m = Mutex::new(0u64);
        loop {
            let mut g = m.lock();
            *g += 1;
            if *g == u64::MAX {
                break; // unreachable; keeps the loop non-trivial
            }
        }
    });
    let failure = report.failure.expect("unbounded loop must trip the limit");
    assert_eq!(failure.kind, FailureKind::StepLimit);
}

#[test]
fn exploration_is_deterministic() {
    let body = || {
        let n = Mutex::new(0u32);
        thread::scope(|s| {
            s.spawn(|| *n.lock() += 1);
            s.spawn(|| *n.lock() += 1);
        });
        assert_eq!(*n.lock(), 2);
    };
    let a = explorer(Config::default()).explore(body);
    let b = explorer(Config::default()).explore(body);
    assert_eq!(a.schedules, b.schedules);
    assert!(a.proved() && b.proved());
}

#[test]
fn join_handle_returns_the_child_result() {
    let report = explorer(Config::default()).explore(|| {
        let m = Mutex::new(5u32);
        let doubled = thread::scope(|s| {
            let h = s.spawn(|| *m.lock() * 2);
            h.join().expect("child does not panic")
        });
        assert_eq!(doubled, 10);
    });
    assert!(report.proved(), "report: {report:?}");
}

/// Deeper-bound variant: unbounded preemptions and a bigger model.
/// Slow by design; run with `cargo test -p idg-mc -- --ignored`.
#[test]
#[ignore = "deeper bound for local/cron runs; CI uses the bounded suite"]
fn counter_exhaustive_unbounded_preemptions() {
    let cfg = Config {
        preemption_bound: None,
        max_schedules: 2_000_000,
        ..Config::default()
    };
    let report = explorer(cfg).explore(|| {
        let n = Mutex::new(0u32);
        thread::scope(|s| {
            s.spawn(|| *n.lock() += 1);
            s.spawn(|| *n.lock() += 1);
            s.spawn(|| *n.lock() += 1);
        });
        assert_eq!(*n.lock(), 3);
    });
    assert!(report.proved(), "report: {report:?}");
}
