//! # idg-mc — exhaustive schedule exploration for the sync facade
//!
//! The stream scheduler and the fleet executor are hand-rolled
//! condvar/mutex machines whose exactly-once and no-deadlock guarantees
//! were previously pinned only by wall-clock soak tests — which observe
//! the handful of interleavings the OS scheduler happens to produce.
//! This crate is the dynamic half of the concurrency-discipline story
//! (DESIGN.md §13): a loom-style deterministic cooperative scheduler
//! that runs a closed concurrent model under **every** interleaving up
//! to a bound, with deadlock and lost-wakeup detection and byte-exact
//! failing-schedule replay.
//!
//! ## How it works
//!
//! Model threads are real OS threads, but exactly one ever runs at a
//! time: a single *active token* is handed from thread to thread at
//! **decision points** (lock acquisition, condvar block, thread spawn /
//! join / exit). At each decision point the runnable threads form the
//! choice set; the [`Explorer`] drives a depth-first search over choice
//! indices, replaying the recorded prefix and diverging at the deepest
//! unexplored branch. Because all shared state in safe Rust sits behind
//! the facade's locks, interleaving at these points is exhaustive at
//! the operation level.
//!
//! - **Deadlock**: a decision point with no runnable candidate while
//!   unfinished threads remain. If any of them is parked on a condvar
//!   the failure is classified as a *lost wakeup* — the signature of a
//!   missing `while` around a wait.
//! - **Spurious wakeups** ([`Config::spurious_wakeups`]): condvar
//!   waiters are offered as wake-without-notify choices, which catches
//!   `if`-guarded waits even on schedules where no notify is pending.
//! - **Replay**: a failure carries its schedule serialized as a choice
//!   string (see [`format_schedule`]); [`Explorer::replay`] re-runs it
//!   and reproduces the same failure byte-for-byte.
//!
//! The primitives in [`sync`] and [`thread`] fall back to plain
//! `std::sync` behavior when no exploration is active on the calling
//! thread, so a workspace compiled with `--cfg idg_model_check` still
//! runs its ordinary tests unchanged.

#![deny(missing_docs)]
// Lint L7's exemption: the cooperative primitives are built on the std
// ones they stand in for. `clippy::panic` (lint L1) sees the two
// `panic_any(McAbort)` calls that unwind a worker once its schedule has
// recorded a failure — the explorer catches exactly that payload.
#![allow(clippy::disallowed_types, clippy::disallowed_methods, clippy::panic)]

mod exec;
pub mod sync;
pub mod thread;

pub use exec::{Failure, FailureKind};

use exec::Execution;
use idg_types::IdgError;
use std::sync::Arc;

/// Exploration bounds. The defaults explore small models (3–4 threads,
/// a few dozen decision points) exhaustively at preemption bound 2 in
/// well under a minute.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum schedules (executions) to run before giving up with
    /// `complete = false`.
    pub max_schedules: u64,
    /// Maximum decision points per execution — a livelock backstop; an
    /// execution that exceeds it fails with [`FailureKind::StepLimit`].
    pub max_steps: usize,
    /// CHESS-style preemption bound: how many times a schedule may
    /// switch away from a thread that is still runnable. `None`
    /// explores the full interleaving tree.
    pub preemption_bound: Option<usize>,
    /// Maximum spurious condvar wakeups injected per execution (`0`
    /// disables injection). Each parked waiter may be offered as a
    /// wake-without-notify choice until the budget is spent; the
    /// budget keeps the schedule tree finite — an unbounded injector
    /// would chase a correct `while`-guarded wait through infinitely
    /// many park/re-park rounds.
    pub spurious_wakeups: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_schedules: 50_000,
            max_steps: 20_000,
            preemption_bound: Some(2),
            spurious_wakeups: 0,
        }
    }
}

impl Config {
    /// Reject degenerate bounds (a zero budget could never run the
    /// first execution to completion).
    pub fn validate(&self) -> Result<(), IdgError> {
        if self.max_schedules == 0 {
            return Err(IdgError::InvalidParameter(
                "model checker: max_schedules must be positive".into(),
            ));
        }
        if self.max_steps == 0 {
            return Err(IdgError::InvalidParameter(
                "model checker: max_steps must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of one [`Explorer::explore`] call.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of schedules (full executions) that were run.
    pub schedules: u64,
    /// Whether the whole bounded interleaving tree was exhausted.
    /// `false` when the search stopped early — at the first failure or
    /// at [`Config::max_schedules`].
    pub complete: bool,
    /// The first failure found, if any, with its replayable schedule.
    pub failure: Option<Failure>,
}

impl Report {
    /// Convenience: the report proves the property (tree exhausted,
    /// nothing failed).
    pub fn proved(&self) -> bool {
        self.complete && self.failure.is_none()
    }
}

/// Depth-first schedule explorer over a deterministic concurrent body.
#[derive(Clone, Debug)]
pub struct Explorer {
    cfg: Config,
}

impl Explorer {
    /// An explorer with the given bounds.
    ///
    /// # Errors
    /// [`IdgError::InvalidParameter`] on degenerate bounds.
    pub fn new(cfg: Config) -> Result<Explorer, IdgError> {
        cfg.validate()?;
        Ok(Explorer { cfg })
    }

    /// Run `body` under every interleaving up to the configured bounds,
    /// stopping at the first failure (assertion panic, deadlock, lost
    /// wakeup, or step-limit overrun).
    ///
    /// `body` must be deterministic apart from scheduling: the search
    /// replays choice prefixes and assumes identical behavior.
    pub fn explore<F>(&self, body: F) -> Report
    where
        F: Fn() + Sync,
    {
        let mut trace: Vec<u32> = Vec::new();
        let mut schedules = 0u64;
        loop {
            let run = Execution::run_once(&self.cfg, trace, &body);
            schedules += 1;
            if run.failure.is_some() {
                return Report {
                    schedules,
                    complete: false,
                    failure: run.failure,
                };
            }
            // Backtrack: deepest decision point with an untried branch.
            let mut divergence = None;
            for i in (0..run.trace.len()).rev() {
                if run.trace[i] + 1 < run.alts[i] {
                    divergence = Some(i);
                    break;
                }
            }
            let Some(i) = divergence else {
                return Report {
                    schedules,
                    complete: true,
                    failure: None,
                };
            };
            if schedules >= self.cfg.max_schedules {
                return Report {
                    schedules,
                    complete: false,
                    failure: None,
                };
            }
            trace = run.trace[..i].to_vec();
            trace.push(run.trace[i] + 1);
        }
    }

    /// Re-run a single execution pinned to a serialized schedule (as
    /// carried by [`Failure::schedule`]). Positions beyond the recorded
    /// trace fall back to the first candidate, so a failing prefix
    /// reproduces its failure exactly.
    ///
    /// # Errors
    /// [`IdgError::InvalidParameter`] when the schedule string does not
    /// parse.
    pub fn replay<F>(&self, schedule: &str, body: F) -> Result<Report, IdgError>
    where
        F: Fn() + Sync,
    {
        let trace = parse_schedule(schedule)?;
        let run = Execution::run_once(&self.cfg, trace, &body);
        Ok(Report {
            schedules: 1,
            complete: false,
            failure: run.failure,
        })
    }

    /// The bounds this explorer runs under.
    pub fn config(&self) -> &Config {
        &self.cfg
    }
}

/// Serialize a choice trace as the dot-separated schedule string used
/// in failure reports (empty trace → empty string).
pub fn format_schedule(trace: &[u32]) -> String {
    trace
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(".")
}

/// Parse a schedule string produced by [`format_schedule`].
///
/// # Errors
/// [`IdgError::InvalidParameter`] on any non-numeric component.
pub fn parse_schedule(s: &str) -> Result<Vec<u32>, IdgError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|part| {
            part.parse::<u32>().map_err(|_| {
                IdgError::InvalidParameter(format!("bad schedule component `{part}` in `{s}`"))
            })
        })
        .collect()
}

/// The execution context of the current OS thread, if it is a model
/// thread inside an active exploration.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    thread::current_ctx()
}
