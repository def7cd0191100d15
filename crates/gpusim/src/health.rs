//! Per-device health tracking and a deterministic circuit breaker.
//!
//! A fleet survives a *bad device* — one whose fault rate is far above
//! its peers' — by noticing the pattern in job outcomes and routing
//! around it. This module provides the two pieces the
//! [`crate::fleet::FleetExecutor`] composes:
//!
//! - [`DeviceHealth`]: a sliding window over the most recent job
//!   outcomes on one device. Outcomes are classified from the existing
//!   fault-injection machinery: a job that completed without any fault
//!   is [`JobOutcome::Clean`], one that needed transient retries is
//!   [`JobOutcome::Recovered`], and a persistent failure is
//!   [`JobOutcome::Failed`]. `Recovered` counts as *unhealthy* for
//!   tripping purposes — a chronically flaky device that always limps
//!   through on retry still wastes makespan and should be benched.
//! - a circuit breaker (`Closed → Open → HalfOpen`) embedded in the
//!   tracker: when the unhealthy count inside the window reaches the
//!   configured threshold the breaker trips to [`BreakerState::Open`]
//!   and the device stops admitting work. The cooldown is measured on
//!   the *modeled* [`crate::PipelineSim`] clock, not wall time, so
//!   chaos runs replay bit-identically. After the cooldown the breaker
//!   half-opens and admits a limited number of probe jobs: enough
//!   clean probes re-close it, any unhealthy probe re-opens it with a
//!   fresh cooldown.
//!
//! Every recorded outcome and every trip increments the corresponding
//! self-validated observability counters
//! ([`idg_obs::add_health_outcomes`], [`idg_obs::add_breaker_trips`]),
//! so a metrics snapshot proves the breaker actually engaged.

use idg_types::IdgError;

/// Classification of one finished job on one device.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job completed on the first attempt with no injected fault.
    Clean,
    /// The job completed, but only after transient-fault retries.
    Recovered {
        /// Number of retried attempts the job needed.
        nr_retries: u32,
    },
    /// The job failed persistently on this device.
    Failed,
}

impl JobOutcome {
    /// Whether this outcome counts against the device's health.
    ///
    /// `Recovered` is unhealthy by design: a device that recovers from
    /// every fault still pays the retry makespan, and a lemon with a
    /// high *transient* fault rate would otherwise never trip.
    pub fn is_unhealthy(&self) -> bool {
        !matches!(self, JobOutcome::Clean)
    }

    /// Classify an executor-level result: retries and the final error
    /// (if any) map onto the outcome taxonomy.
    pub fn classify(nr_retries: u32, error: Option<&IdgError>) -> JobOutcome {
        match error {
            Some(_) => JobOutcome::Failed,
            None if nr_retries > 0 => JobOutcome::Recovered { nr_retries },
            None => JobOutcome::Clean,
        }
    }
}

/// Circuit-breaker state (the classic three-state machine).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the device admits work normally.
    Closed,
    /// Tripped: the device admits nothing until the cooldown elapses.
    Open,
    /// Probing: a limited number of jobs are admitted to test recovery.
    HalfOpen,
}

/// Tuning knobs for [`DeviceHealth`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BreakerConfig {
    /// Sliding-window length in job outcomes.
    pub window: usize,
    /// Unhealthy outcomes within the window that trip the breaker.
    pub trip_unhealthy: usize,
    /// Modeled seconds the breaker stays `Open` before half-opening.
    pub cooldown_seconds: f64,
    /// Consecutive clean probes needed to close from `HalfOpen`.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            trip_unhealthy: 4,
            cooldown_seconds: 0.5,
            half_open_probes: 2,
        }
    }
}

impl BreakerConfig {
    /// Validate the knobs; degenerate values would deadlock the state
    /// machine (a zero-probe half-open could never close).
    pub fn validate(&self) -> Result<(), IdgError> {
        if self.window == 0 || self.trip_unhealthy == 0 {
            return Err(IdgError::InvalidParameter(
                "breaker window and trip threshold must be positive".into(),
            ));
        }
        if self.trip_unhealthy > self.window {
            return Err(IdgError::InvalidParameter(format!(
                "trip threshold {} exceeds window {}",
                self.trip_unhealthy, self.window
            )));
        }
        if self.half_open_probes == 0 {
            return Err(IdgError::InvalidParameter(
                "half-open probe count must be positive".into(),
            ));
        }
        if !self.cooldown_seconds.is_finite() || self.cooldown_seconds < 0.0 {
            return Err(IdgError::InvalidParameter(
                "breaker cooldown must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// Sliding-window health tracker + circuit breaker for one device.
///
/// All time arguments are **modeled seconds** from the device fleet's
/// [`crate::PipelineSim`] clocks; the tracker never consults wall
/// time, so identical fault schedules produce identical state
/// trajectories.
#[derive(Clone, Debug)]
pub struct DeviceHealth {
    config: BreakerConfig,
    state: BreakerState,
    /// Most recent outcomes, oldest first, capped at `config.window`.
    window: Vec<JobOutcome>,
    /// Modeled time at which an `Open` breaker may half-open.
    open_until: f64,
    /// Clean probes seen so far while `HalfOpen`.
    clean_probes: u32,
    /// Probes admitted (but not yet recorded) while `HalfOpen`.
    probes_in_flight: u32,
    trips: u64,
    outcomes: u64,
}

impl DeviceHealth {
    /// Fresh tracker in the `Closed` state.
    ///
    /// Errors on degenerate configurations (see
    /// [`BreakerConfig::validate`]); construction-time validation keeps
    /// the per-job hot path assertion-free.
    pub fn new(config: BreakerConfig) -> Result<Self, IdgError> {
        config.validate()?;
        Ok(DeviceHealth {
            config,
            state: BreakerState::Closed,
            window: Vec::with_capacity(config.window),
            open_until: 0.0,
            clean_probes: 0,
            probes_in_flight: 0,
            trips: 0,
            outcomes: 0,
        })
    }

    /// Current breaker state (after any cooldown observable at the
    /// last `admit` call — `Open → HalfOpen` happens inside `admit`).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Number of `Closed → Open` (or `HalfOpen → Open`) trips so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Number of job outcomes recorded so far.
    pub fn outcomes(&self) -> u64 {
        self.outcomes
    }

    /// Unhealthy outcomes currently inside the sliding window.
    pub fn unhealthy_in_window(&self) -> usize {
        self.window.iter().filter(|o| o.is_unhealthy()).count()
    }

    /// Whether the device may take a job at modeled time `now`.
    ///
    /// `Open` breakers half-open here once the cooldown has elapsed;
    /// `HalfOpen` breakers admit at most `half_open_probes` jobs at a
    /// time so one bad probe cannot take a whole batch down with it.
    pub fn admit(&mut self, now: f64) -> bool {
        if self.state == BreakerState::Open && now >= self.open_until {
            self.state = BreakerState::HalfOpen;
            self.clean_probes = 0;
            self.probes_in_flight = 0;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probes_in_flight + self.clean_probes < self.config.half_open_probes {
                    self.probes_in_flight += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Earliest modeled time a currently-`Open` breaker will admit
    /// again, if any.
    pub fn cooldown_expiry(&self) -> Option<f64> {
        (self.state == BreakerState::Open).then_some(self.open_until)
    }

    /// Record one finished job's outcome at modeled time `now` and
    /// advance the breaker state machine.
    pub fn record_outcome(&mut self, outcome: JobOutcome, now: f64) {
        self.outcomes += 1;
        idg_obs::add_health_outcomes(1);
        if self.window.len() == self.config.window {
            self.window.remove(0);
        }
        self.window.push(outcome);
        match self.state {
            BreakerState::Closed => {
                if self.unhealthy_in_window() >= self.config.trip_unhealthy {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                if outcome.is_unhealthy() {
                    // A failed probe re-opens with a fresh cooldown.
                    self.trip(now);
                } else {
                    self.clean_probes += 1;
                    if self.clean_probes >= self.config.half_open_probes {
                        self.state = BreakerState::Closed;
                        // A re-closed breaker starts from a clean
                        // slate; the pre-trip history already had its
                        // say.
                        self.window.clear();
                    }
                }
            }
            // Late results from jobs admitted before the trip may
            // still land while `Open`; they stay in the window but
            // cannot deepen an already-open breaker.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: f64) {
        self.state = BreakerState::Open;
        self.open_until = now + self.config.cooldown_seconds;
        self.clean_probes = 0;
        self.probes_in_flight = 0;
        self.trips += 1;
        idg_obs::add_breaker_trips(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            trip_unhealthy: 2,
            cooldown_seconds: 1.0,
            half_open_probes: 2,
        }
    }

    #[test]
    fn clean_outcomes_keep_the_breaker_closed() {
        let mut h = DeviceHealth::new(config()).unwrap();
        for i in 0..20 {
            assert!(h.admit(i as f64));
            h.record_outcome(JobOutcome::Clean, i as f64);
        }
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.trips(), 0);
        assert_eq!(h.outcomes(), 20);

        // one unhealthy outcome stays under the threshold in either order
        for pair in [
            [JobOutcome::Clean, JobOutcome::Failed],
            [JobOutcome::Failed, JobOutcome::Clean],
        ] {
            let mut h = DeviceHealth::new(config()).unwrap();
            for outcome in pair {
                h.record_outcome(outcome, 0.0);
            }
            assert_eq!(h.state(), BreakerState::Closed);
            assert_eq!(h.trips(), 0);
            assert_eq!(h.unhealthy_in_window(), 1);
            assert!(h.admit(0.1));
        }
    }

    #[test]
    fn recovered_outcomes_count_as_unhealthy_and_trip() {
        let mut h = DeviceHealth::new(config()).unwrap();
        h.record_outcome(JobOutcome::Recovered { nr_retries: 1 }, 0.0);
        assert_eq!(h.state(), BreakerState::Closed);
        h.record_outcome(JobOutcome::Recovered { nr_retries: 2 }, 0.5);
        assert_eq!(h.state(), BreakerState::Open);
        assert_eq!(h.trips(), 1);
        assert!(!h.admit(0.6), "open breaker admits nothing");
        assert_eq!(h.cooldown_expiry(), Some(1.5));
    }

    #[test]
    fn cooldown_runs_on_the_modeled_clock() {
        let mut h = DeviceHealth::new(config()).unwrap();
        h.record_outcome(JobOutcome::Failed, 0.0);
        h.record_outcome(JobOutcome::Failed, 0.0);
        assert_eq!(h.state(), BreakerState::Open);
        assert!(!h.admit(0.99), "cooldown not yet elapsed");
        assert!(h.admit(1.0), "half-opens exactly at open_until");
        assert_eq!(h.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_limits_probes_in_flight() {
        let mut h = DeviceHealth::new(config()).unwrap();
        h.record_outcome(JobOutcome::Failed, 0.0);
        h.record_outcome(JobOutcome::Failed, 0.0);
        assert!(h.admit(2.0));
        assert!(h.admit(2.0), "two probes allowed");
        assert!(!h.admit(2.0), "third concurrent probe refused");
        // One probe lands clean: a slot frees up, but the total
        // clean+in-flight budget still caps at half_open_probes.
        h.record_outcome(JobOutcome::Clean, 2.5);
        assert!(!h.admit(2.5));
    }

    #[test]
    fn clean_probes_reclose_and_clear_history() {
        let mut h = DeviceHealth::new(config()).unwrap();
        h.record_outcome(JobOutcome::Failed, 0.0);
        h.record_outcome(JobOutcome::Failed, 0.0);
        assert!(h.admit(2.0) && h.admit(2.0));
        h.record_outcome(JobOutcome::Clean, 2.5);
        assert_eq!(h.state(), BreakerState::HalfOpen);
        h.record_outcome(JobOutcome::Clean, 2.6);
        assert_eq!(h.state(), BreakerState::Closed);
        // Window cleared: one more unhealthy outcome does not re-trip.
        h.record_outcome(JobOutcome::Failed, 3.0);
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.trips(), 1);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let mut h = DeviceHealth::new(config()).unwrap();
        h.record_outcome(JobOutcome::Failed, 0.0);
        h.record_outcome(JobOutcome::Failed, 0.0);
        assert!(h.admit(5.0));
        h.record_outcome(JobOutcome::Failed, 5.5);
        assert_eq!(h.state(), BreakerState::Open);
        assert_eq!(h.trips(), 2);
        assert_eq!(h.cooldown_expiry(), Some(6.5));
        assert!(!h.admit(6.0));
        assert!(h.admit(6.5));
    }

    #[test]
    fn late_results_cannot_deepen_an_open_breaker() {
        let mut h = DeviceHealth::new(config()).unwrap();
        h.record_outcome(JobOutcome::Failed, 0.0);
        h.record_outcome(JobOutcome::Failed, 0.0);
        let deadline = h.cooldown_expiry().unwrap();
        // A straggler from before the trip lands while Open.
        h.record_outcome(JobOutcome::Failed, 0.5);
        assert_eq!(h.trips(), 1, "no double trip");
        assert_eq!(h.cooldown_expiry(), Some(deadline), "cooldown unchanged");
    }

    #[test]
    fn outcome_classification() {
        assert_eq!(JobOutcome::classify(0, None), JobOutcome::Clean);
        assert_eq!(
            JobOutcome::classify(3, None),
            JobOutcome::Recovered { nr_retries: 3 }
        );
        let oom = IdgError::DeviceOutOfMemory {
            requested: 1,
            available: 0,
        };
        assert_eq!(JobOutcome::classify(2, Some(&oom)), JobOutcome::Failed);
        assert!(!JobOutcome::Clean.is_unhealthy());
        assert!(JobOutcome::Recovered { nr_retries: 1 }.is_unhealthy());
        assert!(JobOutcome::Failed.is_unhealthy());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(BreakerConfig {
            window: 0,
            ..config()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            trip_unhealthy: 5,
            window: 4,
            ..config()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            half_open_probes: 0,
            ..config()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            cooldown_seconds: f64::NAN,
            ..config()
        }
        .validate()
        .is_err());
        assert!(config().validate().is_ok());
    }
}
