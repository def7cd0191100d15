//! Deterministic fault injection for the device model.
//!
//! Real devices throw faults the paper's Fig. 7 pipeline has to
//! survive in production: PCI-e transfers corrupt bits, allocations
//! fail under memory pressure, kernels fault, streams stall past the
//! driver watchdog. This module adds those faults to the device model
//! as a *seeded, deterministic* layer:
//!
//! * [`FaultConfig`] selects per-site fault **rates** (Bernoulli per
//!   pipeline operation, drawn from a splitmix64 hash of
//!   `(seed, job, attempt, site)`, so a schedule is a pure function of
//!   the seed — the same run replays bit-identically) and/or
//!   **targeted** faults pinned to an exact `(job, attempt, site)`;
//! * [`FaultInjector`] answers "does this operation fault, and how?"
//!   and performs the actual bit flips for transfer corruption;
//! * buffer integrity is enforced by real checksums ([`checksum_bytes`],
//!   FNV-1a over the staged payload's raw bytes): an injected bit flip
//!   ([`FaultInjector::corrupt_bytes`]) is *detected*, not assumed — the
//!   executor hashes the staged copy and compares against the source
//!   hash;
//! * [`RetryPolicy`] caps re-execution attempts and models capped
//!   exponential backoff into the pipeline makespan, so execution
//!   reports show the robustness cost of every recovery.

use idg_types::{FaultSite, IdgError};

/// The class of an injected fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of the buffer in flight (caught by checksums).
    TransferCorruption,
    /// The kernel launch faults; its outputs are lost.
    KernelFault,
    /// The operation stalls until the watchdog timeout fires.
    StreamStall,
    /// The job's device allocation fails (persistent: retrying the
    /// same allocation on the same device cannot succeed).
    OutOfMemory,
}

impl FaultKind {
    /// The typed error this fault surfaces as when it hits `job` at
    /// `site` (`stall_seconds` only informs [`FaultKind::StreamStall`]).
    pub fn to_error(self, job: usize, site: FaultSite, stall_seconds: f64) -> IdgError {
        match self {
            FaultKind::TransferCorruption => IdgError::TransferCorruption { job, site },
            FaultKind::KernelFault => IdgError::KernelFault { job },
            FaultKind::StreamStall => IdgError::StreamStall {
                job,
                site,
                seconds: stall_seconds,
            },
            FaultKind::OutOfMemory => IdgError::DeviceOutOfMemory {
                requested: 0,
                available: 0,
            },
        }
    }
}

/// One fault pinned to an exact point of the schedule.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TargetedFault {
    /// Job (work group) index to hit.
    pub job: usize,
    /// Attempt number to hit (0 = first execution, 1 = first retry …).
    pub attempt: u32,
    /// Pipeline site to hit.
    pub site: FaultSite,
    /// What happens there.
    pub kind: FaultKind,
}

/// Configuration of the fault-injecting layer.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Probability a transfer (HtoD or DtoH) corrupts one bit.
    pub transfer_corruption_rate: f64,
    /// Probability a kernel launch faults.
    pub kernel_fault_rate: f64,
    /// Probability any engine operation stalls to the watchdog.
    pub stall_rate: f64,
    /// Probability a job's device allocation fails.
    pub oom_rate: f64,
    /// Modeled seconds an operation loses when it stalls.
    pub stall_seconds: f64,
    /// Faults pinned to exact `(job, attempt, site)` points, applied on
    /// top of (and before) the random rates.
    pub targeted: Vec<TargetedFault>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transfer_corruption_rate: 0.0,
            kernel_fault_rate: 0.0,
            stall_rate: 0.0,
            oom_rate: 0.0,
            stall_seconds: 0.1,
            targeted: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A schedule consisting only of pinned faults (no random rates).
    pub fn targeted(faults: Vec<TargetedFault>) -> Self {
        Self {
            targeted: faults,
            ..Self::default()
        }
    }

    /// A seeded random schedule injecting every fault class at `rate`.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            transfer_corruption_rate: rate,
            kernel_fault_rate: rate,
            stall_rate: rate,
            oom_rate: rate,
            ..Self::default()
        }
    }
}

/// Splitmix64 — the standard 64-bit finalizing mixer; statistically
/// solid for hashing small tuples and fully deterministic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn site_tag(site: FaultSite) -> u64 {
    match site {
        FaultSite::HtoD => 1,
        FaultSite::Kernel => 2,
        FaultSite::DtoH => 3,
        FaultSite::Alloc => 4,
    }
}

/// FNV-1a over raw bytes — the transfer-integrity checksum.
pub fn checksum_bytes(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The seeded, deterministic fault layer of the device model.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    config: FaultConfig,
}

impl FaultInjector {
    /// Wrap a configuration.
    pub fn new(config: FaultConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Modeled seconds a stalled operation loses.
    pub fn stall_seconds(&self) -> f64 {
        self.config.stall_seconds
    }

    fn draw(&self, job: usize, attempt: u32, site: FaultSite, kind_tag: u64) -> f64 {
        let mut h = splitmix64(self.config.seed ^ 0x5851_f42d_4c95_7f2d);
        h = splitmix64(h ^ job as u64);
        h = splitmix64(h ^ ((attempt as u64) << 32) ^ site_tag(site));
        h = splitmix64(h ^ kind_tag);
        unit(h)
    }

    /// Whether (and how) the operation of `job`/`attempt` at `site`
    /// faults. Targeted faults take precedence; random rates are
    /// evaluated per fault class with independent deterministic draws.
    pub fn fault_at(&self, job: usize, attempt: u32, site: FaultSite) -> Option<FaultKind> {
        if let Some(t) = self
            .config
            .targeted
            .iter()
            .find(|t| t.job == job && t.attempt == attempt && t.site == site)
        {
            return Some(t.kind);
        }
        match site {
            FaultSite::Alloc => {
                if self.draw(job, attempt, site, 4) < self.config.oom_rate {
                    return Some(FaultKind::OutOfMemory);
                }
            }
            FaultSite::HtoD | FaultSite::DtoH => {
                if self.draw(job, attempt, site, 1) < self.config.transfer_corruption_rate {
                    return Some(FaultKind::TransferCorruption);
                }
            }
            FaultSite::Kernel => {
                if self.draw(job, attempt, site, 2) < self.config.kernel_fault_rate {
                    return Some(FaultKind::KernelFault);
                }
            }
        }
        if site != FaultSite::Alloc && self.draw(job, attempt, site, 3) < self.config.stall_rate {
            return Some(FaultKind::StreamStall);
        }
        None
    }

    /// Flip one deterministic bit of a staged transfer payload — the
    /// modeled in-flight corruption. The flipped position is a function
    /// of the seed and the `(job, attempt)` point, so runs replay
    /// identically.
    pub fn corrupt_bytes(&self, buffer: &mut [u8], job: usize, attempt: u32) {
        if buffer.is_empty() {
            return;
        }
        let h = splitmix64(self.config.seed ^ splitmix64((job as u64) << 32 | attempt as u64));
        let bit = (h as usize) % (buffer.len() * 8);
        buffer[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Retry policy for transient device faults.
///
/// A failed job's whole HtoD → kernel → DtoH chain is re-enqueued, at
/// most `max_attempts` times in total, each retry delayed by capped
/// exponential backoff. The backoff is *modeled into the makespan* —
/// robustness is not free and the reports must show its cost.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total executions allowed per job (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, modeled seconds.
    pub backoff_base: f64,
    /// Multiplier applied per further retry.
    pub backoff_factor: f64,
    /// Ceiling on a single backoff interval, modeled seconds.
    pub backoff_cap: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base: 1e-3,
            backoff_factor: 2.0,
            backoff_cap: 0.1,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The modeled delay before executing `attempt` (0-based): 0 for
    /// the first execution, then `base · factor^(k−1)` capped.
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let raw = self.backoff_base * self.backoff_factor.powi(attempt as i32 - 1);
        raw.min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        let a = FaultInjector::new(FaultConfig::chaos(42, 0.3));
        let b = FaultInjector::new(FaultConfig::chaos(42, 0.3));
        let c = FaultInjector::new(FaultConfig::chaos(43, 0.3));
        let mut differs = false;
        for job in 0..50 {
            for site in [FaultSite::HtoD, FaultSite::Kernel, FaultSite::DtoH] {
                assert_eq!(a.fault_at(job, 0, site), b.fault_at(job, 0, site));
                differs |= a.fault_at(job, 0, site) != c.fault_at(job, 0, site);
            }
        }
        assert!(differs, "different seeds produce different schedules");
    }

    #[test]
    fn rates_are_respected_statistically() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 7,
            transfer_corruption_rate: 0.25,
            ..FaultConfig::default()
        });
        let hits = (0..4000)
            .filter(|&job| inj.fault_at(job, 0, FaultSite::HtoD).is_some())
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "measured rate {rate}");
        // kernel site never produces transfer corruption at rate 0
        assert!((0..4000).all(|job| inj.fault_at(job, 0, FaultSite::Kernel).is_none()));
    }

    #[test]
    fn targeted_faults_hit_exactly_their_point() {
        let inj = FaultInjector::new(FaultConfig::targeted(vec![TargetedFault {
            job: 3,
            attempt: 1,
            site: FaultSite::Kernel,
            kind: FaultKind::KernelFault,
        }]));
        assert_eq!(
            inj.fault_at(3, 1, FaultSite::Kernel),
            Some(FaultKind::KernelFault)
        );
        assert_eq!(inj.fault_at(3, 0, FaultSite::Kernel), None);
        assert_eq!(inj.fault_at(3, 1, FaultSite::HtoD), None);
        assert_eq!(inj.fault_at(2, 1, FaultSite::Kernel), None);
    }

    #[test]
    fn corruption_flips_exactly_one_bit_and_checksums_catch_it() {
        let inj = FaultInjector::new(FaultConfig::chaos(11, 1.0));
        // a staged payload of 64 complex samples, as the executor stages it
        let original: Vec<u8> = [1.5f32, -2.5]
            .repeat(64)
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let before = checksum_bytes(&original);
        let mut corrupted = original.clone();
        inj.corrupt_bytes(&mut corrupted, 0, 0);
        assert_ne!(checksum_bytes(&corrupted), before, "checksum must differ");
        let flipped: u32 = corrupted
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        // corruption point is deterministic
        let mut again = original.clone();
        inj.corrupt_bytes(&mut again, 0, 0);
        assert_eq!(again, corrupted);
        // empty buffers are a no-op, not a panic
        inj.corrupt_bytes(&mut [], 0, 0);
    }

    #[test]
    fn checksum_bytes_detects_any_single_flip() {
        let data = [0u8, 1, 2, 3, 255, 254, 17];
        let base = checksum_bytes(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data;
                copy[i] ^= 1 << bit;
                assert_ne!(checksum_bytes(&copy), base, "flip at {i}:{bit}");
            }
        }
    }

    #[test]
    fn backoff_sequence_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 6,
            backoff_base: 0.01,
            backoff_factor: 2.0,
            backoff_cap: 0.05,
        };
        assert_eq!(p.backoff_before(0), 0.0);
        assert!((p.backoff_before(1) - 0.01).abs() < 1e-12);
        assert!((p.backoff_before(2) - 0.02).abs() < 1e-12);
        assert!((p.backoff_before(3) - 0.04).abs() < 1e-12);
        assert!((p.backoff_before(4) - 0.05).abs() < 1e-12, "capped");
        assert!((p.backoff_before(5) - 0.05).abs() < 1e-12, "stays capped");
    }

    #[test]
    fn fault_kinds_map_to_classified_errors() {
        let e = FaultKind::TransferCorruption.to_error(4, FaultSite::DtoH, 0.1);
        assert!(e.is_transient());
        assert_eq!(e.job(), Some(4));
        let e = FaultKind::StreamStall.to_error(1, FaultSite::Kernel, 0.25);
        assert!(matches!(e, IdgError::StreamStall { seconds, .. } if seconds == 0.25));
        let e = FaultKind::OutOfMemory.to_error(0, FaultSite::Alloc, 0.0);
        assert!(!e.is_transient());
    }
}
