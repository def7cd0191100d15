//! Error type shared across the IDG workspace.
//!
//! [`IdgError`] is *classified*: every variant knows whether it is
//! transient (worth retrying the failed unit of work) or persistent
//! (retrying cannot help; the caller must degrade gracefully, e.g. by
//! re-executing the failed jobs on the CPU back-end), and device-fault
//! variants carry the job index and pipeline site they occurred at so
//! schedulers can re-enqueue exactly the failed HtoD → kernel → DtoH
//! chain.

/// Where in the device pipeline a fault occurred.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// During the host-to-device transfer of a job's inputs.
    HtoD,
    /// During kernel execution.
    Kernel,
    /// During the device-to-host transfer of a job's outputs.
    DtoH,
    /// During device-memory allocation.
    Alloc,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultSite::HtoD => "HtoD",
            FaultSite::Kernel => "kernel",
            FaultSite::DtoH => "DtoH",
            FaultSite::Alloc => "alloc",
        })
    }
}

/// Errors produced by the IDG library.
#[derive(Debug, Clone, PartialEq)]
pub enum IdgError {
    /// A configuration value is out of range or inconsistent.
    InvalidParameter(String),
    /// Input array dimensions disagree with the observation parameters.
    ShapeMismatch {
        /// What was being checked.
        what: &'static str,
        /// Expected element count.
        expected: usize,
        /// Observed element count.
        actual: usize,
    },
    /// The device model ran out of (modeled) device memory.
    DeviceOutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// A transferred buffer failed its integrity checksum (a bit flipped
    /// in flight). Transient: re-transferring the job's chain heals it.
    TransferCorruption {
        /// Job (work group) index whose transfer was corrupted.
        job: usize,
        /// Which transfer engine carried the corrupted buffer.
        site: FaultSite,
    },
    /// A kernel launch faulted (the device equivalent of a crashed
    /// launch / ECC error). Transient: the launch can be replayed.
    KernelFault {
        /// Job (work group) index whose kernel faulted.
        job: usize,
    },
    /// A stream operation stalled past its watchdog timeout. Transient.
    StreamStall {
        /// Job (work group) index whose operation stalled.
        job: usize,
        /// Engine the stalled operation was queued on.
        site: FaultSite,
        /// Modeled seconds lost before the watchdog fired.
        seconds: f64,
    },
    /// An operating-system I/O failure (file read/write).
    Io(String),
    /// An internal invariant was violated (bug).
    Internal(String),
}

impl IdgError {
    /// Whether retrying the failed unit of work can plausibly succeed.
    ///
    /// Transfer corruption, kernel faults and stream stalls are
    /// one-shot events: replaying the job's HtoD → kernel → DtoH chain
    /// heals them. Everything else (bad inputs, exhausted device
    /// memory, I/O failures, internal bugs) reproduces on retry and
    /// must instead be handled by degradation or by the caller.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IdgError::TransferCorruption { .. }
                | IdgError::KernelFault { .. }
                | IdgError::StreamStall { .. }
        )
    }

    /// Whether the failure can be resolved by *degrading* the device's
    /// execution configuration rather than by retrying as-is.
    ///
    /// Device memory exhaustion is the canonical case: a plain replay
    /// allocates the same buffers and fails identically, but shrinking
    /// the working set (fewer jobs in flight, fewer pipeline buffers)
    /// can make the same work fit. Transient faults are *not*
    /// degradable — they heal on retry without giving anything up —
    /// and input/internal errors reproduce under any configuration.
    pub fn is_degradable(&self) -> bool {
        matches!(self, IdgError::DeviceOutOfMemory { .. })
    }

    /// The job (work group) index a device fault is attributed to.
    pub fn job(&self) -> Option<usize> {
        match self {
            IdgError::TransferCorruption { job, .. }
            | IdgError::KernelFault { job }
            | IdgError::StreamStall { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// The pipeline site a device fault occurred at.
    pub fn fault_site(&self) -> Option<FaultSite> {
        match self {
            IdgError::TransferCorruption { site, .. } | IdgError::StreamStall { site, .. } => {
                Some(*site)
            }
            IdgError::KernelFault { .. } => Some(FaultSite::Kernel),
            IdgError::DeviceOutOfMemory { .. } => Some(FaultSite::Alloc),
            _ => None,
        }
    }
}

impl std::fmt::Display for IdgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdgError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            IdgError::ShapeMismatch {
                what,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "shape mismatch for {what}: expected {expected}, got {actual}"
                )
            }
            IdgError::DeviceOutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B, available {available} B"
                )
            }
            IdgError::TransferCorruption { job, site } => {
                write!(f, "checksum mismatch on {site} transfer of job {job}")
            }
            IdgError::KernelFault { job } => write!(f, "kernel fault in job {job}"),
            IdgError::StreamStall { job, site, seconds } => {
                write!(
                    f,
                    "stream stall on {site} of job {job} ({seconds:.3} s watchdog timeout)"
                )
            }
            IdgError::Io(msg) => write!(f, "i/o error: {msg}"),
            IdgError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for IdgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = IdgError::InvalidParameter("x".into());
        assert_eq!(e.to_string(), "invalid parameter: x");
        let e = IdgError::ShapeMismatch {
            what: "visibilities",
            expected: 10,
            actual: 5,
        };
        assert!(e.to_string().contains("visibilities"));
        let e = IdgError::DeviceOutOfMemory {
            requested: 100,
            available: 50,
        };
        assert!(e.to_string().contains("device out of memory"));
        let e = IdgError::Internal("bug".into());
        assert!(e.to_string().contains("bug"));
        let e = IdgError::Io("disk on fire".into());
        assert!(e.to_string().contains("i/o error"));
    }

    #[test]
    fn fault_variants_render_their_site_and_job() {
        let e = IdgError::TransferCorruption {
            job: 7,
            site: FaultSite::HtoD,
        };
        assert!(e.to_string().contains("HtoD") && e.to_string().contains('7'));
        let e = IdgError::KernelFault { job: 3 };
        assert!(e.to_string().contains("job 3"));
        let e = IdgError::StreamStall {
            job: 2,
            site: FaultSite::DtoH,
            seconds: 0.25,
        };
        assert!(e.to_string().contains("DtoH"));
    }

    #[test]
    fn transience_classification() {
        assert!(IdgError::TransferCorruption {
            job: 0,
            site: FaultSite::HtoD
        }
        .is_transient());
        assert!(IdgError::KernelFault { job: 0 }.is_transient());
        assert!(IdgError::StreamStall {
            job: 0,
            site: FaultSite::Kernel,
            seconds: 1.0
        }
        .is_transient());
        assert!(!IdgError::DeviceOutOfMemory {
            requested: 1,
            available: 0
        }
        .is_transient());
        assert!(!IdgError::InvalidParameter("x".into()).is_transient());
        assert!(!IdgError::Io("x".into()).is_transient());
        assert!(!IdgError::Internal("x".into()).is_transient());
    }

    #[test]
    fn degradability_classification() {
        // OOM is the only degradable error: non-transient, but a
        // smaller working set can resolve it.
        let oom = IdgError::DeviceOutOfMemory {
            requested: 8,
            available: 4,
        };
        assert!(oom.is_degradable());
        assert!(!oom.is_transient());
        // Transient faults heal on retry; degrading would give up
        // throughput for nothing.
        assert!(!IdgError::TransferCorruption {
            job: 0,
            site: FaultSite::HtoD
        }
        .is_degradable());
        assert!(!IdgError::KernelFault { job: 0 }.is_degradable());
        assert!(!IdgError::StreamStall {
            job: 0,
            site: FaultSite::Kernel,
            seconds: 1.0
        }
        .is_degradable());
        // Reproducible-under-any-configuration errors.
        assert!(!IdgError::InvalidParameter("x".into()).is_degradable());
        assert!(!IdgError::Io("x".into()).is_degradable());
        assert!(!IdgError::Internal("x".into()).is_degradable());
    }

    #[test]
    fn fault_attribution_accessors() {
        let e = IdgError::TransferCorruption {
            job: 5,
            site: FaultSite::DtoH,
        };
        assert_eq!(e.job(), Some(5));
        assert_eq!(e.fault_site(), Some(FaultSite::DtoH));
        let e = IdgError::KernelFault { job: 1 };
        assert_eq!(e.fault_site(), Some(FaultSite::Kernel));
        let e = IdgError::DeviceOutOfMemory {
            requested: 2,
            available: 1,
        };
        assert_eq!(e.job(), None);
        assert_eq!(e.fault_site(), Some(FaultSite::Alloc));
        assert_eq!(IdgError::Internal("x".into()).fault_site(), None);
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<IdgError>();
    }
}
