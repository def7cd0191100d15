//! # idg-gpusim — a software GPU device model
//!
//! The paper runs IDG on an AMD Fury X (OpenCL) and an NVIDIA GTX 1080
//! (CUDA). Lacking those devices, this crate substitutes a *software
//! device model* that preserves everything the paper's claims rest on:
//!
//! * **the parallel mapping** — [`kernels`] executes the exact CUDA
//!   decomposition of Sec. V-C: one thread block per work item; gridder
//!   threads mapped to pixels accumulating in registers with
//!   visibilities staged through a capacity-limited shared-memory
//!   buffer; degridder threads alternating between a pixel role and a
//!   visibility role. The arithmetic is bit-for-bit the same family as
//!   the CPU kernels (validated against the reference kernels), so the
//!   mapping's correctness is testable;
//! * **the machine model** — [`device`] wraps the Table I descriptors
//!   with device-memory capacity accounting, shared-memory capacity per
//!   block, and per-architecture thread-block sizes (192/256 for the
//!   gridder on PASCAL/FIJI, 128/256 for the degridder — Sec. V-C);
//! * **the timing model** — [`timing`] derives kernel durations from the
//!   operation/byte counters of `idg-perf` and the architecture's
//!   ceilings (FMA pipes, SFU or ALU sincos, device-memory bandwidth,
//!   shared-memory bandwidth), which is precisely the quantity the
//!   paper's rooflines bound;
//! * **the host/device pipeline** — [`stream`] is a discrete-event
//!   simulator of CUDA streams with three-deep buffering, reproducing
//!   the overlap behaviour of Fig. 7;
//! * **the executors** — one pass engine (job model, kernel back-end,
//!   retry loop, report) under two dispatchers: [`executor`] drives
//!   whole gridding/degridding passes on one device, [`fleet`] across
//!   several — real numerical results (produced by the simulated
//!   kernels) plus a modeled execution/energy report;
//! * **the fault layer** — [`fault`] deterministically injects the
//!   faults real devices throw (transfer bit flips caught by buffer
//!   checksums, device OOM, kernel faults, stream stalls), and the
//!   executor recovers through a capped-exponential-backoff retry
//!   policy whose cost is modeled into the makespan; persistent
//!   failures surface as classified [`idg_types::IdgError`]s so the
//!   proxy layer can re-execute the failed jobs on the CPU.

#![deny(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's kernels

pub mod device;
pub mod executor;
pub mod fault;
pub mod fleet;
pub mod health;
pub mod kernels;
pub mod occupancy;
mod pass;
pub mod stream;
pub mod timing;

pub use device::Device;
pub use executor::{GpuExecutor, JobFailure};
pub use fault::{FaultConfig, FaultInjector, FaultKind, RetryPolicy, TargetedFault};
pub use fleet::{DeviceReport, FleetExecutor, FleetMember, FleetRunReport};
pub use health::{BreakerConfig, BreakerState, DeviceHealth, JobOutcome};
pub use occupancy::{occupancy, KernelResources, Occupancy};
pub use pass::{GriddedJob, PassTotals, Sink};
pub use stream::{AttemptOutcome, Engine, FaultPoint, OpStatus, PipelineSim, TraceEntry};
pub use timing::{host_adder_time, kernel_time, transfer_time, HOST_ADDER_BW};
