//! # idg-perf — the modified roofline, instruction-mix and energy models
//!
//! The paper's performance analysis rests on four quantitative pillars,
//! all reproduced here:
//!
//! * [`arch`] — the three architecture descriptors of **Table I**
//!   (Intel Xeon E5-2697v3 "HASWELL", AMD R9 Fury X "FIJI", NVIDIA
//!   GTX 1080 "PASCAL") extended with the sincos-evaluation
//!   characteristics Sec. VI-C identifies (software library vs ALU at a
//!   quarter rate vs hardware SFU) and shared-memory bandwidth.
//! * [`ops`] — exact operation and data-movement counting for the
//!   gridder/degridder under the paper's operation definition
//!   (op ∈ {+, −, ×, sin, cos}; one FMA = 2 ops; 17 FMAs per sincos
//!   pair, Algorithm 1's caption).
//! * [`mix`] — the throughput-vs-ρ model behind **Fig. 12** (analytic per
//!   architecture) plus a measured curve for the host CPU via
//!   `idg-math::mix`.
//! * [`roofline`] — the modified roofline of **Figs. 11 and 13**: device-
//!   memory and shared-memory operational intensities against the
//!   hardware ceilings and the ρ = 17 mix ceiling (the dashed lines).
//! * [`energy`] — the TDP-based energy model behind **Figs. 14 and 15**
//!   (joules per kernel, GFlops/W).

#![deny(missing_docs)]

pub mod arch;
pub mod energy;
pub mod mix;
pub mod ops;
pub mod roofline;

pub use arch::{ArchKind, Architecture, SincosUnit};
pub use energy::EnergyModel;
pub use mix::{attainable_ops_per_sec, mix_curve, modeled_kernel_seconds, IDG_RHO};
pub use ops::{
    degridder_counts, degridder_item_counts, gridder_counts, gridder_item_counts, OpCounts,
};
pub use roofline::{Roofline, RooflinePoint};
