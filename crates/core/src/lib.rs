//! # idg — Image-Domain Gridding
//!
//! The public façade of the IDG reproduction: a [`Proxy`] that runs
//! complete gridding and degridding passes on a chosen back-end and
//! reports per-stage execution metrics in the shape the paper's
//! evaluation uses.
//!
//! ```no_run
//! use idg::{Backend, Proxy};
//! use idg_telescope::Dataset;
//!
//! // a scaled-down version of the paper's SKA1-low benchmark set
//! let ds = Dataset::representative(10, 42).unwrap();
//! let proxy = Proxy::new(Backend::CpuOptimized, ds.obs.clone()).unwrap();
//! let plan = proxy.plan(&ds.uvw).unwrap();
//! let (grid, report) = proxy
//!     .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
//!     .unwrap();
//! println!("{report}");
//! assert!(grid.power() > 0.0);
//! ```
//!
//! ## Back-ends
//!
//! | back-end | execution | timing |
//! |---|---|---|
//! | [`Backend::CpuReference`] | scalar f64 gold kernels | measured |
//! | [`Backend::CpuOptimized`] | Sec. V-B optimized kernels (rayon) | measured |
//! | [`Backend::GpuPascal`] | Sec. V-C mapping on the GTX 1080 device model | modeled |
//! | [`Backend::GpuFiji`] | Sec. V-C mapping on the Fury X device model | modeled |
//!
//! All back-ends produce numerically equivalent grids/visibilities
//! (verified against each other in this crate's tests); the modeled
//! back-ends additionally report Table-I-derived times and energies,
//! which is the substitution DESIGN.md documents.
//!
//! [`Proxy::grid_streamed`] and [`Proxy::degrid_streamed`] run a pass
//! over the A-term-aligned time-axis chunks of [`stream`], in chunk
//! order on the calling thread, bit-identical to the one-shot pass.

#![deny(missing_docs)]

pub mod proxy;
pub mod report;
pub mod stages;
pub mod stream;

pub use proxy::{Backend, FleetConfig, Proxy, StreamConfig};
pub use report::{ExecutionReport, FleetStats};
pub use stages::{DegridStages, GridStages};

// Re-export the workspace vocabulary so applications can depend on
// `idg` alone.
pub use idg_fft as fft;
pub use idg_gpusim as gpusim;
pub use idg_kernels as kernels;
pub use idg_math as math;
pub use idg_obs as obs;
pub use idg_perf as perf;
pub use idg_plan as plan;
pub use idg_telescope as telescope;
pub use idg_types as types;

pub use idg_plan::{Plan, WorkItem};
pub use idg_types::{Cf32, Complex, Grid, IdgError, Jones, Observation, Uvw, Visibility};
pub use stream::{ChunkPolicy, StreamStats};
