//! # idg-types — fundamental data types for Image-Domain Gridding
//!
//! This crate provides the shared vocabulary of the IDG reproduction:
//! complex numbers tuned for FMA-friendly accumulation, 2×2 Jones matrices
//! describing direction-dependent effects (A-terms), visibility and
//! (u,v,w)-coordinate records, grid and subgrid containers, and the
//! observation-parameter bundle that every other crate consumes.
//!
//! Everything here is deliberately dependency-free: the numeric tower is
//! built from scratch (see [`float::Float`]) so that the whole workspace
//! can be audited down to primitive operations — important for a paper
//! reproduction whose headline analysis is about *operation counts*.

#![deny(missing_docs)]
#![allow(clippy::should_implement_trait)] // add/sub/mul/div methods on math types are deliberate

pub mod complex;
pub mod error;
pub mod float;
pub mod grid;
pub mod jones;
pub mod params;
pub mod vis;

pub use complex::{Cf32, Cf64, Complex};
pub use error::{FaultSite, IdgError};
pub use float::Float;
pub use grid::{Grid, NR_POLARIZATIONS};
pub use jones::Jones;
pub use params::{Observation, ObservationBuilder, SPEED_OF_LIGHT};
pub use vis::{Baseline, Uvw, Visibility};

/// Result alias used across the IDG workspace.
pub type Result<T> = std::result::Result<T, IdgError>;
