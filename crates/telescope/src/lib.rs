//! # idg-telescope — telescope and observation simulator
//!
//! The paper's benchmark is driven by a representative data set generated
//! from "proposed antenna coordinates for the SKA-1 low telescope"
//! (Sec. VI-A), with uvw-coordinates produced by earth-rotation synthesis
//! (the `uvwsim` coordinate generator, ref. \[27\]). We do not have the
//! proposal files, so this crate synthesizes the equivalent inputs:
//!
//! * [`layout`] — station position generators: an SKA1-low-like morphology
//!   (dense core plus log-spiral arms), a LOFAR-like layout and uniform
//!   random scatter, all seeded and deterministic;
//! * [`uvw`] — earth-rotation synthesis of (u,v,w) tracks (the uv-plane
//!   ellipses of Fig. 8) from station positions, target declination and
//!   hour-angle range;
//! * [`sky`] — point-source sky models;
//! * [`predict`] — direct (per-source DFT) visibility prediction, the
//!   ground truth that gridding/degridding accuracy is measured against;
//! * [`aterm`] — A-term (direction-dependent effect) generators: identity
//!   (the paper's benchmark setting), per-station complex gains, and a
//!   Gaussian primary-beam model for exercising the correction path;
//! * [`dataset`] — ties everything together into the in-memory
//!   visibility set consumed by the gridders.

#![deny(missing_docs)]

pub mod aterm;
pub mod dataset;
pub mod io;
pub mod layout;
pub mod noise;
pub mod predict;
pub mod sky;
pub mod uvw;

pub use aterm::{ATermModel, ATerms, GaussianBeam, IdentityATerm, StationGains};
pub use dataset::Dataset;
pub use io::{load_dataset, read_dataset, save_dataset, write_dataset};
pub use layout::{Layout, Station};
pub use noise::NoiseModel;
pub use predict::predict_visibilities;
pub use sky::{PointSource, SkyModel};
pub use uvw::UvwGenerator;
