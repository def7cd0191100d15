//! # idg-imaging — the imaging cycle around the gridder
//!
//! The paper benchmarks "one full imaging cycle" (Fig. 2/Fig. 9): grid →
//! inverse FFT → CLEAN → FFT → degrid. This crate provides that cycle on
//! top of the `idg` proxy:
//!
//! * [`image`] — grid ⇄ image conversions with taper (grid) correction
//!   and flux normalization, plus PSF synthesis;
//! * [`clean`] — Högbom CLEAN minor cycles (the "variant of the CLEAN
//!   algorithm" of Sec. II);
//! * [`cycle`] — the major cycle: image the residual visibilities,
//!   extract components, predict them via degridding, subtract, repeat
//!   until the sky model converges.

#![deny(missing_docs)]

pub mod clean;
pub mod cycle;
pub mod image;
pub mod mfs;
pub mod wstack;

pub use clean::{hogbom_clean, CleanComponent, CleanParams};
pub use cycle::{ImagingCycle, MajorCycleReport};
pub use image::{beam_weight_image, dirty_image, model_grid_from_image, psf_image, Image};
pub use mfs::{mfs_dirty_image, MfsReport, Subband};
pub use wstack::{wstack_dirty_image, WStackReport};
