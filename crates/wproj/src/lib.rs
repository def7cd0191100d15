//! # idg-wproj — the W-projection gridding baseline
//!
//! The paper compares IDG against the W-projection gridder of Romein
//! (ICS 2012), "WPG" (Sec. VI-E, Fig. 16). This crate reimplements that
//! baseline algorithm:
//!
//! * [`wkernel`] — numeric computation of the oversampled W-kernels:
//!   the Fourier transform of the anti-aliasing taper multiplied by the
//!   w phase screen `e^{2πi w n(l,m)}`, truncated to an `N_W × N_W`
//!   support and oversampled by a configurable factor (8 in the paper's
//!   tests);
//! * [`gridder`] — convolutional gridding and degridding with those
//!   kernels (scalar and rayon-parallel paths);
//! * [`wstack`] — the W-stacking driver that partitions visibilities
//!   over w-planes to bound the required kernel support (Sec. III and
//!   VI-E: "In practice, WPG and IDG are used in conjunction with
//!   W-stacking").
//!
//! Unlike IDG, the whole cost of the w correction sits in the size of
//! these kernels: support scales with the w-range and the kernels must
//! be precomputed, stored and streamed — exactly the overhead Fig. 16
//! quantifies.

#![deny(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the classic gridder

pub mod gridder;
pub mod wkernel;
pub mod wstack;

pub use gridder::{wpg_degrid, wpg_grid};
pub use wkernel::WKernel;
pub use wstack::WStack;
