//! # idg-repro — workspace root of the IDG reproduction
//!
//! This crate exists to host the cross-crate integration tests
//! (`tests/`) and the runnable examples (`examples/`); the library
//! surface lives in [`idg`] (re-exported here) and its substrate crates.
//!
//! Start with `examples/quickstart.rs`, the README, or the
//! per-experiment index in DESIGN.md.

pub use idg;
pub use idg_imaging as imaging;
