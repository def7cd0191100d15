//! # idg-math — the supporting mathematical software, built from scratch
//!
//! A central point of the paper is that the gridder/degridder throughput is
//! bounded not only by the hardware but by the *supporting mathematical
//! software*: the batched sine/cosine routines (Intel SVML/VML on the CPU,
//! `--use_fast_math` intrinsics on the GPU). This crate plays that role for
//! the Rust reproduction:
//!
//! * [`mod@sincos`] — a vectorizable polynomial `sincos` with the paper's two
//!   accuracy settings: *medium* (≈4 ulp, the SVML setting used on
//!   HASWELL) and *fast* (≈2 ulp, the CUDA `--use_fast_math` setting used
//!   on PASCAL), plus a libm-backed *high* reference;
//! * [`spheroidal_2d`] — the prolate-spheroidal tapering function used to
//!   suppress aliasing from neighbouring subgrids;
//! * [`mix`] — the FMA/sincos instruction-mix microkernel behind the
//!   paper's Fig. 12 (throughput as a function of ρ = #FMA / #sincos).

#![deny(missing_docs)]
// Lint L2, numeric core: no silently narrowing `as` (f64 → f32, u64 →
// u32, …) in library code; narrow through `Float::from_f64`/`cast`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod mix;
pub mod sincos;
mod spheroidal;

pub use sincos::{sincos, sincos_batch, Accuracy};
pub use spheroidal::{spheroidal_2d, spheroidal_eta, spheroidal_gridding_eta};
