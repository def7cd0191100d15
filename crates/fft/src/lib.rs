//! # idg-fft — a from-scratch FFT library for the IDG workspace
//!
//! The paper leans on vendor FFT libraries (Intel MKL on the CPU, cuFFT /
//! clFFT on the GPUs) for two jobs:
//!
//! 1. **subgrid FFTs** — four batched `Ñ × Ñ` transforms per subgrid
//!    (Ñ = 24 in the benchmark, i.e. 2³·3 — *not* a power of two), and
//! 2. the single large **grid FFT** per imaging cycle (2048², power of
//!    two).
//!
//! This crate replaces them with an auditable pure-Rust implementation:
//!
//! * [`FftPlan`] — a 1-D plan using the *Stockham autosort* mixed-radix
//!   algorithm (radices 4, 2, 3, 5) with precomputed per-stage twiddle
//!   tables; arbitrary remaining factors fall back to Bluestein's
//!   chirp-z algorithm, so every size is supported. Its one kernel
//!   transforms `lanes` interleaved sequences at once
//!   ([`FftPlan::process_lanes`]; a lone transform is one lane), which is
//!   where the SIMD width comes from.
//! * [`Fft2d`] — row-column 2-D transforms over the planar polarization
//!   layout of `idg-types`: a row-major plane is the lane form of its
//!   columns, so both the batched subgrid FFTs ("embarrassingly
//!   parallel", Sec. V-B c) and the banded grid FFT run on that kernel.
//! * [`shift`] — `fftshift`/`ifftshift` index permutations used when
//!   moving subgrids between image and Fourier domains.
//! * [`dft`] — an O(N²) direct transform, the correctness oracle.
//!
//! Conventions: `forward` applies `X[k] = Σ x[n]·e^{−2πi nk/N}` unscaled;
//! `inverse` applies the conjugate transform scaled by `1/N`, so
//! `inverse(forward(x)) == x`.

#![deny(missing_docs)]
// Lint L2, numeric core: no silently narrowing `as` (f64 → f32, u64 →
// u32, …) in library code; narrow through `Float::from_f64`/`cast`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod bluestein;
pub mod dft;
mod fft2d;
pub mod plan;
pub mod shift;

pub use fft2d::Fft2d;
pub use plan::{Direction, FftPlan};
pub use shift::{fftshift2d, ifftshift2d};
