//! Property-based tests of the FFT substrate: random signals, random
//! (smooth and prime) sizes, checked against the mathematical
//! invariants and the O(N²) DFT oracle.

use idg_fft::dft::{dft, dft2d};
use idg_fft::{Direction, Fft2d, FftPlan};
use idg_types::Cf64;
use proptest::prelude::*;

fn signal(n: usize, seed: u64) -> Vec<Cf64> {
    // deterministic pseudo-random signal without pulling in rand
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            };
            Cf64::new(next(), next())
        })
        .collect()
}

fn max_rel_err(a: &[Cf64], b: &[Cf64]) -> f64 {
    let scale = b.iter().map(|c| c.abs()).fold(1.0, f64::max);
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
        / scale
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn forward_matches_dft_for_any_size(n in 2usize..200, seed in 0u64..1_000_000) {
        let plan = FftPlan::<f64>::new(n);
        let x = signal(n, seed);
        let mut got = x.clone();
        plan.forward(&mut got);
        let expect = dft(&x, Direction::Forward);
        prop_assert!(max_rel_err(&got, &expect) < 1e-9, "n={n}");
    }

    #[test]
    fn round_trip_for_any_size(n in 1usize..300, seed in 0u64..1_000_000) {
        let plan = FftPlan::<f64>::new(n);
        let x = signal(n, seed);
        let mut got = x.clone();
        plan.forward(&mut got);
        plan.inverse(&mut got);
        prop_assert!(max_rel_err(&got, &x) < 1e-10, "n={n}");
    }

    #[test]
    fn parseval_for_any_size(n in 2usize..256, seed in 0u64..1_000_000) {
        let plan = FftPlan::<f64>::new(n);
        let x = signal(n, seed);
        let mut f = x.clone();
        plan.forward(&mut f);
        let e_time: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let e_freq: f64 = f.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() < 1e-8 * e_time.max(1.0));
    }

    #[test]
    fn time_shift_is_frequency_phase_ramp(
        n in 4usize..128,
        shift in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        // x[(i + s) mod n]  ⇔  X[k]·e^{+2πi k s / n}
        let shift = shift % n;
        let plan = FftPlan::<f64>::new(n);
        let x = signal(n, seed);
        let shifted: Vec<Cf64> = (0..n).map(|i| x[(i + shift) % n]).collect();

        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fs = shifted;
        plan.forward(&mut fs);

        let expected: Vec<Cf64> = fx
            .iter()
            .enumerate()
            .map(|(k, v)| {
                let theta = 2.0 * std::f64::consts::PI * (k * shift % n) as f64 / n as f64;
                *v * Cf64::from_phase(theta)
            })
            .collect();
        prop_assert!(max_rel_err(&fs, &expected) < 1e-9, "n={n} shift={shift}");
    }

    #[test]
    fn conjugation_mirrors_spectrum(n in 2usize..128, seed in 0u64..1_000_000) {
        // FFT(conj(x))[k] = conj(FFT(x)[(n−k) mod n])
        let plan = FftPlan::<f64>::new(n);
        let x = signal(n, seed);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fc: Vec<Cf64> = x.iter().map(|c| c.conj()).collect();
        plan.forward(&mut fc);
        let expected: Vec<Cf64> =
            (0..n).map(|k| fx[(n - k) % n].conj()).collect();
        prop_assert!(max_rel_err(&fc, &expected) < 1e-9);
    }

    #[test]
    fn fft2d_round_trip(n in 2usize..40, seed in 0u64..1_000_000) {
        let fft = Fft2d::<f64>::new(n);
        let x = signal(n * n, seed);
        let mut got = x.clone();
        fft.process(&mut got, Direction::Forward);
        fft.process(&mut got, Direction::Inverse);
        prop_assert!(max_rel_err(&got, &x) < 1e-10, "n={n}");
    }

    #[test]
    fn inverse_real_is_real_part_of_dft2d(n in 1usize..41, seed in 0u64..1_000_000) {
        let s = signal(n * n, seed);
        let got = Fft2d::<f64>::new(n).inverse_real(|ky, kx| s[ky * n + kx]);
        let expect = dft2d(&s, n, Direction::Inverse);
        let peak = expect.iter().fold(0.0, |m: f64, c| m.max(c.re.abs()));
        let err = got.iter().zip(&expect).fold(0.0, |m: f64, (a, b)| m.max((a - b.re).abs()));
        prop_assert!(err <= 1e-11 * peak, "n={n}: {err:e} of {peak:e}");
    }

    #[test]
    fn lane_of_interleaved_transform_is_its_1d_transform(
        twos in 0u32..6,
        threes in 0u32..3,
        fives in 0u32..2,
        lanes in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        // random smooth n = 2^a·3^b·5^c ≤ 1440, random lane count
        let n = 2usize.pow(twos) * 3usize.pow(threes) * 5usize.pow(fives);
        let plan = FftPlan::<f64>::new(n);
        let x = signal(n * lanes, seed);
        let mut got = x.clone();
        let mut scratch = vec![Cf64::zero(); lanes * plan.scratch_len()];
        plan.process_lanes(&mut got, &mut scratch, lanes, Direction::Forward);
        for lane in 0..lanes {
            let mut expect: Vec<Cf64> = (0..n).map(|k| x[k * lanes + lane]).collect();
            plan.forward(&mut expect);
            let got_lane: Vec<Cf64> = (0..n).map(|k| got[k * lanes + lane]).collect();
            prop_assert!(got_lane == expect, "n={n} lanes={lanes} lane={lane}");
        }
    }

    #[test]
    fn fftshift_involution_even_sizes(half in 1usize..24, seed in 0u64..1_000_000) {
        let n = half * 2;
        let orig = signal(n * n, seed);
        let mut data = orig.clone();
        idg_fft::fftshift2d(&mut data, n);
        idg_fft::fftshift2d(&mut data, n);
        prop_assert_eq!(data, orig);
    }
}
