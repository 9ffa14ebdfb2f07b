//! Seeded input generation. Every input the program sees comes from here,
//! derived from the `--seed` argument and a per-purpose stream number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent generator for one purpose (`stream`) of one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Heavy-tailed, mixed-sign activations: log-uniform magnitudes over
/// eight octaves (`2^-6 … 2^2`), random sign, and 1 in 16 exact zeros.
pub fn heavy_tailed(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..16u32) == 0 {
                return 0.0;
            }
            let octave: f64 = rng.gen_range(-6.0..2.0);
            let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
            (sign * octave.exp2()) as f32
        })
        .collect()
}

/// Weights uniform in `[-1, 1)`.
pub fn uniform(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Due offsets (seconds from phase start) of a constant-rate schedule at
/// `rate_per_s` covering `duration_s`: the open loop sends on this schedule
/// whether or not earlier requests have been answered.
pub fn constant_rate(rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let n = (rate_per_s * duration_s).floor() as usize;
    (0..n).map(|k| k as f64 / rate_per_s).collect()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}
