//! Sample statistics: exact percentiles from raw sorted samples, their
//! median over windows, medians, and the peak resident set.

/// Samples per window of a windowed percentile: at least ten lie beyond
/// each window's p99.
pub const WINDOW: usize = 1100;

/// Raw per-operation latency samples of one phase: (issue or due time in
/// seconds from the phase start, latency in ms).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pts: Vec<(f64, f64)>,
}

impl Samples {
    pub fn push(&mut self, t_s: f64, ms: f64) {
        self.pts.push((t_s, ms));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.pts.extend_from_slice(&other.pts);
    }

    fn sorted_ms(pts: &[(f64, f64)]) -> Vec<f64> {
        let mut v: Vec<f64> = pts.iter().map(|p| p.1).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile over all samples (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_sorted(&Self::sorted_ms(&self.pts), q)
    }

    /// The percentile computed per window of `window` consecutive samples
    /// (in time order; the remainder joins the last window), reported as
    /// the median over windows, so that a host stall confined to a few
    /// windows does not move it while one that lasts half the phase does.
    /// A failed operation is a +∞ sample: a window with more than 1 % of
    /// them has an infinite p99. With fewer than `window` samples this is
    /// the plain percentile. `None` when a p99 would have fewer than ten
    /// samples beyond it.
    pub fn windowed(&self, q: f64, window: usize) -> Option<f64> {
        let window = window.max(WINDOW);
        if q > 0.5 && (self.pts.len() as f64 * (1.0 - q)) < 10.0 {
            return None;
        }
        let mut pts = self.pts.clone();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let windows = (pts.len() / window).max(1);
        let per = pts.len() / windows;
        let values: Vec<f64> = (0..windows)
            .filter_map(|w| {
                let end = if w + 1 == windows {
                    pts.len()
                } else {
                    (w + 1) * per
                };
                quantile_sorted(&Self::sorted_ms(&pts[w * per..end]), q)
            })
            .collect();
        (!values.is_empty()).then(|| median(&values))
    }

    pub fn p50(&self) -> Option<f64> {
        self.windowed(0.50, WINDOW)
    }

    pub fn p99(&self) -> Option<f64> {
        self.windowed(0.99, WINDOW)
    }

    /// The 99th percentile regardless of sample count (ladder rungs use it
    /// as a pass/fail criterion; it is never reported as a metric).
    pub fn p99_unguarded(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// Bit-for-bit equality of two output vectors.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Signal-to-quantization-noise ratio in dB.
pub fn sqnr_db(signal: f64, noise: f64) -> f64 {
    10.0 * (signal / noise.max(f64::MIN_POSITIVE)).log10()
}

pub fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// SQNR and top-1 agreement of analog outputs against a floating-point
/// reference. SQNR is the mean over outputs of each output's SQNR in dB,
/// so every input weighs the same whatever its magnitude.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    db_sum: f64,
    db_n: usize,
    agree: usize,
    n: usize,
}

impl Accuracy {
    pub fn add(&mut self, got: &[f32], want: &[f64]) {
        let (mut signal, mut noise) = (0.0, 0.0);
        for (g, w) in got.iter().zip(want) {
            let g = f64::from(*g);
            signal += w * w;
            noise += (g - w) * (g - w);
        }
        if signal > 0.0 && noise > 0.0 {
            self.db_sum += sqnr_db(signal, noise);
            self.db_n += 1;
        }
        let got: Vec<f64> = got.iter().map(|&v| f64::from(v)).collect();
        self.agree += usize::from(argmax(&got) == argmax(want));
        self.n += 1;
    }

    pub fn sqnr_db(&self) -> f64 {
        self.db_sum / self.db_n.max(1) as f64
    }

    pub fn top1(&self) -> f64 {
        self.agree as f64 / self.n.max(1) as f64
    }
}
