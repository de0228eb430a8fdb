//! Seed derivation and order statistics.

/// SplitMix64: the benchmark's only source of derived randomness, so one
/// `--seed` fixes every input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th seed derived from `seed` (cells, schedules, group names).
pub fn derive(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i.wrapping_add(0x5EED)))
}

/// Sorted sample set with interpolated percentiles.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(|a, b| a.total_cmp(b));
        Dist { sorted: samples }
    }

    /// Percentile `q` in `[0, 1]`, linearly interpolated between closest
    /// ranks. NaN when empty.
    pub fn q(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    pub fn median(&self) -> f64 {
        self.q(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

/// Median of a few values.
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let d = Dist::new(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(d.median(), 3.0);
        assert_eq!(d.q(0.0), 1.0);
        assert_eq!(d.q(1.0), 5.0);
        assert_eq!(d.q(0.25), 2.0);
        assert!(Dist::default().median().is_nan());
        assert_eq!(median(&[2.0, 1.0]), 1.5);
    }

    #[test]
    fn derived_seeds_repeat_and_differ() {
        assert_eq!(derive(7, 3), derive(7, 3));
        assert_ne!(derive(7, 3), derive(7, 4));
        assert_ne!(derive(7, 3), derive(8, 3));
    }
}
