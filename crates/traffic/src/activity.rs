//! Active-station dynamics (paper Fig. 1(a)).
//!
//! The library trace shows the number of STAs with concurrent downlink
//! requests per AP fluctuating between ~2 and ~14 with a mean of 7.63.
//! This module models that as a bounded birth–death (M/M/∞-style)
//! process sampled once per second, which reproduces both the mean and
//! the visual burstiness of the published time series.

use crate::voip::exponential;
use rand::Rng;

/// Mean number of active STAs per AP measured in the library trace.
pub const LIBRARY_MEAN_ACTIVE: f64 = 7.63;

/// Bounded birth–death process for the active-station count.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityProcess {
    mean: f64,
    min: usize,
    max: usize,
    /// Mean session lifetime (1/death-rate per station), seconds.
    session_s: f64,
}

impl ActivityProcess {
    /// The library-trace configuration: mean 7.63, range 2..=14.
    pub fn library() -> ActivityProcess {
        ActivityProcess {
            mean: LIBRARY_MEAN_ACTIVE,
            min: 2,
            max: 14,
            session_s: 20.0,
        }
    }

    /// A custom process.
    ///
    /// # Panics
    ///
    /// Panics unless `min <= mean <= max` and `session_s > 0`.
    pub fn new(mean: f64, min: usize, max: usize, session_s: f64) -> ActivityProcess {
        assert!(
            min as f64 <= mean && mean <= max as f64,
            "mean outside bounds"
        );
        assert!(session_s > 0.0, "session time must be positive");
        ActivityProcess {
            mean,
            min,
            max,
            session_s,
        }
    }

    /// The configured long-run mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Samples the active-station count once per second for `seconds`.
    pub fn sample_series<R: Rng + ?Sized>(&self, seconds: usize, rng: &mut R) -> Vec<usize> {
        // Birth rate chosen so the unbounded equilibrium is `mean`:
        // lambda * session = mean.
        let birth_rate = self.mean / self.session_s;
        let mut n = self.mean.round() as usize;
        let mut series = Vec::with_capacity(seconds);
        let mut t = 0.0f64;
        let mut next_tick = 0.0f64;
        while series.len() < seconds {
            let death_rate = n as f64 / self.session_s;
            let total = birth_rate + death_rate;
            let dt = exponential(1.0 / total, rng);
            // Record one sample per second boundary crossed.
            while next_tick <= t + dt && series.len() < seconds {
                series.push(n.clamp(self.min, self.max));
                next_tick += 1.0;
            }
            t += dt;
            let birth = rng.gen::<f64>() < birth_rate / total;
            if birth && n < self.max {
                n += 1;
            } else if !birth && n > self.min {
                n -= 1;
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn series_has_requested_length() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = ActivityProcess::library().sample_series(300, &mut rng);
        assert_eq!(s.len(), 300);
    }

    #[test]
    fn values_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = ActivityProcess::library().sample_series(1000, &mut rng);
        assert!(s.iter().all(|&n| (2..=14).contains(&n)));
    }

    #[test]
    fn long_run_mean_matches_library_trace() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = ActivityProcess::library().sample_series(40_000, &mut rng);
        let mean = s.iter().sum::<usize>() as f64 / s.len() as f64;
        assert!(
            (mean - LIBRARY_MEAN_ACTIVE).abs() < 0.8,
            "mean {mean} vs {LIBRARY_MEAN_ACTIVE}"
        );
    }

    #[test]
    fn process_actually_fluctuates() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = ActivityProcess::library().sample_series(300, &mut rng);
        let distinct: std::collections::BTreeSet<usize> = s.iter().copied().collect();
        assert!(
            distinct.len() >= 4,
            "only {} distinct values",
            distinct.len()
        );
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn invalid_mean_rejected() {
        ActivityProcess::new(20.0, 2, 14, 10.0);
    }
}
