//! Frame-size distributions of public-WLAN traces (paper Fig. 1(b)).
//!
//! The SIGCOMM'04/'08 and campus-library traces are not redistributable,
//! so this module encodes their *published* frame-size CDFs as piecewise
//! linear interpolants and samples from them by inverse transform. The
//! two anchors the paper calls out explicitly: more than 50% (SIGCOMM)
//! and more than 90% (library) of downlink frames are smaller than
//! 300 bytes, with tails reaching the 1500 B MTU.

use rand::Rng;

/// A piecewise-linear CDF over frame sizes in bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSizeDistribution {
    /// (size_bytes, cumulative_probability) knots, strictly increasing
    /// in both coordinates, ending at probability 1.
    knots: Vec<(f64, f64)>,
    name: &'static str,
}

impl FrameSizeDistribution {
    /// The SIGCOMM trace CDF: ~54% of frames below 300 B, long tail to
    /// the MTU (many full-size TCP segments).
    pub fn sigcomm() -> FrameSizeDistribution {
        FrameSizeDistribution {
            knots: vec![
                (40.0, 0.0),
                (90.0, 0.25),
                (150.0, 0.40),
                (300.0, 0.54),
                (600.0, 0.66),
                (1000.0, 0.76),
                (1400.0, 0.88),
                (1500.0, 1.0),
            ],
            name: "sigcomm",
        }
    }

    /// The campus-library trace CDF: >90% of frames below 300 B.
    pub fn library() -> FrameSizeDistribution {
        FrameSizeDistribution {
            knots: vec![
                (40.0, 0.0),
                (80.0, 0.35),
                (120.0, 0.62),
                (200.0, 0.82),
                (300.0, 0.91),
                (600.0, 0.95),
                (1200.0, 0.98),
                (1500.0, 1.0),
            ],
            name: "library",
        }
    }

    /// Distribution name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Cumulative probability of a frame being at most `bytes` long.
    pub fn cdf(&self, bytes: f64) -> f64 {
        let first = self.knots[0];
        if bytes <= first.0 {
            return first.1;
        }
        for w in self.knots.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if bytes <= x1 {
                if x1 == x0 {
                    return p1;
                }
                return p0 + (p1 - p0) * (bytes - x0) / (x1 - x0);
            }
        }
        1.0
    }

    /// Inverse CDF (quantile) for `p` in [0, 1].
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        for w in self.knots.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if p <= p1 {
                if p1 == p0 {
                    return x0;
                }
                return x0 + (x1 - x0) * (p - p0) / (p1 - p0);
            }
        }
        // Constructors guarantee at least two knots; 0.0 is unreachable.
        self.knots.last().map_or(0.0, |k| k.0)
    }

    /// Samples a frame size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.quantile(rng.gen::<f64>()).round().max(1.0) as usize
    }

    /// Mean frame size implied by the CDF (piecewise-linear integral).
    pub fn mean(&self) -> f64 {
        let mut acc = 0.0;
        for w in self.knots.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            acc += (p1 - p0) * (x0 + x1) / 2.0;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_anchor_points() {
        // Fig. 1(b): >50% (SIGCOMM) and >90% (library) below 300 B.
        assert!(FrameSizeDistribution::sigcomm().cdf(300.0) >= 0.5);
        assert!(FrameSizeDistribution::library().cdf(300.0) >= 0.9);
    }

    #[test]
    fn cdf_is_monotone_from_zero_to_one() {
        for dist in [
            FrameSizeDistribution::sigcomm(),
            FrameSizeDistribution::library(),
        ] {
            let mut prev = -1.0;
            for b in (0..1600).step_by(10) {
                let p = dist.cdf(b as f64);
                assert!(p >= prev, "{}: cdf not monotone at {b}", dist.name());
                assert!((0.0..=1.0).contains(&p));
                prev = p;
            }
            assert_eq!(dist.cdf(1500.0), 1.0);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let dist = FrameSizeDistribution::sigcomm();
        for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let x = dist.quantile(p);
            assert!((dist.cdf(x) - p).abs() < 1e-9, "p={p} x={x}");
        }
    }

    #[test]
    fn samples_match_cdf_empirically() {
        let mut rng = StdRng::seed_from_u64(2);
        let dist = FrameSizeDistribution::library();
        let n = 50_000;
        let below300 = (0..n).filter(|_| dist.sample(&mut rng) <= 300).count() as f64 / n as f64;
        assert!(
            (below300 - dist.cdf(300.0)).abs() < 0.01,
            "measured {below300}"
        );
    }

    #[test]
    fn sizes_stay_within_mtu_range() {
        let mut rng = StdRng::seed_from_u64(8);
        for dist in [
            FrameSizeDistribution::sigcomm(),
            FrameSizeDistribution::library(),
        ] {
            for _ in 0..10_000 {
                let s = dist.sample(&mut rng);
                assert!((40..=1500).contains(&s), "{}: {s}", dist.name());
            }
        }
    }

    #[test]
    fn library_mean_is_smaller_than_sigcomm() {
        // Library traffic is dominated by short frames.
        assert!(FrameSizeDistribution::library().mean() < FrameSizeDistribution::sigcomm().mean());
    }
}
