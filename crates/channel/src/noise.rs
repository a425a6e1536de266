//! Gaussian noise generation and the AWGN channel.
//!
//! `rand` (the only external dependency) provides uniform 64-bit words;
//! normal variates come from a 256-layer Marsaglia–Tsang ziggurat, so
//! the crate needs no `rand_distr`. One word per variate carries both
//! the layer index (low 8 bits) and a 53-bit uniform (high bits); about
//! 98.5% of draws are accepted on that word alone with one multiply and
//! one compare. The wedge and tail corrections, the only paths that
//! evaluate `exp`/`ln`, run on the remaining ~1.5%.

use std::sync::OnceLock;

use carpool_phy::math::{db_to_lin, Complex64};
use rand::Rng;

/// Number of ziggurat layers (the low byte of each word picks one).
const LAYERS: usize = 256;
/// Right edge of the base layer, where the Gaussian tail begins.
const TAIL_START: f64 = 3.654_152_885_361_009;
/// Area of every layer under the unnormalised density `exp(-x²/2)`:
/// `R·f(R) + ∫_R^∞ f`, with `R` = [`TAIL_START`].
const LAYER_AREA: f64 = 0.004_928_673_233_974_658;

/// Layer edges and density values of the ziggurat.
struct Ziggurat {
    /// `x[0]` is the base layer's equivalent width
    /// `LAYER_AREA / f(TAIL_START)`, `x[1]` is `TAIL_START`, and
    /// `x[i + 1]` is the edge below which layer `i` lies entirely under
    /// the density; `x[256] = 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = exp(-x[i]²/2)`.
    f: [f64; LAYERS + 1],
}

impl Ziggurat {
    fn build() -> Ziggurat {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = LAYER_AREA / density(TAIL_START);
        x[1] = TAIL_START;
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (density(x[i]) + LAYER_AREA / x[i]).ln()).sqrt();
        }
        // The top layer closes at the mode (the recursion lands within
        // rounding of it).
        x[LAYERS] = 0.0;
        let mut f = [0.0; LAYERS + 1];
        for (fi, &xi) in f.iter_mut().zip(&x) {
            *fi = density(xi);
        }
        Ziggurat { x, f }
    }

    /// Splits one word into a layer index and a point `u·x[i]`, `u`
    /// uniform in `[-1, 1)` from the 53 high bits.
    #[inline]
    fn point(&self, bits: u64) -> (usize, f64) {
        let layer = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        (layer, u * self.x[layer])
    }
}

/// The process-wide tables, built on first use (no allocation).
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::build)
}

/// Draws one standard normal variate from the ziggurat `z`.
#[inline]
fn sample<R: Rng + ?Sized>(rng: &mut R, z: &Ziggurat) -> f64 {
    let (layer, x) = z.point(rng.next_u64());
    if x.abs() < z.x[layer + 1] {
        return x;
    }
    sample_rejected(rng, z, layer, x)
}

/// The ~1.5% of draws that land outside their layer's inner rectangle:
/// the base layer falls through to the tail, the others test the wedge
/// against the density and redraw on rejection.
#[cold]
fn sample_rejected<R: Rng + ?Sized>(
    rng: &mut R,
    z: &Ziggurat,
    mut layer: usize,
    mut x: f64,
) -> f64 {
    loop {
        if layer == 0 {
            return tail(rng, x < 0.0);
        }
        let y = z.f[layer] + (z.f[layer + 1] - z.f[layer]) * rng.gen::<f64>();
        if y < (-0.5 * x * x).exp() {
            return x;
        }
        (layer, x) = z.point(rng.next_u64());
        if x.abs() < z.x[layer + 1] {
            return x;
        }
    }
}

/// Marsaglia's tail sampler: a normal variate beyond [`TAIL_START`].
fn tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // `1 - U` is in (0, 1], so both logarithms are finite.
        let x = -(1.0 - rng.gen::<f64>()).ln() / TAIL_START;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y >= x * x {
            return if negative {
                -(TAIL_START + x)
            } else {
                TAIL_START + x
            };
        }
    }
}

/// Draws one standard normal variate (256-layer ziggurat).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    sample(rng, ziggurat())
}

/// Draws a circularly-symmetric complex Gaussian with variance
/// `variance` (total over both components).
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, variance: f64) -> Complex64 {
    let s = (variance / 2.0).sqrt();
    Complex64::new(standard_normal(rng) * s, standard_normal(rng) * s)
}

/// Additive white Gaussian noise at a fixed SNR.
///
/// The noise power is `signal_power / 10^(snr_db/10)`, where the signal
/// power is measured from each processed buffer — so the configured SNR
/// is met exactly in expectation regardless of the transmit scaling.
#[derive(Debug, Clone)]
pub(crate) struct Awgn {
    snr_db: f64,
}

impl Awgn {
    /// Creates an AWGN stage targeting `snr_db` decibels.
    pub(crate) fn new(snr_db: f64) -> Awgn {
        Awgn { snr_db }
    }

    /// Adds noise to `samples` in place, scaled to `signal_power`, the
    /// buffer's [`mean_power`](carpool_phy::math::mean_power) (the link
    /// measures it in the pass that writes the buffer).
    ///
    /// The loop draws from a local copy of the generator: behind `rng`
    /// its state would be stored and reloaded around every draw, which
    /// lengthens the generator's serial chain, while a local stays in
    /// registers. The rare draws that miss the fast path hand the state
    /// to the cold path through `rng` and take it back, so the stream is
    /// the one [`sample`] draws.
    pub(crate) fn apply<R: Rng + Clone>(
        &self,
        samples: &mut [Complex64],
        signal_power: f64,
        rng: &mut R,
    ) {
        if signal_power == 0.0 {
            return;
        }
        let noise_power = signal_power / db_to_lin(self.snr_db);
        // `complex_gaussian`'s per-component scale, hoisted: the same
        // value, and the same in-phase-then-quadrature draw order.
        let scale = (noise_power / 2.0).sqrt();
        let z = ziggurat();
        let mut local = rng.clone();
        let mut draw = |local: &mut R| {
            let (layer, x) = z.point(local.next_u64());
            if x.abs() < z.x[layer + 1] {
                return x;
            }
            rng.clone_from(local);
            let x = sample_rejected(rng, z, layer, x);
            local.clone_from(rng);
            x
        };
        for s in samples.iter_mut() {
            let re = draw(&mut local) * scale;
            let im = draw(&mut local) * scale;
            *s += Complex64::new(re, im);
        }
        *rng = local;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carpool_phy::math::mean_power;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn complex_gaussian_variance() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let var = 0.25;
        let p: f64 = (0..n)
            .map(|_| complex_gaussian(&mut rng, var).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((p - var).abs() < 0.01, "power {p}");
    }

    #[test]
    fn awgn_meets_target_snr() {
        let mut rng = StdRng::seed_from_u64(11);
        let clean: Vec<Complex64> = (0..50_000)
            .map(|k| Complex64::cis(k as f64 * 0.01).scale(0.3))
            .collect();
        for snr in [0.0, 10.0, 20.0] {
            let mut noisy = clean.clone();
            Awgn::new(snr).apply(&mut noisy, mean_power(&clean), &mut rng);
            let noise_power: f64 = noisy
                .iter()
                .zip(&clean)
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>()
                / clean.len() as f64;
            let measured = 10.0 * (mean_power(&clean) / noise_power).log10();
            assert!(
                (measured - snr).abs() < 0.3,
                "snr {snr}: measured {measured}"
            );
        }
    }

    #[test]
    fn awgn_on_silence_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![Complex64::ZERO; 64];
        let power = mean_power(&buf);
        Awgn::new(10.0).apply(&mut buf, power, &mut rng);
        assert!(buf.iter().all(|s| *s == Complex64::ZERO));
    }

    #[test]
    fn awgn_is_reproducible_with_seed() {
        let clean: Vec<Complex64> = (0..100).map(|k| Complex64::new(k as f64, 0.0)).collect();
        let mut a = clean.clone();
        let mut b = clean.clone();
        Awgn::new(15.0).apply(&mut a, mean_power(&clean), &mut StdRng::seed_from_u64(42));
        Awgn::new(15.0).apply(&mut b, mean_power(&clean), &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
