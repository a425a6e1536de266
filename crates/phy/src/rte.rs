//! Real-time channel estimation (RTE, Section 5 of the paper).
//!
//! The standard receiver's channel estimate comes from the preamble only,
//! so it goes stale over a long frame — the cause of the *BER bias*
//! measured in the paper's Fig. 3. RTE treats every correctly decoded
//! OFDM symbol (verified via the per-symbol CRC on the phase offset side
//! channel) as a set of known "data pilots": the receiver re-modulates
//! the decided bits, derives a fresh per-subcarrier estimate
//! `Ĥ_n = D_n / Y_n`, and folds it into the running estimate with the
//! paper's Eq. (3) (the decision-directed estimation studied for
//! fast-varying channels by Nagalapur et al., arXiv 1501.04310):
//!
//! ```text
//! H̃_n = (H̃_{n-1} + Ĥ_n) / 2   if symbol n decoded correctly
//! H̃_n =  H̃_{n-1}              otherwise
//! ```
//!
//! Re-modulating is a table lookup: each carrier's decided label
//! indexes the modulation's per-label table, which also holds the
//! point's reciprocal and energy, so `D_n / Y_n` is one complex multiply
//! with the same bits as the division.

use crate::equalizer::ChannelEstimate;
use crate::math::Complex64;
use crate::modulation::{label, Modulation};
use crate::ofdm::{pilot_polarity, Carriers, FreqSymbol, NUM_DATA, PILOT_BASE};

/// How a fresh data-pilot estimate is folded into the running estimate.
///
/// [`CalibrationRule::Average`] is the paper's Eq. (3); the others exist
/// for the ablation study (`ablation_rte_rule` bench).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CalibrationRule {
    /// `H̃ = (H̃ + Ĥ) / 2` — the paper's rule.
    #[default]
    Average,
    /// `H̃ = Ĥ` — trust the newest symbol entirely.
    Replace,
    /// `H̃ = (1 - alpha) * H̃ + alpha * Ĥ` — exponential smoothing.
    Ewma(f64),
}

impl CalibrationRule {
    fn fold(&self, old: Complex64, fresh: Complex64) -> Complex64 {
        match *self {
            CalibrationRule::Average => (old + fresh).scale(0.5),
            CalibrationRule::Replace => fresh,
            CalibrationRule::Ewma(alpha) => old.scale(1.0 - alpha) + fresh.scale(alpha),
        }
    }

    /// Folds `fresh` into the data carriers `est` in place. Every rule
    /// is the same linear map on each component, so a data carrier folds
    /// as two lanes: `old + (fold(old, fresh) - old) * weight` on the
    /// real parts and on the imaginary parts, what
    /// [`CalibrationRule::fold`] and the complex weighting compute. The
    /// rule is matched once, so each has its own vectorized loop.
    fn fold_weighted(&self, est: &mut Carriers, fresh: &Carriers, weight: &[f64; NUM_DATA]) {
        fn lanes(
            est: &mut Carriers,
            fresh: &Carriers,
            weight: &[f64; NUM_DATA],
            fold: impl Fn(f64, f64) -> f64,
        ) {
            for (i, &w) in weight.iter().enumerate() {
                let (re, im) = (est.re[i], est.im[i]);
                est.re[i] = re + (fold(re, fresh.re[i]) - re) * w;
                est.im[i] = im + (fold(im, fresh.im[i]) - im) * w;
            }
        }
        match *self {
            CalibrationRule::Average => lanes(est, fresh, weight, |o, f| (o + f) * 0.5),
            CalibrationRule::Replace => lanes(est, fresh, weight, |_, f| f),
            CalibrationRule::Ewma(alpha) => {
                lanes(est, fresh, weight, |o, f| o * (1.0 - alpha) + f * alpha)
            }
        }
    }
}

/// Running RTE channel estimator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RteEstimator {
    estimate: ChannelEstimate,
    rule: CalibrationRule,
    updates: usize,
    rejected: usize,
    /// The relative innovation gate.
    ///
    /// The premise of RTE is that the channel varies *slowly* relative
    /// to a symbol (Section 5): a genuine data-pilot estimate is always
    /// close to the running one. A fresh estimate whose mean squared
    /// deviation exceeds `gate^2` times the running estimate's mean
    /// power is therefore a mis-decoded symbol that slipped past the
    /// narrow per-symbol CRC (a CRC-2 false positive), and is discarded
    /// instead of corrupting `H̃`. `f64::INFINITY` disables it.
    innovation_gate: f64,
}

impl RteEstimator {
    /// Default relative innovation gate: a data-pilot estimate further
    /// than this from the running one is rejected as a CRC false positive.
    pub(crate) const DEFAULT_INNOVATION_GATE: f64 = 0.35;

    /// Starts from an initial (usually LTF-derived) estimate.
    pub(crate) fn new(initial: ChannelEstimate, rule: CalibrationRule) -> RteEstimator {
        RteEstimator {
            estimate: initial,
            rule,
            updates: 0,
            rejected: 0,
            innovation_gate: Self::DEFAULT_INNOVATION_GATE,
        }
    }

    /// The current calibrated estimate `H̃`.
    pub(crate) fn estimate(&self) -> &ChannelEstimate {
        &self.estimate
    }

    /// Number of data-pilot updates applied so far.
    pub(crate) fn updates(&self) -> usize {
        self.updates
    }

    /// Calibrates with one correctly decoded symbol.
    ///
    /// * `received` — the raw received frequency symbol **after common
    ///   phase compensation** (so the estimate keeps the preamble's phase
    ///   convention and the per-symbol tracker stays meaningful).
    /// * `modulation`, `decided` — the receiver's bit decisions for the
    ///   symbol's 48 data points, [`Modulation::bits_per_symbol`] per
    ///   point; each point's label indexes
    ///   [`Modulation::label_points`], which holds the data pilot the
    ///   bits re-modulate to and the reciprocal it is divided by.
    /// * `symbol_index` — index for pilot polarity, letting the pilots
    ///   contribute as (always known) training too.
    ///
    /// # Panics
    ///
    /// Panics if `decided` does not hold one label per received data
    /// point.
    pub(crate) fn update(
        &mut self,
        received: &FreqSymbol,
        modulation: Modulation,
        decided: &[u8],
        symbol_index: usize,
    ) {
        let bps = modulation.bits_per_symbol();
        assert_eq!(decided.len(), NUM_DATA * bps, "decided bit count");
        let table = modulation.label_points();
        // Fresh per-carrier estimates `rx / tx` with their reliability
        // weights, computed once for the gate and the fold. Dividing by
        // a low-energy (inner) constellation point amplifies receiver
        // noise by 1/|Y|^2 — up to ~20x for inner 64-QAM points — so the
        // innovation is scaled by min(1, |Y|^2): weak data pilots nudge
        // rather than overwrite the estimate.
        let mut fresh = Carriers::splat(Complex64::ZERO);
        let mut weight = [0.0; NUM_DATA];
        for (i, bits) in decided.chunks_exact(bps).enumerate() {
            let tx = &table[label(bits) & 63];
            fresh.set(i, tx.inv);
            weight[i] = tx.norm_sqr.min(1.0);
        }
        // `rx / tx` is `rx * inv(tx)`, the same bits as `inv(tx) * rx`.
        fresh.mul_assign(&received.data);
        let current = self.estimate.data();
        // Innovation gate: compare the fresh per-carrier estimates to the
        // running ones before committing anything. The sums run in
        // carrier order, as the per-carrier terms are added.
        if self.innovation_gate.is_finite() {
            let mut deviation = 0.0f64;
            let mut reference = 0.0f64;
            for i in 0..NUM_DATA {
                deviation += (fresh.get(i) - current.get(i)).norm_sqr();
                reference += current.get(i).norm_sqr();
            }
            if deviation > self.innovation_gate * self.innovation_gate * reference {
                self.rejected += 1;
                return;
            }
        }
        let rule = self.rule;
        self.estimate
            .update_data(|est| rule.fold_weighted(est, &fresh, &weight));
        let polarity = pilot_polarity(symbol_index);
        for (k, (rx, base)) in received.pilots.iter().zip(PILOT_BASE).enumerate() {
            let known = Complex64::new(base * polarity, 0.0);
            let old = self.estimate.pilots()[k];
            self.estimate.set_pilot(k, self.rule.fold(old, *rx / known));
        }
        self.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An estimator with the innovation gate disabled.
    fn ungated(initial: ChannelEstimate, rule: CalibrationRule) -> RteEstimator {
        let mut rte = RteEstimator::new(initial, rule);
        rte.innovation_gate = f64::INFINITY;
        rte
    }

    fn flat_received(data: &[Complex64], h: Complex64, index: usize) -> FreqSymbol {
        let mut sym = FreqSymbol::with_standard_pilots(data.to_vec(), index);
        sym.rotate_by(h);
        sym
    }

    #[test]
    fn average_rule_converges_to_true_channel() {
        let h_true = Complex64::from_polar(0.7, 0.9);
        let h_stale = Complex64::from_polar(1.0, 0.0);
        let mut bins = vec![h_stale; crate::ofdm::FFT_SIZE];
        // Leave guards at identity value; estimator only touches used bins.
        for b in bins.iter_mut() {
            *b = h_stale;
        }
        let mut rte = ungated(ChannelEstimate::from_bins(bins), CalibrationRule::Average);
        let bits: Vec<u8> = (0..96).map(|k| (k % 3 == 0) as u8).collect();
        let tx = Modulation::Qpsk.map_all(&bits);
        for n in 0..12 {
            let rx = flat_received(&tx, h_true, n);
            rte.update(&rx, Modulation::Qpsk, &bits, n);
        }
        // After 12 halvings the stale component is ~2^-12.
        let got = rte.estimate().at(1);
        assert!((got - h_true).abs() < 1e-3, "estimate {got} vs {h_true}");
        assert_eq!(rte.updates(), 12);
    }

    #[test]
    fn replace_rule_matches_single_update() {
        let h_true = Complex64::from_polar(0.4, -0.5);
        let mut rte = ungated(ChannelEstimate::identity(), CalibrationRule::Replace);
        let tx = Modulation::Bpsk.map_all(&[1u8; 48]);
        let rx = flat_received(&tx, h_true, 0);
        rte.update(&rx, Modulation::Bpsk, &[1u8; 48], 0);
        assert!((rte.estimate().at(7) - h_true).abs() < 1e-12);
    }

    #[test]
    fn ewma_rule_moves_fractionally() {
        let h_true = Complex64::new(0.0, 1.0);
        let mut rte = ungated(ChannelEstimate::identity(), CalibrationRule::Ewma(0.25));
        let tx = Modulation::Bpsk.map_all(&[0u8; 48]);
        let rx = flat_received(&tx, h_true, 0);
        rte.update(&rx, Modulation::Bpsk, &[0u8; 48], 0);
        let got = rte.estimate().at(-26);
        let want = Complex64::new(0.75, 0.25);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn no_update_leaves_estimate_unchanged() {
        let rte = RteEstimator::new(ChannelEstimate::identity(), CalibrationRule::Average);
        let before = rte.estimate().clone();
        // (Just verify cloning + no spontaneous drift.)
        assert_eq!(rte.estimate(), &before);
        assert_eq!(rte.updates(), 0);
    }

    #[test]
    fn wrong_decisions_pull_estimate_off_without_gate() {
        // Using *incorrect* decided points corrupts the estimate — this
        // is why the per-symbol CRC (and innovation gate) matter.
        let h_true = Complex64::ONE;
        let mut rte = ungated(ChannelEstimate::identity(), CalibrationRule::Average);
        let tx = Modulation::Bpsk.map_all(&[1u8; 48]);
        let rx = flat_received(&tx, h_true, 0);
        rte.update(&rx, Modulation::Bpsk, &[0u8; 48], 0);
        let got = rte.estimate().at(3);
        assert!(
            (got - Complex64::ONE).abs() > 0.5,
            "estimate should be off: {got}"
        );
    }

    #[test]
    fn innovation_gate_rejects_bogus_updates() {
        // Same corrupted update, but the default gate blocks it: the
        // implied channel jump is far beyond slow fading.
        let mut rte = RteEstimator::new(ChannelEstimate::identity(), CalibrationRule::Average);
        let tx = Modulation::Bpsk.map_all(&[1u8; 48]);
        let rx = flat_received(&tx, Complex64::ONE, 0);
        rte.update(&rx, Modulation::Bpsk, &[0u8; 48], 0);
        assert_eq!(rte.updates(), 0);
        assert_eq!(rte.rejected, 1);
        assert!((rte.estimate().at(3) - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn innovation_gate_passes_genuine_drift() {
        // A small genuine channel drift must still be folded in.
        let h_drift = Complex64::from_polar(1.05, 0.08);
        let mut rte = RteEstimator::new(ChannelEstimate::identity(), CalibrationRule::Average);
        let bits = [1u8, 0].repeat(48);
        let tx = Modulation::Qpsk.map_all(&bits);
        let rx = flat_received(&tx, h_drift, 0);
        rte.update(&rx, Modulation::Qpsk, &bits, 0);
        assert_eq!(rte.updates(), 1);
        assert_eq!(rte.rejected, 0);
    }

    #[test]
    fn default_rule_is_average() {
        assert_eq!(CalibrationRule::default(), CalibrationRule::Average);
    }
}
