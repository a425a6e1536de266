//! Frame detection, timing synchronisation and CFO estimation.
//!
//! The receivers in the paper's Fig. 2 start with an *RF detector*: find
//! the frame in the sample stream, align symbol boundaries and correct
//! the carrier frequency offset before any decoding. This module
//! implements the classic OFDM synchronisation pipeline on the STF/LTF
//! preamble:
//!
//! * **Detection** — the STF repeats every 16 samples, so a
//!   delay-16-and-correlate (Schmidl–Cox style) metric plateaus at the
//!   frame start.
//! * **Coarse CFO** — the angle of that lag-16 autocorrelation estimates
//!   offsets up to ±625 kHz at 20 Msample/s.
//! * **Fine timing** — cross-correlation against the known LTF waveform
//!   pins the symbol boundary to the sample.
//! * **Fine CFO** — the lag-64 autocorrelation across the two LTF
//!   repetitions refines the estimate (range ±156 kHz).
//!
//! The residual error after correction is a slow constellation rotation,
//! exactly the *inherent phase offset* the pilot tracker and the phase
//! offset side channel are designed around.

use crate::math::Complex64;
use crate::preamble::{generate_preamble, ltf_offsets, PREAMBLE_LEN};

/// Baseband sample rate of the 20 MHz channelisation.
pub const SAMPLE_RATE: f64 = 20e6;
/// STF repetition period in samples.
pub(crate) const STF_PERIOD: usize = 16;
/// LTF repetition lag in samples. This preamble gives each LTF symbol
/// its own cyclic prefix, so the two training bodies repeat one whole
/// symbol (80 samples) apart — unlike the legacy contiguous L-LTF.
pub(crate) const LTF_LAG: usize = 80;

/// Result of frame synchronisation.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `detect_frame` returns it
pub struct FrameSync {
    /// Index of the first preamble sample.
    pub start: usize,
    /// Estimated carrier frequency offset in Hz.
    pub cfo_hz: f64,
    /// Peak value of the normalised detection metric (0..1-ish).
    pub metric: f64,
}

/// Errors from the synchroniser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `detect_frame` and `synchronize` return it
pub enum SyncError {
    /// No plateau of the detection metric exceeded the threshold.
    NotDetected,
    /// The buffer is too short to hold a preamble.
    BufferTooShort {
        /// Samples provided.
        len: usize,
    },
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::NotDetected => f.write_str("no frame detected"),
            SyncError::BufferTooShort { len } => {
                write!(f, "buffer of {len} samples cannot hold a preamble")
            }
        }
    }
}

impl std::error::Error for SyncError {}

/// Normalised lag-autocorrelation (Schmidl–Cox metric) at one position.
fn lag_metric(samples: &[Complex64], pos: usize, lag: usize, window: usize) -> (f64, Complex64) {
    let mut corr = Complex64::ZERO;
    let mut energy = 0.0f64;
    for k in 0..window {
        let a = samples[pos + k];
        let b = samples[pos + k + lag];
        corr += b * a.conj();
        energy += a.norm_sqr() + b.norm_sqr();
    }
    if energy <= 0.0 {
        return (0.0, Complex64::ZERO);
    }
    (2.0 * corr.abs() / energy, corr)
}

/// Detects a frame and estimates its CFO.
///
/// Scans for the STF plateau, refines timing against the known LTF and
/// estimates CFO coarsely (STF) then finely (LTF).
///
/// # Errors
///
/// * [`SyncError::BufferTooShort`] if fewer than a preamble's worth of
///   samples remain anywhere in the buffer.
/// * [`SyncError::NotDetected`] if no position clears `threshold`
///   (0.6 is a robust default above ~3 dB SNR).
pub fn detect_frame(samples: &[Complex64], threshold: f64) -> Result<FrameSync, SyncError> {
    if samples.len() < PREAMBLE_LEN + LTF_LAG {
        return Err(SyncError::BufferTooShort { len: samples.len() });
    }
    let window = 3 * STF_PERIOD;
    let scan_end = samples.len() - PREAMBLE_LEN - LTF_LAG;

    // Energy gate: periodic background noise can autocorrelate
    // perfectly, so a candidate must also carry a meaningful share of
    // the buffer's peak window energy.
    let window_energy = |pos: usize| -> f64 {
        samples[pos..pos + window + STF_PERIOD]
            .iter()
            .map(|s| s.norm_sqr())
            .sum()
    };
    let mut peak_energy = 0.0f64;
    for pos in 0..=scan_end {
        peak_energy = peak_energy.max(window_energy(pos));
    }
    if peak_energy <= 0.0 {
        return Err(SyncError::NotDetected);
    }

    // 1. Find the best STF plateau, then anchor on its *start*: the
    //    metric is ~flat across the whole STF, so the maximum alone can
    //    land anywhere inside it.
    let mut best_metric = 0.0f64;
    for pos in 0..=scan_end {
        if window_energy(pos) < 0.05 * peak_energy {
            continue;
        }
        let (m, _) = lag_metric(samples, pos, STF_PERIOD, window);
        if m > threshold && m > best_metric {
            best_metric = m;
        }
    }
    if best_metric <= threshold {
        return Err(SyncError::NotDetected);
    }
    let mut coarse = None;
    let mut best_corr = Complex64::ZERO;
    for pos in 0..=scan_end {
        if window_energy(pos) < 0.05 * peak_energy {
            continue;
        }
        let (m, corr) = lag_metric(samples, pos, STF_PERIOD, window);
        if m >= 0.97 * best_metric {
            coarse = Some(pos);
            best_corr = corr;
            break;
        }
    }
    let coarse = coarse.ok_or(SyncError::NotDetected)?;

    // 2. Coarse CFO from the STF autocorrelation angle.
    let coarse_cfo =
        best_corr.arg() / (2.0 * std::f64::consts::PI * STF_PERIOD as f64 / SAMPLE_RATE);

    // 3. Fine timing: cross-correlate the (CFO-corrected) neighbourhood
    //    with the clean reference preamble's LTF section.
    let reference = generate_preamble();
    let [ltf1, _] = ltf_offsets();
    // Correlate against one clean LTF body (CP excluded).
    let ref_ltf = &reference[ltf1 + 16..ltf1 + 80];
    let search_lo = coarse.saturating_sub(STF_PERIOD);
    let search_hi = (coarse + 4 * STF_PERIOD).min(samples.len() - PREAMBLE_LEN - LTF_LAG);
    let rotation_step = -2.0 * std::f64::consts::PI * coarse_cfo / SAMPLE_RATE;
    let mut best_xcorr = -1.0f64;
    let mut fine_start = coarse;
    for cand in search_lo..=search_hi {
        let base = cand + ltf1 + 16; // align with the reference body

        let mut acc = Complex64::ZERO;
        let mut energy = 0.0f64;
        for (k, r) in ref_ltf.iter().enumerate() {
            let s = samples[base + k].rotate(rotation_step * (base + k) as f64);
            acc += s * r.conj();
            energy += s.norm_sqr();
        }
        let norm = acc.abs() / energy.max(1e-30).sqrt();
        if norm > best_xcorr {
            best_xcorr = norm;
            fine_start = cand;
        }
    }

    // 4. Fine CFO from the two LTF repetitions at the refined position.
    let ltf_base = fine_start + ltf1;
    let mut corr = Complex64::ZERO;
    for k in 0..LTF_LAG {
        corr += samples[ltf_base + LTF_LAG + k] * samples[ltf_base + k].conj();
    }
    let fine_cfo = corr.arg() / (2.0 * std::f64::consts::PI * LTF_LAG as f64 / SAMPLE_RATE);
    // The fine estimate is unambiguous only within ±125 kHz; combine it
    // with the coarse estimate's integer part.
    let fine_range = SAMPLE_RATE / LTF_LAG as f64;
    let wraps = ((coarse_cfo - fine_cfo) / fine_range).round();
    let cfo_hz = fine_cfo + wraps * fine_range;

    Ok(FrameSync {
        start: fine_start,
        cfo_hz,
        metric: best_metric,
    })
}

/// Removes a frequency offset in place (counter-rotation), with the
/// phase reference at the buffer's first sample.
pub fn correct_cfo(samples: &mut [Complex64], cfo_hz: f64) {
    let step = -2.0 * std::f64::consts::PI * cfo_hz / SAMPLE_RATE;
    let mut phase = 0.0f64;
    for s in samples.iter_mut() {
        *s = s.rotate(phase);
        phase = crate::math::wrap_angle(phase + step);
    }
}

/// Convenience: detect a frame, correct its CFO and return the aligned
/// sample slice (starting at the preamble) as an owned buffer.
///
/// # Errors
///
/// Propagates [`SyncError`] from detection.
pub fn synchronize(samples: &[Complex64], threshold: f64) -> Result<Vec<Complex64>, SyncError> {
    let sync = detect_frame(samples, threshold)?;
    let mut aligned = samples[sync.start..].to_vec();
    correct_cfo(&mut aligned, sync.cfo_hz);
    Ok(aligned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::Mcs;
    use crate::rx::{receive, Estimation, SectionLayout};
    use crate::tx::{transmit, SectionSpec};

    fn pseudo_noise(n: usize, seed: u64, amplitude: f64) -> Vec<Complex64> {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) - 0.5
        };
        (0..n)
            .map(|_| Complex64::new(step() * amplitude, step() * amplitude))
            .collect()
    }

    fn embed(frame: &[Complex64], offset: usize, tail: usize) -> Vec<Complex64> {
        // Quiet aperiodic guard noise around the frame.
        let mut buf = pseudo_noise(offset, 5, 1e-4);
        buf.extend_from_slice(frame);
        buf.extend(pseudo_noise(tail, 9, 1e-4));
        buf
    }

    fn test_frame() -> (SectionSpec, Vec<Complex64>) {
        let spec = SectionSpec::payload(
            (0..400).map(|k| (k % 3 == 0) as u8).collect(),
            Mcs::QPSK_1_2,
        );
        let tx = transmit(std::slice::from_ref(&spec)).unwrap();
        (spec, tx.samples)
    }

    #[test]
    fn detects_frame_at_known_offset() {
        let (_, frame) = test_frame();
        for offset in [0usize, 37, 200, 555] {
            let buf = embed(&frame, offset, 100);
            let sync = detect_frame(&buf, 0.6).unwrap();
            assert!(
                sync.start.abs_diff(offset) <= 1,
                "offset {offset}: detected {}",
                sync.start
            );
        }
    }

    #[test]
    fn estimates_cfo_accurately() {
        let (_, frame) = test_frame();
        for cfo in [-40_000.0f64, -1_000.0, 0.0, 500.0, 25_000.0, 120_000.0] {
            let mut shifted = frame.clone();
            // Apply +cfo.
            correct_cfo(&mut shifted, -cfo);
            let buf = embed(&shifted, 64, 64);
            let sync = detect_frame(&buf, 0.5).unwrap();
            assert!(
                (sync.cfo_hz - cfo).abs() < 200.0,
                "cfo {cfo}: estimated {}",
                sync.cfo_hz
            );
        }
    }

    #[test]
    fn synchronized_frame_decodes() {
        let (spec, frame) = test_frame();
        let mut shifted = frame;
        correct_cfo(&mut shifted, -8_000.0); // inject +8 kHz CFO
        let buf = embed(&shifted, 123, 50);
        let aligned = synchronize(&buf, 0.6).unwrap();
        let rx = receive(&aligned, &[SectionLayout::of(&spec)], Estimation::Standard).unwrap();
        assert_eq!(rx.sections[0].bits, spec.bits);
    }

    #[test]
    fn silence_is_not_detected() {
        let buf = pseudo_noise(2000, 3, 1e-3);
        assert_eq!(detect_frame(&buf, 0.6).unwrap_err(), SyncError::NotDetected);
    }

    #[test]
    fn short_buffer_is_an_error() {
        let buf = vec![Complex64::ONE; 50];
        assert!(matches!(
            detect_frame(&buf, 0.6),
            Err(SyncError::BufferTooShort { len: 50 })
        ));
    }

    #[test]
    fn correct_cfo_is_inverse_of_injection() {
        let mut buf: Vec<Complex64> = (0..500).map(|k| Complex64::cis(0.01 * k as f64)).collect();
        let original = buf.clone();
        correct_cfo(&mut buf, -3_000.0);
        correct_cfo(&mut buf, 3_000.0);
        for (a, b) in buf.iter().zip(&original) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn detection_metric_is_high_on_clean_preamble() {
        let (_, frame) = test_frame();
        let buf = embed(&frame, 100, 100);
        let sync = detect_frame(&buf, 0.5).unwrap();
        assert!(sync.metric > 0.9, "metric {}", sync.metric);
    }
}
