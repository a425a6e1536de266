//! Signal-level MU-MIMO: zero-forcing precoding for two spatial streams.
//!
//! The paper's Section 8 extends Carpool to 802.11ac MU-MIMO: "VHT
//! preamble and payloads for A,B are pre-coded by the precoder that is
//! computed based on the channel estimation for A,B" (Fig. 18). This
//! module implements that mechanism at the subcarrier level for a
//! two-antenna AP:
//!
//! * a [`Matrix2`] of complex gains models the downlink channel rows of
//!   the two receivers in a precoding group;
//! * the AP applies the **zero-forcing precoder** `W = H⁻¹ D` (columns
//!   normalised to unit transmit power), so each receiver sees only its
//!   own stream as an effective scalar channel;
//! * per-stream orthogonal training (the VHT-LTF) lets each receiver
//!   estimate that effective channel before demapping.
//!
//! The frame-level grouping/airtime model lives in `carpool-frame`'s
//! `mimo` module; this is the PHY underneath one precoding group.

use crate::math::Complex64;
use crate::modulation::Modulation;

/// A 2x2 complex matrix (row-major).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix2 {
    /// Row 0, column 0.
    pub a: Complex64,
    /// Row 0, column 1.
    pub b: Complex64,
    /// Row 1, column 0.
    pub c: Complex64,
    /// Row 1, column 1.
    pub d: Complex64,
}

impl Matrix2 {
    /// The identity matrix.
    pub const IDENTITY: Matrix2 = Matrix2 {
        a: Complex64 { re: 1.0, im: 0.0 },
        b: Complex64 { re: 0.0, im: 0.0 },
        c: Complex64 { re: 0.0, im: 0.0 },
        d: Complex64 { re: 1.0, im: 0.0 },
    };

    /// Builds a matrix from rows.
    pub fn from_rows(row0: [Complex64; 2], row1: [Complex64; 2]) -> Matrix2 {
        Matrix2 {
            a: row0[0],
            b: row0[1],
            c: row1[0],
            d: row1[1],
        }
    }

    /// The determinant.
    pub fn det(&self) -> Complex64 {
        self.a * self.d - self.b * self.c
    }

    /// The inverse, or `None` if the matrix is (near-)singular.
    pub fn inverse(&self) -> Option<Matrix2> {
        let det = self.det();
        if det.norm_sqr() < 1e-18 {
            return None;
        }
        let inv = det.inv();
        Some(Matrix2 {
            a: self.d * inv,
            b: -self.b * inv,
            c: -self.c * inv,
            d: self.a * inv,
        })
    }

    /// Matrix-vector product.
    fn mul_vec(&self, v: [Complex64; 2]) -> [Complex64; 2] {
        [self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1]]
    }

    /// Matrix-matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Matrix2) -> Matrix2 {
        Matrix2 {
            a: self.a * rhs.a + self.b * rhs.c,
            b: self.a * rhs.b + self.b * rhs.d,
            c: self.c * rhs.a + self.d * rhs.c,
            d: self.c * rhs.b + self.d * rhs.d,
        }
    }

    /// Scales each column to unit norm (per-stream transmit power
    /// normalisation) and returns the per-column scale factors applied.
    fn normalize_columns(&self) -> (Matrix2, [f64; 2]) {
        let n0 = (self.a.norm_sqr() + self.c.norm_sqr()).sqrt().max(1e-12);
        let n1 = (self.b.norm_sqr() + self.d.norm_sqr()).sqrt().max(1e-12);
        (
            Matrix2 {
                a: self.a / n0,
                b: self.b / n1,
                c: self.c / n0,
                d: self.d / n1,
            },
            [1.0 / n0, 1.0 / n1],
        )
    }
}

/// Errors from the MU-MIMO group processor.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `ZfPrecoder::new` and `ZfPrecoder::precode` return it
pub enum MimoError {
    /// The downlink channel matrix is singular — the two receivers are
    /// not spatially separable and must go to different groups.
    SingularChannel,
    /// Stream payloads have mismatched lengths.
    StreamLengthMismatch,
}

impl std::fmt::Display for MimoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MimoError::SingularChannel => f.write_str("channel matrix is singular"),
            MimoError::StreamLengthMismatch => f.write_str("stream lengths differ"),
        }
    }
}

impl std::error::Error for MimoError {}

/// One transmitted MU-MIMO group: per-antenna subcarrier streams.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `ZfPrecoder::precode` returns it and pub `observe` takes it
pub struct PrecodedGroup {
    /// Per-antenna sequences of transmitted subcarrier values:
    /// `antennas[a][k]` is antenna `a`'s value at position `k`.
    pub antennas: [Vec<Complex64>; 2],
    /// Length of the per-stream training prefix (in positions).
    pub training_len: usize,
}

/// Zero-forcing precoder for a two-receiver group.
///
/// `channel` holds the receivers' channel rows: row `r` is
/// `[h_{r,ant0}, h_{r,ant1}]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZfPrecoder {
    weights: Matrix2,
    /// Effective per-stream gains after column normalisation: receiver
    /// `r`'s post-precoding scalar channel is `gains[r]`.
    gains: [Complex64; 2],
}

impl ZfPrecoder {
    /// Computes the precoder from the group's channel matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MimoError::SingularChannel`] when the rows are
    /// (near-)linearly dependent.
    pub fn new(channel: &Matrix2) -> Result<ZfPrecoder, MimoError> {
        let inverse = channel.inverse().ok_or(MimoError::SingularChannel)?;
        let (weights, scales) = inverse.normalize_columns();
        // H * W = diag(g): receiver r hears only stream r with gain g_r.
        let hw = channel.mul(&weights);
        let _ = scales;
        Ok(ZfPrecoder {
            weights,
            gains: [hw.a, hw.d],
        })
    }

    /// The normalised precoding matrix.
    pub fn weights(&self) -> &Matrix2 {
        &self.weights
    }

    /// Effective scalar channel of receiver `r` (0 or 1).
    pub fn gain(&self, receiver: usize) -> Complex64 {
        self.gains[receiver]
    }

    /// Precodes two parallel subcarrier streams, prefixing orthogonal
    /// per-stream training of `training_len` positions each (stream 0
    /// trains first while stream 1 is silent, then vice versa — the
    /// VHT-LTF idea).
    ///
    /// # Errors
    ///
    /// Returns [`MimoError::StreamLengthMismatch`] if the streams differ
    /// in length.
    pub fn precode(
        &self,
        stream0: &[Complex64],
        stream1: &[Complex64],
        training_len: usize,
    ) -> Result<PrecodedGroup, MimoError> {
        if stream0.len() != stream1.len() {
            return Err(MimoError::StreamLengthMismatch);
        }
        let total = 2 * training_len + stream0.len();
        let mut ant0 = Vec::with_capacity(total);
        let mut ant1 = Vec::with_capacity(total);
        let mut push = |s: [Complex64; 2]| {
            let x = self.weights.mul_vec(s);
            ant0.push(x[0]);
            ant1.push(x[1]);
        };
        for _ in 0..training_len {
            push([Complex64::ONE, Complex64::ZERO]);
        }
        for _ in 0..training_len {
            push([Complex64::ZERO, Complex64::ONE]);
        }
        for (s0, s1) in stream0.iter().zip(stream1) {
            push([*s0, *s1]);
        }
        Ok(PrecodedGroup {
            antennas: [ant0, ant1],
            training_len,
        })
    }
}

/// What receiver `r` observes: `y[k] = h_r · x[k] (+ noise)`.
pub fn observe(group: &PrecodedGroup, channel_row: [Complex64; 2]) -> Vec<Complex64> {
    group.antennas[0]
        .iter()
        .zip(&group.antennas[1])
        .map(|(x0, x1)| channel_row[0] * *x0 + channel_row[1] * *x1)
        .collect()
}

/// Receiver-side processing: estimate the effective channel from this
/// receiver's training slot, verify the interference floor, equalise
/// and demap the payload stream.
///
/// Returns `(bits, interference_to_signal_ratio)`.
pub fn decode_stream(
    observed: &[Complex64],
    receiver: usize,
    training_len: usize,
    modulation: Modulation,
) -> (Vec<u8>, f64) {
    // Own and foreign training windows.
    let own_start = receiver * training_len;
    let foreign_start = (1 - receiver) * training_len;
    let own: Complex64 = observed[own_start..own_start + training_len]
        .iter()
        .copied()
        .sum::<Complex64>()
        / training_len as f64;
    let foreign: Complex64 = observed[foreign_start..foreign_start + training_len]
        .iter()
        .copied()
        .sum::<Complex64>()
        / training_len as f64;
    let isr = foreign.norm_sqr() / own.norm_sqr().max(1e-18);
    let payload = &observed[2 * training_len..];
    let bits = modulation.demap_all(&payload.iter().map(|y| *y / own).collect::<Vec<Complex64>>());
    (bits, isr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_channel() -> Matrix2 {
        Matrix2::from_rows(
            [Complex64::new(0.9, 0.2), Complex64::new(-0.4, 0.6)],
            [Complex64::new(0.1, -0.7), Complex64::new(0.8, 0.3)],
        )
    }

    #[test]
    fn matrix_inverse_round_trip() {
        let m = test_channel();
        let inv = m.inverse().expect("invertible");
        let id = m.mul(&inv);
        assert!((id.a - Complex64::ONE).abs() < 1e-12);
        assert!((id.d - Complex64::ONE).abs() < 1e-12);
        assert!(id.b.abs() < 1e-12);
        assert!(id.c.abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Matrix2::from_rows(
            [Complex64::ONE, Complex64::new(2.0, 0.0)],
            [Complex64::new(2.0, 0.0), Complex64::new(4.0, 0.0)],
        );
        assert!(m.inverse().is_none());
        assert_eq!(ZfPrecoder::new(&m).unwrap_err(), MimoError::SingularChannel);
    }

    #[test]
    fn column_normalisation_is_unit_power() {
        let (n, _) = test_channel().normalize_columns();
        assert!(((n.a.norm_sqr() + n.c.norm_sqr()) - 1.0).abs() < 1e-12);
        assert!(((n.b.norm_sqr() + n.d.norm_sqr()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_forcing_cancels_cross_streams() {
        let h = test_channel();
        let p = ZfPrecoder::new(&h).expect("invertible");
        // H * W must be diagonal.
        let hw = h.mul(p.weights());
        assert!(hw.b.abs() < 1e-12, "cross term {}", hw.b.abs());
        assert!(hw.c.abs() < 1e-12, "cross term {}", hw.c.abs());
        assert!((hw.a - p.gain(0)).abs() < 1e-12);
        assert!((hw.d - p.gain(1)).abs() < 1e-12);
    }

    #[test]
    fn two_receivers_decode_their_own_streams() {
        let h = test_channel();
        let p = ZfPrecoder::new(&h).expect("invertible");
        let m = Modulation::Qpsk;
        let bits0: Vec<u8> = (0..96).map(|k| (k % 3 == 0) as u8).collect();
        let bits1: Vec<u8> = (0..96).map(|k| (k % 5 < 2) as u8).collect();
        let s0 = m.map_all(&bits0);
        let s1 = m.map_all(&bits1);
        let group = p.precode(&s0, &s1, 4).expect("equal lengths");

        for (r, expect) in [(0usize, &bits0), (1usize, &bits1)] {
            let row = if r == 0 { [h.a, h.b] } else { [h.c, h.d] };
            let y = observe(&group, row);
            let (bits, isr) = decode_stream(&y, r, 4, m);
            assert_eq!(&bits, expect, "receiver {r}");
            assert!(isr < 1e-10, "receiver {r} interference {isr}");
        }
    }

    #[test]
    fn without_precoding_streams_interfere() {
        // Identity "precoder": each antenna sends one raw stream; both
        // receivers hear a mixture and the interference ratio is large.
        let h = test_channel();
        let m = Modulation::Qpsk;
        let bits0: Vec<u8> = (0..48u8).map(|k| k % 2).collect();
        let bits1: Vec<u8> = (0..48u8).map(|k| (k + 1) % 2).collect();
        let raw = PrecodedGroup {
            antennas: [
                // training slots then payload, unprecoded
                std::iter::repeat_n(Complex64::ONE, 4)
                    .chain(std::iter::repeat_n(Complex64::ZERO, 4))
                    .chain(m.map_all(&bits0))
                    .collect(),
                std::iter::repeat_n(Complex64::ZERO, 4)
                    .chain(std::iter::repeat_n(Complex64::ONE, 4))
                    .chain(m.map_all(&bits1))
                    .collect(),
            ],
            training_len: 4,
        };
        let y = observe(&raw, [h.a, h.b]);
        let (_, isr) = decode_stream(&y, 0, 4, m);
        assert!(isr > 0.1, "expected strong interference, isr {isr}");
    }

    #[test]
    fn noisy_zero_forcing_still_decodes() {
        let h = test_channel();
        let p = ZfPrecoder::new(&h).expect("invertible");
        let m = Modulation::Qpsk;
        let bits0: Vec<u8> = (0..192).map(|k| (k * 7 % 3 == 0) as u8).collect();
        let bits1: Vec<u8> = (0..192).map(|k| (k * 5 % 4 < 2) as u8).collect();
        let group = p
            .precode(&m.map_all(&bits0), &m.map_all(&bits1), 8)
            .expect("equal lengths");
        // Deterministic small noise.
        let mut y = observe(&group, [h.c, h.d]); // receiver 1
        for (k, v) in y.iter_mut().enumerate() {
            *v += Complex64::new(
                0.02 * ((k * 37 % 11) as f64 / 11.0 - 0.5),
                0.02 * ((k * 53 % 13) as f64 / 13.0 - 0.5),
            );
        }
        let (bits, isr) = decode_stream(&y, 1, 8, m);
        assert_eq!(bits, bits1);
        assert!(isr < 0.01);
    }

    #[test]
    fn mismatched_streams_rejected() {
        let p = ZfPrecoder::new(&test_channel()).expect("invertible");
        let err = p
            .precode(&[Complex64::ONE], &[Complex64::ONE, Complex64::ZERO], 2)
            .unwrap_err();
        assert_eq!(err, MimoError::StreamLengthMismatch);
    }
}
