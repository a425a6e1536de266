//! Minimal complex arithmetic for the baseband simulator.
//!
//! The workspace deliberately avoids external math crates, so this module
//! provides a small, well-tested [`Complex64`] type covering exactly what
//! the OFDM chain needs: arithmetic, polar conversion, conjugation and a
//! handful of conveniences such as [`Complex64::from_polar`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use carpool_phy::math::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// assert_eq!(a + b, Complex64::new(4.0, 1.0));
/// assert_eq!(a * Complex64::I, Complex64::new(-2.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a complex number from polar components.
    ///
    /// # Examples
    ///
    /// ```
    /// use carpool_phy::math::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(magnitude: f64, angle: f64) -> Self {
        Complex64::new(magnitude * angle.cos(), magnitude * angle.sin())
    }

    /// Returns `e^{i * angle}`, a unit phasor.
    #[inline]
    pub fn cis(angle: f64) -> Self {
        Complex64::from_polar(1.0, angle)
    }

    /// The complex conjugate.
    #[inline]
    pub(crate) fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// The squared magnitude `re^2 + im^2`; cheaper than [`Complex64::abs`].
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The argument (phase) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Rotates the phasor by `angle` radians.
    #[inline]
    pub fn rotate(self, angle: f64) -> Self {
        self * Complex64::cis(angle)
    }

    /// The multiplicative inverse.
    ///
    /// Returns a pair of infinities or NaNs if `self` is zero, like `1.0/0.0`.
    #[inline]
    pub(crate) fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the inverse
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, Add::add)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Complex64 {
        Complex64::new(re, 0.0)
    }
}

impl From<(f64, f64)> for Complex64 {
    #[inline]
    fn from((re, im): (f64, f64)) -> Complex64 {
        Complex64::new(re, im)
    }
}

/// Converts a linear power ratio to decibels.
///
/// # Examples
///
/// ```
/// assert!((carpool_phy::math::lin_to_db(100.0) - 20.0).abs() < 1e-12);
/// ```
#[inline]
#[cfg(test)]
fn lin_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Converts decibels to a linear power ratio.
///
/// # Examples
///
/// ```
/// assert!((carpool_phy::math::db_to_lin(20.0) - 100.0).abs() < 1e-9);
/// ```
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Mean power (mean squared magnitude) of a sample slice.
///
/// Returns `0.0` for an empty slice.
pub fn mean_power(samples: &[Complex64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / samples.len() as f64
}

/// Wraps an angle in radians to `(-pi, pi]`.
///
/// # Examples
///
/// ```
/// use std::f64::consts::PI;
/// let w = carpool_phy::math::wrap_angle(3.0 * PI);
/// assert!((w - PI).abs() < 1e-12);
/// ```
#[inline]
pub fn wrap_angle(angle: f64) -> f64 {
    use std::f64::consts::PI;
    // Already in range: `%` would return it unchanged (|angle| < 2π), and
    // neither correction below applies, so skipping the division is exact.
    if angle > -PI && angle <= PI {
        return angle;
    }
    let mut a = angle % (2.0 * PI);
    if a > PI {
        a -= 2.0 * PI;
    } else if a <= -PI {
        a += 2.0 * PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(-z, Complex64::new(-3.0, 4.0));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        let p = a * b;
        assert!(close(p.re, 1.0 * -3.0 - 2.0 * 0.5));
        assert!(close(p.im, 1.0 * 0.5 + 2.0 * -3.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(0.7, -1.3);
        let b = Complex64::new(2.5, 4.0);
        let q = (a * b) / b;
        assert!(close(q.re, a.re));
        assert!(close(q.im, a.im));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert!(close(z.abs(), 5.0));
        assert!(close(z.norm_sqr(), 25.0));
        assert!(close((z * z.conj()).re, 25.0));
        assert!(close((z * z.conj()).im, 0.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.3);
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), 0.3));
    }

    #[test]
    fn rotate_quarter_turn() {
        let z = Complex64::ONE.rotate(FRAC_PI_2);
        assert!(close(z.re, 0.0));
        assert!(close(z.im, 1.0));
    }

    #[test]
    fn inverse_of_unit_is_conjugate() {
        let z = Complex64::cis(1.1);
        let inv = z.inv();
        assert!(close(inv.re, z.conj().re));
        assert!(close(inv.im, z.conj().im));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn db_round_trip() {
        for db in [-20.0, -3.0, 0.0, 10.0, 30.0] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn wrap_angle_range() {
        for k in -10..=10 {
            let a = wrap_angle(0.37 + k as f64 * 2.0 * PI);
            assert!((a - 0.37).abs() < 1e-9);
        }
        assert!(close(wrap_angle(PI), PI));
        assert!(close(wrap_angle(-PI), PI));
    }

    /// The pre-fast-path definition, kept as the oracle.
    fn wrap_angle_fmod(angle: f64) -> f64 {
        let mut a = angle % (2.0 * PI);
        if a > PI {
            a -= 2.0 * PI;
        } else if a <= -PI {
            a += 2.0 * PI;
        }
        a
    }

    #[test]
    fn wrap_angle_fast_path_matches_fmod_bit_for_bit() {
        let mut inputs = vec![
            PI,
            -PI,
            2.0 * PI,
            -2.0 * PI,
            PI.next_up(),
            (-PI).next_down(),
            (-PI).next_up(),
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e6,
            -1e6,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::MAX,
        ];
        inputs.extend((-400..=400).map(|k| f64::from(k) * 0.0123));
        for a in inputs {
            let (fast, slow) = (wrap_angle(a), wrap_angle_fmod(a));
            assert!(
                fast.to_bits() == slow.to_bits() || (fast.is_nan() && slow.is_nan()),
                "{a}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn mean_power_of_unit_circle() {
        let samples: Vec<Complex64> = (0..100).map(|k| Complex64::cis(k as f64 * 0.1)).collect();
        assert!(close(mean_power(&samples), 1.0));
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }
}
