//! Exact rational numbers with arbitrary-precision numerator and denominator.
//!
//! [`Rational`] keeps its big-integer shape (`Integer` numerator, `Natural`
//! denominator, always in lowest terms), but every field operation first
//! tries a **machine-word fast path**: when both operands have an `i64`
//! numerator and a `u64` denominator, the cross-multiplication is done in
//! checked `i128`/`u128` arithmetic and the result reduced with a binary GCD
//! on machine words — no heap allocation anywhere. Only when an intermediate
//! product or sum cannot be represented does the operation fall back to the
//! exact big path. The fallback frequency is counted by the
//! `arith.small_hits` / `arith.big_fallbacks` registry counters.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

use crate::integer::{Integer, ParseIntegerError, Sign};
use crate::natural::Natural;
use crate::stats;

/// An exact rational number, kept in lowest terms with a strictly positive
/// denominator.
///
/// # Examples
///
/// ```
/// use dioph_arith::Rational;
///
/// let a = Rational::new(1.into(), 3u64.into());
/// let b = Rational::new(1.into(), 6u64.into());
/// assert_eq!(&a + &b, Rational::new(1.into(), 2u64.into()));
/// assert!(a > b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    /// Numerator; carries the sign of the whole value.
    numer: Integer,
    /// Denominator; always strictly positive and coprime with the numerator.
    denom: Natural,
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

/// Binary GCD on `u128` (`gcd(0, x) = x`).
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Rational {
    /// The rational zero.
    pub const fn zero() -> Self {
        Rational { numer: Integer::zero(), denom: Natural::one() }
    }

    /// The rational one.
    pub const fn one() -> Self {
        Rational { numer: Integer::one(), denom: Natural::one() }
    }

    /// Constructs `numer / denom` in lowest terms.
    ///
    /// # Panics
    /// Panics if `denom` is zero.
    pub fn new(numer: Integer, denom: Natural) -> Self {
        assert!(!denom.is_zero(), "rational with zero denominator");
        let mut r = Rational { numer, denom };
        r.reduce();
        r
    }

    /// Constructs the rational `n / d` from machine integers.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn from_i64s(n: i64, d: i64) -> Self {
        assert!(d != 0, "rational with zero denominator");
        let n = if d < 0 { -(n as i128) } else { n as i128 };
        Rational::from_machine(n, d.unsigned_abs() as u128)
    }

    /// Constructs an integer-valued rational.
    pub fn from_integer(n: Integer) -> Self {
        Rational { numer: n, denom: Natural::one() }
    }

    /// Builds the reduced rational `n / d` from wide machine words
    /// (`d` must be non-zero). This is the landing pad of every fast path:
    /// one binary GCD on machine words, no heap allocation unless the
    /// reduced parts themselves exceed a word.
    fn from_machine(n: i128, d: u128) -> Self {
        debug_assert!(d != 0);
        let na = n.unsigned_abs();
        let g = gcd_u128(na, d);
        let (na, d) = (na / g, d / g);
        let magnitude = Integer::from(na);
        let numer = if n < 0 { -magnitude } else { magnitude };
        Rational { numer, denom: Natural::from(d) }
    }

    /// Machine-word view: `Some((numerator, denominator))` when both parts
    /// fit, i.e. when the value is on the small path.
    fn small_parts(&self) -> Option<(i64, u64)> {
        Some((self.numer.to_i64()?, self.denom.to_u64()?))
    }

    /// Numerator (sign-carrying, in lowest terms).
    pub fn numer(&self) -> &Integer {
        &self.numer
    }

    /// Denominator (strictly positive, in lowest terms).
    pub fn denom(&self) -> &Natural {
        &self.denom
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.numer.is_zero()
    }

    /// `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.numer.is_one() && self.denom.is_one()
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.numer.is_positive()
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer.is_negative()
    }

    /// `true` iff the value is a (possibly negative) integer.
    pub fn is_integer(&self) -> bool {
        self.denom.is_one()
    }

    /// Sign of the value.
    pub fn sign(&self) -> Sign {
        self.numer.sign()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational { numer: self.numer.abs(), denom: self.denom.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        let numer = Integer::from_sign_magnitude(self.numer.sign(), self.denom.clone());
        Rational { numer, denom: self.numer.magnitude() }
    }

    /// Floor: greatest integer not larger than the value.
    pub fn floor(&self) -> Integer {
        let (q, r) = self.numer.div_rem(&Integer::from(self.denom.clone()));
        if r.is_zero() || !self.numer.is_negative() {
            q
        } else {
            q - Integer::one()
        }
    }

    /// Ceiling: least integer not smaller than the value.
    pub fn ceil(&self) -> Integer {
        -((-self).floor())
    }

    /// Lossy conversion to `f64` for reporting purposes only.
    pub fn to_f64_lossy(&self) -> f64 {
        self.numer.to_f64_lossy() / self.denom.to_f64_lossy()
    }

    /// Raises the value to a non-negative integer power.
    pub fn pow(&self, exp: u64) -> Rational {
        Rational { numer: self.numer.pow(exp), denom: self.denom.pow(exp) }
    }

    fn reduce(&mut self) {
        if self.numer.is_zero() {
            self.denom = Natural::one();
            return;
        }
        if let Some((n, d)) = self.small_parts() {
            *self = Rational::from_machine(n as i128, d as u128);
            return;
        }
        let mag = self.numer.magnitude();
        let g = mag.gcd(&self.denom);
        if !g.is_one() {
            self.numer = Integer::from_sign_magnitude(self.numer.sign(), &mag / &g);
            self.denom = &self.denom / &g;
        }
    }
}

impl From<Integer> for Rational {
    fn from(n: Integer) -> Self {
        Rational::from_integer(n)
    }
}

impl From<Natural> for Rational {
    fn from(n: Natural) -> Self {
        Rational::from_integer(Integer::from(n))
    }
}

impl From<&Integer> for Rational {
    fn from(n: &Integer) -> Self {
        Rational::from_integer(n.clone())
    }
}

impl From<&Natural> for Rational {
    fn from(n: &Natural) -> Self {
        Rational::from_integer(Integer::from(n))
    }
}

macro_rules! impl_from_prim {
    ($($t:ty),*) => {
        $(impl From<$t> for Rational {
            fn from(v: $t) -> Self {
                Rational::from_integer(Integer::from(v))
            }
        })*
    };
}

impl_from_prim!(i8, i16, i32, i64, i128, u8, u16, u32, u64, u128, usize);

/// Error produced when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRationalError {
    /// The numerator or denominator failed to parse as an integer.
    Component(ParseIntegerError),
    /// The denominator was zero.
    ZeroDenominator,
    /// The denominator was negative (use a signed numerator instead).
    NegativeDenominator,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRationalError::Component(e) => write!(f, "invalid rational literal: {e}"),
            ParseRationalError::ZeroDenominator => {
                write!(f, "rational literal with zero denominator")
            }
            ParseRationalError::NegativeDenominator => {
                write!(f, "rational literal with negative denominator")
            }
        }
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"` or `"a/b"` where `a` is a signed and `b` an unsigned
    /// decimal literal.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => {
                let n: Integer = s.parse().map_err(ParseRationalError::Component)?;
                Ok(Rational::from_integer(n))
            }
            Some((n, d)) => {
                let n: Integer = n.parse().map_err(ParseRationalError::Component)?;
                let d: Integer = d.parse().map_err(ParseRationalError::Component)?;
                if d.is_zero() {
                    return Err(ParseRationalError::ZeroDenominator);
                }
                if d.is_negative() {
                    return Err(ParseRationalError::NegativeDenominator);
                }
                Ok(Rational::new(n, d.into_magnitude()))
            }
        }
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            // |i64 × u64| < 2^127: the cross products always fit i128.
            return ((an as i128) * (bd as i128)).cmp(&((bn as i128) * (ad as i128)));
        }
        let lhs = &self.numer * &Integer::from(other.denom.clone());
        let rhs = &other.numer * &Integer::from(self.denom.clone());
        lhs.cmp(&rhs)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom.is_one() {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { numer: -&self.numer, denom: self.denom.clone() }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { numer: -self.numer, denom: self.denom }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            // Each cross product fits i128; only the final sum can overflow,
            // in which case we fall through to the big path.
            let n1 = (an as i128) * (bd as i128);
            let n2 = (bn as i128) * (ad as i128);
            if let Some(n) = n1.checked_add(n2) {
                stats::record_small_hit();
                return Rational::from_machine(n, (ad as u128) * (bd as u128));
            }
        }
        stats::record_big_fallback();
        let numer = &(&self.numer * &Integer::from(rhs.denom.clone()))
            + &(&rhs.numer * &Integer::from(self.denom.clone()));
        let denom = &self.denom * &rhs.denom;
        Rational::new(numer, denom)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self += &rhs;
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            let n1 = (an as i128) * (bd as i128);
            let n2 = (bn as i128) * (ad as i128);
            if let Some(n) = n1.checked_sub(n2) {
                stats::record_small_hit();
                return Rational::from_machine(n, (ad as u128) * (bd as u128));
            }
        }
        stats::record_big_fallback();
        let numer = &(&self.numer * &Integer::from(rhs.denom.clone()))
            - &(&rhs.numer * &Integer::from(self.denom.clone()));
        let denom = &self.denom * &rhs.denom;
        Rational::new(numer, denom)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            // i64 × i64 and u64 × u64 always fit the wide words: the fast
            // path cannot overflow here.
            stats::record_small_hit();
            return Rational::from_machine(
                (an as i128) * (bn as i128),
                (ad as u128) * (bd as u128),
            );
        }
        stats::record_big_fallback();
        Rational::new(&self.numer * &rhs.numer, &self.denom * &rhs.denom)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), rhs.small_parts()) {
            stats::record_small_hit();
            let n = (an as i128) * (bd as i128);
            let n = if bn < 0 { -n } else { n };
            return Rational::from_machine(n, (ad as u128) * (bn.unsigned_abs() as u128));
        }
        stats::record_big_fallback();
        self * &rhs.recip()
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        &self / &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64, d: i64) -> Rational {
        Rational::from_i64s(n, d)
    }

    /// A rational whose parts are forced beyond the machine-word range but
    /// whose value equals `n / d`: both components are scaled by the same
    /// huge factor and must cancel during reduction.
    fn big_route(n: i64, d: i64) -> Rational {
        let scale = Natural::from(2u64).pow(80);
        let sign_flip = d < 0;
        let numer = &Integer::from(n) * &Integer::from(scale.clone());
        let numer = if sign_flip { -numer } else { numer };
        Rational::new(numer, &Natural::from(d.unsigned_abs()) * &scale)
    }

    #[test]
    fn construction_reduces_to_lowest_terms() {
        let r = rat(6, 8);
        assert_eq!(r.numer(), &Integer::from(3));
        assert_eq!(r.denom(), &Natural::from(4u64));
        assert_eq!(rat(-6, 8), rat(-3, 4));
        assert_eq!(rat(6, -8), rat(-3, 4));
        assert_eq!(rat(0, 17), Rational::zero());
        assert_eq!(rat(0, 17).denom(), &Natural::one());
    }

    #[test]
    fn big_construction_reduces_to_the_same_canonical_form() {
        // Scaled construction must land on the identical (bit-identical,
        // since Eq is value equality on canonical forms) rational.
        for (n, d) in [(6, 8), (-6, 8), (0, 17), (1, 1), (i64::MAX, 2), (i64::MIN, 3)] {
            assert_eq!(big_route(n, d), rat(n, d), "{n}/{d}");
        }
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn field_operations() {
        assert_eq!(&rat(1, 2) + &rat(1, 3), rat(5, 6));
        assert_eq!(&rat(1, 2) - &rat(1, 3), rat(1, 6));
        assert_eq!(&rat(2, 3) * &rat(3, 4), rat(1, 2));
        assert_eq!(&rat(2, 3) / &rat(4, 9), rat(3, 2));
        assert_eq!(-&rat(2, 3), rat(-2, 3));
        assert_eq!(rat(-2, 3).recip(), rat(-3, 2));
        assert_eq!(rat(2, 3).pow(3), rat(8, 27));
        assert_eq!(rat(-1, 2).pow(2), rat(1, 4));
    }

    #[test]
    fn fast_and_big_paths_agree() {
        // The same operations routed through the big path (operands with
        // huge unreduced components cancel to the same values) must yield
        // identical results.
        let cases = [(1i64, 2i64, 1i64, 3i64), (-7, 3, 5, 11), (6, 8, -6, 8), (0, 5, 3, 7)];
        for (an, ad, bn, bd) in cases {
            let (fa, fb) = (rat(an, ad), rat(bn, bd));
            let (ba, bb) = (big_route(an, ad), big_route(bn, bd));
            assert_eq!(&fa + &fb, &ba + &bb, "{an}/{ad} + {bn}/{bd}");
            assert_eq!(&fa - &fb, &ba - &bb, "{an}/{ad} - {bn}/{bd}");
            assert_eq!(&fa * &fb, &ba * &bb, "{an}/{ad} * {bn}/{bd}");
            if bn != 0 {
                assert_eq!(&fa / &fb, &ba / &bb, "{an}/{ad} / {bn}/{bd}");
            }
            assert_eq!(fa.cmp(&fb), ba.cmp(&bb), "{an}/{ad} <=> {bn}/{bd}");
        }
    }

    #[test]
    fn fast_path_overflow_falls_back_exactly() {
        let a = Rational::from(i64::MAX);
        let sum = &a + &a;
        assert_eq!(sum, Rational::from(2i128 * i64::MAX as i128));
        // A genuinely overflowing cross sum: both operands are
        // (2^63−1)/(2^64−1) (coprime, so machine-word eligible); each cross
        // product is (2^63−1)(2^64−1) ≈ 2^127 and their sum exceeds
        // i128::MAX, forcing the checked_add fallback to the big path.
        let b = Rational::new(Integer::from(i64::MAX), Natural::from(u64::MAX));
        assert_eq!(b.numer(), &Integer::from(i64::MAX), "operand must be machine-word");
        let sum = &b + &b;
        let expect =
            Rational::new(&Integer::from(2) * &Integer::from(i64::MAX), Natural::from(u64::MAX));
        assert_eq!(sum, expect);
        // And the mixed-denominator shape from before, for good measure.
        let sum = &a + &b;
        let expect = Rational::new(
            &(&Integer::from(i64::MAX) * &Integer::from(u64::MAX)) + &Integer::from(i64::MAX),
            Natural::from(u64::MAX),
        );
        assert_eq!(sum, expect);
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(-1, 2) < rat(1, 100));
        assert_eq!(rat(2, 4), rat(1, 2));
        assert!(rat(7, 1) > rat(20, 3));
        // Mixed representation comparison.
        assert!(big_route(1, 3) < rat(1, 2));
        assert!(Rational::from(u128::MAX) > rat(i64::MAX, 1));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(rat(7, 2).floor(), Integer::from(3));
        assert_eq!(rat(7, 2).ceil(), Integer::from(4));
        assert_eq!(rat(-7, 2).floor(), Integer::from(-4));
        assert_eq!(rat(-7, 2).ceil(), Integer::from(-3));
        assert_eq!(rat(6, 2).floor(), Integer::from(3));
        assert_eq!(rat(6, 2).ceil(), Integer::from(3));
        assert_eq!(Rational::zero().floor(), Integer::zero());
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), rat(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), rat(-3, 4));
        assert_eq!("5".parse::<Rational>().unwrap(), rat(5, 1));
        assert_eq!(rat(6, 8).to_string(), "3/4");
        assert_eq!(rat(5, 1).to_string(), "5");
        assert!("1/0".parse::<Rational>().is_err());
        assert!("1/-2".parse::<Rational>().is_err());
    }

    #[test]
    fn predicates() {
        assert!(rat(0, 5).is_zero());
        assert!(rat(3, 3).is_one());
        assert!(rat(1, 2).is_positive());
        assert!(rat(-1, 2).is_negative());
        assert!(rat(4, 2).is_integer());
        assert!(!rat(1, 2).is_integer());
        assert_eq!(rat(-3, 4).abs(), rat(3, 4));
    }

    #[test]
    fn lossy_f64() {
        assert!((rat(1, 3).to_f64_lossy() - 1.0 / 3.0).abs() < 1e-12);
        assert!((rat(-7, 2).to_f64_lossy() + 3.5).abs() < 1e-12);
    }
}
