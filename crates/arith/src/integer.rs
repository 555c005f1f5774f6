//! Arbitrary-precision signed integers built on top of [`Natural`].
//!
//! [`Integer`] is a **hybrid** representation: every value in the `i64` range
//! is stored inline, and only values outside it promote to the sign-magnitude
//! form over [`Natural`] limbs. The representation is canonical — the big
//! form is used *only* for values that do not fit `i64` — so derived equality
//! and hashing are value equality. Arithmetic on two inline values runs as
//! checked machine arithmetic (widened to `i128`, which always suffices for
//! one addition or multiplication) and promotes to the limb representation
//! only on demand.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use core::str::FromStr;

use crate::natural::{gcd_u64, Natural, ParseNaturalError};

/// Sign of an [`Integer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Mul for Sign {
    type Output = Sign;

    /// Returns the sign of a product of two signed values.
    fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        }
    }
}

impl Sign {
    /// Flips the sign (zero stays zero).
    pub fn negate(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// The internal representation. Invariant (canonical form): `Big` is used
/// only for values outside the `i64` range; its magnitude is then
/// `> i64::MAX` (positive) or `> i64::MIN.unsigned_abs()` (negative), and
/// its sign is never [`Sign::Zero`].
#[derive(Clone, PartialEq, Eq, Hash)]
enum IRepr {
    /// A value in `i64::MIN..=i64::MAX`, stored inline.
    Small(i64),
    /// A value outside the `i64` range, as sign and magnitude.
    Big { sign: Sign, magnitude: Natural },
}

/// An arbitrary-precision signed integer.
///
/// # Examples
///
/// ```
/// use dioph_arith::Integer;
///
/// let a = Integer::from(-7i64);
/// let b = Integer::from(3i64);
/// assert_eq!(&a * &b, Integer::from(-21i64));
/// assert_eq!((&a + &b).to_i64(), Some(-4));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Integer(IRepr);

impl Default for Integer {
    fn default() -> Self {
        Integer::zero()
    }
}

/// A borrowed-or-inline view of an integer's magnitude: borrowing the stored
/// [`Natural`] on the big path, materialising an (allocation-free) inline
/// natural on the small path.
enum MagView<'a> {
    Inline(Natural),
    Ref(&'a Natural),
}

impl MagView<'_> {
    fn get(&self) -> &Natural {
        match self {
            MagView::Inline(n) => n,
            MagView::Ref(n) => n,
        }
    }
}

impl Integer {
    /// The integer zero.
    pub const fn zero() -> Self {
        Integer(IRepr::Small(0))
    }

    /// The integer one.
    pub const fn one() -> Self {
        Integer(IRepr::Small(1))
    }

    /// The integer minus one.
    pub const fn minus_one() -> Self {
        Integer(IRepr::Small(-1))
    }

    /// Builds an integer from a sign and magnitude (normalising zero and
    /// demoting to the inline form when the value fits `i64`).
    pub fn from_sign_magnitude(sign: Sign, magnitude: Natural) -> Self {
        if magnitude.is_zero() {
            return Integer::zero();
        }
        assert!(sign != Sign::Zero, "non-zero magnitude with Sign::Zero");
        if let Some(m) = magnitude.to_u64() {
            match sign {
                Sign::Positive if m <= i64::MAX as u64 => return Integer(IRepr::Small(m as i64)),
                // m == 2^63 maps exactly onto i64::MIN.
                Sign::Negative if m <= i64::MIN.unsigned_abs() => {
                    return Integer(IRepr::Small((m as i128).wrapping_neg() as i64));
                }
                _ => {}
            }
        }
        Integer(IRepr::Big { sign, magnitude })
    }

    /// Builds the canonical form of a 128-bit value.
    fn from_i128_value(v: i128) -> Self {
        if let Ok(small) = i64::try_from(v) {
            return Integer(IRepr::Small(small));
        }
        let sign = if v < 0 { Sign::Negative } else { Sign::Positive };
        Integer(IRepr::Big { sign, magnitude: Natural::from(v.unsigned_abs()) })
    }

    /// The inline value, if this integer is on the small path.
    fn small(&self) -> Option<i64> {
        match self.0 {
            IRepr::Small(v) => Some(v),
            IRepr::Big { .. } => None,
        }
    }

    /// Sign and magnitude view without cloning big magnitudes.
    fn parts(&self) -> (Sign, MagView<'_>) {
        match &self.0 {
            IRepr::Small(v) => {
                let sign = match v.cmp(&0) {
                    Ordering::Less => Sign::Negative,
                    Ordering::Equal => Sign::Zero,
                    Ordering::Greater => Sign::Positive,
                };
                (sign, MagView::Inline(Natural::from(v.unsigned_abs())))
            }
            IRepr::Big { sign, magnitude } => (*sign, MagView::Ref(magnitude)),
        }
    }

    /// The sign of this integer.
    pub fn sign(&self) -> Sign {
        match &self.0 {
            IRepr::Small(v) => match v.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            IRepr::Big { sign, .. } => *sign,
        }
    }

    /// The absolute value as a [`Natural`]. Allocation-free on the small
    /// path; clones the limbs on the big path.
    pub fn magnitude(&self) -> Natural {
        match &self.0 {
            IRepr::Small(v) => Natural::from(v.unsigned_abs()),
            IRepr::Big { magnitude, .. } => magnitude.clone(),
        }
    }

    /// Consumes the integer, returning its absolute value.
    pub fn into_magnitude(self) -> Natural {
        match self.0 {
            IRepr::Small(v) => Natural::from(v.unsigned_abs()),
            IRepr::Big { magnitude, .. } => magnitude,
        }
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, IRepr::Small(0))
    }

    /// `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, IRepr::Small(1))
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Positive
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Negative
    }

    /// Absolute value.
    pub fn abs(&self) -> Integer {
        match &self.0 {
            IRepr::Small(v) => Integer::from_i128_value((*v as i128).abs()),
            IRepr::Big { magnitude, .. } => {
                Integer(IRepr::Big { sign: Sign::Positive, magnitude: magnitude.clone() })
            }
        }
    }

    /// Converts to `i64` if the value fits (always on the small path, by the
    /// canonical-representation invariant).
    pub fn to_i64(&self) -> Option<i64> {
        self.small()
    }

    /// Converts to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        match &self.0 {
            IRepr::Small(v) => Some(*v as i128),
            IRepr::Big { sign, magnitude } => {
                let mag = magnitude.to_u128()?;
                match sign {
                    Sign::Zero => Some(0),
                    Sign::Positive => i128::try_from(mag).ok(),
                    Sign::Negative => {
                        if mag <= i128::MAX as u128 + 1 {
                            Some((mag as i128).wrapping_neg())
                        } else {
                            None
                        }
                    }
                }
            }
        }
    }

    /// Lossy conversion to `f64` for reporting purposes only.
    pub fn to_f64_lossy(&self) -> f64 {
        match &self.0 {
            IRepr::Small(v) => *v as f64,
            IRepr::Big { sign, magnitude } => {
                let m = magnitude.to_f64_lossy();
                match sign {
                    Sign::Negative => -m,
                    _ => m,
                }
            }
        }
    }

    /// Converts a non-negative integer into a [`Natural`]; `None` for negatives.
    pub fn to_natural(&self) -> Option<Natural> {
        if self.is_negative() {
            None
        } else {
            Some(self.magnitude())
        }
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, exp: u64) -> Integer {
        if let Some(v) = self.small() {
            if let Ok(e) = u32::try_from(exp) {
                if let Some(r) = (v as i128).checked_pow(e) {
                    return Integer::from_i128_value(r);
                }
            }
        }
        let (sign, mag) = self.parts();
        let mag = mag.get().pow(exp);
        let sign = match sign {
            Sign::Zero => {
                if exp == 0 {
                    Sign::Positive
                } else {
                    Sign::Zero
                }
            }
            Sign::Positive => Sign::Positive,
            Sign::Negative => {
                if exp.is_multiple_of(2) {
                    Sign::Positive
                } else {
                    Sign::Negative
                }
            }
        };
        Integer::from_sign_magnitude(
            sign,
            if self.is_zero() && exp == 0 { Natural::one() } else { mag },
        )
    }

    /// Greatest common divisor of absolute values (always non-negative).
    ///
    /// Two inline values take a binary GCD on machine words (no allocation);
    /// the limb path is only entered when an operand is genuinely big. The
    /// split is counted by the `arith.int_*` registry counters.
    pub fn gcd(&self, other: &Integer) -> Natural {
        if let (Some(a), Some(b)) = (self.small(), other.small()) {
            crate::stats::record_int_small_hit();
            return Natural::from(gcd_u64(a.unsigned_abs(), b.unsigned_abs()));
        }
        crate::stats::record_int_big_fallback();
        let (_, ma) = self.parts();
        let (_, mb) = other.parts();
        ma.get().gcd(mb.get())
    }

    /// Exact division: `self / divisor` when the division leaves no
    /// remainder, `None` when `divisor` is zero or does not divide exactly.
    ///
    /// This is the single-step division of the fraction-free (Bareiss)
    /// elimination kernel: the kernel's algebra guarantees divisibility, and
    /// the checked form turns a violated guarantee into a recoverable `None`
    /// instead of silent corruption. Two inline values divide as `i128`
    /// machine arithmetic; the split is counted by the `arith.int_*` registry counters.
    pub fn checked_exact_div(&self, divisor: &Integer) -> Option<Integer> {
        if divisor.is_zero() {
            return None;
        }
        if let (Some(a), Some(b)) = (self.small(), divisor.small()) {
            crate::stats::record_int_small_hit();
            let (a, b) = (a as i128, b as i128);
            if a % b != 0 {
                return None;
            }
            return Some(Integer::from_i128_value(a / b));
        }
        crate::stats::record_int_big_fallback();
        let (q, r) = self.div_rem(divisor);
        if r.is_zero() {
            Some(q)
        } else {
            None
        }
    }

    /// Exact division that must succeed.
    ///
    /// # Panics
    /// Panics if `divisor` is zero or does not divide `self` exactly — a
    /// broken invariant of the calling elimination kernel, not a data error.
    pub fn exact_div(&self, divisor: &Integer) -> Integer {
        self.checked_exact_div(divisor)
            .unwrap_or_else(|| panic!("exact_div: {divisor} does not divide {self}"))
    }

    /// Truncated division: returns `(quotient, remainder)` with the remainder
    /// carrying the sign of the dividend (like Rust's `/` and `%` on
    /// primitive integers).
    pub fn div_rem(&self, other: &Integer) -> (Integer, Integer) {
        assert!(!other.is_zero(), "division by zero");
        if let (Some(a), Some(b)) = (self.small(), other.small()) {
            // i128 arithmetic sidesteps the single i64 overflow (MIN / -1).
            return (
                Integer::from_i128_value(a as i128 / b as i128),
                Integer::from_i128_value(a as i128 % b as i128),
            );
        }
        let (sa, ma) = self.parts();
        let (sb, mb) = other.parts();
        let (q_mag, r_mag) = ma.get().div_rem(mb.get());
        let q_sign = if q_mag.is_zero() { Sign::Zero } else { sa * sb };
        let r_sign = if r_mag.is_zero() { Sign::Zero } else { sa };
        (Integer::from_sign_magnitude(q_sign, q_mag), Integer::from_sign_magnitude(r_sign, r_mag))
    }
}

impl From<Natural> for Integer {
    fn from(n: Natural) -> Self {
        Integer::from_sign_magnitude(if n.is_zero() { Sign::Zero } else { Sign::Positive }, n)
    }
}

impl From<&Natural> for Integer {
    fn from(n: &Natural) -> Self {
        if let Some(v) = n.to_u64() {
            return Integer::from(v);
        }
        Integer::from(n.clone())
    }
}

macro_rules! impl_from_small_signed {
    ($($t:ty),*) => {
        $(impl From<$t> for Integer {
            fn from(v: $t) -> Self {
                Integer(IRepr::Small(v as i64))
            }
        })*
    };
}

impl_from_small_signed!(i8, i16, i32, i64, isize);

impl From<i128> for Integer {
    fn from(v: i128) -> Self {
        Integer::from_i128_value(v)
    }
}

macro_rules! impl_from_small_unsigned {
    ($($t:ty),*) => {
        $(impl From<$t> for Integer {
            fn from(v: $t) -> Self {
                Integer(IRepr::Small(v as i64))
            }
        })*
    };
}

impl_from_small_unsigned!(u8, u16, u32);

macro_rules! impl_from_wide_unsigned {
    ($($t:ty),*) => {
        $(impl From<$t> for Integer {
            fn from(v: $t) -> Self {
                match i64::try_from(v) {
                    Ok(small) => Integer(IRepr::Small(small)),
                    Err(_) => Integer(IRepr::Big {
                        sign: Sign::Positive,
                        magnitude: Natural::from(v as u128),
                    }),
                }
            }
        })*
    };
}

impl_from_wide_unsigned!(u64, u128, usize);

/// Error produced when parsing an [`Integer`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntegerError(ParseNaturalError);

impl fmt::Display for ParseIntegerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal: {}", self.0)
    }
}

impl std::error::Error for ParseIntegerError {}

impl FromStr for Integer {
    type Err = ParseIntegerError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (neg, rest) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        let mag = Natural::from_decimal_str(rest).map_err(ParseIntegerError)?;
        let sign = if mag.is_zero() {
            Sign::Zero
        } else if neg {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Ok(Integer::from_sign_magnitude(sign, mag))
    }
}

impl Ord for Integer {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.small(), other.small()) {
            return a.cmp(&b);
        }
        match self.sign().cmp(&other.sign()) {
            Ordering::Equal => {
                let (sign, ma) = self.parts();
                let (_, mb) = other.parts();
                match sign {
                    Sign::Zero => Ordering::Equal,
                    Sign::Positive => ma.get().cmp(mb.get()),
                    Sign::Negative => mb.get().cmp(ma.get()),
                }
            }
            ord => ord,
        }
    }
}

impl PartialOrd for Integer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Integer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            IRepr::Small(v) => write!(f, "{v}"),
            IRepr::Big { sign, magnitude } => match sign {
                Sign::Negative => write!(f, "-{magnitude}"),
                _ => write!(f, "{magnitude}"),
            },
        }
    }
}

impl fmt::Debug for Integer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Integer({self})")
    }
}

impl Neg for &Integer {
    type Output = Integer;
    fn neg(self) -> Integer {
        match &self.0 {
            IRepr::Small(v) => Integer::from_i128_value(-(*v as i128)),
            // Re-normalise: negating a big value can land exactly on
            // i64::MIN (magnitude 2^63).
            IRepr::Big { sign, magnitude } => {
                Integer::from_sign_magnitude(sign.negate(), magnitude.clone())
            }
        }
    }
}

impl Neg for Integer {
    type Output = Integer;
    fn neg(self) -> Integer {
        match self.0 {
            IRepr::Small(v) => Integer::from_i128_value(-(v as i128)),
            IRepr::Big { sign, magnitude } => {
                Integer::from_sign_magnitude(sign.negate(), magnitude)
            }
        }
    }
}

impl Add for &Integer {
    type Output = Integer;
    fn add(self, rhs: &Integer) -> Integer {
        if let (Some(a), Some(b)) = (self.small(), rhs.small()) {
            // i64 + i64 always fits i128; promotion happens on demand.
            return Integer::from_i128_value(a as i128 + b as i128);
        }
        let (sa, ma) = self.parts();
        let (sb, mb) = rhs.parts();
        match (sa, sb) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => Integer::from_sign_magnitude(a, ma.get() + mb.get()),
            _ => {
                // Opposite signs: subtract the smaller magnitude from the larger.
                match ma.get().cmp(mb.get()) {
                    Ordering::Equal => Integer::zero(),
                    Ordering::Greater => Integer::from_sign_magnitude(sa, ma.get() - mb.get()),
                    Ordering::Less => Integer::from_sign_magnitude(sb, mb.get() - ma.get()),
                }
            }
        }
    }
}

impl Add for Integer {
    type Output = Integer;
    fn add(self, rhs: Integer) -> Integer {
        &self + &rhs
    }
}

impl AddAssign<&Integer> for Integer {
    fn add_assign(&mut self, rhs: &Integer) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Integer {
    fn add_assign(&mut self, rhs: Integer) {
        *self += &rhs;
    }
}

impl Sub for &Integer {
    type Output = Integer;
    fn sub(self, rhs: &Integer) -> Integer {
        if let (Some(a), Some(b)) = (self.small(), rhs.small()) {
            return Integer::from_i128_value(a as i128 - b as i128);
        }
        self + &(-rhs)
    }
}

impl Sub for Integer {
    type Output = Integer;
    fn sub(self, rhs: Integer) -> Integer {
        &self - &rhs
    }
}

impl SubAssign<&Integer> for Integer {
    fn sub_assign(&mut self, rhs: &Integer) {
        *self = &*self - rhs;
    }
}

impl Mul for &Integer {
    type Output = Integer;
    fn mul(self, rhs: &Integer) -> Integer {
        if let (Some(a), Some(b)) = (self.small(), rhs.small()) {
            // i64 × i64 always fits i128; promotion happens on demand.
            return Integer::from_i128_value(a as i128 * b as i128);
        }
        let (sa, ma) = self.parts();
        let (sb, mb) = rhs.parts();
        Integer::from_sign_magnitude(sa * sb, ma.get() * mb.get())
    }
}

impl Mul for Integer {
    type Output = Integer;
    fn mul(self, rhs: Integer) -> Integer {
        &self * &rhs
    }
}

impl MulAssign<&Integer> for Integer {
    fn mul_assign(&mut self, rhs: &Integer) {
        *self = &*self * rhs;
    }
}

impl Div for &Integer {
    type Output = Integer;
    fn div(self, rhs: &Integer) -> Integer {
        self.div_rem(rhs).0
    }
}

impl Rem for &Integer {
    type Output = Integer;
    fn rem(self, rhs: &Integer) -> Integer {
        self.div_rem(rhs).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i128) -> Integer {
        Integer::from(v)
    }

    #[test]
    fn sign_normalisation() {
        assert_eq!(int(0).sign(), Sign::Zero);
        assert_eq!(int(5).sign(), Sign::Positive);
        assert_eq!(int(-5).sign(), Sign::Negative);
        assert_eq!(Integer::from(Natural::zero()).sign(), Sign::Zero);
    }

    #[test]
    fn representation_is_canonical_across_the_boundary() {
        // i64 range stays inline even when built through the big door.
        for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
            let via_parts = Integer::from_sign_magnitude(
                Integer::from(v).sign(),
                Natural::from(v.unsigned_abs()),
            );
            assert_eq!(via_parts, Integer::from(v));
            assert_eq!(via_parts.to_i64(), Some(v));
        }
        // One past the boundary in both directions promotes.
        assert_eq!(int(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(int(i64::MIN as i128 - 1).to_i64(), None);
        // Arithmetic that shrinks a value back demotes it.
        let back = &int(i64::MAX as i128 + 1) - &int(1);
        assert_eq!(back.to_i64(), Some(i64::MAX));
        // Negating across the i64::MIN boundary normalises both ways.
        assert_eq!(-&int(i64::MIN as i128), int(-(i64::MIN as i128)));
        assert_eq!(-&int(-(i64::MIN as i128)), int(i64::MIN as i128));
        assert_eq!((-&int(-(i64::MIN as i128))).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn addition_all_sign_combinations() {
        let cases = [
            (3, 4),
            (-3, -4),
            (3, -4),
            (-3, 4),
            (5, -5),
            (0, 7),
            (7, 0),
            (0, 0),
            (i64::MAX as i128, i64::MAX as i128),
            (i64::MIN as i128, i64::MIN as i128),
            (i64::MIN as i128, -1),
        ];
        for (a, b) in cases {
            assert_eq!(&int(a) + &int(b), int(a + b), "{a} + {b}");
            assert_eq!(&int(a) - &int(b), int(a - b), "{a} - {b}");
        }
    }

    #[test]
    fn multiplication_sign_rules() {
        let cases = [
            (3, 4),
            (-3, 4),
            (3, -4),
            (-3, -4),
            (0, -9),
            (-9, 0),
            (i64::MIN as i128, -1),
            (i64::MAX as i128, i64::MAX as i128),
        ];
        for (a, b) in cases {
            assert_eq!(&int(a) * &int(b), int(a * b), "{a} * {b}");
        }
    }

    #[test]
    fn truncated_division_matches_rust_semantics() {
        let cases =
            [(7, 2), (-7, 2), (7, -2), (-7, -2), (6, 3), (-6, 3), (0, 5), (i64::MIN as i128, -1)];
        for (a, b) in cases {
            let (q, r) = int(a).div_rem(&int(b));
            assert_eq!(q, int(a / b), "{a} / {b}");
            assert_eq!(r, int(a % b), "{a} % {b}");
        }
    }

    #[test]
    fn pow_and_parity() {
        assert_eq!(int(-2).pow(3), int(-8));
        assert_eq!(int(-2).pow(4), int(16));
        assert_eq!(int(0).pow(0), int(1));
        assert_eq!(int(0).pow(3), int(0));
        assert_eq!(int(5).pow(0), int(1));
        // Powers that leave the machine range promote exactly.
        assert_eq!(int(-10).pow(40), "1".parse::<Integer>().unwrap() * int(10).pow(40));
        assert_eq!(int(2).pow(100).to_string(), (1u128 << 100).to_string());
    }

    #[test]
    fn ordering_across_signs() {
        assert!(int(-10) < int(-2));
        assert!(int(-2) < int(0));
        assert!(int(0) < int(3));
        assert!(int(3) < int(10));
        assert!(int(-1) < int(1));
        // Mixed representations either side of the boundary.
        assert!(int(i64::MAX as i128) < int(i64::MAX as i128 + 1));
        assert!(int(i64::MIN as i128 - 1) < int(i64::MIN as i128));
        assert!(int(i64::MIN as i128 - 1) < int(i64::MAX as i128 + 1));
    }

    #[test]
    fn parse_and_display() {
        for s in ["0", "-1", "12345678901234567890123456789", "-98765432109876543210"] {
            let v: Integer = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!("+7".parse::<Integer>().unwrap(), int(7));
        assert_eq!("-0".parse::<Integer>().unwrap(), int(0));
        assert!("--3".parse::<Integer>().is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(int(-42).to_i64(), Some(-42));
        assert_eq!(int(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(int(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(int(i64::MAX as i128 + 1).to_i128(), Some(i64::MAX as i128 + 1));
        assert_eq!(int(-5).to_natural(), None);
        assert_eq!(int(5).to_natural(), Some(Natural::from(5u64)));
        assert_eq!(int(-3).abs(), int(3));
        assert_eq!(int(i64::MIN as i128).abs(), int(-(i64::MIN as i128)));
        assert_eq!(int(7).gcd(&int(-21)), Natural::from(7u64));
    }

    #[test]
    fn gcd_across_representations() {
        assert_eq!(int(0).gcd(&int(0)), Natural::zero());
        assert_eq!(int(0).gcd(&int(-6)), Natural::from(6u64));
        assert_eq!(int(i64::MIN as i128).gcd(&int(2)), Natural::from(2u64));
        // One big, one small: the limb path must agree with the machine path.
        let big = int(3) * int(10).pow(30);
        assert_eq!(big.gcd(&int(6)), Natural::from(6u64));
        assert_eq!(big.gcd(&int(7)), Natural::from(1u64));
        assert_eq!(big.gcd(&(-&big)), big.magnitude());
    }

    #[test]
    fn exact_division() {
        assert_eq!(int(42).checked_exact_div(&int(7)), Some(int(6)));
        assert_eq!(int(-42).checked_exact_div(&int(7)), Some(int(-6)));
        assert_eq!(int(42).checked_exact_div(&int(-7)), Some(int(-6)));
        assert_eq!(int(43).checked_exact_div(&int(7)), None);
        assert_eq!(int(42).checked_exact_div(&int(0)), None);
        assert_eq!(int(0).checked_exact_div(&int(5)), Some(int(0)));
        // The one small-path overflow: i64::MIN / -1 must promote, not wrap.
        assert_eq!(
            int(i64::MIN as i128).checked_exact_div(&int(-1)),
            Some(int(-(i64::MIN as i128)))
        );
        // Big values divide exactly across the representation boundary.
        let big = int(i64::MAX as i128) * int(1_000_003);
        assert_eq!(big.checked_exact_div(&int(1_000_003)), Some(int(i64::MAX as i128)));
        assert_eq!((&big + &int(1)).checked_exact_div(&int(1_000_003)), None);
        assert_eq!(big.exact_div(&int(i64::MAX as i128)), int(1_000_003));
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn exact_div_panics_on_inexact() {
        let _ = int(10).exact_div(&int(3));
    }
}
