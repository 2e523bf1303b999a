//! The ABC model parameter `Ξ` (Definition 4).
//!
//! `Ξ` is a rational number strictly greater than one; an execution is
//! admissible in the ABC model iff every relevant cycle `Z` of its execution
//! graph satisfies `|Z−|/|Z+| < Ξ`. The paper explicitly disallows `Ξ = 1`
//! (footnote 16): it would make the forward/backward classification, and
//! hence relevance, degenerate.

use std::fmt;
use std::str::FromStr;

use abc_rational::Ratio;

/// The validated model parameter `Ξ > 1`.
///
/// ```
/// use abc_core::Xi;
/// use abc_rational::Ratio;
///
/// let xi = Xi::new(Ratio::new(3, 2)).unwrap();
/// assert_eq!(xi.as_ratio(), &Ratio::new(3, 2));
/// assert!(Xi::new(Ratio::from_integer(1)).is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Xi(Ratio);

/// Error for invalid `Ξ` values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidXi {
    value: Ratio,
}

impl fmt::Display for InvalidXi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ABC parameter Xi = {}: must be > 1", self.value)
    }
}

impl std::error::Error for InvalidXi {}

impl Xi {
    /// Validates `value > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidXi`] if `value ≤ 1`.
    pub fn new(value: Ratio) -> Result<Xi, InvalidXi> {
        if value > Ratio::one() {
            Ok(Xi(value))
        } else {
            Err(InvalidXi { value })
        }
    }

    /// Convenience constructor from an integer fraction.
    ///
    /// # Panics
    ///
    /// Panics if `num/den ≤ 1` or `den == 0`.
    #[must_use]
    pub fn from_fraction(num: i64, den: i64) -> Xi {
        Xi::new(Ratio::new(num, den)).expect("Xi must be > 1")
    }

    /// Convenience constructor from an integer.
    ///
    /// # Panics
    ///
    /// Panics if `v ≤ 1`.
    #[must_use]
    pub fn from_integer(v: i64) -> Xi {
        Xi::new(Ratio::from_integer(v)).expect("Xi must be > 1")
    }

    /// The underlying rational.
    #[must_use]
    pub fn as_ratio(&self) -> &Ratio {
        &self.0
    }

    /// `(p, q)` with `Ξ = p/q` in lowest terms, as machine integers.
    ///
    /// Returns `None` if the parts overflow `i64` (such `Ξ` are rejected by
    /// every entry point of the checker, whose labels need the headroom).
    #[must_use]
    pub fn as_i64_parts(&self) -> Option<(i64, i64)> {
        Some((self.0.numer().to_i64()?, self.0.denom().to_i64()?))
    }

    /// The smallest integer strictly greater than or equal to `2Ξ` — the
    /// tick distance used by Theorem 2's precision bound and Algorithm 2's
    /// round length. Exact: `⌈2Ξ⌉`.
    #[must_use]
    pub fn two_xi_ceil(&self) -> u64 {
        let two_xi = Ratio::from_integer(2) * &self.0;
        u64::try_from(two_xi.ceil().to_i128().expect("2Xi fits i128"))
            .expect("2Xi is positive and fits u64")
    }
}

impl fmt::Display for Xi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl FromStr for Xi {
    type Err = String;

    fn from_str(s: &str) -> Result<Xi, String> {
        let r: Ratio = s.parse().map_err(|e| format!("{e}"))?;
        Xi::new(r).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_xi_at_most_one() {
        assert!(Xi::new(Ratio::one()).is_err());
        assert!(Xi::new(Ratio::new(1, 2)).is_err());
        assert!(Xi::new(Ratio::from_integer(0)).is_err());
        assert!(Xi::new(Ratio::from_integer(-2)).is_err());
        assert!(Xi::new(Ratio::new(1_000_001, 1_000_000)).is_ok());
    }

    #[test]
    fn parts_are_lowest_terms() {
        let xi = Xi::from_fraction(6, 4);
        assert_eq!(xi.as_i64_parts(), Some((3, 2)));
    }

    #[test]
    fn ceil_helpers() {
        assert_eq!(Xi::from_fraction(3, 2).two_xi_ceil(), 3);
        assert_eq!(Xi::from_integer(2).two_xi_ceil(), 4);
        assert_eq!(Xi::from_fraction(5, 2).two_xi_ceil(), 5);
        assert_eq!(Xi::from_fraction(7, 3).two_xi_ceil(), 5); // 14/3 -> 5
    }

    #[test]
    fn parse_round_trip() {
        let xi: Xi = "3/2".parse().unwrap();
        assert_eq!(xi, Xi::from_fraction(3, 2));
        assert!("1".parse::<Xi>().is_err());
        assert!("x".parse::<Xi>().is_err());
    }
}
