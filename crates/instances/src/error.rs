//! [`InstanceError`] — typed failures of the instance generators.
//!
//! The [`crate::random`] and [`crate::grid`] generators validate their
//! shape and rate parameters and return this enum from their `try_*`
//! forms instead of asserting. There are no panicking forms: callers that
//! pass trusted constants write `.expect(…)`.

/// Every way a generator's parameters can be invalid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InstanceError {
    /// A size parameter (links, layers, width, count) is below its minimum.
    InvalidShape {
        /// Which parameter (e.g. `"m"`, `"layers"`, `"width"`).
        name: &'static str,
        /// The offending value.
        value: usize,
        /// The smallest admissible value.
        min: usize,
    },
    /// The routed rate is not a positive finite number.
    InvalidRate {
        /// The offending rate.
        rate: f64,
    },
    /// A size parameter is so large the generated graph would overflow its
    /// id space (node/edge ids are `u32`).
    TooLarge {
        /// Which parameter (e.g. `"side"`).
        name: &'static str,
        /// The offending value.
        value: usize,
        /// The largest admissible value.
        max: usize,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::InvalidShape { name, value, min } => {
                write!(f, "invalid {name} {value}: generators need {name} >= {min}")
            }
            InstanceError::InvalidRate { rate } => {
                write!(f, "invalid rate {rate}: must be finite and > 0")
            }
            InstanceError::TooLarge { name, value, max } => {
                write!(f, "invalid {name} {value}: generators need {name} <= {max}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Validates a size parameter against its minimum.
pub(crate) fn check_shape(
    name: &'static str,
    value: usize,
    min: usize,
) -> Result<(), InstanceError> {
    if value < min {
        return Err(InstanceError::InvalidShape { name, value, min });
    }
    Ok(())
}

/// Validates a routed rate (finite, strictly positive).
pub(crate) fn check_rate(rate: f64) -> Result<(), InstanceError> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(InstanceError::InvalidRate { rate });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parameter() {
        let e = InstanceError::InvalidShape {
            name: "m",
            value: 0,
            min: 1,
        };
        assert!(e.to_string().contains('m'), "{e}");
        let e = InstanceError::InvalidRate { rate: f64::NAN };
        assert!(e.to_string().contains("rate"), "{e}");
    }

    #[test]
    fn checks_accept_the_boundary() {
        assert!(check_shape("m", 1, 1).is_ok());
        assert!(check_shape("m", 0, 1).is_err());
        assert!(check_rate(0.5).is_ok());
        assert!(check_rate(0.0).is_err());
        assert!(check_rate(f64::INFINITY).is_err());
    }
}
