//! Error types for the NGPC hardware model.

use std::fmt;

/// Convenience alias for NGPC results.
pub type Result<T> = std::result::Result<T, NgpcError>;

/// Errors produced by the NGPC hardware model.
#[derive(Debug, Clone, PartialEq)]
pub enum NgpcError {
    /// A hardware configuration was outside its legal range.
    InvalidConfig {
        /// Offending parameter.
        parameter: &'static str,
        /// Violated constraint.
        message: String,
    },
    /// A command stream was malformed (e.g. dispatch before configure).
    ProgrammingModel {
        /// What went wrong.
        message: String,
    },
    /// An error propagated from the neural substrate.
    Neural(ng_neural::NgError),
}

impl fmt::Display for NgpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NgpcError::InvalidConfig { parameter, message } => {
                write!(f, "invalid ngpc configuration for `{parameter}`: {message}")
            }
            NgpcError::ProgrammingModel { message } => {
                write!(f, "programming model violation: {message}")
            }
            NgpcError::Neural(e) => write!(f, "neural substrate error: {e}"),
        }
    }
}

impl std::error::Error for NgpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NgpcError::Neural(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ng_neural::NgError> for NgpcError {
    fn from(e: ng_neural::NgError) -> Self {
        NgpcError::Neural(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NgpcError::InvalidConfig { parameter: "clock_ghz", message: "must be > 0".into() };
        assert!(e.to_string().contains("clock_ghz"));
        let e = NgpcError::ProgrammingModel { message: "dispatch before configure".into() };
        assert!(e.to_string().contains("dispatch"));
    }

    #[test]
    fn neural_errors_convert() {
        let ne = ng_neural::NgError::Numerical { message: "nan".into() };
        let e: NgpcError = ne.into();
        assert!(matches!(e, NgpcError::Neural(_)));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
