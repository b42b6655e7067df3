//! Error type for the offloading runtime.

use std::error::Error;
use std::fmt;

/// Errors produced by the offloading runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OffloadError {
    /// A task specification was invalid (e.g. zero-sized input where a
    /// positive size is required).
    InvalidTask {
        /// Reason the specification was rejected.
        reason: String,
    },
    /// An offloading request referenced an unknown task in the pool.
    UnknownTask {
        /// Index requested from the pool.
        index: usize,
        /// Size of the pool.
        pool_size: usize,
    },
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::InvalidTask { reason } => write!(f, "invalid task: {reason}"),
            OffloadError::UnknownTask { index, pool_size } => {
                write!(f, "task index {index} out of range for pool of {pool_size}")
            }
        }
    }
}

impl Error for OffloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(OffloadError::InvalidTask {
            reason: "zero input".into()
        }
        .to_string()
        .contains("zero input"));
        assert!(OffloadError::UnknownTask {
            index: 12,
            pool_size: 10
        }
        .to_string()
        .contains("12"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<OffloadError>();
    }
}
