//! Serving-layer errors.

use bamboo_runtime::{ExecError, RelayoutError};
use bamboo_telemetry::event::shed_reason;
use std::fmt;

/// Why an arrival was refused admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The token bucket was empty: offered rate exceeds the configured
    /// sustained rate plus burst allowance.
    RateLimit,
    /// The requests admitted and not yet complete, plus the
    /// batch-mates ahead of the arrival, reached the configured depth.
    QueueDepth,
}

impl ShedReason {
    /// The telemetry payload tag for this reason
    /// ([`bamboo_telemetry::event::shed_reason`]).
    pub fn tag(self) -> u64 {
        match self {
            ShedReason::RateLimit => shed_reason::RATE_LIMIT,
            ShedReason::QueueDepth => shed_reason::QUEUE_DEPTH,
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::RateLimit => f.write_str("rate limit"),
            ShedReason::QueueDepth => f.write_str("queue depth"),
        }
    }
}

/// Any error the serving layer can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServingError {
    /// The request was refused admission (typed overload signal — the
    /// caller can back off and retry; the server is still healthy).
    Overloaded {
        /// Which admission policy refused it.
        reason: ShedReason,
    },
    /// The resident executor failed underneath the server (e.g. an
    /// unrecoverable injected fault).
    Exec(ExecError),
    /// The adaptive controller's hot-relayout commit was rejected.
    /// The run itself is untouched (commits validate before mutating).
    Relayout(RelayoutError),
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Overloaded { reason } => {
                write!(f, "request shed at admission ({reason})")
            }
            ServingError::Exec(e) => write!(f, "resident executor failed: {e}"),
            ServingError::Relayout(e) => write!(f, "hot relayout rejected: {e}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Overloaded { .. } => None,
            ServingError::Exec(e) => Some(e),
            ServingError::Relayout(e) => Some(e),
        }
    }
}

impl From<ExecError> for ServingError {
    fn from(e: ExecError) -> Self {
        ServingError::Exec(e)
    }
}

impl From<RelayoutError> for ServingError {
    fn from(e: RelayoutError) -> Self {
        ServingError::Relayout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_reason() {
        let err = ServingError::Overloaded {
            reason: ShedReason::RateLimit,
        };
        assert!(err.to_string().contains("rate limit"), "{err}");
        let err = ServingError::from(ExecError::Diverged(3));
        assert!(matches!(err, ServingError::Exec(_)));
    }

    #[test]
    fn reasons_map_to_distinct_tags() {
        assert_ne!(ShedReason::RateLimit.tag(), ShedReason::QueueDepth.tag());
    }
}
