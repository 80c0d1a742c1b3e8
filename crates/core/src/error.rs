//! Error type of the approximation flow.

use std::fmt;

/// Error raised by the high-level approximation flow.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The CGP layer rejected a seed or chromosome.
    Cgp(apx_cgp::CgpError),
    /// The WMED evaluator could not be constructed.
    Evaluator(apx_metrics::EvaluatorError),
    /// A configuration value is invalid.
    BadConfig(String),
    /// A worker-pool task panicked; the panic was captured at the task
    /// boundary and converted into this error (no poisoned locks).
    WorkerPanic {
        /// Name of the failing task (e.g. `"t3_r1"`).
        task: String,
        /// The captured panic message.
        message: String,
    },
    /// The shard orchestrator could not spawn or supervise a worker
    /// process ([`crate::orchestrate()`]). Carries the rendered OS error —
    /// `std::io::Error` is neither `Clone` nor `PartialEq`, which this
    /// enum promises.
    Orchestrate(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Cgp(e) => write!(f, "cgp error: {e}"),
            CoreError::Evaluator(e) => write!(f, "evaluator error: {e}"),
            CoreError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::WorkerPanic { task, message } => {
                write!(f, "worker for task {task} panicked: {message}")
            }
            CoreError::Orchestrate(msg) => write!(f, "orchestrator error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Cgp(e) => Some(e),
            CoreError::Evaluator(e) => Some(e),
            CoreError::BadConfig(_) | CoreError::WorkerPanic { .. } | CoreError::Orchestrate(_) => {
                None
            }
        }
    }
}

impl From<apx_cgp::CgpError> for CoreError {
    fn from(e: apx_cgp::CgpError) -> Self {
        CoreError::Cgp(e)
    }
}

impl From<apx_metrics::EvaluatorError> for CoreError {
    fn from(e: apx_metrics::EvaluatorError) -> Self {
        CoreError::Evaluator(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_source() {
        let e: CoreError = apx_cgp::CgpError::EmptyFunctionSet.into();
        assert!(e.to_string().contains("cgp"));
        assert!(e.source().is_some());
        assert!(CoreError::BadConfig("x".into()).source().is_none());
    }
}
