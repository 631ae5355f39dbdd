//! Error type for the streaming scheduler and the multi-tenant server.

use std::error::Error;
use std::fmt;

use bbpim_cluster::ClusterError;

/// Errors produced by the streaming scheduler and the multi-tenant
/// server.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The cluster failed while resolving a query's service demand.
    Cluster(ClusterError),
    /// The workload is malformed (unsorted arrivals, out-of-range query
    /// index, negative time…).
    InvalidWorkload(String),
    /// The scheduler, serve or controller configuration is unusable
    /// (zero in-flight bound, empty window range…).
    InvalidConfig(String),
    /// A malformed tenant specification (empty query set, duplicate
    /// name…).
    InvalidTenant(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Cluster(e) => write!(f, "cluster: {e}"),
            SchedError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            SchedError::InvalidConfig(msg) => write!(f, "invalid scheduler config: {msg}"),
            SchedError::InvalidTenant(msg) => write!(f, "invalid tenant: {msg}"),
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Cluster(e) => Some(e),
            SchedError::InvalidWorkload(_)
            | SchedError::InvalidConfig(_)
            | SchedError::InvalidTenant(_) => None,
        }
    }
}

impl From<ClusterError> for SchedError {
    fn from(e: ClusterError) -> Self {
        SchedError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_core::CoreError;

    #[test]
    fn wraps_cluster_errors() {
        let e: SchedError = ClusterError::Core(CoreError::NotCalibrated).into();
        assert!(e.to_string().contains("cluster"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Error + Send + Sync>() {}
        check::<SchedError>();
    }
}
