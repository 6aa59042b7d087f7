//! Error type of the cluster simulator.

use std::error::Error;
use std::fmt;

use vital_fabric::BlockAddr;

use crate::RequestId;

/// Errors raised when a run's inputs are unusable or a scheduling policy
/// returns an invalid deployment. The latter indicate a policy bug, so the
/// simulator surfaces them instead of silently repairing the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The deployment referenced a request that is not pending.
    NotPending(RequestId),
    /// A deployment used a block that is busy or out of range.
    BlockUnavailable {
        /// The offending request.
        request: RequestId,
        /// The offending block.
        block: BlockAddr,
    },
    /// A deployment repeated the same block.
    DuplicateBlock {
        /// The offending request.
        request: RequestId,
        /// The repeated block.
        block: BlockAddr,
    },
    /// A deployment allocated fewer blocks than the request needs.
    InsufficientBlocks {
        /// The offending request.
        request: RequestId,
        /// Blocks allocated.
        allocated: usize,
        /// Blocks needed.
        needed: usize,
    },
    /// The requested cluster shape is unusable (for example an empty
    /// layout). Raised by [`ClusterSim::try_heterogeneous`] before any
    /// simulation runs.
    ///
    /// [`ClusterSim::try_heterogeneous`]: crate::ClusterSim::try_heterogeneous
    InvalidLayout(String),
    /// A `FaultPlan` event does not fit the simulated cluster: an FPGA or
    /// link index out of range, or a non-finite/negative timestamp. The
    /// simulator validates the whole plan before the first event fires, so
    /// a misconfigured fault scenario fails loudly instead of silently
    /// testing nothing.
    InvalidFault(String),
    /// A request's numbers are unusable: a non-finite or negative arrival
    /// time or amount of work, or a non-finite throughput or communication
    /// intensity. Requests are checked before the first event fires, so a
    /// malformed trace fails here instead of as NaN timestamps in a report.
    InvalidRequest {
        /// The offending request.
        request: RequestId,
        /// Which field, and the value it held.
        reason: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NotPending(r) => write!(f, "request {r} is not pending"),
            ClusterError::BlockUnavailable { request, block } => {
                write!(f, "deployment of {request} uses unavailable block {block}")
            }
            ClusterError::DuplicateBlock { request, block } => {
                write!(f, "deployment of {request} repeats block {block}")
            }
            ClusterError::InsufficientBlocks {
                request,
                allocated,
                needed,
            } => write!(
                f,
                "deployment of {request} allocates {allocated} blocks but {needed} are needed"
            ),
            ClusterError::InvalidLayout(reason) => {
                write!(f, "invalid cluster layout: {reason}")
            }
            ClusterError::InvalidFault(reason) => {
                write!(f, "invalid fault plan: {reason}")
            }
            ClusterError::InvalidRequest { request, reason } => {
                write!(f, "invalid request {request}: {reason}")
            }
        }
    }
}

impl Error for ClusterError {}

impl ClusterError {
    /// The stable control-plane code of this error (shared taxonomy, see
    /// [`vital_interface::ErrorCode`]). Every simulator error indicates a
    /// policy handing back an invalid deployment — [`ErrorCode::PolicyBug`]
    /// — except [`ClusterError::InvalidLayout`],
    /// [`ClusterError::InvalidFault`] and [`ClusterError::InvalidRequest`],
    /// which are problems with the run's inputs.
    ///
    /// [`ErrorCode::PolicyBug`]: vital_interface::ErrorCode::PolicyBug
    pub fn code(&self) -> vital_interface::ErrorCode {
        match self {
            ClusterError::InvalidLayout(_)
            | ClusterError::InvalidFault(_)
            | ClusterError::InvalidRequest { .. } => vital_interface::ErrorCode::InvalidConfig,
            _ => vital_interface::ErrorCode::PolicyBug,
        }
    }
}

impl From<&ClusterError> for vital_interface::ApiError {
    fn from(e: &ClusterError) -> Self {
        vital_interface::ApiError::new(e.code(), e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_traits() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ClusterError>();
        assert!(!ClusterError::NotPending(RequestId(1))
            .to_string()
            .is_empty());
    }

    #[test]
    fn errors_map_to_shared_taxonomy() {
        use vital_interface::ErrorCode;
        assert_eq!(
            ClusterError::NotPending(RequestId(1)).code(),
            ErrorCode::PolicyBug
        );
        assert_eq!(
            ClusterError::InvalidLayout("empty".into()).code(),
            ErrorCode::InvalidConfig
        );
        assert_eq!(
            ClusterError::InvalidFault("fpga 9 out of range".into()).code(),
            ErrorCode::InvalidConfig
        );
        let bad_request = ClusterError::InvalidRequest {
            request: RequestId(2),
            reason: "arrival_s is NaN".into(),
        };
        assert_eq!(bad_request.code(), ErrorCode::InvalidConfig);
        assert!(bad_request.to_string().contains("req2"), "{bad_request}");
        let api = vital_interface::ApiError::from(&ClusterError::InsufficientBlocks {
            request: RequestId(3),
            allocated: 1,
            needed: 2,
        });
        assert_eq!(api.code, ErrorCode::PolicyBug);
        assert!(api.message.contains("request3") || api.message.contains('3'));
    }
}
