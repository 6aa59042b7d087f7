//! Error types of the compiler crate.

use std::error::Error;
use std::fmt;

use vital_fabric::Resources;
use vital_netlist::NetlistError;

/// Errors produced by the compilation flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The synthesis front-end rejected the application specification.
    Synthesis(NetlistError),
    /// The partition step failed (netlist too large for the allocation, or
    /// degenerate input).
    Partition(PlacerError),
    /// Local P&R could not fit a block's sub-netlist onto the physical
    /// block's sites.
    PlacementInfeasible {
        /// The virtual block that failed.
        block: u32,
        /// Explanation.
        reason: String,
    },
    /// A relocation target is incompatible with the compiled image.
    IncompatibleRelocation(String),
    /// A local P&R annealing shard panicked. The panic is caught per work
    /// item, so one poisoned block fails its compile instead of aborting
    /// the process hosting the compiler.
    PnrWorkerPanicked {
        /// The virtual block whose annealing panicked.
        block: u32,
        /// The panic payload, rendered.
        message: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            CompileError::Partition(e) => write!(f, "partition failed: {e}"),
            CompileError::PlacementInfeasible { block, reason } => {
                write!(
                    f,
                    "local P&R infeasible for virtual block {block}: {reason}"
                )
            }
            CompileError::IncompatibleRelocation(msg) => {
                write!(f, "incompatible relocation target: {msg}")
            }
            CompileError::PnrWorkerPanicked { block, message } => {
                write!(
                    f,
                    "local P&R worker panicked on virtual block {block}: {message}"
                )
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Synthesis(e) => Some(e),
            CompileError::Partition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for CompileError {
    fn from(e: NetlistError) -> Self {
        CompileError::Synthesis(e)
    }
}

impl From<PlacerError> for CompileError {
    fn from(e: PlacerError) -> Self {
        CompileError::Partition(e)
    }
}

/// Errors produced by the placement/partition pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlacerError {
    /// The netlist contains no primitives.
    EmptyNetlist,
    /// The netlist does not fit in the virtual-block grid even at full
    /// utilization.
    CapacityExceeded {
        /// Resources the netlist needs.
        required: Resources,
        /// Aggregate capacity the grid provides.
        available: Resources,
    },
}

impl fmt::Display for PlacerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacerError::EmptyNetlist => write!(f, "netlist has no primitives to place"),
            PlacerError::CapacityExceeded {
                required,
                available,
            } => write!(
                f,
                "netlist needs {required} but the grid provides only {available}"
            ),
        }
    }
}

impl Error for PlacerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_traits_and_source() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CompileError>();
        let e = CompileError::Partition(PlacerError::EmptyNetlist);
        assert!(e.source().is_some());
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn error_traits() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PlacerError>();
        assert!(!PlacerError::EmptyNetlist.to_string().is_empty());
    }
}
