//! Error type of the netlist crate.

use std::error::Error;
use std::fmt;

use crate::{NetId, PrimitiveId};

/// Errors produced while constructing or validating netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A primitive id did not refer to a primitive of this netlist.
    UnknownPrimitive(PrimitiveId),
    /// A net id did not refer to a net of this netlist.
    UnknownNet(NetId),
    /// A net was created with no sinks.
    EmptyNet,
    /// A net was created with zero bit width.
    ZeroWidthNet,
    /// An output port was used as a net driver's sink-side consumer, or an
    /// input port appeared as a sink.
    PortMisuse {
        /// The offending port primitive.
        port: PrimitiveId,
        /// Explanation of the misuse.
        reason: String,
    },
    /// Validation found a primitive that is neither driven nor driving.
    DanglingPrimitive(PrimitiveId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownPrimitive(id) => write!(f, "unknown primitive {id}"),
            NetlistError::UnknownNet(id) => write!(f, "unknown net {id}"),
            NetlistError::EmptyNet => write!(f, "net has no sinks"),
            NetlistError::ZeroWidthNet => write!(f, "net has zero bit width"),
            NetlistError::PortMisuse { port, reason } => {
                write!(f, "port {port} misused: {reason}")
            }
            NetlistError::DanglingPrimitive(id) => {
                write!(f, "primitive {id} is not connected to any net")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<NetlistError>();
    }

    #[test]
    fn display_nonempty() {
        assert!(!NetlistError::EmptyNet.to_string().is_empty());
    }
}
