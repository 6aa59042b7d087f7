//! Netlist intermediate representation and synthesis front-end model.
//!
//! ViTAL's compilation layer (paper §3.3) partitions applications at the
//! **netlist level**: a generic, language-independent IR that also gives an
//! accurate account of low-level resource usage. This crate provides
//!
//! * the netlist IR itself — primitives (LUTs/slices, flip-flops, DSP
//!   slices, BRAMs, I/O ports) connected by multi-bit nets,
//! * a dataflow-graph view with edge weights in bits, consumed by the
//!   packing/placement/partition pipeline of `vital_compiler::placer`,
//! * a synthesis front-end model (`hls` module) that lowers a coarse
//!   operator-level application specification into a primitive netlist —
//!   standing in for the commercial HLS + logic-synthesis front-end that the
//!   paper reuses from Vivado (Fig. 3b, step "parser"/"technology mapping").
//!
//! # Example
//!
//! ```
//! use vital_netlist::{Netlist, PrimitiveKind, PortDirection};
//!
//! let mut n = Netlist::new("adder");
//! let a = n.add_primitive(PrimitiveKind::io(PortDirection::Input));
//! let lut = n.add_primitive(PrimitiveKind::lut(6));
//! let q = n.add_primitive(PrimitiveKind::io(PortDirection::Output));
//! n.connect(a, [lut], 32)?;
//! n.connect(lut, [q], 32)?;
//! assert_eq!(n.resource_usage().lut, 1);
//! n.validate()?;
//! # Ok::<(), vital_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod dfg;
mod error;
pub mod hls;
mod netlist;
mod primitive;

pub use dfg::{DataflowGraph, DfgEdge};
pub use error::NetlistError;
pub use netlist::{Net, NetId, Netlist, NetlistStats};
pub use primitive::{PortDirection, Primitive, PrimitiveId, PrimitiveKind};
